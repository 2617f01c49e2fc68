//! A real allreduce for threads: generation-versioned collective group
//! with an **adaptive** reduction engine that picks a strategy per round.
//!
//! Data-parallel training synchronizes gradients with collective
//! communication; the live runtime implements it for worker *threads*.
//! The naive scheme (kept as `bench::naive::NaiveCommGroup`, the data-plane
//! benchmark's baseline) has the last arriver serially sum `world × len`
//! floats while holding the group lock, with every caller heap-copying
//! its gradient on entry — exactly the flat-reduction bottleneck the
//! paper's data plane avoids (§IV, §VI). This module replaces it with an
//! adaptive front-end that dispatches each round on `(world, len)`:
//!
//! - **flat fast path** (small messages): the last arriver reduces all
//!   contributions inline under the group lock, with the same kernel the
//!   cooperative paths run per chunk — no chunk cursor, no per-chunk
//!   atomics, no helper handoff. Below the crossover the fixed cost of
//!   publishing cooperative work exceeds the reduction itself, which is
//!   why the chunked path used to *lose* to the naive baseline at
//!   `len = 1024`.
//! - **[`chunked`] work-stealing path** (mid-range): the round's inputs
//!   are split into cache-sized chunks whose size adapts to the world
//!   size ([`adaptive_chunk_elems`]); *every blocked waiter* (plus the
//!   last arriver, plus an evicting thread if eviction completes the
//!   round) claims chunks from an atomic work-stealing cursor and
//!   reduces them **outside the group lock**.
//! - **[`hier`] two-level hierarchical path** (large worlds): workers are
//!   grouped by node/socket placement ([`CommTopology`]); the element
//!   space is sharded into one contiguous span per group, each with its
//!   own chunk cursor, so cursor traffic never crosses a socket
//!   boundary. Each group's min-id member is its *leader*: after a
//!   group's own span drains, only the leader steals from other groups'
//!   cursors (the leaders finish the tail among themselves), and the
//!   round-completion broadcast releases everyone.
//!
//! The crossovers come from [`tune`]: a one-shot startup probe on real
//! hardware, or the pinned profile under virtual time so simulations
//! stay bit-deterministic. Every published round journals its chosen
//! strategy via [`EventKind::AllreducePath`].
//!
//! All three paths produce **bit-identical** results: every output
//! element is the f32 sum of the contributions in ascending worker-id
//! order, the exact addition sequence of [`reference_sum`]. (This is why
//! the hierarchical path shards *elements* across groups rather than
//! computing per-group partial sums — f32 addition is not associative,
//! so a sum-of-group-sums could never match the flat fold bit-for-bit.)
//!
//! Zero-copy and allocation discipline are shared by all paths: a caller
//! is *blocked* inside [`CommGroup::allreduce_with`] until its round
//! publishes, so its gradient slice outlives the round by construction
//! (the group records a borrowed `SharedSlice` instead of
//! `data.to_vec()`), and result accumulators are recycled through a
//! round-buffer pool once all holders of a published sum drop their
//! `Arc` ([`CommGroup::pool_allocations`] is asserted flat in tests).
//!
//! A **generation** number changes on every communication-group
//! reconstruction (step ⑤ of an adjustment), so workers can never mix
//! rounds across memberships. Reconfiguration must happen while no
//! allreduce is in flight — Elan guarantees this by adjusting only at
//! coordination boundaries, where every worker is parked in the control
//! plane, not the data plane. Because the strategy and its group plan
//! are recomputed at every round publish from the *actual* member set,
//! an adjustment (or a mid-round eviction) re-plans the hierarchical
//! groups automatically — there is no cached plan to invalidate.

use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use std::sync::OnceLock;

use parking_lot::{Condvar, Mutex};

use elan_core::obs::{Histogram, MetricsRegistry};
use elan_core::state::WorkerId;

use crate::obs::{EventJournal, EventKind};
use crate::time::{std_to_sim, TimeSource};

pub mod chunked;
pub mod hier;
pub mod tune;

pub use chunked::{adaptive_chunk_elems, DEFAULT_CHUNK_ELEMS};
pub use hier::CommTopology;
pub use tune::TuningProfile;

use chunked::RoundWork;

/// How often a blocked allreduce caller's `on_wait` callback fires.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Minimum number of topology groups for the hierarchical path to beat
/// the single shared cursor it replaces.
const MIN_HIER_GROUPS: usize = 2;

/// The reduction strategy serving one allreduce round.
///
/// Selected per round by the adaptive dispatcher from `(world, len)` and
/// the attached [`CommTopology`]; journalled via
/// [`EventKind::AllreducePath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReducePath {
    /// Single-owner inline reduce under the lock (small messages).
    Flat,
    /// Work-stealing cooperative reduction over one shared chunk cursor.
    Chunked,
    /// Two-level reduction: element spans sharded across topology groups,
    /// each with a private cursor.
    Hier,
}

impl ReducePath {
    /// Stable `snake_case` name (used in journals and bench reports).
    pub fn name(self) -> &'static str {
        match self {
            ReducePath::Flat => "flat",
            ReducePath::Chunked => "chunked",
            ReducePath::Hier => "hier",
        }
    }
}

impl std::fmt::Display for ReducePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one allreduce call.
#[derive(Debug, Clone, PartialEq)]
pub enum AllreduceOutcome {
    /// Every member contributed; here is the element-wise sum.
    Sum {
        /// Element-wise sum across the members of the completed round.
        sum: Arc<Vec<f32>>,
        /// How many members contributed to (or were counted in) the round
        /// when it completed — captured atomically with the sum, so a
        /// concurrent eviction can never make callers divide by a stale
        /// world size.
        world: u32,
    },
    /// The caller is not a member of the current generation (it was
    /// removed by an adjustment and should leave the data plane).
    NotMember,
    /// The caller already contributed to the in-flight round. This is a
    /// protocol violation (one contribution per member per round); the
    /// duplicate is rejected rather than silently overwriting the
    /// original, in release builds too.
    DuplicateContribution,
}

/// A borrowed view of a blocked contributor's gradient slice.
///
/// # Safety contract
///
/// A `SharedSlice` is only ever read between the moment its round's
/// reduction is published (all contributions present, under the group
/// lock) and the moment the round's result is published. The contributing
/// thread is blocked inside `allreduce_with` for that entire window — it
/// cannot return (and thus cannot invalidate the slice) until
/// `result_round` reaches its round, which happens strictly *after* the
/// final chunk reduction completes. Eviction removes a contribution only
/// under the group lock and only before the round's reduction starts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedSlice {
    ptr: *const f32,
    len: usize,
}

// SAFETY: the raw pointer is only dereferenced under the lifecycle
// contract documented on `SharedSlice` (the owner is parked for the whole
// read window), and f32 data is Plain Old Data.
unsafe impl Send for SharedSlice {}
unsafe impl Sync for SharedSlice {}

impl SharedSlice {
    fn new(data: &[f32]) -> Self {
        SharedSlice {
            ptr: data.as_ptr(),
            len: data.len(),
        }
    }

    /// # Safety
    ///
    /// Caller must uphold the `SharedSlice` lifecycle contract: the
    /// owning contributor is still parked in its allreduce call.
    pub(crate) unsafe fn slice(&self) -> &[f32] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// Lock-free work-stealing state of the in-flight cooperative reduction.
///
/// All fields are (re)written under the group lock by `publish_round`
/// *before* `cursor` is reset with `Release` ordering; helpers claim
/// chunks with an `AcqRel` `fetch_add` on `cursor` (or on a group-local
/// cursor inside `work`), which synchronizes-with the reset. Helpers
/// additionally observed `reducing == Some(round)` **under the group
/// lock** before touching the slots, so every unsynchronized field here
/// happens-after the publishing writes.
struct ReduceSlots {
    /// The active round's contributions, sorted by worker id.
    inputs: UnsafeCell<Vec<SharedSlice>>,
    /// Base pointer of the pooled output accumulator.
    out: AtomicPtr<f32>,
    /// The active round's work plan (chunked cursor plan or hierarchical
    /// group spans). Rebuilt at every publish from the actual members.
    work: UnsafeCell<Option<RoundWork>>,
    /// Next chunk index to claim on the chunked path (work-stealing
    /// cursor); doubles as the publishing `Release` fence for both paths.
    cursor: AtomicUsize,
    /// Chunks fully reduced so far (across all groups on the hier path).
    done: AtomicUsize,
}

// SAFETY: `inputs` and `work` are written only under the group lock while
// no helper can hold a claimed chunk (a new round cannot be published
// until the previous round's chunks are all done), and read only by
// helpers that observed the published round under the group lock.
unsafe impl Send for ReduceSlots {}
unsafe impl Sync for ReduceSlots {}

/// How the group chooses a reduction strategy.
enum PathPolicy {
    /// `with_chunk_elems` compatibility mode: always the chunked engine
    /// with a fixed chunk size (tests pin exact chunk geometries).
    FixedChunk { chunk_elems: usize },
    /// Per-round dispatch on `(world, len)` with the given crossovers and
    /// optional topology for the hierarchical path.
    Adaptive {
        profile: TuningProfile,
        topology: Option<CommTopology>,
    },
}

/// Per-path round-latency histograms (attached by the runtime).
struct PathMetrics {
    flat: Histogram,
    chunked: Histogram,
    hier: Histogram,
}

impl PathMetrics {
    fn for_path(&self, path: ReducePath) -> &Histogram {
        match path {
            ReducePath::Flat => &self.flat,
            ReducePath::Chunked => &self.chunked,
            ReducePath::Hier => &self.hier,
        }
    }
}

#[derive(Debug)]
struct GroupState {
    generation: u64,
    members: BTreeSet<WorkerId>,
    round: u64,
    /// Per-member borrowed contributions of the open round, sorted by
    /// worker id (sorted insertion), so the reduction consumes them in
    /// worker-id order and the f32 sum is bit-deterministic regardless of
    /// thread arrival order. Cleared (capacity retained) when the round's
    /// reduction is published.
    contributions: Vec<(WorkerId, SharedSlice)>,
    /// `Some(round)` while that round's cooperative reduction is in
    /// flight (published but not yet finished). Never set by the flat
    /// path, which completes inline.
    reducing: Option<u64>,
    /// World size captured when the in-flight round was published.
    reducing_world: u32,
    /// Strategy serving the in-flight round.
    reducing_path: ReducePath,
    /// Journal timestamp (µs) when the in-flight round published; drives
    /// the per-path latency histograms.
    reducing_since_us: u64,
    /// The accumulator being reduced into — uniquely owned here (plus the
    /// raw pointer in the slots) until the round finishes.
    out_buf: Option<Arc<Vec<f32>>>,
    /// Recycled accumulator buffers. An entry is reusable once its strong
    /// count returns to 1 (every consumer of that round's sum dropped its
    /// handle and the result pointer moved on).
    pool: Vec<Arc<Vec<f32>>>,
    /// Fresh `O(len)` buffer allocations performed — flat after warm-up.
    pool_fresh: u64,
    /// Result of the last completed round.
    result: Arc<Vec<f32>>,
    result_round: u64,
    /// World size captured when the last round completed.
    result_world: u32,
}

/// A dynamic-membership allreduce group.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use elan_core::state::WorkerId;
/// use elan_rt::CommGroup;
///
/// let group = Arc::new(CommGroup::new([WorkerId(0), WorkerId(1)], 4));
/// let g2 = Arc::clone(&group);
/// let t = std::thread::spawn(move || g2.allreduce(WorkerId(1), &[1.0; 4]));
/// let a = group.allreduce(WorkerId(0), &[2.0; 4]);
/// let b = t.join().unwrap();
/// assert_eq!(a, b);
/// ```
pub struct CommGroup {
    state: Mutex<GroupState>,
    cvar: Condvar,
    slots: ReduceSlots,
    /// Vector length every contribution and result must have.
    len: usize,
    policy: PathPolicy,
    /// Set once by the runtime builder; rounds/evictions/reconfigurations
    /// emit journal events when present.
    journal: OnceLock<Arc<EventJournal>>,
    /// Set once by the runtime builder. Under a virtual [`TimeSource`]
    /// blocked callers park on the clock (deterministic, zero wall time)
    /// instead of on the condvar.
    time: OnceLock<TimeSource>,
    /// Set once by the runtime builder: per-path latency histograms.
    metrics: OnceLock<PathMetrics>,
}

impl std::fmt::Debug for CommGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CommGroup")
            .field("generation", &st.generation)
            .field("members", &st.members)
            .field("round", &st.round)
            .field("len", &self.len)
            .finish()
    }
}

impl CommGroup {
    /// Creates an adaptive group over `members` reducing vectors of `len`
    /// elements, using the pinned tuning profile and no topology (the
    /// hierarchical path stays off until a [`CommTopology`] is supplied
    /// via [`CommGroup::with_tuning`]).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `len` is zero.
    pub fn new(members: impl IntoIterator<Item = WorkerId>, len: usize) -> Self {
        Self::with_tuning(members, len, TuningProfile::pinned(), None)
    }

    /// Creates an adaptive group with explicit crossovers and an optional
    /// topology enabling the hierarchical path. This is the runtime's
    /// constructor: it passes the probed (or pinned, under virtual time)
    /// [`TuningProfile`] and the builder's [`CommTopology`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `len` is zero.
    pub fn with_tuning(
        members: impl IntoIterator<Item = WorkerId>,
        len: usize,
        profile: TuningProfile,
        topology: Option<CommTopology>,
    ) -> Self {
        Self::with_policy(members, len, PathPolicy::Adaptive { profile, topology })
    }

    /// Creates a group pinned to the chunked engine with an explicit
    /// chunk size (elements). Adaptive dispatch is disabled: every round
    /// runs the work-stealing path with this exact chunk geometry, which
    /// is what determinism tests and benchmarks pin against.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `len` or `chunk_elems` is zero.
    pub fn with_chunk_elems(
        members: impl IntoIterator<Item = WorkerId>,
        len: usize,
        chunk_elems: usize,
    ) -> Self {
        assert!(chunk_elems > 0, "chunk size must be non-zero");
        Self::with_policy(members, len, PathPolicy::FixedChunk { chunk_elems })
    }

    fn with_policy(
        members: impl IntoIterator<Item = WorkerId>,
        len: usize,
        policy: PathPolicy,
    ) -> Self {
        let members: BTreeSet<WorkerId> = members.into_iter().collect();
        assert!(!members.is_empty(), "group needs at least one member");
        assert!(len > 0, "vectors must be non-empty");
        CommGroup {
            state: Mutex::new(GroupState {
                generation: 0,
                members,
                round: 0,
                contributions: Vec::new(),
                reducing: None,
                reducing_world: 0,
                reducing_path: ReducePath::Flat,
                reducing_since_us: 0,
                out_buf: None,
                pool: Vec::new(),
                pool_fresh: 0,
                result: Arc::new(vec![0.0; len]),
                result_round: u64::MAX,
                result_world: 0,
            }),
            cvar: Condvar::new(),
            slots: ReduceSlots {
                inputs: UnsafeCell::new(Vec::new()),
                out: AtomicPtr::new(std::ptr::null_mut()),
                work: UnsafeCell::new(None),
                cursor: AtomicUsize::new(usize::MAX),
                done: AtomicUsize::new(0),
            },
            len,
            policy,
            journal: OnceLock::new(),
            time: OnceLock::new(),
            metrics: OnceLock::new(),
        }
    }

    /// Attaches the runtime's event journal (one-shot; later calls are
    /// ignored). Rounds, evictions, and reconfigurations then emit
    /// [`EventKind::AllreduceRound`]-family events, and every publish
    /// journals its strategy via [`EventKind::AllreducePath`].
    pub fn set_journal(&self, journal: Arc<EventJournal>) {
        let _ = self.journal.set(journal);
    }

    /// Attaches the runtime's clock (one-shot; later calls are ignored).
    /// Required for deterministic simulation: virtual-time callers must
    /// park on the clock so the scheduler can account for them.
    pub fn set_time(&self, time: TimeSource) {
        let _ = self.time.set(time);
    }

    /// Attaches per-path round-latency histograms from the runtime's
    /// metrics registry (one-shot; later calls are ignored). Rounds then
    /// record `allreduce.<path>.round_us`.
    pub fn set_metrics(&self, registry: &MetricsRegistry) {
        let _ = self.metrics.set(PathMetrics {
            flat: registry.histogram("allreduce.flat.round_us"),
            chunked: registry.histogram("allreduce.chunked.round_us"),
            hier: registry.histogram("allreduce.hier.round_us"),
        });
    }

    /// The attached virtual clock, if any (`None` in real time — the
    /// condvar path needs no clock).
    fn virtual_time(&self) -> Option<&TimeSource> {
        self.time.get().filter(|t| t.is_virtual())
    }

    /// Wakes parked virtual-time callers after publishing state they may
    /// be waiting on (pairs every `cvar.notify_all`).
    fn wake_virtual(&self) {
        if let Some(t) = self.virtual_time() {
            t.wake_all();
        }
    }

    /// Test-only: blocks on the condvar (no sleep-polling) until the open
    /// round holds at least `n` contributions. Contribution inserts notify
    /// the condvar, so this returns as soon as the `n`-th one lands.
    #[cfg(test)]
    fn wait_for_contributions(&self, n: usize) {
        let mut st = self.state.lock();
        while st.contributions.len() < n {
            self.cvar.wait(&mut st);
        }
    }

    /// Current generation (bumps on every reconfiguration).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Current members.
    pub fn members(&self) -> Vec<WorkerId> {
        self.state.lock().members.iter().copied().collect()
    }

    /// World size of the current generation.
    pub fn world_size(&self) -> u32 {
        self.state.lock().members.len() as u32
    }

    /// Number of contributions parked in the open round (diagnostic —
    /// the value is stale the moment the lock drops).
    pub fn pending_contributions(&self) -> usize {
        self.state.lock().contributions.len()
    }

    /// The reduction chunk size (elements) a full-membership round would
    /// use on the chunked path: the fixed size for
    /// [`CommGroup::with_chunk_elems`] groups, else the world-coupled
    /// [`adaptive_chunk_elems`] derivation.
    pub fn chunk_elems(&self) -> usize {
        match &self.policy {
            PathPolicy::FixedChunk { chunk_elems } => *chunk_elems,
            PathPolicy::Adaptive { .. } => adaptive_chunk_elems(self.len, self.world_size()),
        }
    }

    /// The strategy the dispatcher would select for a full-membership
    /// round right now (the actual choice is re-made at every round
    /// publish from the members present).
    pub fn planned_path(&self) -> ReducePath {
        let st = self.state.lock();
        self.select_path(st.members.len() as u32, &st.members)
    }

    /// Fresh `O(len)` accumulator allocations performed so far. Flat
    /// after warm-up: the steady-state hot path recycles pooled buffers
    /// instead of allocating per round.
    pub fn pool_allocations(&self) -> u64 {
        self.state.lock().pool_fresh
    }

    /// Per-round dispatch: flat below the length crossover, hierarchical
    /// for large worlds with enough topology groups, chunked otherwise.
    fn select_path(&self, world: u32, members: &BTreeSet<WorkerId>) -> ReducePath {
        match &self.policy {
            PathPolicy::FixedChunk { .. } => ReducePath::Chunked,
            PathPolicy::Adaptive { profile, topology } => {
                if world <= 1 || self.len <= profile.flat_max_len {
                    ReducePath::Flat
                } else if world >= profile.hier_min_world {
                    match topology {
                        Some(t)
                            if hier::domain_count(t, members.iter().copied())
                                >= MIN_HIER_GROUPS =>
                        {
                            ReducePath::Hier
                        }
                        _ => ReducePath::Chunked,
                    }
                } else {
                    ReducePath::Chunked
                }
            }
        }
    }

    /// Contributes `data` to the current round and blocks until every
    /// member has contributed; returns the element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the group's vector length.
    pub fn allreduce(&self, worker: WorkerId, data: &[f32]) -> AllreduceOutcome {
        self.allreduce_with(worker, data, || {})
    }

    /// Like [`allreduce`](CommGroup::allreduce), but invokes `on_wait`
    /// (with the group lock released) roughly every 50 ms while blocked
    /// waiting for slower members.
    ///
    /// This is how live workers keep heartbeating the application master
    /// from inside the data plane: without it, one dead member would make
    /// every survivor fall silent too, and the failure detector could not
    /// tell the victim from the hostages.
    ///
    /// While blocked, the caller also *works*: once the round's inputs
    /// are complete, every parked caller claims reduction chunks from the
    /// shared (or, on the hierarchical path, its own group's) cursor
    /// instead of idling on the condvar.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the group's vector length.
    pub fn allreduce_with(
        &self,
        worker: WorkerId,
        data: &[f32],
        mut on_wait: impl FnMut(),
    ) -> AllreduceOutcome {
        let mut st = self.state.lock();
        if !st.members.contains(&worker) {
            return AllreduceOutcome::NotMember;
        }
        assert_eq!(self.len, data.len(), "vector length mismatch");
        match st.contributions.binary_search_by_key(&worker, |(w, _)| *w) {
            Ok(_) => return AllreduceOutcome::DuplicateContribution,
            Err(pos) => st
                .contributions
                .insert(pos, (worker, SharedSlice::new(data))),
        }
        let my_round = st.round;
        // Announce the contribution to the test-only partial-round
        // watchers (`wait_for_contributions`). Production waiters only
        // care about publish/finish, and waking `world` parked threads
        // per contribution is an O(world²) context-switch storm per
        // round — measurably sinking the flat path at world ≥ 8 — so
        // the notify stays out of non-test builds.
        #[cfg(test)]
        self.cvar.notify_all();

        if st.contributions.len() == st.members.len() {
            // Last arriver: publish the reduction (the flat path completes
            // it right here; the others hand work to the helpers below).
            self.publish_round(&mut st);
        }
        // Wait for the round to publish its result, helping with the
        // reduction when it is in flight and surfacing periodic wait
        // ticks otherwise.
        let mut helped = false;
        while st.result_round != my_round {
            if !helped && st.reducing == Some(my_round) {
                drop(st);
                self.help_reduce(Some(worker));
                helped = true;
                st = self.state.lock();
                continue;
            }
            match self.virtual_time() {
                Some(time) => {
                    // Virtual time: park on the clock (releasing the group
                    // lock) so the scheduler knows this thread is blocked;
                    // a round completion wakes us early via `wake_virtual`,
                    // otherwise the wait-slice deadline fires `on_wait`.
                    let deadline = time.now() + std_to_sim(WAIT_SLICE);
                    drop(st);
                    time.park_until(deadline);
                    on_wait();
                    st = self.state.lock();
                }
                None => {
                    if self.cvar.wait_for(&mut st, WAIT_SLICE).timed_out() {
                        drop(st);
                        on_wait();
                        st = self.state.lock();
                    }
                }
            }
        }
        AllreduceOutcome::Sum {
            sum: Arc::clone(&st.result),
            world: st.result_world,
        }
    }

    /// Acquires an output accumulator: recycles a pooled buffer whose
    /// previous consumers have all dropped their handles, else allocates.
    /// Returns the buffer and its (uniquely owned) base pointer.
    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (CommGroup::acquire_accumulator)
    fn acquire_accumulator(&self, st: &mut GroupState) -> (Arc<Vec<f32>>, *mut f32) {
        let mut buf = match st.pool.iter().position(|b| Arc::strong_count(b) == 1) {
            Some(i) => st.pool.swap_remove(i),
            None => {
                st.pool_fresh += 1;
                Arc::new(vec![0.0f32; self.len])
            }
        };
        let ptr = Arc::get_mut(&mut buf)
            .expect("pooled buffer uniquely owned")
            .as_mut_ptr();
        (buf, ptr)
    }

    /// Closes the open round: selects a strategy for the contributors
    /// actually present and either completes the reduction inline (flat)
    /// or transitions into the cooperative-reduction phase (chunked /
    /// hierarchical). Must be called with the lock held and a complete
    /// contribution set.
    fn publish_round(&self, st: &mut GroupState) {
        debug_assert!(st.reducing.is_none(), "previous reduction still active");
        debug_assert!(!st.contributions.is_empty());
        let world = st.members.len() as u32;
        let round = st.round;
        let path = self.select_path(world, &st.members);
        let now_us = self.journal.get().map(|j| j.now_us()).unwrap_or(0);

        if path == ReducePath::Flat {
            // Flat fast path: reduce inline under the lock. No cursor, no
            // round-buffer handoff, no per-chunk atomics — the entire
            // round completes before the lock drops.
            let (buf, out_ptr) = self.acquire_accumulator(st);
            self.stage_inputs(st);
            // SAFETY: `buf` is uniquely owned (checked by
            // `acquire_accumulator`) and spans `self.len` elements; we
            // hold the group lock and publish no work, so no helper reads
            // or writes the slots; `stage_inputs` just staged the
            // non-empty, `self.len`-long contributions, borrowed slices
            // of contributors parked for the whole round (see
            // `SharedSlice`).
            unsafe {
                chunked::reduce_range(&*self.slots.inputs.get(), out_ptr, 0..self.len);
            }
            if let Some(journal) = self.journal.get() {
                journal.emit(EventKind::AllreducePath {
                    round,
                    path,
                    world,
                    groups: 1,
                });
            }
            if let Some(m) = self.metrics.get() {
                let elapsed = self
                    .journal
                    .get()
                    .map(|j| j.now_us().saturating_sub(now_us))
                    .unwrap_or(0);
                m.for_path(path).record(elapsed);
            }
            self.install_result(st, buf, round, world);
            return;
        }

        // Cooperative paths: build this round's work plan from the
        // contributors actually present (membership may have shrunk since
        // the last round — the plan, including hierarchical groups, is
        // re-derived every time).
        let (work, path) = match path {
            ReducePath::Hier => {
                let workers: Vec<WorkerId> = st.contributions.iter().map(|(w, _)| *w).collect();
                let topology = match &self.policy {
                    PathPolicy::Adaptive {
                        topology: Some(t), ..
                    } => t,
                    // select_path only returns Hier with a topology.
                    _ => unreachable!("hier path selected without a topology"),
                };
                let groups = hier::plan_groups(topology, &workers, self.len);
                if groups.len() >= MIN_HIER_GROUPS {
                    (RoundWork::hier(groups), ReducePath::Hier)
                } else {
                    // Tiny vectors can collapse every span into one group;
                    // a single cursor is then strictly better.
                    (self.chunked_work(world), ReducePath::Chunked)
                }
            }
            _ => (self.chunked_work(world), ReducePath::Chunked),
        };
        let n_chunks = work.n_chunks();
        let groups = work.n_groups() as u32;

        let (buf, out_ptr) = self.acquire_accumulator(st);
        self.stage_inputs(st);
        // SAFETY: as in `stage_inputs`, no helper holds a claimed chunk,
        // so we have exclusive access to `work` under the lock.
        unsafe {
            *self.slots.work.get() = Some(work);
        }
        self.slots.out.store(out_ptr, Ordering::Relaxed);
        self.slots.done.store(0, Ordering::Relaxed);
        // The Release reset publishes `inputs`/`work`/`out`/`done` to
        // every helper whose claiming fetch_add observes it.
        self.slots.cursor.store(
            if n_chunks == 0 { usize::MAX } else { 0 },
            Ordering::Release,
        );
        st.out_buf = Some(buf);
        st.reducing = Some(round);
        st.reducing_world = world;
        st.reducing_path = path;
        st.reducing_since_us = now_us;
        if let Some(journal) = self.journal.get() {
            journal.emit(EventKind::AllreducePath {
                round,
                path,
                world,
                groups,
            });
        }
        // Wake parked waiters so they become reduction helpers.
        self.cvar.notify_all();
        self.wake_virtual();
    }

    /// Moves the round's contributions (sorted by worker id) into
    /// `slots.inputs`, the input list of the reduce kernel on every path.
    /// Lock held, before the round's work is published.
    fn stage_inputs(&self, st: &mut GroupState) {
        // SAFETY: no helper holds a claimed chunk (the previous round's
        // chunks were all done before its result published, and a new
        // round cannot publish before the previous result does), so we
        // have exclusive access to `inputs` under the lock.
        let inputs = unsafe { &mut *self.slots.inputs.get() };
        inputs.clear();
        inputs.extend(st.contributions.drain(..).map(|(_, s)| s));
    }

    /// The chunked path's work plan for a `world`-member round.
    fn chunked_work(&self, world: u32) -> RoundWork {
        let chunk = match &self.policy {
            PathPolicy::FixedChunk { chunk_elems } => *chunk_elems,
            PathPolicy::Adaptive { .. } => adaptive_chunk_elems(self.len, world),
        };
        RoundWork::chunked(self.len, chunk)
    }

    /// Claims and reduces chunks until every cursor this thread may drain
    /// is exhausted. The thread that completes the final chunk publishes
    /// the result. `me` is the helping contributor (if any): on the
    /// hierarchical path it drains its own group's span first and then
    /// steals cross-group only if it is the group's leader; an anonymous
    /// helper (an evicting thread) sweeps every group.
    fn help_reduce(&self, me: Option<WorkerId>) {
        // SAFETY: callers observed `reducing == Some(round)` under the
        // group lock (or published the round themselves), which
        // happens-after `publish_round`'s writes to the slots.
        let work = unsafe { &*self.slots.work.get() };
        let Some(work) = work else { return };
        match work {
            RoundWork::Chunked { plan } => {
                let n_chunks = plan.n_chunks();
                loop {
                    let c = self.slots.cursor.fetch_add(1, Ordering::AcqRel);
                    if c >= n_chunks {
                        return;
                    }
                    // SAFETY: chunk `c` was claimed by exactly this thread
                    // (the fetch_add is a unique ticket), so the output
                    // range is written by one thread only; the inputs are
                    // borrowed slices of contributors parked for the whole
                    // round (see `SharedSlice`).
                    unsafe {
                        chunked::reduce_range(
                            &*self.slots.inputs.get(),
                            self.slots.out.load(Ordering::Relaxed),
                            plan.range(c),
                        );
                    }
                    if self.slots.done.fetch_add(1, Ordering::AcqRel) + 1 == n_chunks {
                        self.finish_round();
                        return;
                    }
                }
            }
            RoundWork::Hier { groups, n_chunks } => {
                self.drain_hier(me, groups, *n_chunks);
            }
        }
    }

    /// The hierarchical drain: own group's span first; then, for group
    /// leaders (min-id member) and anonymous helpers, a cross-group sweep
    /// so the tail cannot starve even if other groups' members are all
    /// momentarily outside the lock in `on_wait` callbacks.
    fn drain_hier(&self, me: Option<WorkerId>, groups: &[hier::GroupWork], n_chunks: usize) {
        let own = me.and_then(|w| groups.iter().position(|g| g.has_member(w)));
        let is_leader = match (me, own) {
            (Some(w), Some(i)) => groups[i].leader() == w,
            // Anonymous helpers and members whose span collapsed to
            // nothing sweep everything.
            _ => true,
        };
        let start = own.unwrap_or(0);
        for i in 0..groups.len() {
            let g = &groups[(start + i) % groups.len()];
            let group_chunks = g.plan.n_chunks();
            loop {
                let c = g.cursor.fetch_add(1, Ordering::AcqRel);
                if c >= group_chunks {
                    break;
                }
                let local = g.plan.range(c);
                let range = (g.span_start + local.start)..(g.span_start + local.end);
                // SAFETY: chunk `c` of this group was claimed by exactly
                // this thread (unique ticket); the global range is disjoint
                // across groups (contiguous spans) and across chunks within
                // a group, so each output element is written once.
                unsafe {
                    chunked::reduce_range(
                        &*self.slots.inputs.get(),
                        self.slots.out.load(Ordering::Relaxed),
                        range,
                    );
                }
                if self.slots.done.fetch_add(1, Ordering::AcqRel) + 1 == n_chunks {
                    self.finish_round();
                    return;
                }
            }
            if !is_leader {
                // Non-leaders stop after their own span: the leaders
                // finish the tail among themselves (less cursor traffic),
                // and the round-completion broadcast releases everyone.
                return;
            }
        }
    }

    /// Publishes the finished accumulator as the round result and opens
    /// the next round. Called by whichever helper reduced the last chunk.
    #[allow(clippy::expect_used)] // waived: see verify-allow.toml (CommGroup::finish_round)
    fn finish_round(&self) {
        let mut st = self.state.lock();
        let buf = st.out_buf.take().expect("reducing buffer present");
        let round = st.reducing.take().expect("round was reducing");
        let world = st.reducing_world;
        if let (Some(m), Some(j)) = (self.metrics.get(), self.journal.get()) {
            m.for_path(st.reducing_path)
                .record(j.now_us().saturating_sub(st.reducing_since_us));
        }
        self.install_result(&mut st, buf, round, world);
    }

    /// Installs a completed round's accumulator as the published result,
    /// keeps a pool handle for recycling, journals the round, and wakes
    /// every waiter. Lock held.
    fn install_result(&self, st: &mut GroupState, buf: Arc<Vec<f32>>, round: u64, world: u32) {
        // Keep a pool handle so the buffer is recycled once every
        // consumer of this sum drops its Arc.
        st.pool.push(Arc::clone(&buf));
        st.result = buf;
        st.result_round = round;
        st.result_world = world;
        st.round = round + 1;
        if let Some(journal) = self.journal.get() {
            journal.emit(EventKind::AllreduceRound { round, world });
        }
        self.cvar.notify_all();
        self.wake_virtual();
    }

    /// Removes a (presumed dead) member mid-generation, discarding any
    /// contribution it made to the in-flight round; returns whether it was
    /// a member.
    ///
    /// If the victim was the only member the round was still waiting for,
    /// eviction completes the round on the spot, releasing the surviving
    /// members with a sum over the survivors — [`AllreduceOutcome::Sum`]
    /// carries the shrunken `world` so their averages stay correct. The
    /// round's strategy (and, on the hierarchical path, its group plan)
    /// is selected at this publish from the *surviving* contributors, so
    /// a membership change mid-round re-plans automatically. This is the
    /// data-plane half of failure-driven scale-in: the control plane
    /// evicts first so nobody blocks, then reconfigures the group at the
    /// next boundary. The evicting thread itself helps reduce, so the
    /// round is guaranteed to complete even if every survivor is
    /// momentarily outside the lock in its `on_wait` callback.
    pub fn evict(&self, worker: WorkerId) -> bool {
        let mut st = self.state.lock();
        let was_member = st.members.remove(&worker);
        if was_member {
            if let Some(journal) = self.journal.get() {
                journal.emit(EventKind::WorkerEvicted { worker });
            }
        }
        if let Ok(pos) = st.contributions.binary_search_by_key(&worker, |(w, _)| *w) {
            st.contributions.remove(pos);
        }
        if was_member
            && !st.members.is_empty()
            && st.reducing.is_none()
            && !st.contributions.is_empty()
            && st.contributions.len() == st.members.len()
        {
            self.publish_round(&mut st);
            // The flat path completes inline; only a cooperative
            // publication needs the evictor's help.
            let published = st.reducing.is_some();
            drop(st);
            if published {
                self.help_reduce(None);
            }
        }
        was_member
    }

    /// Reconstructs the communication group (step ⑤): replaces the member
    /// set and bumps the generation. Must not race an in-flight round.
    /// Hierarchical group plans need no explicit invalidation — they are
    /// re-derived from the member set at every round publish.
    ///
    /// # Panics
    ///
    /// Panics if called while contributions are pending or a reduction is
    /// in flight, or with an empty member set.
    pub fn reconfigure(&self, members: impl IntoIterator<Item = WorkerId>) -> u64 {
        let mut st = self.state.lock();
        assert!(
            st.contributions.is_empty() && st.reducing.is_none(),
            "reconfigure raced an in-flight allreduce round"
        );
        let members: BTreeSet<WorkerId> = members.into_iter().collect();
        assert!(!members.is_empty(), "group needs at least one member");
        st.members = members;
        st.generation += 1;
        if let Some(journal) = self.journal.get() {
            journal.emit(EventKind::CommReconfigured {
                generation: st.generation,
                world: st.members.len() as u32,
            });
        }
        st.generation
    }
}

/// The bit-exact reference reduction: element-wise sum of `inputs` in the
/// order given (callers pass contributions sorted by worker id). Every
/// output element sees the additions `((in₀ + in₁) + in₂) + …` — the
/// sequence every [`CommGroup`] path reproduces chunk-by-chunk.
///
/// # Panics
///
/// Panics if `inputs` is empty or lengths differ.
#[allow(clippy::expect_used)] // waived: see verify-allow.toml (reference_sum)
pub fn reference_sum<S: AsRef<[f32]>>(inputs: &[S]) -> Vec<f32> {
    let first = inputs.first().expect("at least one input").as_ref();
    let mut sum = first.to_vec();
    for inp in &inputs[1..] {
        let inp = inp.as_ref();
        assert_eq!(inp.len(), sum.len(), "input length mismatch");
        for (a, &d) in sum.iter_mut().zip(inp) {
            *a += d;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan_topology::{ClusterSpec, Placement};
    use std::thread;

    fn spawn_allreduce(
        group: &Arc<CommGroup>,
        worker: WorkerId,
        data: Vec<f32>,
    ) -> thread::JoinHandle<AllreduceOutcome> {
        let g = Arc::clone(group);
        thread::spawn(move || g.allreduce(worker, &data))
    }

    /// An 8-GPUs-per-node, 4-per-socket test cluster (4 nodes).
    fn test_topology() -> CommTopology {
        CommTopology::new(Placement::linear(ClusterSpec::new(4, 2, 2, 2).build()))
    }

    #[test]
    fn sums_across_members() {
        let group = Arc::new(CommGroup::new((0..4).map(WorkerId), 8));
        let handles: Vec<_> = (0..4)
            .map(|i| spawn_allreduce(&group, WorkerId(i), vec![i as f32; 8]))
            .collect();
        for h in handles {
            match h.join().unwrap() {
                AllreduceOutcome::Sum { sum, world } => {
                    assert!(sum.iter().all(|&v| v == 6.0));
                    assert_eq!(world, 4);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn consecutive_rounds_do_not_mix() {
        let group = Arc::new(CommGroup::new([WorkerId(0), WorkerId(1)], 2));
        for round in 0..10 {
            let h = spawn_allreduce(&group, WorkerId(1), vec![round as f32; 2]);
            let a = group.allreduce(WorkerId(0), &[1.0; 2]);
            let b = h.join().unwrap();
            assert_eq!(a, b);
            match a {
                AllreduceOutcome::Sum { sum, .. } => assert_eq!(sum[0], round as f32 + 1.0),
                _ => panic!("not a sum"),
            }
        }
    }

    #[test]
    fn non_member_is_told_to_leave() {
        let group = CommGroup::new([WorkerId(0)], 2);
        assert_eq!(
            group.allreduce(WorkerId(9), &[0.0; 2]),
            AllreduceOutcome::NotMember
        );
    }

    #[test]
    fn duplicate_contribution_is_rejected_not_overwritten() {
        // Worker 0 contributes and blocks in a background thread; a bogus
        // second contribution from worker 0 must be rejected as an error,
        // and the round must still complete with the *original* data.
        let group = Arc::new(CommGroup::new([WorkerId(0), WorkerId(1)], 4));
        let h = spawn_allreduce(&group, WorkerId(0), vec![5.0; 4]);
        // Wait for the first contribution to land (condvar, no polling).
        group.wait_for_contributions(1);
        assert_eq!(
            group.allreduce(WorkerId(0), &[99.0; 4]),
            AllreduceOutcome::DuplicateContribution
        );
        // The round completes with the original value, not the duplicate.
        match group.allreduce(WorkerId(1), &[1.0; 4]) {
            AllreduceOutcome::Sum { sum, world } => {
                assert!(sum.iter().all(|&v| v == 6.0));
                assert_eq!(world, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn reconfigure_bumps_generation_and_membership() {
        let group = CommGroup::new([WorkerId(0), WorkerId(1)], 2);
        assert_eq!(group.generation(), 0);
        let g = group.reconfigure((0..4).map(WorkerId));
        assert_eq!(g, 1);
        assert_eq!(group.world_size(), 4);
    }

    #[test]
    fn allreduce_works_after_scale_out() {
        let group = Arc::new(CommGroup::new([WorkerId(0), WorkerId(1)], 4));
        // Round with 2 members.
        let h = spawn_allreduce(&group, WorkerId(1), vec![1.0; 4]);
        group.allreduce(WorkerId(0), &[1.0; 4]);
        h.join().unwrap();
        // Scale out to 3 and reduce again.
        group.reconfigure((0..3).map(WorkerId));
        let h1 = spawn_allreduce(&group, WorkerId(1), vec![1.0; 4]);
        let h2 = spawn_allreduce(&group, WorkerId(2), vec![1.0; 4]);
        let a = group.allreduce(WorkerId(0), &[1.0; 4]);
        match a {
            AllreduceOutcome::Sum { sum, world } => {
                assert_eq!(sum[0], 3.0);
                assert_eq!(world, 3);
            }
            _ => panic!("not a sum"),
        }
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn evict_unblocks_a_waiting_round() {
        // Three members; only two contribute; the third is evicted. The
        // eviction must complete the round with world == 2.
        let group = Arc::new(CommGroup::new((0..3).map(WorkerId), 4));
        let h0 = spawn_allreduce(&group, WorkerId(0), vec![1.0; 4]);
        let h1 = spawn_allreduce(&group, WorkerId(1), vec![2.0; 4]);
        // Both contributions must land before the eviction (condvar wait).
        group.wait_for_contributions(2);
        assert!(group.evict(WorkerId(2)));
        for h in [h0, h1] {
            match h.join().unwrap() {
                AllreduceOutcome::Sum { sum, world } => {
                    assert_eq!(sum[0], 3.0);
                    assert_eq!(world, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(group.world_size(), 2);
    }

    #[test]
    fn evict_unblocks_a_waiting_cooperative_round() {
        // Same as above but forced onto the chunked engine, so the
        // eviction publishes cooperative work and must help drain it.
        let group = Arc::new(CommGroup::with_chunk_elems((0..3).map(WorkerId), 64, 8));
        let h0 = spawn_allreduce(&group, WorkerId(0), vec![1.0; 64]);
        let h1 = spawn_allreduce(&group, WorkerId(1), vec![2.0; 64]);
        group.wait_for_contributions(2);
        assert!(group.evict(WorkerId(2)));
        for h in [h0, h1] {
            match h.join().unwrap() {
                AllreduceOutcome::Sum { sum, world } => {
                    assert_eq!(sum[0], 3.0);
                    assert_eq!(world, 2);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn evict_non_member_is_a_noop() {
        let group = CommGroup::new([WorkerId(0)], 2);
        assert!(!group.evict(WorkerId(9)));
        assert_eq!(group.world_size(), 1);
    }

    #[test]
    fn on_wait_fires_while_blocked() {
        // The blocked caller signals each wait tick through a channel; the
        // test blocks on the channel (no sleeps) until at least one tick
        // has provably fired, then completes the round.
        let group = Arc::new(CommGroup::new([WorkerId(0), WorkerId(1)], 2));
        let (tx, rx) = crossbeam::channel::unbounded();
        let g = Arc::clone(&group);
        let h = thread::spawn(move || {
            g.allreduce_with(WorkerId(0), &[1.0; 2], || {
                let _ = tx.send(());
            })
        });
        rx.recv().expect("waiter must surface wait ticks");
        group.allreduce(WorkerId(1), &[1.0; 2]);
        assert!(matches!(
            h.join().unwrap(),
            AllreduceOutcome::Sum { world: 2, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let group = CommGroup::new([WorkerId(0)], 4);
        let _ = group.allreduce(WorkerId(0), &[0.0; 3]);
    }

    #[test]
    fn many_threads_many_rounds_stress() {
        let n = 8u32;
        let rounds = 50u64;
        // Small chunks force multi-chunk cooperative rounds every time.
        let group = Arc::new(CommGroup::with_chunk_elems((0..n).map(WorkerId), 16, 3));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let g = Arc::clone(&group);
                thread::spawn(move || {
                    let mut acc = 0.0f64;
                    for r in 0..rounds {
                        let data = vec![(i as f32) + (r as f32); 16];
                        match g.allreduce(WorkerId(i), &data) {
                            AllreduceOutcome::Sum { sum, .. } => acc += sum[0] as f64,
                            _ => panic!("membership lost"),
                        }
                    }
                    acc
                })
            })
            .collect();
        let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every member observed the identical sequence of sums.
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn many_threads_many_rounds_hier_stress() {
        // Hierarchical counterpart of the stress test: 10 workers over a
        // 4-per-socket topology (3 groups), vector long enough to clear
        // the pinned flat crossover.
        let n = 10u32;
        let rounds = 30u64;
        let len = tune::PINNED_FLAT_MAX_LEN * 2;
        let profile = TuningProfile {
            flat_max_len: tune::PINNED_FLAT_MAX_LEN,
            hier_min_world: 2,
        };
        let group = Arc::new(CommGroup::with_tuning(
            (0..n).map(WorkerId),
            len,
            profile,
            Some(test_topology()),
        ));
        assert_eq!(group.planned_path(), ReducePath::Hier);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let g = Arc::clone(&group);
                thread::spawn(move || {
                    let mut acc = 0.0f64;
                    for r in 0..rounds {
                        let data = vec![(i as f32) + (r as f32); len];
                        match g.allreduce(WorkerId(i), &data) {
                            AllreduceOutcome::Sum { sum, .. } => {
                                acc += sum[0] as f64 + sum[len - 1] as f64
                            }
                            _ => panic!("membership lost"),
                        }
                    }
                    acc
                })
            })
            .collect();
        let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn chunked_matches_reference_bitwise() {
        // Irregular length with a chunk size that does not divide it.
        let len = 1030;
        let world = 5u32;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|w| {
                (0..len)
                    .map(|j| ((w as f32 + 1.3) * 0.1 + j as f32 * 1e-3).sin())
                    .collect()
            })
            .collect();
        let expect = reference_sum(&inputs);
        let group = Arc::new(CommGroup::with_chunk_elems(
            (0..world).map(WorkerId),
            len,
            64,
        ));
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(w, data)| spawn_allreduce(&group, WorkerId(w as u32), data.clone()))
            .collect();
        for h in handles {
            match h.join().unwrap() {
                AllreduceOutcome::Sum { sum, .. } => {
                    let got: Vec<u32> = sum.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "bitwise mismatch");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn flat_and_hier_match_reference_bitwise() {
        // The same irregular inputs through the flat and hierarchical
        // engines must reproduce `reference_sum` bit-for-bit.
        let len = 1030;
        let world = 9u32; // 3 socket groups of 4+4+1 on the test topology
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|w| {
                (0..len)
                    .map(|j| ((w as f32 + 0.7) * 0.3 + j as f32 * 2e-3).cos())
                    .collect()
            })
            .collect();
        let expect: Vec<u32> = reference_sum(&inputs).iter().map(|v| v.to_bits()).collect();
        let flat_profile = TuningProfile {
            flat_max_len: usize::MAX,
            hier_min_world: u32::MAX,
        };
        let hier_profile = TuningProfile {
            flat_max_len: 0,
            hier_min_world: 2,
        };
        for (profile, topo, want_path) in [
            (flat_profile, None, ReducePath::Flat),
            (hier_profile, Some(test_topology()), ReducePath::Hier),
        ] {
            let group = Arc::new(CommGroup::with_tuning(
                (0..world).map(WorkerId),
                len,
                profile,
                topo,
            ));
            assert_eq!(group.planned_path(), want_path);
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(w, data)| spawn_allreduce(&group, WorkerId(w as u32), data.clone()))
                .collect();
            for h in handles {
                match h.join().unwrap() {
                    AllreduceOutcome::Sum { sum, .. } => {
                        let got: Vec<u32> = sum.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, expect, "{want_path} bitwise mismatch");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dispatch_selects_by_world_and_len() {
        let profile = TuningProfile {
            flat_max_len: 1024,
            hier_min_world: 8,
        };
        // Small message: flat regardless of world size.
        let g = CommGroup::with_tuning((0..16).map(WorkerId), 1024, profile, Some(test_topology()));
        assert_eq!(g.planned_path(), ReducePath::Flat);
        // Mid-range world: chunked.
        let g = CommGroup::with_tuning((0..4).map(WorkerId), 4096, profile, Some(test_topology()));
        assert_eq!(g.planned_path(), ReducePath::Chunked);
        // Large world with topology groups: hierarchical.
        let g = CommGroup::with_tuning((0..16).map(WorkerId), 4096, profile, Some(test_topology()));
        assert_eq!(g.planned_path(), ReducePath::Hier);
        // Large world, no topology: stays chunked.
        let g = CommGroup::with_tuning((0..16).map(WorkerId), 4096, profile, None);
        assert_eq!(g.planned_path(), ReducePath::Chunked);
        // Single member: always flat (nothing to cooperate on).
        let g = CommGroup::with_tuning([WorkerId(0)], 4096, profile, None);
        assert_eq!(g.planned_path(), ReducePath::Flat);
        // Fixed-chunk compatibility groups never dispatch.
        let g = CommGroup::with_chunk_elems((0..16).map(WorkerId), 1024, 64);
        assert_eq!(g.planned_path(), ReducePath::Chunked);
    }

    #[test]
    fn steady_state_reuses_pooled_buffers() {
        // After warm-up the pool must satisfy every round: the fresh
        // allocation counter goes flat (zero O(len) allocations/round).
        // len == the pinned flat crossover, so this exercises the flat
        // fast path's pool discipline too.
        let n = 4u32;
        let warmup = 5u64;
        let rounds = 60u64;
        let group = Arc::new(CommGroup::new((0..n).map(WorkerId), 4096));
        let run = |rounds: u64| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let g = Arc::clone(&group);
                    thread::spawn(move || {
                        for r in 0..rounds {
                            let data = vec![r as f32; 4096];
                            // Drop the sum before the next round, as the
                            // training loop does after its optimizer step.
                            match g.allreduce(WorkerId(i), &data) {
                                AllreduceOutcome::Sum { .. } => {}
                                other => panic!("unexpected {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        };
        run(warmup);
        let after_warmup = group.pool_allocations();
        run(rounds);
        assert_eq!(
            group.pool_allocations(),
            after_warmup,
            "steady-state rounds allocated fresh buffers"
        );
        assert!(after_warmup <= 3, "warm-up needed {after_warmup} buffers");
    }

    #[test]
    fn single_member_group_reduces_alone() {
        let group = CommGroup::with_chunk_elems([WorkerId(0)], 10, 4);
        match group.allreduce(WorkerId(0), &[2.5; 10]) {
            AllreduceOutcome::Sum { sum, world } => {
                assert!(sum.iter().all(|&v| v == 2.5));
                assert_eq!(world, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reference_sum_matches_manual() {
        let a = [1.0f32, 2.0];
        let b = [10.0f32, 20.0];
        assert_eq!(reference_sum(&[a, b]), vec![11.0, 22.0]);
    }

    #[test]
    fn path_names_are_stable() {
        assert_eq!(ReducePath::Flat.name(), "flat");
        assert_eq!(ReducePath::Chunked.name(), "chunked");
        assert_eq!(ReducePath::Hier.name(), "hier");
        assert_eq!(ReducePath::Hier.to_string(), "hier");
    }
}
