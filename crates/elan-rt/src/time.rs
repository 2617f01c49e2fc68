//! Deterministic time layer for the live runtime.
//!
//! This is the **only** module in `elan-rt` allowed to touch
//! [`std::time::Instant`] or [`std::thread::sleep`] (enforced by the
//! `VIRTUAL_TIME_UNSAFE` rule in `elan-verify`). Everything else reads time
//! through a [`TimeSource`], which comes in two flavours:
//!
//! - [`TimeSource::real()`] — wall-clock time relative to a per-runtime
//!   epoch. `sleep` is `std::thread::sleep`; parked waits are real waits.
//!   This is the default and is what production deployments use.
//! - [`TimeSource::virtual_seeded`] — a [`VirtualClock`]: logical
//!   nanoseconds that advance **only** when every registered runtime thread
//!   is quiescent (parked or blocked on a deadline). Combined with the
//!   serial run-token scheduler below this makes the whole control plane
//!   deterministic: the same seed produces the same thread interleaving,
//!   the same message order, and therefore a byte-identical
//!   [`EventJournal`](crate::obs::EventJournal).
//!
//! # The run token
//!
//! Determinism needs more than virtual timestamps: if two runtime threads
//! genuinely run in parallel they still race on journal sequence numbers,
//! bus delivery order and message-id allocation (which feeds the chaos
//! fate hash). The virtual clock therefore enforces *cooperative
//! serialization*: at most one **registered** thread executes at a time,
//! holding an implicit run token. A thread releases the token when it
//!
//! - parks ([`TimeSource::park`] / [`TimeSource::park_until`] /
//!   [`TimeSource::sleep`]), or
//! - enters an OS-blocking section ([`TimeSource::blocking`], used around
//!   `JoinHandle::join`), or
//! - deregisters on exit.
//!
//! When no registered thread is runnable, the coordinator auto-advances
//! virtual time to the earliest pending deadline and wakes every thread
//! whose deadline has arrived. When several threads are runnable the next
//! one is picked by a seeded PRNG — different seeds explore different (but
//! individually reproducible) schedules, which is what the `seedsweep`
//! fuzzer sweeps over.
//!
//! Lost-wakeup freedom: because no other registered thread can run between
//! a consumer's failed `try_recv` and its park, any producer's
//! [`TimeSource::wake_all`] necessarily happens either before the check
//! (consumer sees the message) or after the park (consumer is woken).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elan_sim::{SimDuration, SimTime};
use parking_lot::{Condvar, Mutex};

/// Convert a std [`Duration`] onto the simulated-time axis.
pub fn std_to_sim(d: Duration) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64)
}

/// Convert a [`SimDuration`] back into a std [`Duration`].
pub fn sim_to_std(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

/// Identity of a registered virtual-clock thread, handed out by
/// [`TimeSource::create_thread`] *before* the OS thread is spawned so that
/// thread identity is assigned deterministically by the spawner, not by OS
/// scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSlot(u64);

thread_local! {
    /// Virtual-thread id of the current OS thread, if registered.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A clock for the runtime: real wall time or a deterministic virtual time.
///
/// Cheap to clone; all clones share the same underlying clock.
#[derive(Clone)]
pub struct TimeSource(Src);

#[derive(Clone)]
enum Src {
    Real(Arc<RealTime>),
    Virtual(Arc<VirtualClock>),
}

impl fmt::Debug for TimeSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Src::Real(_) => f.write_str("TimeSource::Real"),
            Src::Virtual(v) => write!(f, "TimeSource::Virtual(seed={})", v.seed),
        }
    }
}

impl Default for TimeSource {
    fn default() -> Self {
        TimeSource::real()
    }
}

impl TimeSource {
    /// Wall-clock time, measured from the moment this source is created.
    pub fn real() -> Self {
        TimeSource(Src::Real(Arc::new(RealTime {
            epoch: Instant::now(),
        })))
    }

    /// Deterministic virtual time with a seeded scheduler.
    pub fn virtual_seeded(seed: u64) -> Self {
        TimeSource(Src::Virtual(Arc::new(VirtualClock::new(seed))))
    }

    /// True when this source is a [`VirtualClock`].
    pub fn is_virtual(&self) -> bool {
        matches!(self.0, Src::Virtual(_))
    }

    /// Current reading on the simulated-time axis (nanoseconds since the
    /// runtime epoch).
    pub fn now(&self) -> SimTime {
        match &self.0 {
            Src::Real(r) => {
                SimTime::from_nanos(r.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            }
            Src::Virtual(v) => SimTime::from_nanos(v.inner.lock().now),
        }
    }

    /// The deadline `d` from now, on the simulated axis.
    pub fn deadline_after(&self, d: Duration) -> SimTime {
        self.now() + std_to_sim(d)
    }

    /// Sleep for `d`. Real: `thread::sleep`. Virtual: park the calling
    /// (registered) thread until `now + d`; virtual time advances to the
    /// deadline once every other registered thread is quiescent.
    pub fn sleep(&self, d: Duration) {
        match &self.0 {
            Src::Real(_) => std::thread::sleep(d),
            Src::Virtual(v) => {
                let deadline = v
                    .inner
                    .lock()
                    .now
                    .saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64);
                v.park(Some(deadline));
            }
        }
    }

    /// Park until `deadline` (no-op if already reached on the real clock;
    /// on the virtual clock an expired deadline still yields the run token
    /// once so peers get a turn).
    pub fn park_until(&self, deadline: SimTime) {
        match &self.0 {
            Src::Real(r) => {
                let now = r.epoch.elapsed();
                let target = Duration::from_nanos(deadline.as_nanos());
                if let Some(remaining) = target.checked_sub(now) {
                    if !remaining.is_zero() {
                        std::thread::sleep(remaining);
                    }
                }
            }
            Src::Virtual(v) => v.park(Some(deadline.as_nanos())),
        }
    }

    /// Park until [`TimeSource::wake_all`] is called. Virtual-clock only in
    /// spirit: on the real clock this degrades to a short poll sleep so a
    /// mis-routed call cannot hang forever.
    pub fn park(&self) {
        match &self.0 {
            Src::Real(_) => std::thread::sleep(Duration::from_micros(200)),
            Src::Virtual(v) => v.park(None),
        }
    }

    /// Mark every parked registered thread runnable. Producers call this
    /// after publishing state a parked consumer may be waiting on (bus
    /// delivery, allreduce round completion). Woken threads re-check their
    /// predicate and re-park if it still does not hold — spurious wakes are
    /// harmless under serialization. No-op on the real clock (real waits
    /// use channels/condvars directly).
    pub fn wake_all(&self) {
        if let Src::Virtual(v) = &self.0 {
            v.wake_all();
        }
    }

    /// Reserve a deterministic identity for a thread about to be spawned.
    /// Call on the spawning thread, then hand the slot to the child which
    /// must [`TimeSource::adopt`] it first thing.
    pub fn create_thread(&self) -> ThreadSlot {
        match &self.0 {
            Src::Real(_) => ThreadSlot(u64::MAX),
            Src::Virtual(v) => v.create_thread(),
        }
    }

    /// Bind the calling OS thread to a reserved slot and wait to be
    /// scheduled. Returns a guard that deregisters the thread when dropped
    /// (including on panic, so a crashed thread cannot wedge the clock).
    #[must_use = "dropping the guard deregisters the thread immediately"]
    pub fn adopt(&self, slot: ThreadSlot) -> SlotGuard {
        if let Src::Virtual(v) = &self.0 {
            v.adopt(slot);
        }
        SlotGuard { time: self.clone() }
    }

    /// Register the *calling* thread (used for the controller thread that
    /// owns the runtime handle). Pair with [`TimeSource::deregister`] at
    /// shutdown. No-op on the real clock.
    pub fn register_current(&self) {
        if let Src::Virtual(v) = &self.0 {
            let slot = v.create_thread();
            v.adopt(slot);
        }
    }

    /// Remove the calling thread from the scheduler. Idempotent; no-op on
    /// the real clock or for unregistered threads.
    pub fn deregister(&self) {
        if let Src::Virtual(v) = &self.0 {
            v.deregister();
        }
    }

    /// Run `f` as an *external* section: the calling thread gives up the
    /// run token and stops participating in virtual scheduling while `f`
    /// runs (so `f` may block on the OS — e.g. `JoinHandle::join` on a
    /// registered thread that still needs to be scheduled to finish). The
    /// thread re-enters the scheduler before returning.
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Src::Real(_) => f(),
            Src::Virtual(v) => v.blocking(f),
        }
    }
}

/// Deregistration guard returned by [`TimeSource::adopt`].
pub struct SlotGuard {
    time: TimeSource,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.time.deregister();
    }
}

/// Wall-clock source: the only place `Instant::now()` / `thread::sleep`
/// are legal in `elan-rt`.
struct RealTime {
    epoch: Instant,
}

/// Seeded deterministic clock + cooperative serial scheduler.
///
/// See the [module docs](self) for the protocol. All state lives behind a
/// single mutex with one condvar; registered threads block on the condvar
/// until the scheduler hands them the run token.
pub struct VirtualClock {
    inner: Mutex<ClockInner>,
    cvar: Condvar,
    seed: u64,
}

struct ClockInner {
    /// Logical nanoseconds since the runtime epoch.
    now: u64,
    /// Next thread id to hand out.
    next_id: u64,
    /// Registered threads and their scheduler states. `BTreeMap` so
    /// candidate ordering is deterministic.
    threads: BTreeMap<u64, ThreadState>,
    /// Thread currently holding the run token.
    running: Option<u64>,
    /// PRNG state for schedule picks.
    rng: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadState {
    /// Ready to run; waiting for the token.
    Runnable,
    /// Waiting for a wake-up, optionally with a virtual deadline.
    Parked { deadline: Option<u64> },
    /// Outside the virtual world in an OS-blocking section.
    External,
}

impl VirtualClock {
    fn new(seed: u64) -> Self {
        VirtualClock {
            inner: Mutex::new(ClockInner {
                now: 0,
                next_id: 0,
                threads: BTreeMap::new(),
                running: None,
                rng: splitmix64(seed),
            }),
            cvar: Condvar::new(),
            seed,
        }
    }

    fn create_thread(&self) -> ThreadSlot {
        let mut st = self.inner.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.threads.insert(id, ThreadState::Runnable);
        ThreadSlot(id)
    }

    fn adopt(&self, slot: ThreadSlot) {
        CURRENT.set(Some(slot.0));
        let mut st = self.inner.lock();
        loop {
            if st.running == Some(slot.0) {
                return;
            }
            if st.running.is_none() {
                self.schedule_locked(&mut st);
                continue;
            }
            self.cvar.wait(&mut st);
        }
    }

    fn deregister(&self) {
        let Some(my) = CURRENT.take() else { return };
        let mut st = self.inner.lock();
        st.threads.remove(&my);
        if st.running == Some(my) {
            st.running = None;
            self.schedule_locked(&mut st);
        }
        self.cvar.notify_all();
    }

    /// Release the token and wait to be rescheduled (by wake, or by the
    /// deadline arriving once everyone else is quiescent).
    fn park(&self, deadline: Option<u64>) {
        let Some(my) = CURRENT.get() else {
            // Unregistered thread on a virtual clock: nothing to serialize
            // against deterministically — this is a harness bug.
            panic!("virtual clock: park() on a thread that never registered");
        };
        let mut st = self.inner.lock();
        debug_assert_eq!(
            st.running,
            Some(my),
            "parking thread must hold the run token"
        );
        st.threads.insert(my, ThreadState::Parked { deadline });
        st.running = None;
        self.schedule_locked(&mut st);
        self.cvar.notify_all();
        loop {
            if st.running == Some(my) {
                return;
            }
            if st.running.is_none() {
                self.schedule_locked(&mut st);
                continue;
            }
            self.cvar.wait(&mut st);
        }
    }

    fn wake_all(&self) {
        let mut st = self.inner.lock();
        let parked: Vec<u64> = st
            .threads
            .iter()
            .filter(|(_, s)| matches!(s, ThreadState::Parked { .. }))
            .map(|(id, _)| *id)
            .collect();
        for id in parked {
            st.threads.insert(id, ThreadState::Runnable);
        }
        if st.running.is_none() {
            self.schedule_locked(&mut st);
        }
        self.cvar.notify_all();
    }

    fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(my) = CURRENT.get() else {
            return f();
        };
        {
            let mut st = self.inner.lock();
            st.threads.insert(my, ThreadState::External);
            if st.running == Some(my) {
                st.running = None;
                self.schedule_locked(&mut st);
            }
            self.cvar.notify_all();
        }
        let out = f();
        let mut st = self.inner.lock();
        st.threads.insert(my, ThreadState::Runnable);
        loop {
            if st.running == Some(my) {
                break;
            }
            if st.running.is_none() {
                self.schedule_locked(&mut st);
                continue;
            }
            self.cvar.wait(&mut st);
        }
        drop(st);
        out
    }

    /// Pick the next thread to run. Requires `running == None`.
    ///
    /// 1. If any thread is `Runnable`, pick one with the seeded PRNG.
    /// 2. Otherwise advance `now` to the earliest parked deadline and wake
    ///    every thread whose deadline has arrived, then pick.
    /// 3. Otherwise, if a thread is in an external section, leave the token
    ///    unassigned — the external thread restarts scheduling on re-entry.
    /// 4. Otherwise every registered thread is parked without a deadline:
    ///    the virtual world can never progress again. Panic with a dump.
    fn schedule_locked(&self, st: &mut ClockInner) {
        if st.running.is_some() {
            return;
        }
        loop {
            let runnable: Vec<u64> = st
                .threads
                .iter()
                .filter(|(_, s)| **s == ThreadState::Runnable)
                .map(|(id, _)| *id)
                .collect();
            if !runnable.is_empty() {
                st.rng = splitmix64(st.rng);
                let pick = runnable[(st.rng >> 33) as usize % runnable.len()];
                st.running = Some(pick);
                self.cvar.notify_all();
                return;
            }
            let next_deadline = st
                .threads
                .values()
                .filter_map(|s| match s {
                    ThreadState::Parked { deadline: Some(d) } => Some(*d),
                    _ => None,
                })
                .min();
            if let Some(d) = next_deadline {
                st.now = st.now.max(d);
                let due: Vec<u64> = st
                    .threads
                    .iter()
                    .filter(|(_, s)| {
                        matches!(s, ThreadState::Parked { deadline: Some(dl) } if *dl <= st.now)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for id in due {
                    st.threads.insert(id, ThreadState::Runnable);
                }
                continue;
            }
            if st.threads.is_empty() || st.threads.values().any(|s| *s == ThreadState::External) {
                // Nothing to schedule right now; an external section (or a
                // late registration) will restart the scheduler.
                return;
            }
            panic!(
                "virtual deadlock at t={}ns: every registered thread is parked \
                 without a deadline: {:?}",
                st.now, st.threads
            );
        }
    }
}

/// SplitMix64 step — the schedule PRNG. Small, seedable, and good enough
/// for schedule diversity; *not* used for anything cryptographic.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn real_time_is_monotonic_from_epoch() {
        let t = TimeSource::real();
        let a = t.now();
        let b = t.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_sleep_advances_exactly() {
        let t = TimeSource::virtual_seeded(7);
        t.register_current();
        assert_eq!(t.now(), SimTime::ZERO);
        t.sleep(Duration::from_millis(5));
        assert_eq!(t.now(), SimTime::from_nanos(5_000_000));
        t.sleep(Duration::from_micros(1));
        assert_eq!(t.now(), SimTime::from_nanos(5_001_000));
        t.deregister();
    }

    #[test]
    fn park_until_advances_to_deadline() {
        let t = TimeSource::virtual_seeded(0);
        t.register_current();
        let dl = t.now() + SimDuration::from_millis(3);
        t.park_until(dl);
        assert_eq!(t.now(), dl);
        // Expired deadline: returns without advancing.
        t.park_until(SimTime::from_nanos(1));
        assert_eq!(t.now(), dl);
        t.deregister();
    }

    /// Two child threads interleave sleeps; the observed order must be a
    /// pure function of the seed.
    fn interleaving(seed: u64) -> Vec<u64> {
        let t = TimeSource::virtual_seeded(seed);
        let log = StdArc::new(Mutex::new(Vec::new()));
        t.register_current();
        let mut handles = Vec::new();
        for id in 0..3u64 {
            let slot = t.create_thread();
            let t2 = t.clone();
            let log2 = StdArc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let _reg = t2.adopt(slot);
                for step in 0..4u64 {
                    log2.lock().push(id * 100 + step);
                    t2.sleep(Duration::from_millis(1 + id));
                }
            }));
        }
        // Join every worker inside one blocking section: leaving it between
        // joins makes the main thread runnable again at an OS-timed moment,
        // which shifts the seeded picks among the remaining workers.
        t.blocking(|| {
            for h in handles {
                h.join().ok();
            }
        });
        t.deregister();
        let out = log.lock().clone();
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(interleaving(42), interleaving(42));
        assert_eq!(interleaving(7), interleaving(7));
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        // Not guaranteed for every pair, but these seeds do differ; if this
        // ever fails, pick another pair — the property that matters is
        // same-seed stability, checked above.
        let a: Vec<Vec<u64>> = (0..8).map(interleaving).collect();
        assert!(
            a.iter().any(|s| s != &a[0]),
            "all 8 seeds gave one schedule"
        );
    }

    #[test]
    fn wake_all_unparks_waiters() {
        let t = TimeSource::virtual_seeded(3);
        t.register_current();
        let flag = StdArc::new(AtomicU64::new(0));
        let slot = t.create_thread();
        let t2 = t.clone();
        let flag2 = StdArc::clone(&flag);
        let h = std::thread::spawn(move || {
            let _reg = t2.adopt(slot);
            while flag2.load(Ordering::SeqCst) == 0 {
                t2.park();
            }
            flag2.store(2, Ordering::SeqCst);
        });
        // Let the child reach its park.
        t.sleep(Duration::from_millis(1));
        flag.store(1, Ordering::SeqCst);
        t.wake_all();
        t.blocking(|| h.join()).ok();
        assert_eq!(flag.load(Ordering::SeqCst), 2);
        t.deregister();
    }

    #[test]
    fn blocking_releases_the_token_for_children() {
        let t = TimeSource::virtual_seeded(1);
        t.register_current();
        let slot = t.create_thread();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            let _reg = t2.adopt(slot);
            t2.sleep(Duration::from_millis(10));
            99u32
        });
        // Joining inside `blocking` lets the child be scheduled to finish.
        let got = t.blocking(|| h.join()).ok();
        assert_eq!(got, Some(99));
        assert_eq!(t.now(), SimTime::from_nanos(10_000_000));
        t.deregister();
    }

    #[test]
    #[should_panic(expected = "virtual deadlock")]
    fn all_parked_without_deadline_is_a_deadlock() {
        let t = TimeSource::virtual_seeded(5);
        t.register_current();
        t.park(); // nobody will ever wake us
    }

    #[test]
    fn slot_guard_deregisters_on_panic() {
        let t = TimeSource::virtual_seeded(9);
        t.register_current();
        let slot = t.create_thread();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            let _reg = t2.adopt(slot);
            panic!("child dies");
        });
        // If the guard failed to deregister, this join would wedge the
        // clock: the parent would block while the dead child still owned a
        // scheduler entry with no deadline.
        let joined = t.blocking(|| h.join());
        assert!(joined.is_err());
        t.sleep(Duration::from_millis(1)); // clock still functional
        t.deregister();
    }

    #[test]
    fn conversions_roundtrip() {
        let d = Duration::from_micros(1234);
        assert_eq!(sim_to_std(std_to_sim(d)), d);
    }
}
