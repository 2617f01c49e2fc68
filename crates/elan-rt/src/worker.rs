//! The training-worker thread.
//!
//! Each worker owns real parameter and momentum buffers, computes a
//! deterministic synthetic gradient for its data shard, sums gradients
//! through the [`CommGroup`] allreduce, applies
//! SGD-with-momentum, and calls `Coordinate` at every boundary — exactly
//! the per-iteration structure of Fig. 7 with the Elan hooks attached.
//!
//! Because every worker applies the identical reduced gradient to
//! identical starting parameters, all live workers hold bit-identical
//! state at every iteration — the invariant the shutdown report checks
//! and the property state replication relies on (§IV-1).
//!
//! Fault tolerance (§V-D): every control message travels through a
//! [`ReliableEndpoint`] (ids, acks, resends, dedup), the worker beacons a
//! `Heartbeat` every `hb_period` — including from *inside* a blocked
//! allreduce, via [`CommGroup::allreduce_with`] — and an `AmReset` from a
//! replacement application master makes the worker re-send whatever
//! request it is parked on, so an AM crash can never strand it.
//!
//! Partition tolerance: every AM-originated control message carries a
//! monotonic fencing *term*; the worker tracks the highest term it has
//! seen and silently drops (journalling `StaleTermRejected`) anything
//! older, so a partitioned-but-alive predecessor AM cannot steer it. A
//! crashed worker restarts as [`WorkerRole::Rejoin`], presenting its
//! last-known term and boundary iteration, and re-enters through the
//! same chunked state-replication path a joiner uses.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use elan_core::messages::{ChunkAssembler, ChunkPlan, StateKind};
use elan_core::state::WorkerId;
use elan_sim::{SimDuration, SimTime};

use crate::bus::{EndpointId, RtMsg};
use crate::comm::{AllreduceOutcome, CommGroup};
use crate::liveness::SharedControl;
use crate::obs::EventKind;
use crate::reliable::ReliableEndpoint;
use crate::time::{sim_to_std, std_to_sim, TimeSource};

/// Per-worker observable state, published after every iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerView {
    /// Completed iterations.
    pub iteration: u64,
    /// Serial data-loading cursor.
    pub data_cursor: u64,
    /// Checksum of the parameter buffer (bit-exact).
    pub params_checksum: u64,
    /// False once the worker has left the job.
    pub alive: bool,
    /// Real wall time spent parked in coordination (control-plane waits
    /// plus adjustment pauses) — the live counterpart of Fig. 15's pause.
    pub stalled: std::time::Duration,
}

/// Shared telemetry map read by the controller.
pub type Telemetry = Arc<Mutex<HashMap<WorkerId, WorkerView>>>;

/// Static configuration for one worker thread.
#[derive(Debug, Clone, Copy)]
pub struct WorkerConfig {
    /// This worker's id.
    pub id: WorkerId,
    /// Parameter-buffer length.
    pub param_elems: usize,
    /// Iterations between coordinations.
    pub coordination_interval: u64,
    /// SGD learning rate.
    pub learning_rate: f32,
    /// Samples consumed per iteration (advances the data cursor).
    pub total_batch: u32,
    /// Liveness-beacon period.
    pub hb_period: Duration,
    /// Receive-poll granularity (also paces retry ticks while parked).
    pub tick: Duration,
    /// Elements per [`RtMsg::StateChunk`] when replicating state.
    pub replication_chunk_elems: usize,
    /// Simulated forward/backward cost per iteration. `ZERO` trains at
    /// full speed; nonzero paces the virtual clock (see
    /// `RuntimeConfig::compute_us`).
    pub compute: Duration,
}

/// How a worker enters the job.
#[derive(Debug, Clone)]
pub enum WorkerRole {
    /// Present at job start: begins training immediately.
    Founding,
    /// Launched by an adjustment: initializes, reports, and waits for
    /// state replication before training (§II steps ② and ④).
    Joining,
    /// Restarted from a checkpoint (the Shutdown-&-Restart path, live).
    Restored {
        /// Parameter buffer to restore.
        params: Arc<Vec<f32>>,
        /// Momentum buffer to restore.
        momentum: Arc<Vec<f32>>,
        /// Iteration to resume from.
        iteration: u64,
        /// Serial data cursor to resume from.
        data_cursor: u64,
    },
    /// Restarted after a crash: runs the `Rejoin` handshake — presents
    /// the crash incarnation's last-known term and boundary iteration,
    /// gets fenced or admitted, and re-fetches state through the same
    /// chunked replication path a joiner uses.
    Rejoin {
        /// Fencing term the worker last observed before crashing.
        term: u64,
        /// Boundary iteration of the last state it had applied.
        iteration: u64,
    },
    /// Open-membership joiner (DESIGN.md §17): announces itself with
    /// `JoinRequest`, is admitted at an epoch boundary by the AM's epoch
    /// machine, warms up over the chunked replication path, then claims
    /// its state digest for the witness vote.
    OpenJoin {
        /// Fault injection: mis-claim the warmup digest so the witness
        /// vote must evict this joiner.
        corrupt: bool,
    },
}

/// Period of [`gradient`]'s values. Element `j` depends on `j` only
/// through `(base + j) mod 2048` with a wrapping `u64` sum, and 2048
/// divides 2^64, so the values repeat every 2048 elements.
const GRAD_PERIOD: usize = 2048;

/// Computes the synthetic gradient for `(worker, iteration)` — each
/// worker's "data shard" yields a different, deterministic gradient.
///
/// Only the first period is computed; the rest of the buffer copies it.
fn gradient(worker: WorkerId, iteration: u64, out: &mut [f32]) {
    let w = worker.0 as u64;
    let base = iteration
        .wrapping_mul(6364136223846793005)
        .wrapping_add(w.wrapping_mul(1442695040888963407));
    let (head, tail) = out.split_at_mut(out.len().min(GRAD_PERIOD));
    for (j, g) in head.iter_mut().enumerate() {
        let x = base.wrapping_add(j as u64) % GRAD_PERIOD as u64;
        *g = (x as f32 / 2048.0) - 0.5;
    }
    for block in tail.chunks_mut(GRAD_PERIOD) {
        block.copy_from_slice(&head[..block.len()]);
    }
}

/// One optimizer step: SGD with momentum on the averaged gradient
/// `sum / world`. Returns [`checksum`] of the updated `params`, folded
/// block by block in the same sweep, so publishing the step's checksum
/// costs no second pass over the parameters.
///
/// # Panics
///
/// Panics if the three buffers differ in length.
fn sgd_step(
    params: &mut [f32],
    momentum: &mut [f32],
    sum: &[f32],
    world: f32,
    learning_rate: f32,
) -> u64 {
    assert!(
        params.len() == momentum.len() && params.len() == sum.len(),
        "sgd_step buffers differ in length"
    );
    let n = params.len();
    let mut lanes = [0u32; LANES];
    let mut step = |p: &mut [f32], m: &mut [f32], s: &[f32]| {
        for ((w, m), &s) in p.iter_mut().zip(m.iter_mut()).zip(s) {
            *m = 0.9 * *m + s / world;
            *w -= learning_rate * *m;
        }
        fold_block(&mut lanes, p);
    };
    let mut p = params.chunks_exact_mut(LANES);
    let mut m = momentum.chunks_exact_mut(LANES);
    let mut s = sum.chunks_exact(LANES);
    for ((p, m), s) in (&mut p).zip(&mut m).zip(&mut s) {
        step(p, m, s);
    }
    step(p.into_remainder(), m.into_remainder(), s.remainder());
    finish_lanes(&lanes, n)
}

/// Reference replay of the training computation: the parameters,
/// momentum, and data cursor after `iterations` of data-parallel training
/// on `world_size` workers — single-threaded, for verifying that the live
/// runtime (and checkpoint/restore) is bit-exact. It runs the same
/// gradient and optimizer-step code as the live worker.
pub fn simulate_training(
    world_size: u32,
    iterations: u64,
    param_elems: usize,
    learning_rate: f32,
    total_batch: u32,
) -> (Vec<f32>, Vec<f32>, u64) {
    let mut params = vec![0.5f32; param_elems];
    let mut momentum = vec![0.0f32; param_elems];
    let mut grad = vec![0.0f32; param_elems];
    let mut sum = vec![0.0f32; param_elems];
    for iter in 0..iterations {
        sum.iter_mut().for_each(|v| *v = 0.0);
        // Same order as CommGroup: ascending worker id.
        for w in 0..world_size {
            gradient(WorkerId(w), iter, &mut grad);
            for (s, &g) in sum.iter_mut().zip(&grad) {
                *s += g;
            }
        }
        sgd_step(
            &mut params,
            &mut momentum,
            &sum,
            world_size as f32,
            learning_rate,
        );
    }
    (params, momentum, iterations * total_batch as u64)
}

/// Lanes of the [`checksum`] fold.
///
/// The checksum is defined by the serial chain `acc = acc.rotl(7) ^ bits`
/// from `acc = 0`. Rotation and XOR are linear over GF(2), so element `i`
/// of an `n`-element buffer reaches the result rotated left by
/// `7·(n−1−i)`, and a rotation of a `u64` depends only on its amount
/// mod 64, hence only on `(n−1−i) mod 64`. XOR-ing each element's bits
/// into lane `i mod 64` and rotating every lane once at the end
/// therefore gives the serial value for every input, with independent
/// XORs a compiler vectorises.
const LANES: usize = 64;

/// XORs one block's bits into the lanes. The block must start at an
/// index that is a multiple of [`LANES`] and hold at most `LANES`
/// elements.
fn fold_block(lanes: &mut [u32; LANES], block: &[f32]) {
    for (l, v) in lanes.iter_mut().zip(block) {
        *l ^= v.to_bits();
    }
}

/// The serial fold's value from the lanes of an `n`-element buffer.
/// Lanes `q >= n` received no element (and `n − 1 − q` would underflow
/// for them), so only the first `n` lanes are folded.
fn finish_lanes(lanes: &[u32; LANES], n: usize) -> u64 {
    lanes.iter().enumerate().take(n).fold(0u64, |acc, (q, &l)| {
        let shift = (7 * ((n - 1 - q) % LANES) % LANES) as u32;
        acc ^ u64::from(l).rotate_left(shift)
    })
}

/// Bit-exact checksum of a float buffer: the serial fold
/// `acc = acc.rotl(7) ^ bits` over every element, computed as a
/// 64-lane XOR fold in one vectorisable pass.
pub fn checksum(buf: &[f32]) -> u64 {
    let mut lanes = [0u32; LANES];
    let mut blocks = buf.chunks_exact(LANES);
    for block in &mut blocks {
        fold_block(&mut lanes, block);
    }
    fold_block(&mut lanes, blocks.remainder());
    finish_lanes(&lanes, buf.len())
}

/// The warmup digest an open-membership joiner claims (and a witness
/// recomputes over its own boundary state): a bit-exact fold over both
/// training buffers. At a coordination boundary every data-parallel
/// member holds identical state, so an honestly warmed-up joiner's
/// digest matches every witness's.
pub fn state_digest(params: &[f32], momentum: &[f32]) -> u64 {
    checksum(params) ^ checksum(momentum).rotate_left(1)
}

/// One prepared state chunk: `(kind, index, total, offset, payload)`.
pub type PreparedChunk = (StateKind, u32, u32, u64, Arc<Vec<f32>>);

/// Splits the two state buffers into *interleaved* chunk messages
/// (params chunk `i`, then momentum chunk `i`, …) so the "GPU-state" and
/// "CPU-state" streams overlap on the wire instead of serializing one
/// whole buffer after the other (§IV). The result is built **once per
/// boundary** and `Arc`-shared: each additional destination costs chunk
/// headers plus `Arc` clones, not another full copy of the state.
pub fn build_state_chunks(
    params: &[f32],
    momentum: &[f32],
    chunk_elems: usize,
) -> Vec<PreparedChunk> {
    let plan = ChunkPlan::new(params.len(), chunk_elems);
    let total = plan.n_chunks() as u32;
    let mut out = Vec::with_capacity(2 * plan.n_chunks());
    for (i, range) in plan.ranges() {
        out.push((
            StateKind::Params,
            i as u32,
            total,
            range.start as u64,
            Arc::new(params[range.clone()].to_vec()),
        ));
        out.push((
            StateKind::Momentum,
            i as u32,
            total,
            range.start as u64,
            Arc::new(momentum[range].to_vec()),
        ));
    }
    out
}

/// Streams a prepared snapshot to `to`, one reliable envelope per chunk —
/// per-chunk acks and resends make the transfer resumable: a lossy bus
/// retransmits only the chunks that actually went missing.
pub(crate) fn send_snapshot(
    rep: &mut ReliableEndpoint,
    to: EndpointId,
    chunks: &[PreparedChunk],
    iteration: u64,
    data_cursor: u64,
) {
    for &(kind, index, total, offset, ref data) in chunks {
        rep.send(
            to,
            RtMsg::StateChunk {
                kind,
                iteration,
                data_cursor,
                index,
                total,
                offset,
                data: Arc::clone(data),
            },
        );
    }
}

/// Reassembles a streamed snapshot from [`RtMsg::StateChunk`] messages.
///
/// Tracks one snapshot at a time, keyed by its boundary iteration:
/// chunks of a *newer* snapshot restart the assembly, chunks of an older
/// one (an AM-recovery replay) are ignored, and duplicates are absorbed
/// by the per-kind [`ChunkAssembler`]s. [`offer`](Self::offer) returns
/// the completed snapshot's `(iteration, data_cursor)` exactly once,
/// when both streams are whole.
#[derive(Debug, Default)]
pub struct SnapshotAssembly {
    assembling: Option<u64>,
    done: bool,
    params: Option<ChunkAssembler>,
    momentum: Option<ChunkAssembler>,
}

impl SnapshotAssembly {
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one chunk to the destination buffers.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &mut self,
        kind: StateKind,
        iteration: u64,
        data_cursor: u64,
        index: u32,
        total: u32,
        offset: u64,
        data: &[f32],
        params: &mut [f32],
        momentum: &mut [f32],
    ) -> Option<(u64, u64)> {
        match self.assembling {
            Some(cur) if iteration < cur => return None, // stale replay
            Some(cur) if iteration == cur => {
                if self.done {
                    return None; // late duplicate of a finished stream
                }
            }
            _ => {
                // First chunk seen, or a newer snapshot: restart.
                self.assembling = Some(iteration);
                self.params = None;
                self.momentum = None;
                self.done = false;
            }
        }
        let asm = match kind {
            StateKind::Params => self
                .params
                .get_or_insert_with(|| ChunkAssembler::new(total as usize)),
            StateKind::Momentum => self
                .momentum
                .get_or_insert_with(|| ChunkAssembler::new(total as usize)),
        };
        if asm.accept(index as usize) {
            let off = offset as usize;
            let dst = match kind {
                StateKind::Params => params,
                StateKind::Momentum => momentum,
            };
            dst[off..off + data.len()].copy_from_slice(data);
        }
        let complete = self.params.as_ref().is_some_and(|a| a.is_complete())
            && self.momentum.as_ref().is_some_and(|a| a.is_complete());
        if complete {
            self.done = true;
            Some((iteration, data_cursor))
        } else {
            None
        }
    }
}

/// The fencing term carried by an AM-originated control message, if any.
fn msg_term(msg: &RtMsg) -> Option<u64> {
    match msg {
        RtMsg::Proceed { term, .. }
        | RtMsg::TransferOrder { term, .. }
        | RtMsg::Resume { term, .. }
        | RtMsg::Leave { term }
        | RtMsg::CheckpointOrder { term, .. }
        | RtMsg::WitnessQuery { term, .. }
        | RtMsg::EpochAdvance { term, .. }
        | RtMsg::AmReset { term, .. } => Some(*term),
        _ => None,
    }
}

/// Applies the term fence to one received message: anything carrying a
/// term older than the highest this worker has seen came from a
/// superseded (possibly partitioned-but-alive) AM and is dropped with a
/// [`EventKind::StaleTermRejected`] journal entry; newer terms advance
/// the fence. Messages with no term (data plane, peer traffic) pass.
fn fence(highest_term: &mut u64, msg: RtMsg, rep: &ReliableEndpoint) -> Option<RtMsg> {
    match msg_term(&msg) {
        Some(t) if t < *highest_term => {
            if let Some(journal) = rep.bus().journal() {
                journal.emit(EventKind::StaleTermRejected {
                    term: *highest_term,
                    stale: t,
                });
            }
            None
        }
        Some(t) => {
            *highest_term = t;
            Some(msg)
        }
        None => Some(msg),
    }
}

/// (Re-)announces this worker to the AM: joiners report readiness,
/// rejoiners present their crash incarnation's credentials, and
/// open-membership joiners send `JoinRequest` — carrying their warmup
/// digest claim (`digest`) once state has landed.
fn announce(
    rep: &mut ReliableEndpoint,
    id: WorkerId,
    role: &WorkerRole,
    term: u64,
    iteration: u64,
    epoch: u64,
    digest: Option<u64>,
) {
    match role {
        WorkerRole::Rejoin { .. } => {
            rep.send(
                EndpointId::Am,
                RtMsg::Rejoin {
                    worker: id,
                    term,
                    iteration,
                },
            );
        }
        WorkerRole::OpenJoin { .. } => {
            rep.send(
                EndpointId::Am,
                RtMsg::JoinRequest {
                    worker: id,
                    epoch,
                    digest,
                },
            );
        }
        _ => {
            rep.send(EndpointId::Am, RtMsg::Report { worker: id });
        }
    }
}

/// True (and rearms the timer) when a heartbeat is due.
///
/// A fresh timer (`None`) fires immediately — which is how the worker
/// beacons at startup *without* back-dating a timestamp. (The old code
/// subtracted `hb_period` from the current wall-clock reading to fake an
/// overdue timer, which underflows near the epoch and reads the clock
/// twice; on a virtual clock at t=0 it would simply panic.)
fn heartbeat_due(last: &mut Option<SimTime>, now: SimTime, period: SimDuration) -> bool {
    match *last {
        Some(at) if now.saturating_duration_since(at) < period => false,
        _ => {
            *last = Some(now);
            true
        }
    }
}

/// Runs the worker until it is told to leave (or until a chaos test
/// orders it to play dead, in which case it exits *silently* — a crashed
/// process does not say goodbye).
///
/// The worker publishes [`WorkerView`]s into `telemetry` every iteration
/// and marks itself not-alive when it exits cleanly.
pub fn run_worker(
    cfg: WorkerConfig,
    mut rep: ReliableEndpoint,
    comm: Arc<CommGroup>,
    telemetry: Telemetry,
    role: WorkerRole,
    ctrl: Arc<SharedControl>,
) {
    let time: TimeSource = rep.time().clone();
    let hb_period = std_to_sim(cfg.hb_period);
    let mut params = vec![0.5f32; cfg.param_elems];
    let mut momentum = vec![0.0f32; cfg.param_elems];
    let mut grad = vec![0.0f32; cfg.param_elems];
    let mut iteration: u64 = 0;
    let mut data_cursor: u64 = 0;
    let mut stalled = std::time::Duration::ZERO;
    // A fresh (`None`) timer beacons immediately so the failure detector
    // sees us early.
    let mut last_hb: Option<SimTime> = None;
    // Resume-wave staleness guard: only newer generations un-park us.
    let mut last_seen_gen: u64 = comm.generation();
    // Highest fencing term observed; stale-term AM traffic is dropped.
    let mut highest_term: u64 = 0;

    if let WorkerRole::Restored {
        params: p,
        momentum: m,
        iteration: it,
        data_cursor: dc,
    } = &role
    {
        params.copy_from_slice(p);
        momentum.copy_from_slice(m);
        iteration = *it;
        data_cursor = *dc;
    }
    if let WorkerRole::Rejoin {
        term,
        iteration: it,
    } = &role
    {
        highest_term = *term;
        iteration = *it;
    }
    if matches!(
        role,
        WorkerRole::Joining | WorkerRole::Rejoin { .. } | WorkerRole::OpenJoin { .. }
    ) {
        // Step ②: report readiness after "initialization" (the buffer
        // allocation above), then wait for state replication (step ④).
        // Rejoiners announce with their crash credentials instead; the
        // announce is re-sent periodically because an AM that is
        // mid-adjustment defers admission without replying.
        let open_join = matches!(role, WorkerRole::OpenJoin { .. });
        let corrupt_mask = match role {
            // Fault injection: flip digest bits so witnesses must evict.
            WorkerRole::OpenJoin { corrupt: true } => 0xdead_beef_u64,
            _ => 0,
        };
        // The epoch the AM last announced; JoinRequests carry it so the
        // machine can tell a fresh announce from a stale one.
        let mut known_epoch: u64 = 0;
        announce(
            &mut rep,
            cfg.id,
            &role,
            highest_term,
            iteration,
            known_epoch,
            None,
        );
        let mut last_announce = time.now();
        let mut have_state = false;
        let mut pending_resume: Option<u64> = None;
        let mut assembly = SnapshotAssembly::new();
        loop {
            if ctrl.worker_crashed(cfg.id) {
                return;
            }
            if open_join && ctrl.shutting_down() {
                // A deferred or window-parked joiner is not a member: the
                // AM's `Stop` never sends it a `Leave`, so it must notice
                // the shutdown itself or the teardown join would hang.
                publish(
                    &telemetry,
                    cfg.id,
                    iteration,
                    data_cursor,
                    checksum(&params),
                    false,
                    stalled,
                );
                return;
            }
            let _ = rep.tick();
            if heartbeat_due(&mut last_hb, time.now(), hb_period) {
                rep.send_unreliable(
                    EndpointId::Am,
                    RtMsg::Heartbeat {
                        worker: cfg.id,
                        iteration,
                    },
                );
            }
            // Re-announce at heartbeat cadence until state arrives. The
            // transport retries each announce, but its budget is finite: a
            // joiner whose one-shot Report falls inside a partition window
            // longer than the retry budget would otherwise wait silently
            // forever — the AM that eventually serves the adjustment has
            // never heard of it (the joiner predates the AM's AmReset
            // audience). Report/Rejoin/JoinRequest are idempotent at the
            // AM, so fresh announces are always safe. An open joiner keeps
            // announcing even after state lands: its digest claim may have
            // died with a failed-over AM, and a deferred joiner must
            // re-present itself at the next epoch's window.
            if (!have_state || open_join)
                && time.now().saturating_duration_since(last_announce) >= hb_period
            {
                let claim = (open_join && have_state)
                    .then(|| state_digest(&params, &momentum) ^ corrupt_mask);
                announce(
                    &mut rep,
                    cfg.id,
                    &role,
                    highest_term,
                    iteration,
                    known_epoch,
                    claim,
                );
                last_announce = time.now();
            }
            let Some((_, msg)) = rep.recv_timeout(cfg.tick) else {
                continue;
            };
            let Some(msg) = fence(&mut highest_term, msg, &rep) else {
                continue;
            };
            match msg {
                RtMsg::StateChunk {
                    kind,
                    iteration: it,
                    data_cursor: dc,
                    index,
                    total,
                    offset,
                    data,
                } => {
                    // Chunks assemble incrementally; a duplicate stream
                    // from an AM-recovery replay is harmless (state is
                    // bit-identical at a boundary) and dedup'd per chunk.
                    // Never step backwards.
                    if let Some((it, dc)) = assembly.offer(
                        kind,
                        it,
                        dc,
                        index,
                        total,
                        offset,
                        &data,
                        &mut params,
                        &mut momentum,
                    ) {
                        if let Some(journal) = rep.bus().journal() {
                            journal.emit(EventKind::SnapshotApplied {
                                worker: cfg.id,
                                iteration: it,
                            });
                        }
                        if it >= iteration {
                            iteration = it;
                            data_cursor = dc;
                            have_state = true;
                        }
                        if open_join && have_state {
                            // Claim the warmup digest right away — the
                            // witness round gates the whole cohort's
                            // resume, so don't wait out a heartbeat.
                            let claim = Some(state_digest(&params, &momentum) ^ corrupt_mask);
                            announce(
                                &mut rep,
                                cfg.id,
                                &role,
                                highest_term,
                                iteration,
                                known_epoch,
                                claim,
                            );
                            last_announce = time.now();
                        }
                        if let Some(generation) = pending_resume.take() {
                            last_seen_gen = generation;
                            break;
                        }
                    }
                }
                RtMsg::Resume { generation, .. } if generation > last_seen_gen => {
                    if have_state {
                        last_seen_gen = generation;
                        break;
                    }
                    // Resume overtook the transfer (reordered bus): hold it
                    // until the state lands.
                    pending_resume = Some(pending_resume.map_or(generation, |g| g.max(generation)));
                }
                RtMsg::Leave { .. } => {
                    publish(
                        &telemetry,
                        cfg.id,
                        iteration,
                        data_cursor,
                        checksum(&params),
                        false,
                        stalled,
                    );
                    return;
                }
                RtMsg::EpochAdvance { epoch, .. } => {
                    // Track the AM's announced epoch so (re-)announces
                    // carry a current window reference.
                    known_epoch = known_epoch.max(epoch);
                }
                RtMsg::AmReset { .. } => {
                    // A replacement AM solicits state afresh (§V-D).
                    let claim = (open_join && have_state)
                        .then(|| state_digest(&params, &momentum) ^ corrupt_mask);
                    announce(
                        &mut rep,
                        cfg.id,
                        &role,
                        highest_term,
                        iteration,
                        known_epoch,
                        claim,
                    );
                    last_announce = time.now();
                }
                _ => {}
            }
        }
    }
    // Kept current by every optimizer step, which folds the checksum
    // into its sweep.
    let mut params_checksum = checksum(&params);
    publish(
        &telemetry,
        cfg.id,
        iteration,
        data_cursor,
        params_checksum,
        true,
        stalled,
    );

    loop {
        if ctrl.worker_crashed(cfg.id) {
            return;
        }
        // Between boundaries nothing else reads the inbox: settle the
        // acks of what this worker streamed (a checkpoint, a transfer)
        // so `tick` does not resend chunks the peer already has.
        rep.absorb_acks();
        let _ = rep.tick();
        if heartbeat_due(&mut last_hb, time.now(), hb_period) {
            rep.send_unreliable(
                EndpointId::Am,
                RtMsg::Heartbeat {
                    worker: cfg.id,
                    iteration,
                },
            );
        }
        // Forward/backward: the synthetic kernel. The optional compute
        // cost parks this worker so the virtual clock can advance while
        // the cohort trains (time.sleep may return early on a wake; that
        // only shortens the pause, never blocks progress).
        if !cfg.compute.is_zero() {
            time.sleep(cfg.compute);
        }
        gradient(cfg.id, iteration, &mut grad);
        // Gradient aggregation over the collective group. The group picks
        // the engine (flat / chunked / hierarchical) per round from the
        // contributor set and vector length; workers just contribute and
        // help. While blocked on slower members we keep heartbeating so
        // the failure detector can tell a victim from its hostages.
        let outcome = {
            let rep = &mut rep;
            let last_hb = &mut last_hb;
            let ctrl = &ctrl;
            let time = &time;
            comm.allreduce_with(cfg.id, &grad, move || {
                // Keep the retry tracker running while blocked: a joiner we
                // owe (dropped) StateChunks may be the very member this
                // round is waiting on — without resends here the round can
                // never complete.
                let _ = rep.tick();
                if !ctrl.worker_crashed(cfg.id) && heartbeat_due(last_hb, time.now(), hb_period) {
                    rep.send_unreliable(
                        EndpointId::Am,
                        RtMsg::Heartbeat {
                            worker: cfg.id,
                            iteration,
                        },
                    );
                }
            })
        };
        let (sum, world) = match outcome {
            AllreduceOutcome::Sum { sum, world } => (sum, world.max(1) as f32),
            AllreduceOutcome::NotMember => {
                // Evicted (declared dead) or membership changed without a
                // Leave: exit quietly rather than deadlock the group.
                if !ctrl.worker_crashed(cfg.id) {
                    publish(
                        &telemetry,
                        cfg.id,
                        iteration,
                        data_cursor,
                        params_checksum,
                        false,
                        stalled,
                    );
                }
                return;
            }
            AllreduceOutcome::DuplicateContribution => {
                // We already contributed to this round — a protocol bug
                // (or a replayed thread). The group rejected the second
                // contribution rather than overwriting the first; exit
                // rather than train on a sum we never observed.
                publish(
                    &telemetry,
                    cfg.id,
                    iteration,
                    data_cursor,
                    params_checksum,
                    false,
                    stalled,
                );
                return;
            }
        };
        // Optimizer step: SGD with momentum on the averaged gradient. The
        // world size is the one captured with this round's sum, so an
        // eviction mid-round cannot skew the average.
        params_checksum = sgd_step(&mut params, &mut momentum, &sum, world, cfg.learning_rate);
        iteration += 1;
        data_cursor += cfg.total_batch as u64;
        if ctrl.worker_crashed(cfg.id) {
            return;
        }
        publish(
            &telemetry,
            cfg.id,
            iteration,
            data_cursor,
            params_checksum,
            true,
            stalled,
        );

        // Coordination boundary (step ③).
        if iteration.is_multiple_of(cfg.coordination_interval) {
            if ctrl.take_worker_boundary_crash(cfg.id, iteration) {
                // Chaos-injected crash: die silently after the SGD step
                // but before Coordinate, leaving the boundary hanging.
                // The restarted incarnation presents these credentials.
                ctrl.record_worker_crash(cfg.id, highest_term, iteration);
                return;
            }
            let parked_at = time.now();
            // Chunked snapshot of this boundary's state, built lazily on
            // the first transfer/checkpoint order and shared (`Arc`)
            // across every destination served at this boundary — the old
            // path cloned both full buffers per destination.
            let mut chunk_cache: Option<Vec<PreparedChunk>> = None;
            rep.send(
                EndpointId::Am,
                RtMsg::Coordinate {
                    worker: cfg.id,
                    iteration,
                },
            );
            loop {
                if ctrl.worker_crashed(cfg.id) {
                    return;
                }
                let _ = rep.tick();
                if heartbeat_due(&mut last_hb, time.now(), hb_period) {
                    rep.send_unreliable(
                        EndpointId::Am,
                        RtMsg::Heartbeat {
                            worker: cfg.id,
                            iteration,
                        },
                    );
                }
                let Some((_, msg)) = rep.recv_timeout(cfg.tick) else {
                    continue;
                };
                let Some(msg) = fence(&mut highest_term, msg, &rep) else {
                    continue;
                };
                match msg {
                    // Only the release of *this* boundary counts — a
                    // chaos-delayed Proceed from an earlier round is stale.
                    RtMsg::Proceed { boundary, .. } if boundary == iteration => break,
                    RtMsg::Resume { generation, .. } if generation > last_seen_gen => {
                        last_seen_gen = generation;
                        break;
                    }
                    RtMsg::TransferOrder { dst, .. } => {
                        // Step ④: stream training state to the joiner as
                        // interleaved params/momentum chunks.
                        let chunks = chunk_cache.get_or_insert_with(|| {
                            build_state_chunks(&params, &momentum, cfg.replication_chunk_elems)
                        });
                        send_snapshot(
                            &mut rep,
                            EndpointId::Worker(dst),
                            chunks,
                            iteration,
                            data_cursor,
                        );
                        let sent = chunks.len() as u32;
                        if let Some(journal) = rep.bus().journal() {
                            journal.emit(EventKind::SnapshotStreamed {
                                worker: cfg.id,
                                chunks: sent,
                            });
                        }
                        rep.send(EndpointId::Am, RtMsg::TransferDone { src: cfg.id, dst });
                    }
                    RtMsg::CheckpointOrder { .. } => {
                        // The S&R path, live: stream the snapshot to the
                        // controller, chunked like any other replication.
                        let chunks = chunk_cache.get_or_insert_with(|| {
                            build_state_chunks(&params, &momentum, cfg.replication_chunk_elems)
                        });
                        send_snapshot(
                            &mut rep,
                            EndpointId::Controller,
                            chunks,
                            iteration,
                            data_cursor,
                        );
                        let sent = chunks.len() as u32;
                        if let Some(journal) = rep.bus().journal() {
                            journal.emit(EventKind::SnapshotStreamed {
                                worker: cfg.id,
                                chunks: sent,
                            });
                        }
                        rep.send(
                            EndpointId::Am,
                            RtMsg::TransferDone {
                                src: cfg.id,
                                dst: cfg.id,
                            },
                        );
                    }
                    RtMsg::WitnessQuery {
                        subject,
                        epoch,
                        probe,
                        ..
                    } => {
                        // Witness step: recompute the digest over *our*
                        // boundary state and vote on the joiner's claim.
                        // We are parked at the very boundary the joiner's
                        // state was streamed from, so an honest claim
                        // matches bit-exactly.
                        let d = state_digest(&params, &momentum);
                        rep.send(
                            EndpointId::Am,
                            RtMsg::WitnessVote {
                                witness: cfg.id,
                                subject,
                                epoch,
                                admit: probe == d,
                                digest: d,
                            },
                        );
                    }
                    RtMsg::Leave { .. } => {
                        stalled += sim_to_std(time.now().saturating_duration_since(parked_at));
                        publish(
                            &telemetry,
                            cfg.id,
                            iteration,
                            data_cursor,
                            params_checksum,
                            false,
                            stalled,
                        );
                        return;
                    }
                    RtMsg::AmReset { .. } => {
                        // A replacement AM lost its predecessor's inbox:
                        // re-announce that we are parked at this boundary.
                        rep.send(
                            EndpointId::Am,
                            RtMsg::Coordinate {
                                worker: cfg.id,
                                iteration,
                            },
                        );
                    }
                    _ => {}
                }
            }
            stalled += sim_to_std(time.now().saturating_duration_since(parked_at));
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn publish(
    telemetry: &Telemetry,
    id: WorkerId,
    iteration: u64,
    data_cursor: u64,
    params_checksum: u64,
    alive: bool,
    stalled: std::time::Duration,
) {
    telemetry.lock().insert(
        id,
        WorkerView {
            iteration,
            data_cursor,
            params_checksum,
            alive,
            stalled,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_is_deterministic_and_shard_specific() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        gradient(WorkerId(0), 5, &mut a);
        gradient(WorkerId(0), 5, &mut b);
        assert_eq!(a, b);
        gradient(WorkerId(1), 5, &mut b);
        assert_ne!(a, b);
        gradient(WorkerId(0), 6, &mut b);
        assert_ne!(a, b);
    }

    /// The scalar gradient formula the periodic fill replaced.
    fn gradient_formula(worker: WorkerId, iteration: u64, out: &mut [f32]) {
        let w = worker.0 as u64;
        for (j, g) in out.iter_mut().enumerate() {
            let x = (iteration
                .wrapping_mul(6364136223846793005)
                .wrapping_add(w.wrapping_mul(1442695040888963407))
                .wrapping_add(j as u64))
                % 2048;
            *g = (x as f32 / 2048.0) - 0.5;
        }
    }

    /// The serial checksum chain the lane fold replaced.
    fn serial_checksum(buf: &[f32]) -> u64 {
        buf.iter()
            .fold(0u64, |acc, &v| acc.rotate_left(7) ^ u64::from(v.to_bits()))
    }

    /// The scalar SGD-with-momentum step `sgd_step` fused.
    fn scalar_sgd(params: &mut [f32], momentum: &mut [f32], sum: &[f32], world: f32, lr: f32) {
        for ((w, m), &s) in params.iter_mut().zip(momentum.iter_mut()).zip(sum) {
            *m = 0.9 * *m + s / world;
            *w -= lr * *m;
        }
    }

    /// `n` floats with arbitrary bit patterns (NaNs and infinities
    /// included), from a SplitMix64 stream.
    fn random_bits(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                f32::from_bits((z ^ (z >> 31)) as u32)
            })
            .collect()
    }

    #[test]
    fn lane_fold_equals_serial_fold() {
        for (seed, n) in [0, 1, 63, 64, 65, 2047, 2048, 2049, 4096, 4097, 1 << 20]
            .into_iter()
            .enumerate()
        {
            let buf = random_bits(n, seed as u64);
            assert_eq!(checksum(&buf), serial_checksum(&buf), "len {n}");
        }
        // Structured inputs too: one set bit at every position of a lane.
        for i in 0..130 {
            let mut buf = vec![0.0f32; 130];
            buf[i] = f32::from_bits(1 << (i % 32));
            assert_eq!(checksum(&buf), serial_checksum(&buf), "bit at {i}");
        }
    }

    #[test]
    fn periodic_gradient_equals_formula() {
        for worker in [0, 1, 3, 17, u32::MAX] {
            for iteration in [0, 1, 99, 1 << 40, u64::MAX] {
                for n in [0, 1, 2047, 2048, 2049, 4096, 5000] {
                    let mut fast = vec![f32::NAN; n];
                    let mut slow = vec![f32::NAN; n];
                    gradient(WorkerId(worker), iteration, &mut fast);
                    gradient_formula(WorkerId(worker), iteration, &mut slow);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&fast),
                        bits(&slow),
                        "worker {worker} iteration {iteration} len {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn sgd_step_matches_scalar_step_and_returns_its_checksum() {
        for n in [0, 1, 63, 64, 65, 2049, 4097] {
            let unit = |v: Vec<f32>| -> Vec<f32> {
                v.iter()
                    .map(|x| (x.to_bits() % 4096) as f32 / 1024.0 - 2.0)
                    .collect()
            };
            let p0 = unit(random_bits(n, 1));
            let m0 = unit(random_bits(n, 2));
            let sum = unit(random_bits(n, 3));
            let (mut p, mut m) = (p0.clone(), m0.clone());
            let got = sgd_step(&mut p, &mut m, &sum, 3.0, 0.05);
            let (mut want_p, mut want_m) = (p0, m0);
            scalar_sgd(&mut want_p, &mut want_m, &sum, 3.0, 0.05);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p), bits(&want_p), "params, len {n}");
            assert_eq!(bits(&m), bits(&want_m), "momentum, len {n}");
            assert_eq!(got, checksum(&p), "len {n}");
            assert_eq!(got, serial_checksum(&p), "len {n}");
        }
    }

    #[test]
    fn simulate_training_matches_the_scalar_replay() {
        for (world, iterations, elems) in [(1, 3, 100), (2, 6, 4097), (3, 4, 2048)] {
            let lr = 0.05;
            let mut params = vec![0.5f32; elems];
            let mut momentum = vec![0.0f32; elems];
            let mut grad = vec![0.0f32; elems];
            for iter in 0..iterations {
                let mut sum = vec![0.0f32; elems];
                for w in 0..world {
                    gradient_formula(WorkerId(w), iter, &mut grad);
                    for (s, &g) in sum.iter_mut().zip(&grad) {
                        *s += g;
                    }
                }
                scalar_sgd(&mut params, &mut momentum, &sum, world as f32, lr);
            }
            let (p, m, cursor) = simulate_training(world, iterations, elems, lr, 128);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p), bits(&params));
            assert_eq!(bits(&m), bits(&momentum));
            assert_eq!(cursor, iterations * 128);
        }
    }

    #[test]
    fn checksum_detects_differences() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        assert_eq!(checksum(&a), checksum(&b));
        b[1] = 2.0000002;
        assert_ne!(checksum(&a), checksum(&b));
    }

    #[test]
    fn gradient_values_are_bounded() {
        let mut g = vec![0.0; 256];
        gradient(WorkerId(3), 99, &mut g);
        assert!(g.iter().all(|v| (-0.5..=0.5).contains(v)));
    }

    #[test]
    fn chunked_snapshot_roundtrips_out_of_order_with_duplicates() {
        let params: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let momentum: Vec<f32> = (0..100).map(|i| -(i as f32)).collect();
        let chunks = build_state_chunks(&params, &momentum, 33);
        assert_eq!(chunks.len(), 2 * 4); // ceil(100/33) chunks per stream
        let mut p = vec![0.0f32; 100];
        let mut m = vec![0.0f32; 100];
        let mut asm = SnapshotAssembly::new();
        let mut finished = None;
        // Deliver in reverse order, every chunk twice (chaos reorder+dup).
        for &(kind, index, total, offset, ref data) in chunks.iter().rev() {
            for _ in 0..2 {
                if let Some(done) =
                    asm.offer(kind, 7, 42, index, total, offset, data, &mut p, &mut m)
                {
                    assert!(finished.is_none(), "completed twice");
                    finished = Some(done);
                }
            }
        }
        assert_eq!(finished, Some((7, 42)));
        assert_eq!(p, params);
        assert_eq!(m, momentum);
    }

    #[test]
    fn snapshot_assembly_restarts_on_newer_and_ignores_stale() {
        let old = vec![1.0f32; 10];
        let new = vec![2.0f32; 10];
        let mut p = vec![0.0f32; 10];
        let mut m = vec![0.0f32; 10];
        let mut asm = SnapshotAssembly::new();
        let old_chunks = build_state_chunks(&old, &old, 10);
        let new_chunks = build_state_chunks(&new, &new, 10);
        // One chunk of the old snapshot lands first…
        let (k, i, t, o, ref d) = old_chunks[0];
        assert!(asm.offer(k, 5, 0, i, t, o, d, &mut p, &mut m).is_none());
        // …then the new snapshot completes…
        let mut done = None;
        for &(k, i, t, o, ref d) in &new_chunks {
            if let Some(f) = asm.offer(k, 10, 99, i, t, o, d, &mut p, &mut m) {
                done = Some(f);
            }
        }
        assert_eq!(done, Some((10, 99)));
        assert_eq!(p, new);
        // …and a stale replay of the old one cannot clobber it.
        for &(k, i, t, o, ref d) in &old_chunks {
            assert!(asm.offer(k, 5, 0, i, t, o, d, &mut p, &mut m).is_none());
        }
        assert_eq!(p, new);
        assert_eq!(m, new);
    }

    #[test]
    fn heartbeat_timer_rearms() {
        let period = SimDuration::from_millis(50);
        let mut last = Some(SimTime::ZERO);
        // 100ms after the last beacon: due, and the timer rearms to `now`.
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        assert!(heartbeat_due(&mut last, now, period));
        assert_eq!(last, Some(now));
        assert!(!heartbeat_due(&mut last, now, period));
        // Exactly one period later: due again.
        assert!(heartbeat_due(&mut last, now + period, period));
    }

    #[test]
    fn fresh_heartbeat_timer_fires_immediately_even_at_the_epoch() {
        // Regression: the worker used to fake "already overdue" by
        // back-dating a wall-clock reading one period into the past — on a
        // clock whose epoch is t=0 (the virtual clock) that subtraction
        // underflows. A `None` timer must be due at t=0 with no arithmetic.
        let period = SimDuration::from_millis(50);
        let mut last: Option<SimTime> = None;
        assert!(heartbeat_due(&mut last, SimTime::ZERO, period));
        assert_eq!(last, Some(SimTime::ZERO));
        assert!(!heartbeat_due(&mut last, SimTime::ZERO, period));
    }
}
