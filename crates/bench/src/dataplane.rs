//! Data-plane benchmarks: allreduce throughput and state-replication
//! makespan, the adaptive engine vs. the naive pre-overhaul baselines.
//!
//! This is the measurement side of the data-plane performance work: the
//! live runtime's adaptive [`CommGroup`] (flat / chunked / hierarchical,
//! dispatched per round) and chunked, `Arc`-shared state replication are
//! raced against the exact code they replaced — the flat lock-held
//! [`NaiveCommGroup`] and the clone-both-buffers-per-destination
//! monolithic transfer — on the same inputs. Results serialize to
//! `BENCH_dataplane.json` (see [`Report::to_json`]) so CI and the README
//! can track the trajectory, and [`assert_thresholds`] turns a committed
//! report into a regression gate: a fresh run must not fall more than
//! [`REGRESSION_TOLERANCE`] below the baseline on any matching cell, and
//! every allreduce cell must beat naive outright unless it is on the
//! [`SPEEDUP_FLOOR_ALLOWLIST`].
//!
//! Everything here is free of external dependencies: the JSON emitter is
//! a few `format!`s, and [`validate_json`] carries a small recursive-
//! descent parser so the CI smoke job can check the schema offline.

use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use elan_core::obs::AdjustmentPhase;
use elan_core::state::WorkerId;
use elan_rt::comm::{AllreduceOutcome, CommGroup, CommTopology, ReducePath};
use elan_rt::time::TimeSource;
use elan_rt::worker::{build_state_chunks, SnapshotAssembly};
use elan_rt::{ElasticRuntime, RuntimeConfig, TuningProfile};

use crate::naive::NaiveCommGroup;

/// Warm-up rounds excluded from every allreduce timing (they also fill
/// the chunked group's buffer pool, so the timed region is the
/// zero-allocation steady state).
const WARMUP_ROUNDS: u64 = 2;

/// Independent timing repetitions per allreduce measurement; the
/// reported throughput is the **median** rep. A single rep samples
/// whatever the host scheduler was doing during that window — on small
/// or shared machines the same binary swings tens of percent between
/// runs, and a speedup cell divides two such draws. The median discards
/// one-off interference spikes while keeping costs that recur in every
/// rep — deliberately *not* best-of-k, which would let the allocator
/// warm up across reps and erase the naive baseline's intrinsic
/// fresh-allocation churn. Both engines get the identical treatment.
const TIMING_REPS: usize = 3;

/// One allreduce measurement: both implementations on identical inputs.
#[derive(Debug, Clone, Copy)]
pub struct AllreducePoint {
    /// Workers in the group.
    pub world: u32,
    /// Elements per gradient vector.
    pub len: usize,
    /// Timed rounds (after warm-up).
    pub rounds: u64,
    /// The engine the adaptive dispatcher selected for this cell.
    pub path: ReducePath,
    /// Naive flat allreduce throughput, in contributed elements/second
    /// (`world × len × rounds / elapsed`).
    pub naive_elems_per_s: f64,
    /// Adaptive allreduce throughput (whichever engine the dispatcher
    /// picked for this `(world, len)`), same metric.
    pub adaptive_elems_per_s: f64,
}

impl AllreducePoint {
    /// Adaptive over naive.
    pub fn speedup(&self) -> f64 {
        self.adaptive_elems_per_s / self.naive_elems_per_s
    }
}

/// One replication measurement: monolithic vs. chunked makespan, with the
/// chunked path split into its two phases.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationPoint {
    /// Elements per state buffer (params and momentum each).
    pub param_elems: usize,
    /// Destinations served at the boundary.
    pub destinations: usize,
    /// Elements per chunk in the chunked path.
    pub chunk_elems: usize,
    /// Monolithic makespan (clone both buffers per destination), ms.
    pub monolithic_ms: f64,
    /// Chunked makespan (one chunking pass, `Arc`-shared), ms.
    pub chunked_ms: f64,
    /// Chunked phase ①: the once-per-boundary chunking pass, ms.
    pub chunked_prepare_ms: f64,
    /// Chunked phase ②: per-destination chunk assembly/apply, ms.
    pub chunked_apply_ms: f64,
}

impl ReplicationPoint {
    /// Monolithic over chunked (≥ 1 means chunked wins).
    pub fn speedup(&self) -> f64 {
        self.monolithic_ms / self.chunked_ms
    }
}

/// One live adjustment's per-phase latency, read back from the runtime's
/// event journal (the observability layer's `AdjustmentTrace`).
#[derive(Debug, Clone)]
pub struct AdjustmentPoint {
    /// `"scale-out"`, `"scale-in"`, `"migrate"`, or `"failure-scale-in"`.
    pub kind: String,
    /// World size after the adjustment completed.
    pub world_after: u32,
    /// Step ① (request) ms.
    pub request_ms: f64,
    /// Step ② (report) ms.
    pub report_ms: f64,
    /// Step ③ (coordinate) ms.
    pub coordinate_ms: f64,
    /// Step ④ (replicate) ms.
    pub replicate_ms: f64,
    /// Step ⑤ (adjust) ms.
    pub adjust_ms: f64,
    /// First phase start to last phase end, ms.
    pub total_ms: f64,
    /// Replication waves the planner scheduled.
    pub waves: u32,
    /// Point-to-point transfers planned.
    pub transfers: u32,
}

/// A full harness run, serializable to `BENCH_dataplane.json`.
#[derive(Debug, Clone)]
pub struct Report {
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Allreduce sweep.
    pub allreduce: Vec<AllreducePoint>,
    /// Replication sweep.
    pub replication: Vec<ReplicationPoint>,
    /// Live-runtime adjustment latency breakdown (per pipeline phase).
    pub adjustment: Vec<AdjustmentPoint>,
}

/// Deterministic mixed-magnitude input buffer.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s & 0xFFFF) as f32 / 65536.0) - 0.5
        })
        .collect()
}

/// Times `rounds` collective rounds of `run` across `world` threads and
/// returns throughput in contributed elements/second. The timer starts at
/// a barrier *after* the warm-up rounds, so thread spawn and pool
/// warm-up are excluded.
fn time_rounds<F>(world: u32, len: usize, rounds: u64, run: F) -> f64
where
    F: Fn(WorkerId, &[f32]) -> AllreduceOutcome + Sync,
{
    let mut reps: Vec<f64> = (0..TIMING_REPS)
        .map(|_| time_rounds_once(world, len, rounds, &run))
        .collect();
    reps.sort_by(|a, b| a.total_cmp(b));
    reps[reps.len() / 2]
}

/// One timing repetition of [`time_rounds`].
fn time_rounds_once<F>(world: u32, len: usize, rounds: u64, run: F) -> f64
where
    F: Fn(WorkerId, &[f32]) -> AllreduceOutcome + Sync,
{
    let inputs: Vec<Vec<f32>> = (0..world).map(|w| fill(w as u64 + 1, len)).collect();
    let barrier = Barrier::new(world as usize + 1);
    let secs = thread::scope(|s| {
        let handles: Vec<_> = (0..world as usize)
            .map(|w| {
                let run = &run;
                let input = &inputs[w];
                let barrier = &barrier;
                s.spawn(move || {
                    let id = WorkerId(w as u32);
                    for _ in 0..WARMUP_ROUNDS {
                        let _ = std::hint::black_box(run(id, input));
                    }
                    barrier.wait();
                    for _ in 0..rounds {
                        match run(id, input) {
                            AllreduceOutcome::Sum { sum, .. } => {
                                std::hint::black_box(sum[0]);
                            }
                            other => panic!("allreduce failed: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("bench worker");
        }
        t0.elapsed().as_secs_f64()
    });
    (world as f64) * (len as f64) * (rounds as f64) / secs
}

/// Benchmarks both allreduce implementations at one `(world, len)` point.
///
/// The adaptive group is built the way the runtime builds it: probed
/// crossovers (cached process-wide after the first call) and the default
/// planning topology, so the dispatcher picks the same engine the live
/// runtime would for this `(world, len)` — recorded in the point's
/// `path` column.
pub fn bench_allreduce(world: u32, len: usize, rounds: u64) -> AllreducePoint {
    let members: Vec<WorkerId> = (0..world).map(WorkerId).collect();
    let naive_group = NaiveCommGroup::new(members.iter().copied(), len);
    let naive = time_rounds(world, len, rounds, |w, d| naive_group.allreduce(w, d));
    let profile = TuningProfile::for_time(&TimeSource::real());
    let adaptive_group = CommGroup::with_tuning(
        members.iter().copied(),
        len,
        profile,
        Some(CommTopology::default()),
    );
    let path = adaptive_group.planned_path();
    let adaptive = time_rounds(world, len, rounds, |w, d| adaptive_group.allreduce(w, d));
    AllreducePoint {
        world,
        len,
        rounds,
        path,
        naive_elems_per_s: naive,
        adaptive_elems_per_s: adaptive,
    }
}

/// Benchmarks boundary state replication to `destinations` receivers.
///
/// *Monolithic* reproduces the pre-overhaul worker: it clones both full
/// buffers once **per destination** (the `Arc::new(params.clone())` the
/// old `StateTransfer` arm performed) before each receiver copies them
/// in. *Chunked* performs one chunking pass per boundary and serves
/// every destination `Arc`-shared chunks, which receivers assemble with
/// [`SnapshotAssembly`] — the live runtime's actual replication path.
pub fn bench_replication(
    param_elems: usize,
    destinations: usize,
    chunk_elems: usize,
    iters: u32,
) -> ReplicationPoint {
    let params = fill(7, param_elems);
    let momentum = fill(9, param_elems);
    let mut dst_p: Vec<Vec<f32>> = (0..destinations).map(|_| vec![0.0; param_elems]).collect();
    let mut dst_m: Vec<Vec<f32>> = (0..destinations).map(|_| vec![0.0; param_elems]).collect();

    // Monolithic: clone both buffers per destination, then copy in.
    let t0 = Instant::now();
    for _ in 0..iters {
        for d in 0..destinations {
            let p = std::hint::black_box(params.clone());
            let m = std::hint::black_box(momentum.clone());
            dst_p[d].copy_from_slice(&p);
            dst_m[d].copy_from_slice(&m);
        }
    }
    let monolithic_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters);

    // Chunked: one chunking pass per boundary, Arc-shared across
    // destinations, receivers assemble. The two phases are timed
    // separately so the report can attribute the makespan.
    let mut prepare_s = 0.0f64;
    let mut apply_s = 0.0f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        let tp = Instant::now();
        let chunks = build_state_chunks(&params, &momentum, chunk_elems);
        prepare_s += tp.elapsed().as_secs_f64();
        let ta = Instant::now();
        for d in 0..destinations {
            let mut asm = SnapshotAssembly::new();
            let mut finished = false;
            for &(kind, index, total, offset, ref data) in &chunks {
                if asm
                    .offer(
                        kind,
                        1,
                        0,
                        index,
                        total,
                        offset,
                        data,
                        &mut dst_p[d],
                        &mut dst_m[d],
                    )
                    .is_some()
                {
                    finished = true;
                }
            }
            assert!(finished, "chunked snapshot did not complete");
        }
        apply_s += ta.elapsed().as_secs_f64();
    }
    let chunked_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(iters);
    let chunked_prepare_ms = prepare_s * 1e3 / f64::from(iters);
    let chunked_apply_ms = apply_s * 1e3 / f64::from(iters);

    for d in 0..destinations {
        assert_eq!(dst_p[d], params, "replication corrupted params");
        assert_eq!(dst_m[d], momentum, "replication corrupted momentum");
    }
    ReplicationPoint {
        param_elems,
        destinations,
        chunk_elems,
        monolithic_ms,
        chunked_ms,
        chunked_prepare_ms,
        chunked_apply_ms,
    }
}

/// Runs a short live elastic job and reads each adjustment's per-phase
/// latency back from the runtime's event journal ([`AdjustmentTrace`]s
/// exposed through the shutdown report) — the observability layer is the
/// measurement instrument, not a separate stopwatch.
///
/// [`AdjustmentTrace`]: elan_rt::AdjustmentTrace
pub fn bench_adjustment(quick: bool) -> Vec<AdjustmentPoint> {
    let mut cfg = RuntimeConfig::small(2);
    cfg.param_elems = if quick { 4_096 } else { 65_536 };
    cfg.replication_chunk_elems = cfg.param_elems / 8;
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .start()
        .expect("valid bench configuration");
    rt.run_until_iteration(10);
    rt.scale_out(2);
    rt.run_until_iteration(20);
    rt.scale_in(1);
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    report
        .traces
        .iter()
        .filter(|t| t.completed)
        .map(|t| AdjustmentPoint {
            kind: t.kind.name().to_string(),
            world_after: t.final_world,
            request_ms: t.phase_us(AdjustmentPhase::Request) as f64 / 1e3,
            report_ms: t.phase_us(AdjustmentPhase::Report) as f64 / 1e3,
            coordinate_ms: t.phase_us(AdjustmentPhase::Coordinate) as f64 / 1e3,
            replicate_ms: t.phase_us(AdjustmentPhase::Replicate) as f64 / 1e3,
            adjust_ms: t.phase_us(AdjustmentPhase::Adjust) as f64 / 1e3,
            total_ms: t.total_us() as f64 / 1e3,
            waves: t.waves,
            transfers: t.transfers,
        })
        .collect()
}

/// Timed rounds per vector length — long vectors need few rounds for a
/// stable mean, short ones need many to rise above timer noise. Quick
/// mode halves the rounds rather than slashing them: allreduce rounds
/// are the cheap part of the sweep, and a too-short timing window makes
/// the speedup ratio (which the CI gate floors at 1.0) a coin flip on
/// the near-tied small-vector cells.
pub fn rounds_for(len: usize, quick: bool) -> u64 {
    let full = match len {
        0..=4_096 => 256,
        4_097..=131_072 => 48,
        131_073..=1_048_576 => 10,
        _ => 4,
    };
    if quick {
        (full / 2).max(2)
    } else {
        full
    }
}

/// Runs the whole sweep. `quick` shrinks the grid for CI smoke runs.
pub fn run(quick: bool, mut progress: impl FnMut(&str)) -> Report {
    let (worlds, lens): (Vec<u32>, Vec<usize>) = if quick {
        (vec![2, 4], vec![1_024, 65_536])
    } else {
        (vec![2, 4, 8, 16], vec![1_024, 65_536, 1_048_576, 4_194_304])
    };
    let mut allreduce = Vec::new();
    for &len in &lens {
        for &world in &worlds {
            let rounds = rounds_for(len, quick);
            let p = bench_allreduce(world, len, rounds);
            progress(&format!(
                "allreduce world={:2} len={:>9} rounds={:>3} path={:<7}  naive={:>12.0} elems/s  adaptive={:>12.0} elems/s  speedup={:.2}x",
                p.world, p.len, p.rounds, p.path.name(), p.naive_elems_per_s, p.adaptive_elems_per_s, p.speedup()
            ));
            allreduce.push(p);
        }
    }
    let repl_cfgs: Vec<(usize, usize, usize, u32)> = if quick {
        vec![(65_536, 2, 8_192, 3)]
    } else {
        vec![(1_048_576, 4, 65_536, 6), (4_194_304, 4, 65_536, 3)]
    };
    let mut replication = Vec::new();
    for (elems, dests, chunk, iters) in repl_cfgs {
        let p = bench_replication(elems, dests, chunk, iters);
        progress(&format!(
            "replication elems={:>9} dests={} chunk={:>6}  monolithic={:>8.2} ms  chunked={:>8.2} ms (prepare={:.2} apply={:.2})  speedup={:.2}x",
            p.param_elems, p.destinations, p.chunk_elems, p.monolithic_ms, p.chunked_ms,
            p.chunked_prepare_ms, p.chunked_apply_ms, p.speedup()
        ));
        replication.push(p);
    }
    let adjustment = bench_adjustment(quick);
    for a in &adjustment {
        progress(&format!(
            "adjustment {:<10} ->{}  request={:.2} report={:.2} coordinate={:.2} replicate={:.2} adjust={:.2}  total={:.2} ms",
            a.kind, a.world_after, a.request_ms, a.report_ms, a.coordinate_ms,
            a.replicate_ms, a.adjust_ms, a.total_ms
        ));
    }
    Report {
        mode: if quick { "quick" } else { "full" }.into(),
        allreduce,
        replication,
        adjustment,
    }
}

impl Report {
    /// Serializes the report as pretty-printed JSON (schema version 3).
    ///
    /// Schema 3 renames the allreduce throughput column to
    /// `adaptive_elems_per_s` (the measured side is now the adaptive
    /// dispatcher, not a fixed chunked engine) and adds the `path`
    /// column recording which engine (`flat` / `chunked` / `hier`) the
    /// dispatcher selected per cell. Schema 2 added the chunked
    /// replication phase split (`chunked_prepare_ms` /
    /// `chunked_apply_ms`) and the `adjustment` array carrying the live
    /// runtime's per-phase latency breakdown.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema_version\": 3,\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"allreduce\": [\n");
        for (i, p) in self.allreduce.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"world\": {}, \"len\": {}, \"rounds\": {}, \"path\": \"{}\", \"naive_elems_per_s\": {:.1}, \"adaptive_elems_per_s\": {:.1}, \"speedup\": {:.4}}}{}\n",
                p.world,
                p.len,
                p.rounds,
                p.path.name(),
                p.naive_elems_per_s,
                p.adaptive_elems_per_s,
                p.speedup(),
                if i + 1 < self.allreduce.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"replication\": [\n");
        for (i, p) in self.replication.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"param_elems\": {}, \"destinations\": {}, \"chunk_elems\": {}, \"monolithic_ms\": {:.4}, \"chunked_ms\": {:.4}, \"chunked_prepare_ms\": {:.4}, \"chunked_apply_ms\": {:.4}, \"speedup\": {:.4}}}{}\n",
                p.param_elems,
                p.destinations,
                p.chunk_elems,
                p.monolithic_ms,
                p.chunked_ms,
                p.chunked_prepare_ms,
                p.chunked_apply_ms,
                p.speedup(),
                if i + 1 < self.replication.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"adjustment\": [\n");
        for (i, a) in self.adjustment.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"kind\": \"{}\", \"world_after\": {}, \"request_ms\": {:.4}, \"report_ms\": {:.4}, \"coordinate_ms\": {:.4}, \"replicate_ms\": {:.4}, \"adjust_ms\": {:.4}, \"total_ms\": {:.4}, \"waves\": {}, \"transfers\": {}}}{}\n",
                a.kind,
                a.world_after,
                a.request_ms,
                a.report_ms,
                a.coordinate_ms,
                a.replicate_ms,
                a.adjust_ms,
                a.total_ms,
                a.waves,
                a.transfers,
                if i + 1 < self.adjustment.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// A minimal JSON value for schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded naively).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document (recursive descent, no external deps).
///
/// # Errors
///
/// Returns a position-annotated message on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut at = 0usize;
    let v = parse_value(bytes, &mut at)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing garbage at byte {at}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn expect(b: &[u8], at: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, at);
    if *at < b.len() && b[*at] == c {
        *at += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, at))
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *at += 1;
            let mut members = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, at);
                let key = match parse_value(b, at)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(b, at, b':')?;
                let val = parse_value(b, at)?;
                members.push((key, val));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {at}")),
                }
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = String::new();
            while *at < b.len() {
                match b[*at] {
                    b'"' => {
                        *at += 1;
                        return Ok(Json::Str(s));
                    }
                    b'\\' => {
                        *at += 1;
                        let esc = *b.get(*at).ok_or("unterminated escape")?;
                        s.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => other as char,
                        });
                        *at += 1;
                    }
                    c => {
                        s.push(c as char);
                        *at += 1;
                    }
                }
            }
            Err("unterminated string".into())
        }
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*at..].starts_with(b"null") => {
            *at += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *at += 1;
            }
            std::str::from_utf8(&b[start..*at])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

/// Validates a `BENCH_dataplane.json` document: schema keys present,
/// every throughput/makespan strictly positive, per-phase adjustment
/// latencies non-negative, every allreduce `path` a known engine name,
/// arrays non-empty.
///
/// Requires schema version ≥ 3 (the `path` column and the
/// `adaptive_elems_per_s` throughput are mandatory).
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = doc
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing schema_version")?;
    if schema < 3.0 {
        return Err(format!("bad schema_version {schema} (need >= 3)"));
    }
    match doc.get("mode") {
        Some(Json::Str(m)) if m == "full" || m == "quick" => {}
        other => return Err(format!("bad mode: {other:?}")),
    }
    let require_pos = |obj: &Json, key: &str| -> Result<f64, String> {
        let v = obj
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric key {key:?}"))?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(format!("key {key:?} must be positive and finite, got {v}"))
        }
    };
    let Some(Json::Arr(points)) = doc.get("allreduce") else {
        return Err("missing allreduce array".into());
    };
    if points.is_empty() {
        return Err("allreduce array is empty".into());
    }
    for p in points {
        match p.get("path") {
            Some(Json::Str(s)) if s == "flat" || s == "chunked" || s == "hier" => {}
            other => return Err(format!("bad allreduce path: {other:?}")),
        }
        for key in [
            "world",
            "len",
            "rounds",
            "naive_elems_per_s",
            "adaptive_elems_per_s",
            "speedup",
        ] {
            require_pos(p, key)?;
        }
    }
    let Some(Json::Arr(points)) = doc.get("replication") else {
        return Err("missing replication array".into());
    };
    if points.is_empty() {
        return Err("replication array is empty".into());
    }
    for p in points {
        for key in [
            "param_elems",
            "destinations",
            "chunk_elems",
            "monolithic_ms",
            "chunked_ms",
            "chunked_prepare_ms",
            "chunked_apply_ms",
            "speedup",
        ] {
            require_pos(p, key)?;
        }
    }
    let require_nonneg = |obj: &Json, key: &str| -> Result<f64, String> {
        let v = obj
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric key {key:?}"))?;
        if v >= 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(format!(
                "key {key:?} must be non-negative and finite, got {v}"
            ))
        }
    };
    let Some(Json::Arr(points)) = doc.get("adjustment") else {
        return Err("missing adjustment array".into());
    };
    if points.is_empty() {
        return Err("adjustment array is empty".into());
    }
    for p in points {
        match p.get("kind") {
            Some(Json::Str(k)) if !k.is_empty() => {}
            other => return Err(format!("bad adjustment kind: {other:?}")),
        }
        require_pos(p, "world_after")?;
        require_pos(p, "total_ms")?;
        for key in [
            "request_ms",
            "report_ms",
            "coordinate_ms",
            "replicate_ms",
            "adjust_ms",
            "waves",
            "transfers",
        ] {
            require_nonneg(p, key)?;
        }
    }
    Ok(())
}

/// Fractional throughput loss a fresh run may show against the committed
/// baseline before the regression gate trips: CI runners are shared and
/// noisy, so single-digit swings are weather, but a >15% drop on a cell
/// that both runs measured is a code change someone needs to look at.
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// `(world, len)` allreduce cells allowed to run slower than naive
/// (`speedup < 1.0`). Empty on purpose: since the flat fast path landed,
/// no cell of the sweep loses to naive, and any new loss should trip the
/// gate until it is either fixed or consciously allowlisted here.
pub const SPEEDUP_FLOOR_ALLOWLIST: &[(u32, usize)] = &[];

/// The perf regression gate: checks a fresh [`Report`] against a
/// committed baseline document (`BENCH_dataplane.json`).
///
/// Three classes of violation are collected (all of them, not just the
/// first):
///
/// 1. an allreduce cell whose `speedup` fell below 1.0 and is not on the
///    [`SPEEDUP_FLOOR_ALLOWLIST`],
/// 2. an allreduce cell whose `adaptive_elems_per_s` dropped more than
///    [`REGRESSION_TOLERANCE`] below the baseline cell with the same
///    `(world, len)`,
/// 3. a replication cell whose `speedup` dropped more than
///    [`REGRESSION_TOLERANCE`] below the baseline cell with the same
///    `(param_elems, destinations, chunk_elems)`.
///
/// Cells without a matching baseline entry are skipped (a quick-mode run
/// gates against the subset of the committed full-mode grid it shares),
/// as are absolute-throughput comparisons across different `rounds`
/// counts: a quick run times far fewer rounds per window, so fixed
/// per-window costs weigh differently and the numbers are not
/// like-for-like — the speedup floor (check 1) still applies to every
/// fresh cell, because both engines share whatever window the cell used.
///
/// # Errors
///
/// Returns a newline-separated list of every violation.
pub fn assert_thresholds(fresh: &Report, baseline_text: &str) -> Result<(), String> {
    validate_json(baseline_text).map_err(|e| format!("baseline invalid: {e}"))?;
    let baseline = parse_json(baseline_text).map_err(|e| format!("baseline unparsable: {e}"))?;
    let mut violations = Vec::new();

    for p in &fresh.allreduce {
        let cell = format!("allreduce world={} len={}", p.world, p.len);
        if p.speedup() < 1.0 && !SPEEDUP_FLOOR_ALLOWLIST.contains(&(p.world, p.len)) {
            violations.push(format!(
                "{cell}: speedup {:.3} < 1.0 (path={}, not allowlisted)",
                p.speedup(),
                p.path.name()
            ));
        }
        let base = match baseline.get("allreduce") {
            Some(Json::Arr(points)) => points.iter().find(|b| {
                b.get("world").and_then(Json::as_num) == Some(f64::from(p.world))
                    && b.get("len").and_then(Json::as_num) == Some(p.len as f64)
            }),
            _ => None,
        };
        let like_for_like = base
            .and_then(|b| b.get("rounds")?.as_num())
            .is_some_and(|r| r == p.rounds as f64);
        if let Some(base_tp) = base
            .filter(|_| like_for_like)
            .and_then(|b| b.get("adaptive_elems_per_s")?.as_num())
        {
            let floor = base_tp * (1.0 - REGRESSION_TOLERANCE);
            if p.adaptive_elems_per_s < floor {
                violations.push(format!(
                    "{cell}: adaptive {:.0} elems/s regressed >{:.0}% below baseline {:.0}",
                    p.adaptive_elems_per_s,
                    REGRESSION_TOLERANCE * 100.0,
                    base_tp
                ));
            }
        }
    }

    for p in &fresh.replication {
        let base = match baseline.get("replication") {
            Some(Json::Arr(points)) => points.iter().find(|b| {
                b.get("param_elems").and_then(Json::as_num) == Some(p.param_elems as f64)
                    && b.get("destinations").and_then(Json::as_num) == Some(p.destinations as f64)
                    && b.get("chunk_elems").and_then(Json::as_num) == Some(p.chunk_elems as f64)
            }),
            _ => None,
        };
        if let Some(base_speedup) = base.and_then(|b| b.get("speedup")?.as_num()) {
            let floor = base_speedup * (1.0 - REGRESSION_TOLERANCE);
            if p.speedup() < floor {
                violations.push(format!(
                    "replication elems={} dests={} chunk={}: speedup {:.3} regressed >{:.0}% below baseline {:.3}",
                    p.param_elems,
                    p.destinations,
                    p.chunk_elems,
                    p.speedup(),
                    REGRESSION_TOLERANCE * 100.0,
                    base_speedup
                ));
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plausible synthetic adjustment point for schema tests (running
    /// the live runtime in every unit test would be slow on CI).
    fn synthetic_adjustment() -> AdjustmentPoint {
        AdjustmentPoint {
            kind: "scale-out".into(),
            world_after: 4,
            request_ms: 0.0,
            report_ms: 1.5,
            coordinate_ms: 0.2,
            replicate_ms: 3.0,
            adjust_ms: 0.8,
            total_ms: 5.5,
            waves: 1,
            transfers: 2,
        }
    }

    #[test]
    fn quickest_sweep_emits_valid_json() {
        // The smallest possible measurement exercises the whole pipeline.
        let report = Report {
            mode: "quick".into(),
            allreduce: vec![bench_allreduce(2, 256, 3)],
            replication: vec![bench_replication(1_024, 2, 256, 2)],
            adjustment: vec![synthetic_adjustment()],
        };
        validate_json(&report.to_json()).expect("emitted JSON validates");
    }

    #[test]
    fn live_adjustment_bench_round_trips_through_the_schema() {
        let adjustment = bench_adjustment(true);
        assert!(
            adjustment.len() >= 2,
            "expected scale-out + scale-in traces, got {adjustment:?}"
        );
        assert!(adjustment.iter().any(|a| a.kind == "scale-out"));
        assert!(adjustment.iter().any(|a| a.kind == "scale-in"));
        let report = Report {
            mode: "quick".into(),
            allreduce: vec![bench_allreduce(2, 256, 2)],
            replication: vec![bench_replication(1_024, 2, 256, 1)],
            adjustment,
        };
        validate_json(&report.to_json()).expect("live adjustment JSON validates");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
        assert!(validate_json(r#"{"schema_version": 3, "mode": "full"}"#).is_err());
        // Pre-adaptive documents (schema ≤ 2, no path column) are
        // rejected outright.
        assert!(validate_json(r#"{"schema_version": 2, "mode": "full"}"#)
            .unwrap_err()
            .contains("schema_version"));
        // Zero throughput is a schema violation, not a shrug.
        let bad = r#"{"schema_version": 3, "mode": "quick",
            "allreduce": [{"world": 2, "len": 4, "rounds": 1, "path": "flat",
                "naive_elems_per_s": 0.0, "adaptive_elems_per_s": 1.0, "speedup": 1.0}],
            "replication": [{"param_elems": 1, "destinations": 1, "chunk_elems": 1,
                "monolithic_ms": 1.0, "chunked_ms": 1.0,
                "chunked_prepare_ms": 0.5, "chunked_apply_ms": 0.5, "speedup": 1.0}],
            "adjustment": [{"kind": "scale-out", "world_after": 4,
                "request_ms": 0.0, "report_ms": 1.0, "coordinate_ms": 0.1,
                "replicate_ms": 2.0, "adjust_ms": 0.5, "total_ms": 3.6,
                "waves": 1, "transfers": 2}]}"#;
        assert!(validate_json(bad)
            .unwrap_err()
            .contains("naive_elems_per_s"));
        // An unknown dispatch path name is a schema violation.
        let bad_path = bad
            .replace("\"naive_elems_per_s\": 0.0", "\"naive_elems_per_s\": 1.0")
            .replace("\"path\": \"flat\"", "\"path\": \"warp\"");
        assert!(validate_json(&bad_path).unwrap_err().contains("path"));
        // A missing adjustment section is a schema violation too.
        let no_adj = bad
            .replace("\"naive_elems_per_s\": 0.0", "\"naive_elems_per_s\": 1.0")
            .replace("\"adjustment\": [", "\"ignored\": [");
        assert!(validate_json(&no_adj).unwrap_err().contains("adjustment"));
        // Negative phase latency is impossible and rejected.
        let neg = bad
            .replace("\"naive_elems_per_s\": 0.0", "\"naive_elems_per_s\": 1.0")
            .replace("\"replicate_ms\": 2.0", "\"replicate_ms\": -2.0");
        assert!(validate_json(&neg).unwrap_err().contains("replicate_ms"));
    }

    /// A synthetic report + matching baseline for gate tests.
    fn gate_fixture() -> (Report, String) {
        let point = AllreducePoint {
            world: 2,
            len: 1_024,
            rounds: 4,
            path: ReducePath::Flat,
            naive_elems_per_s: 1_000.0,
            adaptive_elems_per_s: 2_000.0,
        };
        let repl = ReplicationPoint {
            param_elems: 4_096,
            destinations: 2,
            chunk_elems: 512,
            monolithic_ms: 4.0,
            chunked_ms: 2.0,
            chunked_prepare_ms: 0.5,
            chunked_apply_ms: 1.5,
        };
        let report = Report {
            mode: "quick".into(),
            allreduce: vec![point],
            replication: vec![repl],
            adjustment: vec![synthetic_adjustment()],
        };
        let baseline = report.to_json();
        (report, baseline)
    }

    #[test]
    fn threshold_gate_passes_on_a_self_baseline() {
        let (report, baseline) = gate_fixture();
        assert_thresholds(&report, &baseline).expect("a run cannot regress against itself");
    }

    #[test]
    fn threshold_gate_trips_on_speedup_below_one() {
        let (mut report, baseline) = gate_fixture();
        report.allreduce[0].adaptive_elems_per_s = 900.0; // now slower than naive
        let err = assert_thresholds(&report, &baseline).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        assert!(err.contains("world=2 len=1024"), "{err}");
    }

    #[test]
    fn threshold_gate_trips_on_throughput_regression() {
        let (mut report, baseline) = gate_fixture();
        // Still faster than naive, but >15% below the baseline cell.
        report.allreduce[0].adaptive_elems_per_s = 1_500.0;
        let err = assert_thresholds(&report, &baseline).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn threshold_gate_trips_on_replication_regression() {
        let (mut report, baseline) = gate_fixture();
        report.replication[0].chunked_ms = 3.5; // speedup 2.0 -> 1.14
        let err = assert_thresholds(&report, &baseline).unwrap_err();
        assert!(err.contains("replication"), "{err}");
    }

    #[test]
    fn threshold_gate_skips_cells_missing_from_the_baseline() {
        let (mut report, baseline) = gate_fixture();
        // A new grid cell with no baseline counterpart only has to beat
        // naive; there is nothing to diff against.
        report.allreduce.push(AllreducePoint {
            world: 4,
            len: 65_536,
            rounds: 2,
            path: ReducePath::Chunked,
            naive_elems_per_s: 1_000.0,
            adaptive_elems_per_s: 1_001.0,
        });
        assert_thresholds(&report, &baseline).expect("unmatched cells are not gated");
    }

    #[test]
    fn threshold_gate_skips_throughput_across_rounds_counts() {
        let (mut report, baseline) = gate_fixture();
        // A quick run times fewer rounds per window than the committed
        // full-mode baseline; absolute throughput is not like-for-like,
        // so only the speedup floor applies.
        report.allreduce[0].rounds = 2;
        report.allreduce[0].adaptive_elems_per_s = 1_100.0; // >60% below baseline
        assert_thresholds(&report, &baseline).expect("cross-rounds throughput must not be gated");
        report.allreduce[0].adaptive_elems_per_s = 900.0; // but losing to naive still trips
        assert_thresholds(&report, &baseline).unwrap_err();
    }

    #[test]
    fn threshold_gate_rejects_invalid_baselines() {
        let (report, _) = gate_fixture();
        let err = assert_thresholds(&report, "not json").unwrap_err();
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v =
            parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Str("x".into())));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} extra").is_err());
    }

    #[test]
    fn replication_bench_is_bit_exact() {
        let p = bench_replication(2_000, 3, 333, 1);
        assert!(p.monolithic_ms > 0.0 && p.chunked_ms > 0.0);
    }
}
