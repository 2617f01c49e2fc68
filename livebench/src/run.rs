//! One measuring process: drives live jobs through `ElasticRuntime`'s
//! public API and prints one line per sample on stdout, so the parent
//! keeps every sample taken even if the job later hangs and is killed.
//!
//! Lines: `seg <iters/s>`, `adj <kind> <ms>`, `op <ok|fail> <what>
//! <detail>`, `audit <full|partial>`, `rss_mb <v>`, `flat_max_len <n>`,
//! `setup_s <v>` and, when traced, `layer <name> <value>`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child as Process, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use elan_core::obs::AdjustmentPhase;
use elan_core::state::WorkerId;
use elan_rt::worker::WorkerView;
use elan_rt::{
    check_term_safety, run_remote_worker, AdjustmentTrace, ElasticRuntime, EventKind,
    MemoryTransport, ReducePath, RemoteRole, RuntimeConfig, ShutdownReport, SocketTransport,
    TimeSource, Transport, TuningProfile,
};

use crate::check::{check_against_replay, check_final_views};
use crate::layers::{self, Counting, MsgClass, Spans};
use crate::stats::{median, SplitMix};
use crate::Workload;

/// Directory, relative to the checkout, for socket files and span dumps.
pub const OUT_DIR: &str = ".livebench";

/// Iterations the steady job trains before its first timed window, and
/// the checked job before its checkpoint.
const STEADY_WARMUP: u64 = 50;
/// Iterations per timed window of the steady job.
const STEADY_WINDOW: u64 = 100;
/// Windows the steady job times however short the run.
const MIN_WINDOWS: usize = 3;
/// Share of a `steady-1m` run given to the steady job; the elastic tail
/// gets the rest. With its simulated compute the steady job's throughput
/// varies little between windows, while the tail's adjustment latencies
/// need many samples.
const STEADY_SHARE: f64 = 0.4;
/// Adjustments a run must time so that ten samples lie beyond p90.
const MIN_ADJUSTMENTS: usize = 100;
/// Pause between the end of a training segment and the next adjustment
/// request. A request sent the instant a segment's last iteration is
/// seen races the boundary release: it finds the workers either still
/// parked (fast) or already inside the next iteration (one iteration
/// slower), and on a 1 Mi-element elastic job the median flipped between
/// the two modes from run to run. After the pause every request lands
/// mid-iteration.
const REQUEST_DELAY: Duration = Duration::from_millis(1);
/// Cycles per elastic job. The runtime's replication planner places
/// worker ids on a 512-slot topology and ids are never reused; a cycle
/// spends two ids, so a job restarts well before it runs out.
const CYCLES_PER_JOB: usize = 100;

/// Kinds of timed adjustment, in cycle order.
#[derive(Debug, Clone, Copy)]
enum Adjust {
    ScaleOut,
    ScaleIn,
    Migrate,
}

impl Adjust {
    fn name(self) -> &'static str {
        match self {
            Adjust::ScaleOut => "scale_out",
            Adjust::ScaleIn => "scale_in",
            Adjust::Migrate => "migrate",
        }
    }
}

/// Shape of an elastic job: the cycle scale_out → train → scale_in →
/// train → migrate → train from one founding worker.
#[derive(Debug, Clone, Copy)]
struct ElasticShape {
    elems: usize,
    uds: bool,
    /// Inclusive range of iterations trained between adjustments.
    segment: (u64, u64),
    /// Simulated device compute per iteration (`RuntimeConfig::compute_us`,
    /// a sleep before each gradient). With none, a 1024-element worker
    /// and the AM ping-pong a boundary every ~25 µs, and the per-run
    /// adjustment p50s varied twice as much from run to run (standard
    /// deviation of their logarithms 11% against 5%).
    compute_us: u64,
}

impl Workload {
    fn elastic_shape(self) -> ElasticShape {
        match self {
            // The tail after the steady job has `elastic-1k`'s shape: a
            // 1 Mi-element tail's latencies followed the host's compute
            // speed and spread past the gate's bound (README.md).
            Workload::Steady1m | Workload::Elastic1k => ElasticShape {
                elems: 1024,
                uds: false,
                segment: (64, 192),
                compute_us: 100,
            },
            // Progress reaches the coordinator only through 25 ms
            // heartbeats, so segments span several beacon periods.
            Workload::Uds1k => ElasticShape {
                elems: 1024,
                uds: true,
                segment: (256, 768),
                compute_us: 100,
            },
        }
    }
}

/// The steady job: two workers, 1 Mi elements, a coordination boundary
/// every 50 iterations, and 5 ms of simulated device compute per
/// iteration, about as long as the host work of an iteration (gradient
/// and chunked allreduce, ~4.4 ms on the reference host). Without it
/// throughput was pure host compute, whose speed on a shared host moved
/// by a third between minutes (per-run medians 165–299 it/s in one set of
/// ten, spread 0.32), past the gate's bound.
fn steady_config(learning_rate: f32) -> RuntimeConfig {
    let mut cfg = config(2, 1 << 20, 50, learning_rate);
    cfg.compute_us = 5000;
    cfg
}

/// An elastic job's launch: one founding worker, a boundary every
/// iteration.
fn elastic_config(shape: ElasticShape, learning_rate: f32) -> RuntimeConfig {
    let mut cfg = config(1, shape.elems, 1, learning_rate);
    cfg.compute_us = shape.compute_us;
    cfg
}

fn config(workers: u32, elems: usize, interval: u64, learning_rate: f32) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::small(workers);
    cfg.param_elems = elems;
    cfg.coordination_interval = interval;
    cfg.learning_rate = learning_rate;
    cfg
}

/// The seed's learning rate: it changes every parameter the job computes
/// and nothing about how much work an iteration does.
fn learning_rate(seed: u64) -> f32 {
    0.01 + 0.09 * SplitMix::new(seed ^ 0x6c72).unit() as f32
}

/// The process's high-water mark (`VmHWM`) in MiB.
///
/// `peak_rss_mb` reads it when the workload's first unit of work ends —
/// the steady job on `steady-1m`, the first elastic job elsewhere — so it
/// covers the same work on every run. The final mark (`rss_end_mb`) grew
/// with every further job, and so with the host's speed, and a
/// 1 Mi-element elastic job's varied by a tenth from run to run.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn socket_path(tag: &str) -> String {
    format!("{OUT_DIR}/{}-{tag}.sock", std::process::id())
}

/// A remote worker: a process of this binary that dials the job's
/// socket with `run_remote_worker`, one OS process per worker as in a
/// multi-process deployment.
struct Remote {
    process: Process,
    /// Held open for the worker's lifetime; the worker exits when it
    /// closes, so no worker outlives the process that started it.
    _lifeline: ChildStdin,
    output: JoinHandle<Vec<String>>,
}

fn spawn_remote(addr: &str, id: u32, seed: u64, role: &str) -> Remote {
    let mut process = Command::new(std::env::current_exe().expect("own executable path"))
        .args(["--child", "worker", "--workload", Workload::Uds1k.name()])
        .args(["--seed", &seed.to_string(), "--connect", addr])
        .args(["--id", &id.to_string(), "--role", role])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start remote worker process");
    let lifeline = process.stdin.take().expect("worker stdin is piped");
    let stdout = process.stdout.take().expect("worker stdout is piped");
    let output = thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<String>>()
    });
    Remote {
        process,
        _lifeline: lifeline,
        output,
    }
}

/// Waits for a remote worker to exit and returns its final view.
fn join_remote(mut remote: Remote) -> Option<WorkerView> {
    let status = remote.process.wait();
    let lines = remote.output.join().unwrap_or_default();
    if !status.as_ref().is_ok_and(|s| s.success()) {
        eprintln!("livebench: remote worker exited with {status:?}");
    }
    lines.iter().find_map(|l| {
        let f: Vec<u64> = l
            .strip_prefix("view ")?
            .split(' ')
            .filter_map(|v| v.parse().ok())
            .collect();
        match f[..] {
            [iteration, data_cursor, params_checksum, stalled_ns] => Some(WorkerView {
                iteration,
                data_cursor,
                params_checksum,
                alive: false,
                stalled: Duration::from_nanos(stalled_ns),
            }),
            _ => None,
        }
    })
}

/// Body of a remote worker process: trains until the job tells it to
/// leave, then prints its final view.
pub fn remote_worker(seed: u64, addr: &str, id: u32, role: &str) -> Result<(), String> {
    let role = RemoteRole::parse(role).ok_or(format!("bad role {role}"))?;
    let cfg = elastic_config(Workload::Uds1k.elastic_shape(), learning_rate(seed));
    match run_remote_worker(addr, WorkerId(id), cfg, role) {
        Ok(Some(v)) => {
            println!(
                "view {} {} {} {}",
                v.iteration,
                v.data_cursor,
                v.params_checksum,
                v.stalled.as_nanos()
            );
            Ok(())
        }
        Ok(None) => Ok(()),
        Err(e) => Err(format!("worker {id}: {e}")),
    }
}

/// Measures `setup_s` once: from `builder().start()` until every
/// founding worker has finished iteration 1.
pub fn setup_once(workload: Workload, seed: u64, traced: bool) {
    let lr = learning_rate(seed);
    let print = |elapsed: Duration| {
        println!("setup_s {}", elapsed.as_secs_f64());
        println!(
            "flat_max_len {}",
            TuningProfile::for_time(&TimeSource::real()).flat_max_len
        );
    };
    match workload {
        Workload::Steady1m | Workload::Elastic1k => {
            let cfg = match workload {
                Workload::Steady1m => steady_config(lr),
                _ => elastic_config(workload.elastic_shape(), lr),
            };
            let mut builder = ElasticRuntime::builder().config(cfg);
            if traced {
                let counting = Counting::new(Arc::new(MemoryTransport::default()));
                builder = builder.transport(Arc::new(counting));
            }
            let t = Instant::now();
            let rt = builder.start().expect("start runtime");
            rt.run_until_iteration(1);
            print(t.elapsed());
            // A shutdown would wait for the next coordination boundary,
            // half a second away on the steady job; the job's threads end
            // with this process instead.
            std::process::exit(0);
        }
        Workload::Uds1k => {
            let cfg = elastic_config(workload.elastic_shape(), lr);
            let path = socket_path("setup");
            let addr = format!("unix:{path}");
            let hub: Arc<dyn Transport> = Arc::new(SocketTransport::listen(&addr).expect("listen"));
            let hub = if traced {
                Arc::new(Counting::new(hub))
            } else {
                hub
            };
            let t = Instant::now();
            let rt = ElasticRuntime::builder()
                .config(cfg)
                .transport(hub)
                .remote_workers(true)
                .start()
                .expect("start coordinator");
            let worker = spawn_remote(&addr, 0, seed, "founding");
            rt.run_until_iteration(1);
            let elapsed = t.elapsed();
            drop(rt.shutdown());
            join_remote(worker);
            let _ = std::fs::remove_file(&path);
            print(elapsed);
        }
    }
}

/// Work done over the intervals that produce `train.iters_per_s`: the
/// timed windows of the steady job, the whole of an elastic job.
#[derive(Default)]
struct Counts {
    iterations: u64,
    stalled_ms: f64,
    events: u64,
    boundaries: u64,
    delivered: u64,
    path_rounds: u64,
    flat_rounds: u64,
    classes: Vec<MsgClass>,
}

impl Counts {
    /// Counts of a finished job from its report and final views.
    fn of_job(report: &ShutdownReport, views: &[WorkerView], counting: &Counting) -> Counts {
        let mut c = Counts {
            iterations: views.iter().map(|v| v.iteration).max().unwrap_or(0),
            stalled_ms: views.iter().map(|v| v.stalled.as_secs_f64() * 1e3).sum(),
            events: report.journal.total,
            boundaries: report.journal.count("boundary_released"),
            delivered: delivered(counting),
            classes: counting.classes(),
            ..Counts::default()
        };
        c.count_paths(&report.events, 0);
        c
    }

    /// Cumulative counts of a live in-process job; allreduce paths are
    /// counted from journal sequence number `paths_since` on.
    fn live(rt: &ElasticRuntime, counting: &Counting, paths_since: u64) -> Counts {
        let journal = rt.journal_summary();
        let views: Vec<WorkerView> = rt.snapshot().into_values().collect();
        let mut c = Counts {
            iterations: max_iteration(rt),
            stalled_ms: views.iter().map(|v| v.stalled.as_secs_f64() * 1e3).sum(),
            events: journal.total,
            boundaries: journal.count("boundary_released"),
            delivered: delivered(counting),
            classes: counting.classes(),
            ..Counts::default()
        };
        if paths_since < journal.total {
            c.count_paths(&rt.events(), paths_since);
        }
        c
    }

    fn count_paths(&mut self, events: &[elan_rt::Event], since: u64) {
        for e in events.iter().filter(|e| e.seq >= since) {
            if let EventKind::AllreducePath { path, .. } = e.kind {
                self.path_rounds += 1;
                self.flat_rounds += u64::from(path == ReducePath::Flat);
            }
        }
    }

    /// Adds `other` (`sign` = 1) or takes it away (`sign` = -1).
    fn merge(&mut self, other: &Counts, sign: i64) {
        let f = |a: &mut u64, b: u64| *a = (*a as i64 + sign * b as i64) as u64;
        f(&mut self.iterations, other.iterations);
        f(&mut self.events, other.events);
        f(&mut self.boundaries, other.boundaries);
        f(&mut self.delivered, other.delivered);
        f(&mut self.path_rounds, other.path_rounds);
        f(&mut self.flat_rounds, other.flat_rounds);
        self.stalled_ms += sign as f64 * other.stalled_ms;
        for class in &other.classes {
            let same = std::mem::discriminant(&class.sample.1.body);
            match self
                .classes
                .iter_mut()
                .find(|k| std::mem::discriminant(&k.sample.1.body) == same)
            {
                Some(k) => f(&mut k.count, class.count),
                None => self.classes.push(class.clone()),
            }
        }
    }
}

fn delivered(counting: &Counting) -> u64 {
    counting.all_stats().iter().map(|(_, s)| s.delivered).sum()
}

/// What the traced run accumulates across jobs.
#[derive(Default)]
struct Tally {
    throughput: Counts,
    overwritten: u64,
    resends: u64,
    duplicates: u64,
    give_ups: u64,
    dead_letters: u64,
    traces: Vec<AdjustmentTrace>,
}

/// State of one measuring process.
pub struct Child {
    workload: Workload,
    seed: u64,
    lr: f32,
    rng: SplitMix,
    spans: Option<Spans>,
    tally: Tally,
    adjustments: usize,
    jobs: usize,
}

impl Child {
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Self {
        Child {
            workload,
            seed,
            lr: learning_rate(seed),
            rng: SplitMix::new(seed),
            spans: traced.then(Spans::new),
            tally: Tally::default(),
            adjustments: 0,
            jobs: 0,
        }
    }

    fn enter(&mut self, name: &'static str) {
        if let Some(s) = &mut self.spans {
            s.enter(name);
        }
    }

    fn exit(&mut self) {
        if let Some(s) = &mut self.spans {
            s.exit();
        }
    }

    fn traced(&self) -> bool {
        self.spans.is_some()
    }

    /// When tracing, the message counter around `inner` (a fresh
    /// in-memory transport when `None`). Untraced jobs keep the
    /// runtime's own default transport.
    fn counting(&self, inner: Option<Arc<dyn Transport>>) -> Option<Arc<Counting>> {
        self.traced().then(|| {
            Arc::new(Counting::new(
                inner.unwrap_or_else(|| Arc::new(MemoryTransport::default())),
            ))
        })
    }

    fn timed_adjust(&mut self, kind: Adjust, f: impl FnOnce()) {
        thread::sleep(REQUEST_DELAY);
        self.enter(kind.name());
        let t = Instant::now();
        f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.exit();
        self.adjustments += 1;
        println!("adj {} {ms}", kind.name());
    }

    fn op(&self, what: &str, verdict: Result<(), String>) {
        match verdict {
            Ok(()) => println!("op ok {what} -"),
            Err(e) => println!("op fail {what} {e}"),
        }
    }

    /// Runs the workload for `seconds` and prints its samples.
    pub fn run(mut self, seconds: f64) {
        if self.traced() {
            // The first call in a fresh process runs the start-up probe.
            let t = Instant::now();
            let profile = TuningProfile::for_time(&TimeSource::real());
            println!(
                "layer comm.tune_probe_ms {}",
                t.elapsed().as_secs_f64() * 1e3
            );
            println!("layer comm.tune_flat_max_len {}", profile.flat_max_len);
        }
        let start = Instant::now();
        let mut deferred_check = None;
        match self.workload {
            Workload::Steady1m => {
                let steady_end = start + Duration::from_secs_f64(seconds * STEADY_SHARE);
                self.steady_job(steady_end);
                println!("rss_mb {}", peak_rss_mb());
                let end = start + Duration::from_secs_f64(seconds);
                while self.jobs == 1 || Instant::now() < end || self.adjustments < MIN_ADJUSTMENTS {
                    self.elastic_job(end, false);
                }
                deferred_check = Some(self.checked_job());
            }
            Workload::Elastic1k | Workload::Uds1k => {
                let end = start + Duration::from_secs_f64(seconds);
                while self.jobs == 0 || Instant::now() < end || self.adjustments < MIN_ADJUSTMENTS {
                    self.elastic_job(end, true);
                }
            }
        }
        println!("rss_end_mb {}", peak_rss_mb());
        println!(
            "flat_max_len {}",
            TuningProfile::for_time(&TimeSource::real()).flat_max_len
        );
        // Verification replays training single-threaded: kept out of
        // every timed interval and after both RSS readings.
        if let Some((snap, world)) = deferred_check {
            self.enter("verify.replay");
            let verdict = check_against_replay(&snap, world, self.lr, 128);
            self.exit();
            self.op("replay-check", verdict);
        }
        if self.traced() {
            self.report_layers();
        }
    }

    /// The steady job, timed in windows until `end`, with no
    /// adjustments.
    fn steady_job(&mut self, end: Instant) {
        let cfg = steady_config(self.lr);
        let counting = self.counting(None);
        self.enter("job.steady");
        self.enter("start");
        let mut builder = ElasticRuntime::builder().config(cfg);
        if let Some(c) = &counting {
            builder = builder.transport(Arc::clone(c) as Arc<dyn Transport>);
        }
        let rt = builder.start().expect("start runtime");
        rt.run_until_iteration(STEADY_WARMUP);
        self.exit();
        // Layer counts cover the timed windows only.
        let before = counting.as_deref().map(|c| Counts::live(&rt, c, u64::MAX));
        let mut windows = 0;
        while windows < MIN_WINDOWS || Instant::now() < end {
            windows += 1;
            let from = max_iteration(&rt);
            self.enter("train.window");
            let t = Instant::now();
            rt.run_until_iteration(from + STEADY_WINDOW);
            let dt = t.elapsed().as_secs_f64();
            self.exit();
            println!("seg {}", STEADY_WINDOW as f64 / dt);
        }
        let windowed = counting.as_deref().zip(before).map(|(c, before)| {
            let mut after = Counts::live(&rt, c, before.events);
            after.merge(&before, -1);
            after
        });
        self.enter("shutdown");
        let report = rt.shutdown();
        self.exit();
        self.exit();
        self.jobs += 1;
        if let Some(c) = &counting {
            self.absorb(&report, c, windowed);
        }
    }

    /// A steady job of its own for the replay check, run after every
    /// timed interval: it trains through warm-up, then returns rank 0's
    /// checkpoint and the job's world.
    ///
    /// A worker drains acknowledgements only at a coordination boundary,
    /// so until the next one rank 0 resends the checkpoint's 8,192 state
    /// chunks. With the checkpoint inside the steady job, one run of five
    /// peaked at 391 MB of RSS against about 57 MB for the others, and
    /// had the lowest throughput; here the burst shows only in
    /// `rss_end_mb`.
    fn checked_job(&mut self) -> (elan_rt::CheckpointSnapshot, u32) {
        let cfg = steady_config(self.lr);
        self.enter("job.check");
        let mut rt = ElasticRuntime::builder()
            .config(cfg)
            .start()
            .expect("start runtime");
        rt.run_until_iteration(STEADY_WARMUP);
        let snap = rt.checkpoint();
        drop(rt.shutdown());
        self.exit();
        (snap, cfg.initial_workers)
    }

    /// One elastic job: cycles until `end` (and the adjustment minimum),
    /// then a final scale-out to two workers whose final states must
    /// agree. `throughput` marks the job's segments as the run's
    /// `train.iters_per_s` samples.
    fn elastic_job(&mut self, end: Instant, throughput: bool) {
        let shape = self.workload.elastic_shape();
        let cfg = elastic_config(shape, self.lr);
        let path = socket_path(&format!("job{}", self.jobs));
        let addr = format!("unix:{path}");
        let hub: Option<Arc<dyn Transport>> = shape.uds.then(|| {
            Arc::new(SocketTransport::listen(&addr).expect("listen on unix socket"))
                as Arc<dyn Transport>
        });
        let counting = self.counting(hub.clone());
        let transport = match &counting {
            Some(c) => Some(Arc::clone(c) as Arc<dyn Transport>),
            None => hub,
        };
        let mut remotes: BTreeMap<u32, Remote> = BTreeMap::new();
        let seed = self.seed;
        let mut next_id = cfg.initial_workers;
        let mut views: Vec<WorkerView> = Vec::new();

        self.enter("job.elastic");
        self.enter("start");
        let mut builder = ElasticRuntime::builder()
            .config(cfg)
            .remote_workers(shape.uds);
        if let Some(t) = transport {
            builder = builder.transport(t);
        }
        let mut rt = builder.start().expect("start runtime");
        if shape.uds {
            remotes.insert(0, spawn_remote(&addr, 0, seed, "founding"));
        }
        rt.run_until_iteration(1);
        self.exit();
        let mut reached = 1u64;
        // Reserves the ids the runtime will give the next `n` joiners; on
        // a socket job, starts their processes just before the adjustment
        // that admits them.
        let mut admit = |n: u32, remotes: &mut BTreeMap<u32, Remote>| {
            for _ in 0..n {
                if shape.uds {
                    remotes.insert(next_id, spawn_remote(&addr, next_id, seed, "joining"));
                }
                next_id += 1;
            }
        };
        let reap = |before: &[WorkerId],
                    rt: &ElasticRuntime,
                    remotes: &mut BTreeMap<u32, Remote>,
                    views: &mut Vec<WorkerView>| {
            let after = rt.members();
            for w in before.iter().filter(|w| !after.contains(w)) {
                if let Some(h) = remotes.remove(&w.0) {
                    views.extend(join_remote(h));
                }
            }
        };
        let mut cycles = 0;
        loop {
            for kind in [Adjust::ScaleOut, Adjust::ScaleIn, Adjust::Migrate] {
                let before = rt.members();
                match kind {
                    Adjust::ScaleOut => admit(1, &mut remotes),
                    Adjust::Migrate => admit(before.len() as u32, &mut remotes),
                    Adjust::ScaleIn => {}
                }
                self.timed_adjust(kind, || match kind {
                    Adjust::ScaleOut => rt.scale_out(1),
                    Adjust::ScaleIn => rt.scale_in(1),
                    Adjust::Migrate => rt.migrate(),
                });
                reap(&before, &rt, &mut remotes, &mut views);
                reached = self.segment(&rt, shape, reached, throughput);
            }
            cycles += 1;
            if cycles == CYCLES_PER_JOB
                || (Instant::now() >= end && self.adjustments >= MIN_ADJUSTMENTS)
            {
                break;
            }
        }
        admit(1, &mut remotes);
        self.timed_adjust(Adjust::ScaleOut, || rt.scale_out(1));
        self.segment(&rt, shape, reached, throughput);
        let finals = rt.members();
        self.enter("shutdown");
        let report = rt.shutdown();
        self.exit();
        self.exit();
        self.jobs += 1;
        if throughput && self.jobs == 1 {
            println!("rss_mb {}", peak_rss_mb());
        }

        let final_views: Vec<Option<WorkerView>> = if shape.uds {
            let mut out = Vec::new();
            for w in &finals {
                let view = remotes.remove(&w.0).and_then(join_remote);
                views.extend(view);
                out.push(view);
            }
            for (_, h) in std::mem::take(&mut remotes) {
                views.extend(join_remote(h));
            }
            let _ = std::fs::remove_file(&path);
            out
        } else {
            views.extend(report.workers.values().copied());
            finals
                .iter()
                .map(|w| report.workers.get(w).copied())
                .collect()
        };
        // The job's final-state operation: both final workers agree and
        // the journal passes the term-safety audit. An overflowed ring
        // leaves only the retained tail to audit.
        let audit = check_term_safety(&report.events);
        println!(
            "audit {}",
            if report.journal.overwritten > 0 {
                "partial"
            } else {
                "full"
            }
        );
        let verdict = match final_views.as_slice() {
            [Some(a), Some(b)] => check_final_views(a, b),
            other => Err(format!("expected two final workers, found {}", other.len())),
        }
        .and_then(|()| {
            if audit.is_safe() {
                Ok(())
            } else {
                Err(format!("term-safety audit: {audit}").replace('\n', " "))
            }
        });
        self.op("final-state", verdict);
        if let Some(c) = &counting {
            let counts = throughput.then(|| Counts::of_job(&report, &views, c));
            self.absorb(&report, c, counts);
        }
    }

    /// Trains a seeded number of iterations past the furthest worker and
    /// prints the segment's rate when it counts toward throughput.
    /// Returns the iteration reached.
    fn segment(
        &mut self,
        rt: &ElasticRuntime,
        shape: ElasticShape,
        reached: u64,
        throughput: bool,
    ) -> u64 {
        let len = self.rng.range(shape.segment.0, shape.segment.1);
        // In-process workers publish their progress; remote progress is
        // only known from heartbeats, so count from the last target.
        let from = if shape.uds {
            reached
        } else {
            max_iteration(rt).max(reached)
        };
        self.enter("train.segment");
        let t = Instant::now();
        rt.run_until_iteration(from + len);
        let dt = t.elapsed().as_secs_f64();
        self.exit();
        if throughput {
            println!("seg {}", len as f64 / dt);
        }
        from + len
    }

    /// Adds a finished job's counters; `throughput` carries the work of
    /// the job's timed intervals, when it has any.
    fn absorb(&mut self, report: &ShutdownReport, counting: &Counting, throughput: Option<Counts>) {
        let t = &mut self.tally;
        t.overwritten += report.journal.overwritten;
        t.resends += report.metrics.resends;
        t.duplicates += report.metrics.duplicates;
        t.give_ups += report.metrics.give_ups;
        t.dead_letters += counting.total_dead_letters();
        t.traces
            .extend(report.traces.iter().filter(|tr| tr.completed).cloned());
        if let Some(c) = throughput {
            t.throughput.merge(&c, 1);
        }
    }

    /// Prints every per-layer metric and writes the spans.
    fn report_layers(&mut self) {
        // The replays run at the length of the jobs that produce
        // `train.iters_per_s`: the steady job's on `steady-1m`.
        let shape = self.workload.elastic_shape();
        let elems = match self.workload {
            Workload::Steady1m => steady_config(self.lr).param_elems,
            _ => shape.elems,
        };
        let chunk_elems = RuntimeConfig::small(1).replication_chunk_elems;
        self.enter("replay.layers");
        let compute = layers::compute_iter_us(elems, self.lr);
        let (build, assemble) = layers::chunk_us(elems, chunk_elems);
        let profile = TuningProfile::for_time(&TimeSource::real());
        let (round_p50, round_p90, pool) = layers::comm_rounds(elems, profile);
        let (enc, dec, bytes) = layers::codec_mix(&self.tally.throughput.classes);
        let rtt = if shape.uds {
            layers::rtt_uds_us(&socket_path("rtt")).expect("unix socket round trip")
        } else {
            layers::rtt_memory_us()
        };
        let emit = layers::emit_ns();
        self.exit();

        let t = &self.tally;
        let w = &t.throughput;
        let iters = w.iterations.max(1) as f64;
        let phase = |p: AdjustmentPhase| {
            let mut v: Vec<f64> = t.traces.iter().map(|tr| tr.phase_us(p) as f64).collect();
            median(&mut v).unwrap_or(0.0)
        };
        let rows: Vec<(&str, f64)> = vec![
            ("worker.compute_iter_us", compute),
            ("worker.stalled_ms_per_kiter", w.stalled_ms * 1000.0 / iters),
            ("worker.chunk_build_us", build),
            ("worker.chunk_assemble_us", assemble),
            ("comm.round_us.p50", round_p50),
            ("comm.round_us.p90", round_p90),
            (
                "comm.flat_share",
                w.flat_rounds as f64 / w.path_rounds.max(1) as f64,
            ),
            ("comm.pool_allocations", pool as f64),
            (
                "runtime.boundaries_per_kiter",
                w.boundaries as f64 * 1000.0 / iters,
            ),
            ("runtime.phase.request_us", phase(AdjustmentPhase::Request)),
            ("runtime.phase.report_us", phase(AdjustmentPhase::Report)),
            (
                "runtime.phase.coordinate_us",
                phase(AdjustmentPhase::Coordinate),
            ),
            (
                "runtime.phase.replicate_us",
                phase(AdjustmentPhase::Replicate),
            ),
            ("runtime.phase.adjust_us", phase(AdjustmentPhase::Adjust)),
            ("reliable.resends", t.resends as f64),
            ("reliable.duplicates", t.duplicates as f64),
            ("reliable.give_ups", t.give_ups as f64),
            ("codec.encode_ns", enc),
            ("codec.decode_ns", dec),
            ("codec.bytes_per_iter", bytes / iters),
            ("transport.msgs_per_iter", w.delivered as f64 / iters),
            ("transport.dead_letters", t.dead_letters as f64),
            ("transport.rtt_us", rtt),
            ("obs.events_per_iter", w.events as f64 / iters),
            ("obs.overwritten", t.overwritten as f64),
            ("obs.emit_ns", emit),
        ];
        for (name, value) in rows {
            println!("layer {name} {value}");
        }
        if let Some(spans) = &self.spans {
            let path = format!("{OUT_DIR}/spans-{}.json", self.workload.name());
            match spans.write(&path) {
                Ok(()) => println!("spans {} {path}", spans.len()),
                Err(e) => eprintln!("livebench: cannot write {path}: {e}"),
            }
        }
    }
}

/// Furthest iteration any current member has published.
fn max_iteration(rt: &ElasticRuntime) -> u64 {
    let members = rt.members();
    rt.snapshot()
        .iter()
        .filter(|(w, _)| members.contains(w))
        .map(|(_, v)| v.iteration)
        .max()
        .unwrap_or(0)
}
