//! Live end-to-end benchmark of the Elan elastic runtime.
//!
//! ```text
//! cargo run --release -q --manifest-path livebench/Cargo.toml -- \
//!     --workload elastic-1k --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The parent process measures nothing itself. It starts fresh child
//! processes of this binary — several that each time one job set-up
//! (so every `setup_s` sample includes the once-per-process tuning
//! probe), then one that runs the workload (two with `--trace 1`: one
//! untraced and one traced, whose difference is the tracing overhead) —
//! and folds their samples into medians. The last line of stdout is the
//! result object; the line before it carries host details, sample counts,
//! quartiles and verdicts. See `livebench/README.md`.

mod check;
mod layers;
mod run;
mod stats;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use elan_core::obs::json_escape;

use crate::stats::{median, quantile, quartiles};

/// The benchmark's workloads (`livebench/README.md` says why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady1m,
    Elastic1k,
    Uds1k,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "steady-1m" => Some(Workload::Steady1m),
            "elastic-1k" => Some(Workload::Elastic1k),
            "uds-1k" => Some(Workload::Uds1k),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady1m => "steady-1m",
            Workload::Elastic1k => "elastic-1k",
            Workload::Uds1k => "uds-1k",
        }
    }
}

/// Most training threads any workload's job runs at once (two workers).
const TRAINING_THREADS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median. A single set-up
/// ranged from 1.5 to 17 ms on `elastic-1k`, so one median takes many.
const SETUPS: usize = 21;
/// Wall-clock budget for all set-up children of one run.
const SETUP_BUDGET: Duration = Duration::from_secs(45);
/// Grace beyond `--seconds` before a measuring child counts as hung.
const MEASURE_GRACE: Duration = Duration::from_secs(50);

/// End-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("train.iters_per_s", "1/s"),
    ("adjust.scale_out.p50_ms", "ms"),
    ("adjust.scale_in.p50_ms", "ms"),
    ("adjust.migrate.p50_ms", "ms"),
    ("adjust.p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops.ok_ratio", "ratio"),
];

/// Per-layer metrics, in output order, with their units.
const PER_LAYER: [(&str, &str); 28] = [
    ("worker.compute_iter_us", "us"),
    ("worker.stalled_ms_per_kiter", "ms"),
    ("worker.chunk_build_us", "us"),
    ("worker.chunk_assemble_us", "us"),
    ("comm.round_us.p50", "us"),
    ("comm.round_us.p90", "us"),
    ("comm.flat_share", "ratio"),
    ("comm.pool_allocations", "count"),
    ("comm.tune_probe_ms", "ms"),
    ("comm.tune_flat_max_len", "elems"),
    ("runtime.boundaries_per_kiter", "count"),
    ("runtime.phase.request_us", "us"),
    ("runtime.phase.report_us", "us"),
    ("runtime.phase.coordinate_us", "us"),
    ("runtime.phase.replicate_us", "us"),
    ("runtime.phase.adjust_us", "us"),
    ("reliable.resends", "count"),
    ("reliable.duplicates", "count"),
    ("reliable.give_ups", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_iter", "bytes"),
    ("transport.msgs_per_iter", "count"),
    ("transport.dead_letters", "count"),
    ("transport.rtt_us", "us"),
    ("obs.events_per_iter", "count"),
    ("obs.overwritten", "count"),
    ("obs.emit_ns", "ns"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: `setup`, `setup-traced`, `measure`,
    /// `measure-traced` or `worker`.
    child: Option<String>,
    /// Remote workers only: hub address, worker id and role.
    connect: Option<String>,
    id: Option<u32>,
    role: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child) = (None, None, None, None);
    let (mut connect, mut id, mut role) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--child" => child = Some(value),
            "--connect" => connect = Some(value),
            "--id" => id = Some(value.parse::<u32>().map_err(|e| format!("--id: {e}"))?),
            "--role" => role = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
        connect,
        id,
        role,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "livebench: {e}\nusage: livebench --workload steady-1m|elastic-1k|uds-1k \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(run::OUT_DIR) {
        eprintln!("livebench: cannot create {}: {e}", run::OUT_DIR);
        return ExitCode::from(1);
    }
    if args.child.is_some() {
        exit_when_parent_goes();
    }
    match args.child.as_deref() {
        Some("worker") => {
            let (Some(addr), Some(id), Some(role)) = (&args.connect, args.id, &args.role) else {
                eprintln!("livebench: a worker needs --connect, --id and --role");
                return ExitCode::from(2);
            };
            if let Err(e) = run::remote_worker(args.seed, addr, id, role) {
                eprintln!("livebench: {e}");
                return ExitCode::from(1);
            }
        }
        Some("setup") => run::setup_once(args.workload, args.seed, false),
        Some("setup-traced") => run::setup_once(args.workload, args.seed, true),
        Some("measure") => run::Child::new(args.workload, args.seed, false).run(args.seconds),
        Some("measure-traced") => run::Child::new(args.workload, args.seed, true).run(args.seconds),
        Some(other) => {
            eprintln!("livebench: unknown child role {other}");
            return ExitCode::from(2);
        }
        None => return parent(&args),
    }
    ExitCode::SUCCESS
}

/// Every child's stdin is a pipe its parent holds open; end of input
/// means the parent is gone, and the child must not outlive it.
fn exit_when_parent_goes() {
    thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        std::process::exit(3);
    });
}

/// What one child process printed, and how it ended.
struct ChildOut {
    lines: Vec<String>,
    /// Exited with status 0 before its deadline.
    ok: bool,
}

fn spawn_child(args: &Args, role: &str, seconds: f64, timeout: Duration) -> ChildOut {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("livebench: cannot locate own executable: {e}");
            return ChildOut {
                lines: Vec::new(),
                ok: false,
            };
        }
    };
    let spawned = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--child", role])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            eprintln!("livebench: cannot start child: {e}");
            return ChildOut {
                lines: Vec::new(),
                ok: false,
            };
        }
    };
    let lifeline = child.stdin.take();
    let stdout = child.stdout.take().expect("child stdout is piped");
    let reader = thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<String>>()
    });
    let deadline = Instant::now() + timeout;
    let ok = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status.success(),
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                eprintln!("livebench: {role} child exceeded {timeout:?}; killing it");
                let _ = child.kill();
                let _ = child.wait();
                break false;
            }
            Err(e) => {
                eprintln!("livebench: waiting for child: {e}");
                let _ = child.kill();
                let _ = child.wait();
                break false;
            }
        }
    };
    drop(lifeline);
    let lines = reader.join().unwrap_or_default();
    ChildOut { lines, ok }
}

/// Samples folded from one measuring child.
#[derive(Default)]
struct Measured {
    segs: Vec<f64>,
    adjust: BTreeMap<String, Vec<f64>>,
    ops_ok: u64,
    ops_failed: u64,
    failures: Vec<String>,
    audits_full: u64,
    audits_partial: u64,
    rss_mb: Option<f64>,
    rss_end_mb: Option<f64>,
    flat_max_len: Vec<u64>,
    layers: BTreeMap<String, f64>,
    spans: Option<String>,
    /// The child died or hung: its in-flight operation never completed.
    broken: bool,
}

impl Measured {
    fn from(out: &ChildOut) -> Measured {
        let mut m = Measured {
            broken: !out.ok,
            ..Measured::default()
        };
        for line in &out.lines {
            let f: Vec<&str> = line.splitn(4, ' ').collect();
            let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
            match f.as_slice() {
                ["seg", ..] => m.segs.extend(num(1)),
                ["adj", kind, ..] => {
                    if let Some(v) = num(2) {
                        m.adjust.entry(kind.to_string()).or_default().push(v);
                    }
                }
                ["op", "ok", ..] => m.ops_ok += 1,
                ["op", "fail", what, rest @ ..] => {
                    m.ops_failed += 1;
                    if m.failures.len() < 8 {
                        m.failures.push(format!("{what}: {}", rest.join(" ")));
                    }
                }
                ["audit", "full"] => m.audits_full += 1,
                ["audit", "partial"] => m.audits_partial += 1,
                ["rss_mb", ..] => m.rss_mb = num(1),
                ["rss_end_mb", ..] => m.rss_end_mb = num(1),
                ["flat_max_len", ..] => m.flat_max_len.extend(num(1).map(|v| v as u64)),
                ["layer", name, ..] => {
                    if let Some(v) = num(2) {
                        m.layers.insert(name.to_string(), v);
                    }
                }
                ["spans", _, path] => m.spans = Some(path.to_string()),
                _ => {}
            }
        }
        m
    }

    fn adjustments(&self) -> u64 {
        self.adjust.values().map(|v| v.len() as u64).sum()
    }

    fn attempted(&self) -> u64 {
        self.adjustments() + self.ops_ok + self.ops_failed + u64::from(self.broken)
    }

    fn failed(&self) -> u64 {
        self.ops_failed + u64::from(self.broken)
    }

    /// End-to-end values; `None` where the run produced no sample.
    fn end_to_end(&self, setups: &[f64]) -> BTreeMap<&'static str, Option<f64>> {
        let p50 = |kind: &str| {
            let mut v = self.adjust.get(kind).cloned().unwrap_or_default();
            median(&mut v)
        };
        let mut all: Vec<f64> = self.adjust.values().flatten().copied().collect();
        let attempted = self.attempted();
        BTreeMap::from([
            ("setup_s", median(&mut setups.to_vec())),
            ("train.iters_per_s", median(&mut self.segs.clone())),
            ("adjust.scale_out.p50_ms", p50("scale_out")),
            ("adjust.scale_in.p50_ms", p50("scale_in")),
            ("adjust.migrate.p50_ms", p50("migrate")),
            ("adjust.p90_ms", quantile(&mut all, 0.9)),
            ("peak_rss_mb", self.rss_mb),
            (
                "ops.ok_ratio",
                (attempted > 0).then(|| (attempted - self.failed()) as f64 / attempted as f64),
            ),
        ])
    }

    /// Sample count, median and quartiles of each timed series.
    fn spread(&self, setups: &[f64]) -> String {
        let mut series: Vec<(String, Vec<f64>)> = vec![
            ("setup_s".into(), setups.to_vec()),
            ("train.iters_per_s".into(), self.segs.clone()),
        ];
        for (kind, v) in &self.adjust {
            series.push((format!("adjust.{kind}_ms"), v.clone()));
        }
        series.push((
            "adjust.all_ms".into(),
            self.adjust.values().flatten().copied().collect(),
        ));
        let rows: Vec<String> = series
            .into_iter()
            .map(|(name, mut v)| {
                let n = v.len();
                let med = median(&mut v).map_or("null".into(), num);
                let (q1, q3) = quartiles(&mut v)
                    .map_or(("null".into(), "null".into()), |(a, b)| (num(a), num(b)));
                format!("\"{name}\":{{\"n\":{n},\"median\":{med},\"q1\":{q1},\"q3\":{q3}}}")
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }
}

/// A JSON number with every digit the measurement has.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// Runs `SETUPS` set-up children of `role`; returns their `setup_s`
/// samples and the flat crossovers their tuning probes chose.
fn setups(args: &Args, roles: &[&str]) -> (BTreeMap<String, Vec<f64>>, Vec<u64>, bool) {
    let end = Instant::now() + SETUP_BUDGET;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut flat = Vec::new();
    let mut ok = true;
    for _ in 0..SETUPS {
        for role in roles {
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return (samples, flat, false);
            }
            let out = spawn_child(args, role, args.seconds, left);
            let m = Measured::from(&out);
            ok &= out.ok;
            flat.extend(m.flat_max_len);
            for line in &out.lines {
                if let Some(v) = line.strip_prefix("setup_s ").and_then(|v| v.parse().ok()) {
                    samples.entry(role.to_string()).or_default().push(v);
                }
            }
        }
    }
    (samples, flat, ok)
}

fn parent(args: &Args) -> ExitCode {
    let started = Instant::now();
    let roles: &[&str] = if args.trace {
        &["setup", "setup-traced"]
    } else {
        &["setup"]
    };
    let (setup_samples, mut flat, setups_ok) = setups(args, roles);
    let untraced_setups = setup_samples.get("setup").cloned().unwrap_or_default();

    // Untraced end-to-end figures get the whole window; a traced run
    // splits it between an untraced and a traced child.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let timeout = Duration::from_secs_f64(window) + MEASURE_GRACE;
    let plain = Measured::from(&spawn_child(args, "measure", window, timeout));
    let traced = args
        .trace
        .then(|| Measured::from(&spawn_child(args, "measure-traced", window, timeout)));
    flat.extend(&plain.flat_max_len);

    let e2e = plain.end_to_end(&untraced_setups);
    let mut attempted = plain.attempted();
    let mut failed = plain.failed();
    let mut failures = plain.failures.clone();
    let mut missing: Vec<String> = END_TO_END
        .iter()
        .filter(|(n, _)| e2e[n].is_none())
        .map(|(n, _)| n.to_string())
        .collect();

    let metrics: Vec<(String, &str, Option<f64>)> = match &traced {
        None => END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u, e2e[n]))
            .collect(),
        Some(t) => {
            attempted += t.attempted();
            failed += t.failed();
            failures.extend(t.failures.iter().cloned());
            flat.extend(&t.flat_max_len);
            let traced_setups = setup_samples
                .get("setup-traced")
                .cloned()
                .unwrap_or_default();
            let te2e = t.end_to_end(&traced_setups);
            let mut rows: Vec<(String, &str, Option<f64>)> = PER_LAYER
                .iter()
                .map(|&(n, u)| (n.to_string(), u, t.layers.get(n).copied()))
                .collect();
            for &(n, u) in &END_TO_END {
                let diff = te2e[n].zip(e2e[n]).map(|(a, b)| a - b);
                rows.push((format!("overhead.{n}"), u, diff));
            }
            missing = rows
                .iter()
                .filter(|r| r.2.is_none())
                .map(|r| r.0.clone())
                .collect();
            rows
        }
    };

    let correct = failed == 0 && setups_ok && missing.is_empty() && attempted > 0;
    let nproc = thread::available_parallelism().map_or(0, |n| n.get());
    let threads = TRAINING_THREADS;
    let mut notes: Vec<String> = Vec::new();
    if threads > nproc {
        notes.push(format!(
            "oversubscribed: {threads} training threads on {nproc} cores"
        ));
    }
    if args.workload == Workload::Uds1k {
        notes.push(
            "remote progress reaches the controller only through heartbeats (hb_period_ms = 25); \
             setup_s and short segments are dominated by beacon cadence"
                .into(),
        );
        notes.push(
            "each remote worker runs a solo CommGroup, so two remote workers train apart and the \
             final-state check fails; counted as a failed operation"
                .into(),
        );
    }
    if !missing.is_empty() {
        notes.push(format!("no samples for: {}", missing.join(", ")));
    }
    let audits_partial = plain.audits_partial + traced.as_ref().map_or(0, |t| t.audits_partial);
    let audits_full = plain.audits_full + traced.as_ref().map_or(0, |t| t.audits_full);
    let rss_end = num(plain.rss_end_mb.unwrap_or(f64::NAN));
    let report = format!(
        "{{\"livebench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{{\"nproc\":{nproc},\"rustc\":{},\"training_threads\":{threads},\
         \"oversubscribed\":{}}},\
         \"ops\":{{\"attempted\":{attempted},\"failed\":{failed},\"failed_ratio\":{}}},\
         \"failures\":[{}],\
         \"term_safety_audits\":{{\"full\":{audits_full},\"partial\":{audits_partial}}},\
         \"rss_end_mb\":{rss_end},\
         \"comm.tune_flat_max_len\":{:?},\
         \"spread\":{},{}\"spans\":{},\"notes\":[{}],\"wall_s\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        json_str(&rustc_version()),
        threads > nproc,
        num(failed as f64 / attempted.max(1) as f64),
        failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(","),
        flat,
        plain.spread(&untraced_setups),
        traced.as_ref().map_or(String::new(), |t| {
            format!(
                "\"spread_traced\":{},",
                t.spread(setup_samples.get("setup-traced").map_or(&[][..], |v| v))
            )
        }),
        traced
            .as_ref()
            .and_then(|t| t.spans.as_deref())
            .map_or("null".into(), json_str),
        notes
            .iter()
            .map(|n| json_str(n))
            .collect::<Vec<_>>()
            .join(","),
        num(started.elapsed().as_secs_f64()),
    );
    println!("{report}");
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            // A metric without samples reads 0 and the run is incorrect.
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                num(v.unwrap_or(0.0)),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    ExitCode::SUCCESS
}
