//! Virtual-time safety (VIRTUAL_TIME_UNSAFE): a seeded virtual-time run
//! is deterministic only if nothing in `elan-rt` touches the OS clock or
//! parks in a real wait behind the clock's back (DESIGN.md §12/§16). The
//! rule has two halves:
//!
//! - **Direct** (token scan): outside `time.rs`, no `Instant::now()`,
//!   `SystemTime::now()` or `thread::sleep(..)`. One stray clock read
//!   re-introduces wall-clock jitter into journal timestamps; one stray
//!   sleep stalls the virtual clock's quiescence detection and deadlocks
//!   seeded runs. Unlike PANIC_HYGIENE, **test code is not exempt**: a
//!   test that sleeps is exactly the flakiness the virtual clock exists
//!   to remove. The engine skips test functions, so this half scans
//!   tokens rather than the call graph.
//! - **Reachable** (engine): a thread that parks in a *real* OS wait
//!   (`join()`, raw channel `recv_timeout`, stream reads, condvar waits)
//!   never advances virtual time, so the whole scheduler silently hangs.
//!   Every such op reachable from a runtime entry point — the worker
//!   loop, the AM thread, the liveness watchdog — must either route
//!   through a virtual-dispatching module or pass through
//!   `TimeSource::blocking(..)`, the explicit escape hatch that tells the
//!   clock a real wait is in flight. Bus sends are virtual-time aware and
//!   do not count.
//!
//! Exempt modules for the reachable half are the ones that *implement*
//! the dispatch and are therefore allowed to touch both arms: `time.rs`
//! (the clock itself), `bus.rs` (`Endpoint::recv*` picks the virtual or
//! crossbeam arm), `comm/` (allreduce waits park via the clock), and
//! `transport/` (real sockets only ever run in real-time mode; the
//! builder rejects a virtual clock over a socket transport). The direct
//! half exempts `time.rs` alone, whose real backend must call the OS.

use crate::engine::{format_path, Engine};
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

/// The crate under virtual-time discipline.
const SCOPE_CRATE: &str = "elan-rt";

/// The single file allowed to read the OS clock or sleep: the `TimeSource`
/// implementation.
const CLOCK_FILE: &str = "elan-rt/src/time.rs";

/// Runtime entry points: the long-lived loops a seeded run drives.
const ENTRY_POINTS: &[&str] = &["run_worker", "am_thread", "watchdog_thread"];

/// Modules that dispatch on `TimeSource::is_virtual()` internally and may
/// therefore contain real waits on their non-virtual arm.
fn exempt_file(rel: &str) -> bool {
    rel.ends_with("/time.rs")
        || rel.ends_with("/bus.rs")
        || rel.contains("/comm/")
        || rel.contains("/transport/")
}

pub fn run(ws: &Workspace, eng: &Engine) -> Vec<Diagnostic> {
    let mut diags = clock_calls(ws);
    let skip = |i: usize| {
        if ws.fixture_mode {
            return false;
        }
        let file = &ws.files[eng.fns[i].file];
        file.crate_name != SCOPE_CRATE || exempt_file(&file.rel)
    };
    // Only non-escaped OS waits count: `time.blocking(|| h.join())` is the
    // sanctioned way to do a real wait, and propagation is cut at escaped
    // call sites for the same reason.
    let direct: Vec<Option<(String, u32)>> = eng
        .fns
        .iter()
        .map(|f| {
            f.blocking
                .iter()
                .find(|b| !b.escaped && !b.bus_send)
                .map(|b| (b.what.clone(), b.line))
        })
        .collect();
    let paths = eng.reach_paths(ws, &direct, &skip, true);

    for (idx, f) in eng.fns.iter().enumerate() {
        if skip(idx) || !ENTRY_POINTS.contains(&f.name.as_str()) {
            continue;
        }
        let Some((hops, detail)) = &paths[idx] else {
            continue;
        };
        diags.push(Diagnostic::new(
            rules::VIRTUAL_TIME_UNSAFE,
            ws.files[f.file].rel.clone(),
            hops[0].line,
            f.qual.clone(),
            detail.clone(),
            format!(
                "entry point `{}` reaches real OS-blocking `{detail}` outside the \
                 `blocking()` escape hatch: {}",
                f.name,
                format_path(hops, detail)
            ),
            "park through TimeSource (park_until / recv via the bus) or wrap the \
             real wait in TimeSource::blocking(..) so the virtual clock knows a \
             thread is legitimately off-world (DESIGN.md §12)",
        ));
    }
    diags
}

/// The direct half: `Instant::now()`, `SystemTime::now()` and
/// `thread::sleep(..)` (also `std::thread::sleep`) anywhere in scope,
/// test code included.
fn clock_calls(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if (!ws.fixture_mode && file.crate_name != SCOPE_CRATE) || file.rel.ends_with(CLOCK_FILE) {
            continue;
        }
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            let call = if (t.is_ident("Instant") || t.is_ident("SystemTime"))
                && i + 2 < toks.len()
                && toks[i + 1].is("::")
                && toks[i + 2].is_ident("now")
            {
                format!("{}::now", t.text)
            } else if t.is_ident("sleep")
                && i >= 2
                && toks[i - 1].is("::")
                && toks[i - 2].is_ident("thread")
            {
                "thread::sleep".to_string()
            } else {
                continue;
            };
            let func = file
                .enclosing_fn(i)
                .map(|f| f.qual.clone())
                .unwrap_or_default();
            diags.push(Diagnostic::new(
                rules::VIRTUAL_TIME_UNSAFE,
                file.rel.clone(),
                t.line,
                func,
                call.clone(),
                format!("`{call}` outside time.rs breaks deterministic simulation"),
                "read the clock via TimeSource::now()/deadline_after() and block via \
                 TimeSource::sleep()/park_until() so virtual-time runs stay \
                 seeded-deterministic (DESIGN.md §12)",
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn check_named(src: &str, rel: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![parse_source(src, rel.into(), "t".into())],
            fixture_mode: true,
            root: None,
        };
        let eng = Engine::build(&ws);
        run(&ws, &eng)
    }

    fn check(src: &str) -> Vec<Diagnostic> {
        check_named(src, "t.rs")
    }

    #[test]
    fn entry_reaching_raw_join_fires_with_path() {
        let d = check(
            "fn run_worker(h: H) { reap(h); }\n\
             fn reap(h: H) { let _ = h.join(); }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(
            d[0].message.contains("`run_worker` (t.rs:1)"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("`reap` (t.rs:2)"), "{}", d[0].message);
    }

    #[test]
    fn blocking_escape_hatch_is_clean() {
        let d = check(
            "fn run_worker(time: &T, h: H) { reap(time, h); }\n\
             fn reap(time: &T, h: H) { time.blocking(|| h.join()); }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn escaped_call_site_cuts_propagation() {
        let d = check(
            "fn am_thread(time: &T, h: H) { time.blocking(|| reap(h)); }\n\
             fn reap(h: H) { let _ = h.join(); }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn non_entry_functions_do_not_fire() {
        let d = check("fn helper(h: H) { let _ = h.join(); }");
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn raw_receiver_recv_fires_from_entry() {
        let d = check("fn watchdog_thread(receiver: &R) { receiver.recv_timeout(t); }");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].detail.contains("recv_timeout"));
    }

    #[test]
    fn wrapped_endpoint_recv_is_not_raw() {
        let d = check("fn run_worker(rep: &R) { rep.recv_timeout(t); }");
        assert!(d.is_empty(), "virtual-aware wrapper: {d:?}");
    }

    #[test]
    fn bus_send_from_entry_is_fine() {
        let d = check(
            "fn run_worker(rep: &R, bus: &B) { rep.send(m); bus.send(m); send_envelope(to, m); }",
        );
        assert!(d.is_empty(), "bus sends are virtual-time aware: {d:?}");
    }

    #[test]
    fn flags_instant_systemtime_and_sleep() {
        let d = check(
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); \
             thread::sleep(Duration::from_millis(PERIOD_MS)); }",
        );
        assert!(d.iter().all(|d| d.rule == rules::VIRTUAL_TIME_UNSAFE));
        let kinds: Vec<&str> = d.iter().map(|d| d.detail.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["Instant::now", "SystemTime::now", "thread::sleep"]
        );
    }

    #[test]
    fn std_qualified_sleep_is_flagged() {
        let d = check("fn f() { std::thread::sleep(D); }");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert_eq!(d[0].detail, "thread::sleep");
    }

    #[test]
    fn test_code_is_not_exempt() {
        let d = check("#[cfg(test)] mod tests { #[test] fn t() { thread::sleep(D); } }");
        assert_eq!(
            d.len(),
            1,
            "sleeping tests are the flakiness this rule removes"
        );
    }

    #[test]
    fn time_rs_is_exempt() {
        let d = check_named(
            "fn real_now() -> Instant { Instant::now() }",
            "crates/elan-rt/src/time.rs",
        );
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn virtual_sleep_and_yield_are_fine() {
        let d = check(
            "fn f(time: &TimeSource) { time.sleep(D); thread::yield_now(); let s = v.sleep; }",
        );
        assert!(d.is_empty(), "got {d:?}");
    }
}
