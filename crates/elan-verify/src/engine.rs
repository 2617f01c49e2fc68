//! Interprocedural reachability engine: a cross-crate, name-based call
//! graph over every scan root, with per-function *effect sets* extracted
//! in one token pass — locks acquired, guards live at each call site,
//! blocking operations (OS waits and bus sends), `RtMsg` constructions,
//! and the `blocking()` escape hatch. Rules consume the graph through fixpoint
//! helpers ([`Engine::reach_paths`]) that record the call chain hop by
//! hop, so a diagnostic can print `fn a → fn b → write_all(..)` with a
//! file:line for every hop (DESIGN.md §16).
//!
//! Resolution is by simple name: candidates in the caller's own crate
//! win; only when the caller's crate defines no function of that name
//! does the search widen to the whole workspace (the facade bins call
//! into `elan-rt`, integration tests call into every crate). Names with
//! more than [`MAX_RESOLVE`] candidates are dropped as noise, exactly
//! like the PR 4 lock analysis this generalises.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::model::{FileModel, Function, Workspace};

/// Names that, when followed by `(`, are never treated as workspace calls.
const CALL_SKIP: &[&str] = &[
    "lock",
    "read",
    "write",
    "drop",
    "if",
    "while",
    "for",
    "match",
    "return",
    "loop",
    "move",
    "in",
    "as",
    "let",
    "else",
    "fn",
    "unsafe",
    "ref",
    "mut",
    "dyn",
    "impl",
    "where",
    "pub",
    "use",
    "crate",
    "super",
    "Self",
    "self",
    "send",
    "send_envelope",
    "send_unreliable",
    // Ubiquitous collection methods: `.len()`/`.is_empty()`/`.clear()` on a
    // Vec or map would otherwise resolve to any inherent `len` elsewhere in
    // the workspace (e.g. the bus's lock-taking `len`), wiring phantom edges
    // into the lock graph.
    "len",
    "is_empty",
    "clear",
    "get",
    "insert",
    "remove",
    "push",
    "contains_key",
];

/// Skip call-graph resolution for names matching more functions than this.
pub const MAX_RESOLVE: usize = 4;

/// Bus-send receiver names (`tx.send(..)` is a plain channel, not a bus send).
const SEND_RECEIVERS: &[&str] = &["bus", "rep"];

/// Argument-free method calls that park the OS thread: `h.join()`,
/// `listener.accept()`, `writer.flush()`. The arity requirement keeps
/// `path.join(sep)` and `asm.accept(index)` (an ordinary workspace call)
/// out of the set.
const BLOCKING_ARGLESS: &[&str] = &["join", "accept", "flush"];

/// Stream methods that block until the peer produces/consumes bytes.
const BLOCKING_STREAM: &[&str] = &["read_exact", "write_all", "read_to_end"];

/// Condvar/barrier waits. A condvar wait *releases* the mutex whose guard
/// it is handed, so guards named in the argument list are recorded in
/// [`BlockingOp::released`] rather than counted as held across the wait.
const BLOCKING_WAIT: &[&str] = &["wait", "wait_for", "wait_timeout"];

/// `.recv()` / `.recv_timeout()` count as raw OS blocking only on receivers
/// with these names: a bare channel endpoint. The runtime's own wrappers
/// (`rep.recv_timeout`, `endpoint.recv_timeout`) dispatch on virtual time
/// internally and are modelled through the call graph instead.
const RAW_RECV_RECEIVERS: &[&str] = &["receiver", "rx"];

/// One blocking operation performed directly by a function: an OS wait or
/// a bus send.
#[derive(Debug, Clone)]
pub struct BlockingOp {
    /// Human-readable op, e.g. `write_all(..)`, `join()`, `thread::park`,
    /// `rep.send(..)`.
    pub what: String,
    pub line: u32,
    /// Lock names of all guards live at the op.
    pub holding: Vec<String>,
    /// Lock names released *by* the op (condvar waits that take the guard).
    pub released: Vec<String>,
    /// The op's receiver is itself a live guard (`s.write_all(..)` where
    /// `s = self.stream.lock()`) — blocking on your own lock is the
    /// intended use, but the op still blocks callers holding *other* locks.
    pub self_guard: bool,
    /// Inside a `.blocking(..)` escape-hatch closure.
    pub escaped: bool,
    /// A bus send (`send_envelope(..)`, `send_unreliable(..)`, or `.send(..)`
    /// on a receiver named `bus`/`rep`). Under chaos its retry/ack path can
    /// wait on the receiver, so it must not run under a guard; it is
    /// virtual-time aware, so it never hangs the seeded clock.
    pub bus_send: bool,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub callee: String,
    pub line: u32,
    /// Lock names of all guards live at the call.
    pub holding: Vec<String>,
    /// Inside a `.blocking(..)` escape-hatch closure.
    pub escaped: bool,
}

/// An `RtMsg::Variant` value construction (expression position only).
#[derive(Debug, Clone)]
pub struct Construction {
    pub variant: String,
    pub line: u32,
    /// The struct-literal body names a `term` field.
    pub has_term: bool,
}

/// Effect summary for one non-test function.
#[derive(Debug)]
pub struct FnEffects {
    /// Index into `ws.files`.
    pub file: usize,
    pub name: String,
    pub qual: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Locks acquired anywhere in this function.
    pub acquired: BTreeSet<String>,
    pub calls: Vec<CallSite>,
    /// Direct lock-order edges `held -> newly acquired` with the line.
    pub edges: Vec<(String, String, u32)>,
    pub blocking: Vec<BlockingOp>,
    pub constructions: Vec<Construction>,
    /// The body mentions `persist_fenced` or `fenced`: it either persists
    /// the fencing term or checks the fence before acting.
    pub fence_aware: bool,
}

/// One hop of a reachability path: the function plus the line within it
/// (a call site for intermediate hops, the effect itself for the last).
#[derive(Debug, Clone)]
pub struct Hop {
    pub file: String,
    pub qual: String,
    pub line: u32,
}

/// Render a path as `` `a` (f.rs:10) → `b` (g.rs:20) → write_all(..)``.
pub fn format_path(path: &[Hop], detail: &str) -> String {
    let hops: Vec<String> = path
        .iter()
        .map(|h| format!("`{}` ({}:{})", h.qual, h.file, h.line))
        .collect();
    format!("{} -> {detail}", hops.join(" -> "))
}

pub struct Engine {
    pub fns: Vec<FnEffects>,
    by_crate_name: HashMap<(String, String), Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

impl Engine {
    /// Scan every non-test function in the workspace into an effect summary
    /// and index the call graph.
    pub fn build(ws: &Workspace) -> Engine {
        // Global RwLock field-name set: fields are declared in one file and
        // locked from others.
        let rwlock_fields: BTreeSet<String> = ws
            .files
            .iter()
            .flat_map(|f| f.rwlock_fields.iter().cloned())
            .collect();
        let mut fns = Vec::new();
        let mut by_crate_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let bodies: Vec<Range<usize>> = file.functions.iter().map(|f| f.body.clone()).collect();
            for (fni, f) in file.functions.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                // Nested function bodies strictly inside this one are scanned
                // as their own functions; skip their tokens here.
                let nested: Vec<Range<usize>> = bodies
                    .iter()
                    .enumerate()
                    .filter(|(j, b)| *j != fni && b.start > f.body.start && b.end <= f.body.end)
                    .map(|(_, b)| b.clone())
                    .collect();
                let idx = fns.len();
                fns.push(scan_fn(file, fi, f, &rwlock_fields, &nested));
                by_crate_name
                    .entry((file.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(idx);
                by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }
        Engine {
            fns,
            by_crate_name,
            by_name,
        }
    }

    /// Resolve a callee name from the caller's crate; same-crate candidates
    /// win, cross-crate is the fallback when the caller's crate has none.
    pub fn resolve(&self, ws: &Workspace, caller: usize, callee: &str) -> Vec<usize> {
        let crate_name = &ws.files[self.fns[caller].file].crate_name;
        let local = self
            .by_crate_name
            .get(&(crate_name.clone(), callee.to_string()));
        let candidates = match local {
            Some(v) if !v.is_empty() => v,
            _ => match self.by_name.get(callee) {
                Some(v) => v,
                None => return Vec::new(),
            },
        };
        if candidates.len() > MAX_RESOLVE {
            return Vec::new();
        }
        candidates.clone()
    }

    /// Shortest call paths from every function to a direct effect.
    ///
    /// `direct[i]` is `Some((detail, line))` when function `i` performs the
    /// effect in its own body; `skip(i)` drops function `i` from the graph
    /// entirely (exempt modules); `cut_escaped` stops propagation through
    /// call sites inside a `.blocking(..)` closure (the virtual-time escape
    /// hatch legitimises everything behind it).
    ///
    /// Returns, per function, the hop list and the effect detail. The last
    /// hop's line is the effect line; earlier hops carry their call-site
    /// line, so the rendered path has a file:line for every step.
    pub fn reach_paths(
        &self,
        ws: &Workspace,
        direct: &[Option<(String, u32)>],
        skip: &dyn Fn(usize) -> bool,
        cut_escaped: bool,
    ) -> Vec<Option<(Vec<Hop>, String)>> {
        let mut out: Vec<Option<(Vec<Hop>, String)>> = (0..self.fns.len()).map(|_| None).collect();
        for (i, d) in direct.iter().enumerate() {
            if skip(i) {
                continue;
            }
            if let Some((detail, line)) = d {
                out[i] = Some((
                    vec![Hop {
                        file: ws.files[self.fns[i].file].rel.clone(),
                        qual: self.fns[i].qual.clone(),
                        line: *line,
                    }],
                    detail.clone(),
                ));
            }
        }
        // BFS layering: each pass extends paths by exactly one hop, applied
        // after the pass, so every function gets a shortest path and the
        // fixpoint terminates (paths are set at most once).
        loop {
            let mut assign: Vec<(usize, (Vec<Hop>, String))> = Vec::new();
            'fns: for i in 0..self.fns.len() {
                if out[i].is_some() || skip(i) {
                    continue;
                }
                for c in &self.fns[i].calls {
                    if cut_escaped && c.escaped {
                        continue;
                    }
                    for t in self.resolve(ws, i, &c.callee) {
                        if t == i || skip(t) {
                            continue;
                        }
                        if let Some((hops, detail)) = &out[t] {
                            let mut path = vec![Hop {
                                file: ws.files[self.fns[i].file].rel.clone(),
                                qual: self.fns[i].qual.clone(),
                                line: c.line,
                            }];
                            path.extend(hops.iter().cloned());
                            assign.push((i, (path, detail.clone())));
                            continue 'fns;
                        }
                    }
                }
            }
            if assign.is_empty() {
                break;
            }
            for (i, p) in assign {
                out[i] = Some(p);
            }
        }
        out
    }
}

fn scan_fn(
    file: &FileModel,
    fi: usize,
    f: &Function,
    rwlock_fields: &BTreeSet<String>,
    nested: &[Range<usize>],
) -> FnEffects {
    let toks = &file.toks;
    let mut info = FnEffects {
        file: fi,
        name: f.name.clone(),
        qual: f.qual.clone(),
        line: f.line,
        acquired: BTreeSet::new(),
        calls: Vec::new(),
        edges: Vec::new(),
        blocking: Vec::new(),
        constructions: Vec::new(),
        fence_aware: false,
    };

    // Pre-pass: `.blocking(..)` escape regions.
    let mut escapes: Vec<Range<usize>> = Vec::new();
    for i in f.body.clone() {
        if toks[i].is_ident("blocking")
            && i > f.body.start
            && toks[i - 1].is(".")
            && i + 1 < f.body.end
            && toks[i + 1].is("(")
        {
            escapes.push(i + 1..crate::model::match_bracket(toks, i + 1, "(", ")"));
        }
    }
    let escaped_at = |i: usize| escapes.iter().any(|r| r.contains(&i));

    struct Guard {
        lock: String,
        binding: Option<String>,
        depth: i32,
        temp: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;
    let mut i = f.body.start;
    while i < f.body.end {
        if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
            i = r.end;
            continue;
        }
        let t = &toks[i];
        if t.is_ident("persist_fenced") || t.is_ident("fenced") {
            info.fence_aware = true;
        }
        match t.text.as_str() {
            "{" => {
                depth += 1;
                i += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                // let-guards die when their block closes; temporaries also die
                // when a block opened after their acquisition closes back to
                // their depth (end of a match/if-let statement) — unless the
                // block is followed by `else`: an `if let` scrutinee temporary
                // lives through the else branch too.
                let next_is_else = i + 1 < f.body.end && toks[i + 1].is_ident("else");
                guards.retain(|g| {
                    g.depth <= depth && (next_is_else || !(g.temp && g.depth == depth))
                });
                i += 1;
                continue;
            }
            ";" => {
                let d = depth;
                guards.retain(|g| !(g.temp && g.depth >= d));
                i += 1;
                continue;
            }
            _ => {}
        }
        // drop(binding)
        if t.is_ident("drop")
            && i + 3 < f.body.end
            && toks[i + 1].is("(")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is(")")
        {
            let name = &toks[i + 2].text;
            if let Some(pos) = guards
                .iter()
                .rposition(|g| g.binding.as_deref() == Some(name))
            {
                guards.remove(pos);
            }
            i += 4;
            continue;
        }
        // lock acquisition: `.lock()` always; `.read()`/`.write()` only on
        // known RwLock fields.
        let is_acq = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
            && i > f.body.start
            && toks[i - 1].is(".")
            && i + 2 < f.body.end
            && toks[i + 1].is("(")
            && toks[i + 2].is(")");
        if is_acq {
            if let Some(recv) = receiver_name(toks, i - 2, f.body.start) {
                let counts = t.is_ident("lock") || rwlock_fields.contains(&recv);
                if counts {
                    // The guard is only bound to a name when the acquisition
                    // is the *entire* RHS (`let g = x.lock();`, optionally via
                    // guard-returning `.unwrap()` / `.expect(..)` on a std
                    // Mutex). `let id = x.lock().next_id();` binds the result,
                    // so the guard is a temporary that dies at the `;`.
                    let mut rhs_end = i + 2; // index of the `)`
                    while rhs_end + 3 < f.body.end
                        && toks[rhs_end + 1].is(".")
                        && (toks[rhs_end + 2].is_ident("unwrap")
                            || toks[rhs_end + 2].is_ident("expect"))
                        && toks[rhs_end + 3].is("(")
                    {
                        rhs_end = crate::model::match_bracket(toks, rhs_end + 3, "(", ")");
                    }
                    let whole_rhs = rhs_end + 1 < f.body.end && toks[rhs_end + 1].is(";");
                    let chain_start = chain_start(toks, i - 2, f.body.start);
                    let binding = if whole_rhs
                        && chain_start > f.body.start
                        && toks[chain_start - 1].is("=")
                        && toks[chain_start - 1].kind == TokKind::Punct
                        && chain_start >= 2
                        && toks[chain_start - 2].kind == TokKind::Ident
                    {
                        Some(toks[chain_start - 2].text.clone())
                    } else {
                        None
                    };
                    if let Some(b) = &binding {
                        // rebinding releases the previous guard
                        if let Some(pos) = guards
                            .iter()
                            .rposition(|g| g.binding.as_deref() == Some(b.as_str()))
                        {
                            guards.remove(pos);
                        }
                    }
                    for g in &guards {
                        info.edges.push((g.lock.clone(), recv.clone(), t.line));
                    }
                    info.acquired.insert(recv.clone());
                    guards.push(Guard {
                        lock: recv,
                        temp: binding.is_none(),
                        binding,
                        depth,
                    });
                }
            }
            i += 3;
            continue;
        }
        // bus sends
        let is_named_send = (t.is_ident("send_envelope") || t.is_ident("send_unreliable"))
            && i + 1 < f.body.end
            && toks[i + 1].is("(");
        let is_method_send = t.is_ident("send")
            && i + 1 < f.body.end
            && toks[i + 1].is("(")
            && i >= 2
            && toks[i - 1].is(".")
            && SEND_RECEIVERS.contains(&toks[i - 2].text.as_str());
        if is_named_send || is_method_send {
            info.blocking.push(BlockingOp {
                what: if is_method_send {
                    format!("{}.send(..)", toks[i - 2].text)
                } else {
                    format!("{}(..)", t.text)
                },
                line: t.line,
                holding: guards.iter().map(|g| g.lock.clone()).collect(),
                released: Vec::new(),
                self_guard: false,
                escaped: escaped_at(i),
                bus_send: true,
            });
            i += 1;
            continue;
        }
        // OS-blocking operations
        if t.kind == TokKind::Ident && i + 1 < f.body.end && toks[i + 1].is("(") {
            let name = t.text.as_str();
            let prev_dot = i > f.body.start && toks[i - 1].is(".");
            let argless = i + 2 < f.body.end && toks[i + 2].is(")");
            let receiver = if prev_dot && i >= 2 {
                receiver_name(toks, i - 2, f.body.start)
            } else {
                None
            };
            // Blocking method families, all rendered `name(..)`: stream IO,
            // condvar waits, raw channel recv on a bare endpoint, and
            // `.read(buf)`/`.write(buf)` with arguments (stream IO, not a
            // RwLock acquisition).
            let dotted_blocking = prev_dot
                && (BLOCKING_STREAM.contains(&name)
                    || BLOCKING_WAIT.contains(&name)
                    || ((name == "recv" || name == "recv_timeout")
                        && receiver
                            .as_deref()
                            .is_some_and(|r| RAW_RECV_RECEIVERS.contains(&r)))
                    || ((name == "read" || name == "write") && !argless));
            let blocking_what = if prev_dot && argless && BLOCKING_ARGLESS.contains(&name) {
                Some(format!("{name}()"))
            } else if dotted_blocking {
                Some(format!("{name}(..)"))
            } else if (name == "park" || name == "park_timeout")
                && i >= 2
                && toks[i - 1].is("::")
                && toks[i - 2].is_ident("thread")
            {
                Some(format!("thread::{name}"))
            } else {
                None
            };
            if let Some(what) = blocking_what {
                // Guards whose binding is named in the argument list are
                // *released* by the op (condvar waits take the guard).
                let close = crate::model::match_bracket(toks, i + 1, "(", ")");
                let released: Vec<String> = if BLOCKING_WAIT.contains(&name) {
                    guards
                        .iter()
                        .filter(|g| {
                            g.binding.as_deref().is_some_and(|b| {
                                toks[i + 2..close.min(f.body.end)]
                                    .iter()
                                    .any(|a| a.is_ident(b))
                            })
                        })
                        .map(|g| g.lock.clone())
                        .collect()
                } else {
                    Vec::new()
                };
                let self_guard = receiver.as_deref().is_some_and(|r| {
                    guards
                        .iter()
                        .any(|g| g.binding.as_deref() == Some(r) || g.lock == r)
                });
                info.blocking.push(BlockingOp {
                    what,
                    line: t.line,
                    holding: guards.iter().map(|g| g.lock.clone()).collect(),
                    released,
                    self_guard,
                    escaped: escaped_at(i),
                    bus_send: false,
                });
                i += 1;
                continue;
            }
        }
        // RtMsg constructions (expression position only)
        if t.is_ident("RtMsg")
            && i + 2 < f.body.end
            && toks[i + 1].is("::")
            && toks[i + 2].kind == TokKind::Ident
            && !file.in_pattern(i + 2)
        {
            let variant = toks[i + 2].text.clone();
            let has_term = if i + 3 < f.body.end && toks[i + 3].is("{") {
                let close = crate::model::match_bracket(toks, i + 3, "{", "}");
                toks[i + 4..close.min(f.body.end)]
                    .iter()
                    .any(|a| a.is_ident("term"))
            } else {
                false
            };
            info.constructions.push(Construction {
                variant,
                line: toks[i + 2].line,
                has_term,
            });
            i += 3;
            continue;
        }
        // call sites
        if t.kind == TokKind::Ident
            && i + 1 < f.body.end
            && toks[i + 1].is("(")
            && !CALL_SKIP.contains(&t.text.as_str())
        {
            info.calls.push(CallSite {
                callee: t.text.clone(),
                line: t.line,
                holding: guards.iter().map(|g| g.lock.clone()).collect(),
                escaped: escaped_at(i),
            });
        }
        i += 1;
    }
    info
}

/// Receiver name for a method call whose `.` sits at `idx + 1`; walks back
/// over a trailing method-call group (`x.as_ref().lock()`).
fn receiver_name(toks: &[Tok], mut idx: usize, floor: usize) -> Option<String> {
    loop {
        if idx < floor {
            return None;
        }
        if toks[idx].is(")") {
            // scan back to the matching open paren
            let mut d = 0i32;
            let mut p = idx;
            loop {
                if toks[p].is(")") {
                    d += 1;
                } else if toks[p].is("(") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if p == floor {
                    return None;
                }
                p -= 1;
            }
            if p <= floor {
                return None;
            }
            idx = p - 1;
            // skip the method name and its dot
            if toks[idx].kind == TokKind::Ident && idx > floor && toks[idx - 1].is(".") {
                idx -= 2;
            }
            continue;
        }
        if toks[idx].kind == TokKind::Ident {
            return Some(toks[idx].text.clone());
        }
        return None;
    }
}

/// Index of the first token of the `a.b.c` chain ending at `recv_idx`.
fn chain_start(toks: &[Tok], recv_idx: usize, floor: usize) -> usize {
    let mut p = recv_idx;
    while p >= floor + 2 && toks[p - 1].is(".") && toks[p - 2].kind == TokKind::Ident {
        p -= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![parse_source(src, "t.rs".into(), "t".into())],
            fixture_mode: true,
            root: None,
        }
    }

    fn fx<'a>(eng: &'a Engine, name: &str) -> &'a FnEffects {
        eng.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn blocking_ops_and_holding() {
        let w = ws("struct S { routes: Mutex<u32> }\n\
             impl S { fn f(&self, sock: &mut W) { let g = self.routes.lock(); \
             sock.write_all(b); } }");
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert_eq!(f.blocking.len(), 1);
        assert_eq!(f.blocking[0].what, "write_all(..)");
        assert_eq!(f.blocking[0].holding, vec!["routes"]);
        assert!(!f.blocking[0].self_guard);
    }

    #[test]
    fn self_guard_write_is_marked() {
        let w = ws("struct S { stream: Mutex<W> }\n\
             impl S { fn f(&self) { let mut s = self.stream.lock(); s.write_all(b); } }");
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert!(f.blocking[0].self_guard);
    }

    #[test]
    fn condvar_wait_releases_named_guard() {
        let w = ws("struct S { state: Mutex<u32>, cvar: Condvar }\n\
             impl S { fn f(&self) { let mut st = self.state.lock(); \
             self.cvar.wait(&mut st); } }");
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert_eq!(f.blocking[0].released, vec!["state"]);
    }

    #[test]
    fn blocking_escape_hatch_is_recorded() {
        let w = ws("fn f(time: &T, h: H) { time.blocking(|| h.join()); }");
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert_eq!(f.blocking[0].what, "join()");
        assert!(f.blocking[0].escaped);
    }

    #[test]
    fn join_with_args_is_not_blocking() {
        let w = ws("fn f(parts: &[String]) -> String { parts.join(s) }");
        let eng = Engine::build(&w);
        assert!(fx(&eng, "f").blocking.is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_lives_through_else() {
        let w = ws("struct S { local: RwLock<M>, sock: W }\n\
             impl S { fn f(&self, to: u32) { \
             if let Some(tx) = self.local.read().get(to) { tx.send(e); } \
             else { self.sock.write_all(b); } } }");
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert_eq!(f.blocking.len(), 1, "write_all in the else branch");
        assert_eq!(
            f.blocking[0].holding,
            vec!["local"],
            "the scrutinee read guard is still live in the else branch"
        );
    }

    #[test]
    fn constructions_record_term_presence() {
        let w = ws(
            "fn f(bus: &B, t: u64) { bus.send(RtMsg::Leave { id: z, term: t }); \
             bus.send(RtMsg::Stop { id: z }); }",
        );
        let eng = Engine::build(&w);
        let f = fx(&eng, "f");
        assert_eq!(f.constructions.len(), 2);
        assert!(f.constructions[0].has_term);
        assert!(!f.constructions[1].has_term);
    }

    #[test]
    fn pattern_position_is_not_a_construction() {
        let w = ws("fn f(m: &RtMsg) { if let RtMsg::Leave { term } = m { use_it(term); } }");
        let eng = Engine::build(&w);
        assert!(fx(&eng, "f").constructions.is_empty());
    }

    #[test]
    fn reach_paths_records_call_sites() {
        let w = ws("fn a(s: &S) { b(s); }\nfn b(s: &S) { s.sock.write_all(buf); }");
        let eng = Engine::build(&w);
        let direct: Vec<Option<(String, u32)>> = eng
            .fns
            .iter()
            .map(|f| f.blocking.first().map(|b| (b.what.clone(), b.line)))
            .collect();
        let paths = eng.reach_paths(&w, &direct, &|_| false, false);
        let ai = eng.fns.iter().position(|f| f.name == "a").expect("a");
        let (hops, detail) = paths[ai].as_ref().expect("a reaches write_all");
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].qual, "a");
        assert_eq!(hops[1].qual, "b");
        assert_eq!(detail, "write_all(..)");
        let rendered = format_path(hops, detail);
        assert!(rendered.contains("`a` (t.rs:1)"), "{rendered}");
        assert!(rendered.contains("`b` (t.rs:2)"), "{rendered}");
    }

    #[test]
    fn cut_escaped_stops_propagation() {
        let w = ws("fn a(time: &T, s: &S) { time.blocking(|| b(s)); }\n\
             fn b(s: &S) { s.sock.write_all(buf); }");
        let eng = Engine::build(&w);
        let direct: Vec<Option<(String, u32)>> = eng
            .fns
            .iter()
            .map(|f| f.blocking.first().map(|b| (b.what.clone(), b.line)))
            .collect();
        let ai = eng.fns.iter().position(|f| f.name == "a").expect("a");
        let cut = eng.reach_paths(&w, &direct, &|_| false, true);
        assert!(cut[ai].is_none(), "escaped call must not propagate");
        let uncut = eng.reach_paths(&w, &direct, &|_| false, false);
        assert!(uncut[ai].is_some(), "without the cut the path exists");
    }
}
