//! Network-IO confinement (NETWORK_IO): inside `elan-rt`, the only
//! place allowed to open sockets or name socket types is the transport
//! layer — `elan-rt/src/transport/`. Everything else talks to peers
//! through a `Transport` behind the bus, so the runtime stays
//! transport-agnostic: the deterministic in-memory bus and the socket
//! hub must be interchangeable without the protocol code noticing
//! (DESIGN.md §15). One stray `TcpStream::connect` in a worker loop is
//! an untestable, chaos-invisible side channel.
//!
//! Like VIRTUAL_TIME_UNSAFE's clock scan, **test code is not exempt**: a
//! test that opens its own socket bypasses the framing, CRC, and
//! reconnect semantics the transport tests exist to pin down. The only
//! exemption is directory-level — the transport implementations
//! themselves.

use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

/// Crates under network discipline: the runtime, the facade crate's own
/// `src/` (including the PR 8 coordinator/worker bins), and the
/// workspace-level integration tests. Other crates are simulation- or
/// harness-side and never open sockets at all.
const SCOPE_CRATES: [&str; 3] = ["elan-rt", "elan", "tests"];

/// The directory allowed to touch the OS socket API: the transport
/// implementations, whose socket backend must call the real thing.
const EXEMPT_DIR: &str = "elan-rt/src/transport/";

/// Socket types whose mention anywhere in scope means OS network IO.
const SOCKET_TYPES: [&str; 6] = [
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "UnixStream",
    "UnixListener",
    "UnixDatagram",
];

pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        if !ws.fixture_mode && !SCOPE_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        if file.rel.contains(EXEMPT_DIR) {
            continue;
        }
        let toks = &file.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            // `std::net::…` module path
            let hit = if t.is_ident("std")
                && i + 2 < toks.len()
                && toks[i + 1].is("::")
                && toks[i + 2].is_ident("net")
            {
                Some("std::net".to_string())
            // `…os::unix::net::…` module path (UDS types live here)
            } else if t.is_ident("net")
                && i >= 2
                && toks[i - 1].is("::")
                && toks[i - 2].is_ident("unix")
            {
                Some("std::os::unix::net".to_string())
            // A socket type, however it was imported.
            } else if SOCKET_TYPES.iter().any(|s| t.is_ident(s)) {
                Some(t.text.clone())
            } else {
                None
            };
            let Some(hit) = hit else { continue };
            // Deliberately NO `is_test_at` exemption: test code is in scope.
            let func = file
                .enclosing_fn(i)
                .map(|f| f.qual.clone())
                .unwrap_or_default();
            diags.push(Diagnostic::new(
                rules::NETWORK_IO,
                file.rel.clone(),
                t.line,
                func,
                hit.clone(),
                format!("`{hit}` outside the transport layer opens an unmanaged socket"),
                "route peer traffic through a Transport implementation in \
                 elan-rt/src/transport/ so framing, CRC checks, and reconnect semantics \
                 apply to every byte on the wire (see DESIGN.md §15)",
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn ws_named(src: &str, rel: &str) -> Workspace {
        Workspace {
            files: vec![parse_source(src, rel.into(), String::new())],
            fixture_mode: true,
            root: None,
        }
    }

    fn ws(src: &str) -> Workspace {
        ws_named(src, "t.rs")
    }

    #[test]
    fn flags_std_net_path_and_socket_types() {
        let d = run(&ws(
            "fn f() { let l = std::net::TcpListener::bind(a); let s = UdpSocket::bind(a); }",
        ));
        let kinds: Vec<&str> = d.iter().map(|d| d.detail.as_str()).collect();
        assert_eq!(kinds, vec!["std::net", "TcpListener", "UdpSocket"]);
    }

    #[test]
    fn flags_unix_net_import() {
        let d = run(&ws("use std::os::unix::net::UnixStream;"));
        let kinds: Vec<&str> = d.iter().map(|d| d.detail.as_str()).collect();
        assert_eq!(kinds, vec!["std::os::unix::net", "UnixStream"]);
    }

    #[test]
    fn test_code_is_not_exempt() {
        let d = run(&ws(
            "#[cfg(test)] mod tests { #[test] fn t() { let s = TcpStream::connect(a); } }",
        ));
        assert_eq!(
            d.len(),
            1,
            "socket-opening tests bypass the transport: {d:?}"
        );
    }

    #[test]
    fn transport_dir_is_exempt() {
        let d = run(&ws_named(
            "fn dial(a: &str) -> io::Result<TcpStream> { std::net::TcpStream::connect(a) }",
            "crates/elan-rt/src/transport/socket.rs",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn unrelated_idents_are_fine() {
        let d = run(&ws(
            "fn f(t: &Topology) { let network = t.network(); let unix_time = now(); }",
        ));
        assert!(d.is_empty(), "got {d:?}");
    }
}
