//! Pluggable control-plane transports behind the [`Bus`](crate::bus::Bus)
//! facade.
//!
//! The runtime speaks one protocol (`elan_core::protocol`) over two very
//! different fabrics:
//!
//! - [`MemoryTransport`] — the original in-process chaos bus: crossbeam
//!   channels, deterministic fault injection, virtual-time aware. Every
//!   deterministic simulation and seed sweep runs on it, byte-identical
//!   to the pre-trait implementation.
//! - [`SocketTransport`] — real TCP or
//!   Unix-domain sockets with the length-prefixed, CRC32-framed codec
//!   from `elan_core::codec`, so a coordinator and N workers run as
//!   separate OS processes.
//!
//! The trait is object-safe on purpose: the runtime holds an
//! `Arc<dyn Transport>` and never knows which fabric it is on. Anything
//! fault-injection-specific ([`Transport::chaos_stats`],
//! [`Transport::add_partition`]) has a "not supported" default so socket
//! transports don't fake chaos.
//!
//! This module is also the *only* place in `elan-rt` allowed to touch
//! `std::net`/socket APIs — the `NETWORK_IO` rule in `elan-verify`
//! enforces that, mirroring how `VIRTUAL_TIME_UNSAFE` confines clock
//! access to `time.rs`.

pub mod memory;
pub mod socket;

use std::sync::Arc;

use crate::bus::{Endpoint, EndpointId, EndpointStats, Envelope};
use crate::chaos::{ChaosStats, PartitionWindow};
use crate::obs::EventJournal;
use crate::time::TimeSource;

pub use memory::MemoryTransport;
pub use socket::SocketTransport;

/// A message fabric the runtime's endpoints send and receive through.
///
/// Implementations must be `Send + Sync`: one transport is shared by the
/// AM thread, every worker, and the controller. Delivery is per-receiver
/// FIFO (whatever the fabric) and at-most-once; the
/// [`crate::reliable`] layer adds ids, acks, resends, and dedup on top,
/// which is what lets a socket transport survive reconnects with the
/// same machinery that masks chaos drops in-memory.
pub trait Transport: Send + Sync {
    /// Registers `id` locally and returns its receive side.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered on this transport instance
    /// (a local protocol bug, identical to the historical bus behavior).
    fn register(&self, id: EndpointId) -> Endpoint;

    /// Removes a local endpoint; later sends to it become dead letters.
    fn unregister(&self, id: EndpointId);

    /// Sends `env` to `to`, through fault injection or the wire. Returns
    /// whether the destination is currently known/reachable — an
    /// in-network loss (chaos drop, peer crash mid-flight) still reports
    /// true, because a real sender cannot observe it.
    fn send_envelope(&self, to: EndpointId, env: Envelope) -> bool;

    /// Delivery counters for one destination, as seen from this process.
    fn stats(&self, id: EndpointId) -> EndpointStats;

    /// All per-destination counters, sorted by endpoint.
    fn all_stats(&self) -> Vec<(EndpointId, EndpointStats)>;

    /// Total messages that could not be delivered anywhere.
    fn total_dead_letters(&self) -> u64;

    /// Fault-injection counters. `None` when the transport carries no
    /// chaos engine (the default, and always for socket transports).
    fn chaos_stats(&self) -> Option<ChaosStats> {
        None
    }

    /// Whether an open partition window currently cuts the `a`↔`b` edge.
    /// Transports without scripted chaos never report a partition.
    fn is_partitioned(&self, _a: EndpointId, _b: EndpointId) -> bool {
        false
    }

    /// Injects a partition window at runtime. Returns false when the
    /// transport has no chaos engine to carry it (the default).
    fn add_partition(&self, _window: PartitionWindow) -> bool {
        false
    }

    /// Late-binds the runtime's journal and clock, before any
    /// [`Transport::register`] call and before the transport is wrapped
    /// in a `Bus`. The runtime builder calls this on user-supplied
    /// transports so transport construction doesn't need the runtime's
    /// observability plumbing.
    fn attach(&self, journal: Option<Arc<EventJournal>>, time: TimeSource);

    /// The attached event journal, if observability is wired up.
    fn journal(&self) -> Option<Arc<EventJournal>>;

    /// The clock this transport (and the runtime around it) ticks on.
    fn time(&self) -> TimeSource;

    /// Locally registered endpoint count.
    fn endpoint_count(&self) -> usize;

    /// Whether the transport can run under a virtual clock. True for the
    /// in-memory bus; false for socket transports, whose IO waits are
    /// invisible to the virtual scheduler.
    fn supports_virtual_time(&self) -> bool {
        true
    }
}
