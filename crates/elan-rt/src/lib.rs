//! A live, multi-threaded runtime speaking the Elan coordination protocol.
//!
//! This crate holds Elan's one application master and runs it on *real*
//! concurrency, on the wall clock or on a seeded virtual clock
//! ([`TimeSource::virtual_seeded`]): worker threads train a synthetic
//! data-parallel workload with a genuine allreduce ([`comm::CommGroup`]),
//! an application-master thread serves reports and coordinations over a
//! channel [`bus`], and resource adjustments replicate real state buffers
//! between threads along the topology planner's source selection — all
//! without ever stopping the existing workers outside the adjustment
//! pause.
//!
//! Everything the runtime does is observable: a structured [`EventJournal`]
//! records bus faults, replication waves, allreduce rounds, and the
//! adjustment pipeline itself, while a [`TraceRecorder`] spans each
//! adjustment's five phases (request → report → coordinate → replicate →
//! adjust) for the latency breakdown of [`ElasticRuntime::trace_report`].
//!
//! # Examples
//!
//! ```
//! use elan_rt::ElasticRuntime;
//!
//! let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
//! rt.run_until_iteration(20);
//! rt.scale_out(2);           // two workers join without a restart
//! rt.run_until_iteration(40);
//! let report = rt.shutdown();
//! assert_eq!(report.final_world_size, 4);
//! assert!(report.states_consistent());
//! assert!(report.traces.iter().all(|t| t.is_well_formed()));
//! println!("{}", report.trace_report());
//! ```

// Panic hygiene (DESIGN.md §11): runtime code must not unwrap/expect
// outside tests. Every exception carries a per-function `#[allow]` whose
// justification lives in the workspace-root `verify-allow.toml`, and
// `elan-verify` re-checks the same sites structurally in CI.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bus;
pub mod chaos;
pub mod comm;
pub mod epoch;
pub mod liveness;
pub mod obs;
pub mod reliable;
pub mod remote;
pub mod runtime;
pub mod safety;
pub mod time;
pub mod transport;
pub mod worker;

pub use bus::{Bus, BusBuilder, Endpoint, EndpointId, EndpointStats, Envelope, RtMsg};
pub use chaos::{ChaosPolicy, ChaosStats, EdgeChaos, PartitionWindow};
pub use comm::{
    adaptive_chunk_elems, reference_sum, AllreduceOutcome, CommGroup, CommTopology, ReducePath,
    TuningProfile, DEFAULT_CHUNK_ELEMS,
};
pub use epoch::{
    run_churn, sample_witnesses, shard_checksum, shard_owners, ChurnConfig, ChurnReport, EpochCmd,
    EpochConfig, EpochMachine,
};
pub use liveness::CrashPoint;
pub use obs::{
    render_trace_report, AdjustmentTrace, ChaosFate, Event, EventJournal, EventKind, EventSink,
    JournalSummary, Obs, RingBufferSink, TraceKind, TraceRecorder, DEFAULT_RING_CAPACITY,
};
pub use reliable::{ReliableEndpoint, RtMetrics, RtMetricsSnapshot};
pub use remote::{run_remote_worker, RemoteRole};
pub use runtime::{
    CheckpointSnapshot, ElasticRuntime, RuntimeBuilder, RuntimeConfig, ShutdownReport,
};
pub use safety::{
    check_epoch_safety, check_term_safety, EpochSafetyReport, EpochViolation, TermSafetyReport,
    TermViolation,
};
pub use time::{SlotGuard, ThreadSlot, TimeSource, VirtualClock};
pub use transport::{MemoryTransport, SocketTransport, Transport};
