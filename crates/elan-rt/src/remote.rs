//! Remote-worker entry point: one OS process per worker.
//!
//! In multi-process mode the coordinator process hosts the application
//! master, controller, and watchdog over a listening [`SocketTransport`]
//! (built with [`ElasticRuntime::builder`]`.transport(..).remote_workers(true)`),
//! while each worker is a separate OS process that dials in with
//! [`run_remote_worker`] and runs the *unchanged* [`run_worker`] loop —
//! the worker cannot tell whether its [`ReliableEndpoint`] is backed by
//! in-process channels or a socket.
//!
//! What a remote worker assembles locally:
//!
//! - a [`SocketTransport`] client dialed at the coordinator's address,
//!   wrapped in a [`Bus`] — control messages travel as CRC-framed wire
//!   envelopes, and the reliable layer's resend/dedup masks reconnects;
//! - its own [`Obs`] journal and real-time [`TimeSource`] (virtual time
//!   cannot cross a process boundary; the socket transport rejects it);
//! - a private [`SharedControl`]: crash injection, leases, and the
//!   durable AM record are coordinator-side concerns, so the worker's
//!   copy stays inert — `worker_crashed` never fires remotely;
//! - a **solo** [`CommGroup`] holding only itself. The control plane
//!   (reports, coordination, state replication, rejoin) runs across
//!   processes; the data-plane allreduce stays process-local, so each
//!   remote worker averages only its own gradient. Cross-process
//!   collectives are out of scope for the transport layer (DESIGN.md
//!   §15).
//!
//! The process exits when [`run_worker`] returns — on the AM's `Leave`
//! (clean shutdown or scale-in), or on eviction from the collective
//! group.
//!
//! [`ElasticRuntime::builder`]: crate::runtime::ElasticRuntime::builder

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use elan_core::state::WorkerId;

use crate::bus::{Bus, EndpointId};
use crate::comm::{CommGroup, TuningProfile};
use crate::liveness::SharedControl;
use crate::obs::{Obs, DEFAULT_RING_CAPACITY};
use crate::reliable::ReliableEndpoint;
use crate::runtime::{RuntimeConfig, HB_PERIOD, LEASE_TTL, RETRY_TIMEOUT, TICK};
use crate::time::TimeSource;
use crate::transport::{SocketTransport, Transport};
use crate::worker::{run_worker, Telemetry, WorkerConfig, WorkerRole, WorkerView};

/// How a remote worker process enters the job — the CLI-expressible
/// subset of [`WorkerRole`] (a `Restored` worker carries whole state
/// buffers and only makes sense in-process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteRole {
    /// Present at job start: begins training immediately.
    Founding,
    /// Launched by a scale-out: announces itself and waits for state.
    Joining,
    /// Restarted after a crash: presents the crashed incarnation's
    /// last-known fencing term and boundary iteration.
    Rejoin {
        /// Fencing term the worker last observed before crashing.
        term: u64,
        /// Boundary iteration of the last state it had applied.
        iteration: u64,
    },
}

impl RemoteRole {
    /// Parses the bin-level role syntax: `founding`, `joining`, or
    /// `rejoin:<term>:<iteration>`.
    pub fn parse(s: &str) -> Option<RemoteRole> {
        match s {
            "founding" => Some(RemoteRole::Founding),
            "joining" => Some(RemoteRole::Joining),
            _ => {
                let rest = s.strip_prefix("rejoin:")?;
                let (term, iteration) = rest.split_once(':')?;
                Some(RemoteRole::Rejoin {
                    term: term.parse().ok()?,
                    iteration: iteration.parse().ok()?,
                })
            }
        }
    }

    fn into_worker_role(self) -> WorkerRole {
        match self {
            RemoteRole::Founding => WorkerRole::Founding,
            RemoteRole::Joining => WorkerRole::Joining,
            RemoteRole::Rejoin { term, iteration } => WorkerRole::Rejoin { term, iteration },
        }
    }
}

/// Dials the coordinator at `addr` (`tcp:host:port` or `unix:/path`),
/// assembles a process-local runtime harness around the socket, and runs
/// the worker loop until the job tells it to leave.
///
/// Blocks for the lifetime of the worker. Returns the worker's final
/// [`WorkerView`] (or `None` if it exited before publishing telemetry —
/// e.g. a joiner turned away by a `Leave` during admission).
///
/// `cfg` must agree with the coordinator's [`RuntimeConfig`] on the
/// training-shape fields (`param_elems`, `coordination_interval`,
/// `learning_rate`, `total_batch`, `replication_chunk_elems`); its loops
/// are paced by the same timing constants as the coordinator's.
pub fn run_remote_worker(
    addr: &str,
    id: WorkerId,
    cfg: RuntimeConfig,
    role: RemoteRole,
) -> io::Result<Option<WorkerView>> {
    let transport: Arc<dyn Transport> = Arc::new(SocketTransport::connect(addr)?);
    let time = TimeSource::real();
    // Local observability: the worker journals its own view (snapshot
    // applies, dead letters) — the coordinator's journal records the
    // job-level story.
    let obs = Obs::with_time(DEFAULT_RING_CAPACITY, Vec::new(), time.clone());
    // Attach before register: endpoints capture the clock at
    // registration, and the bus caches journal/time when wrapped.
    transport.attach(Some(Arc::clone(&obs.journal)), time.clone());
    let bus = Bus::with_transport(transport);
    let ctrl = Arc::new(SharedControl::with_time(LEASE_TTL, obs, time.clone()));
    let profile = TuningProfile::for_time(&time);
    let comm = Arc::new(CommGroup::with_tuning([id], cfg.param_elems, profile, None));
    comm.set_journal(Arc::clone(&ctrl.obs.journal));
    comm.set_time(time.clone());
    comm.set_metrics(&ctrl.obs.registry);
    let telemetry: Telemetry = Arc::new(Mutex::new(HashMap::new()));
    let rep = ReliableEndpoint::new(
        bus.clone(),
        bus.register(EndpointId::Worker(id)),
        16 + id.0,
        RETRY_TIMEOUT,
        None, // workers retry forever; the AM decides who is dead
        Arc::clone(&ctrl.metrics),
    );
    let wcfg = WorkerConfig {
        id,
        param_elems: cfg.param_elems,
        coordination_interval: cfg.coordination_interval,
        learning_rate: cfg.learning_rate,
        total_batch: cfg.total_batch,
        hb_period: HB_PERIOD,
        tick: TICK,
        replication_chunk_elems: cfg.replication_chunk_elems,
        compute: Duration::from_micros(cfg.compute_us),
    };
    run_worker(
        wcfg,
        rep,
        comm,
        Arc::clone(&telemetry),
        role.into_worker_role(),
        ctrl,
    );
    bus.unregister(EndpointId::Worker(id));
    let view = telemetry.lock().get(&id).copied();
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_syntax_round_trips() {
        assert_eq!(RemoteRole::parse("founding"), Some(RemoteRole::Founding));
        assert_eq!(RemoteRole::parse("joining"), Some(RemoteRole::Joining));
        assert_eq!(
            RemoteRole::parse("rejoin:3:40"),
            Some(RemoteRole::Rejoin {
                term: 3,
                iteration: 40
            })
        );
        for bad in [
            "",
            "found",
            "rejoin",
            "rejoin:3",
            "rejoin:x:40",
            "rejoin:3:",
        ] {
            assert_eq!(RemoteRole::parse(bad), None, "{bad:?} must not parse");
        }
    }
}
