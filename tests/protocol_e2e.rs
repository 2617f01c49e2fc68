//! Integration: the coordination protocol end to end on the live
//! multi-threaded runtime — asynchronous start and initialization of new
//! workers (§V-B), message loss and AM crashes (§V-D), bounded pauses,
//! and jobs that live long enough to exhaust the planner's GPU slots.
//!
//! Scenarios that wait on timeouts or partition windows run on a
//! [`TimeSource::virtual_seeded`] clock, so they replay bit-identically
//! per seed and finish in milliseconds of wall time.

use std::time::Duration;

use elan::core::obs::AdjustmentPhase;
use elan::core::state::WorkerId;
use elan::rt::{
    ChaosPolicy, CrashPoint, ElasticRuntime, EndpointId, EpochConfig, RuntimeConfig,
    ShutdownReport, TimeSource, TraceKind,
};

/// The last iteration any worker of the job reached.
fn last_iteration(report: &ShutdownReport) -> u64 {
    report
        .workers
        .values()
        .map(|v| v.iteration)
        .max()
        .unwrap_or(0)
}

/// Asserts every worker in `ids` trained to the job's last iteration —
/// none of them was stopped along the way.
fn assert_trained_to_the_end(report: &ShutdownReport, ids: &[WorkerId]) {
    let last = last_iteration(report);
    for w in ids {
        assert_eq!(
            report.workers[w].iteration, last,
            "{w:?} stopped before the job did"
        );
    }
}

#[test]
fn scale_out_never_stops_existing_workers() {
    // 4 workers scale to 6; the originals keep training through the
    // adjustment and reach the job's last iteration.
    let mut rt = ElasticRuntime::builder()
        .workers(4)
        .time(TimeSource::virtual_seeded(4))
        .start()
        .unwrap();
    let stayers = rt.members();
    rt.run_until_iteration(10);
    rt.scale_out(2);
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    assert_eq!(report.final_world_size, 6);
    assert!(report.states_consistent());
    assert_trained_to_the_end(&report, &stayers);
}

#[test]
fn joiner_initializes_while_existing_workers_train() {
    // Asynchronous start/init (§V-B): a partition window keeps the new
    // worker silent for 500ms of virtual time. The AM cannot adjust
    // before the joiner reports, and the stayers must not wait for it —
    // they keep training through the window at ~1ms per iteration.
    let mut rt = ElasticRuntime::builder()
        .workers(2)
        .chaos(ChaosPolicy::new(5)) // engine only: scripts the window
        .time(TimeSource::virtual_seeded(5))
        .compute_us(1_000)
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    let stayers = rt.members();
    let joiner = WorkerId(2);
    assert!(rt.partition(
        "joiner-silent",
        vec![vec![EndpointId::Worker(joiner)]],
        Duration::from_millis(500),
    ));
    rt.scale_out(1);
    assert_eq!(rt.members(), vec![stayers[0], stayers[1], joiner]);
    let snapshot = rt.snapshot();
    let trained = stayers
        .iter()
        .map(|w| snapshot[w].iteration)
        .min()
        .unwrap_or(0);
    assert!(
        trained >= 250,
        "stayers reached only iteration {trained} while the joiner was silent"
    );
    rt.run_until_iteration(trained + 20);
    let report = rt.shutdown();

    assert_eq!(report.final_world_size, 3);
    assert!(report.states_consistent(), "{report:?}");
    assert_trained_to_the_end(&report, &stayers);
    // The adjustment waited for the slowest report: the report phase
    // spans the whole window.
    let trace = report
        .traces
        .iter()
        .find(|t| t.kind == TraceKind::ScaleOut && t.completed)
        .expect("a completed scale-out trace");
    assert!(
        trace.phase_us(AdjustmentPhase::Report) >= 450_000,
        "report phase {}us is shorter than the silent window",
        trace.phase_us(AdjustmentPhase::Report)
    );
    let chaos = report.chaos.expect("job ran with a chaos engine");
    assert!(
        chaos.partitioned > 0,
        "the window dropped nothing: {chaos:?}"
    );
}

#[test]
fn protocol_survives_combined_loss_and_crash() {
    // 6 workers scale to 10 on a bus that drops 15% of all control
    // messages, and the AM dies right after persisting the adjustment.
    let mut cfg = RuntimeConfig::small(6);
    cfg.retry_max_attempts = 12;
    let mut rt = ElasticRuntime::builder()
        .config(cfg)
        .chaos(ChaosPolicy::new(15).drop(0.15))
        .time(TimeSource::virtual_seeded(15))
        .start()
        .unwrap();
    let stayers = rt.members();
    rt.run_until_iteration(10);
    rt.arm_am_crash(CrashPoint::OnAdjustStart);
    rt.scale_out(4);
    assert_eq!(rt.members().len(), 10, "the recovered AM must finish");
    rt.run_until_iteration(40);
    let report = rt.shutdown();

    assert_eq!(report.final_world_size, 10);
    assert!(report.states_consistent(), "{report:?}");
    assert_trained_to_the_end(&report, &stayers);
    assert!(report.metrics.am_recoveries >= 1, "{:?}", report.metrics);
    assert!(report.metrics.resends > 0, "{:?}", report.metrics);
}

#[test]
fn pause_stays_bounded_under_faults() {
    // Even with loss, a staying worker's total stall is bounded by the
    // adjustment plus retry latencies — far under S&R's ~40s restart.
    let mut rt = ElasticRuntime::builder()
        .workers(4)
        .chaos(ChaosPolicy::new(10).drop(0.10))
        .time(TimeSource::virtual_seeded(10))
        .start()
        .unwrap();
    let stayers = rt.members();
    rt.run_until_iteration(10);
    rt.scale_out(4);
    rt.run_until_iteration(25);
    let report = rt.shutdown();
    assert!(report.states_consistent());
    for w in &stayers {
        let stall = report.workers[w].stalled;
        assert!(stall < Duration::from_secs(5), "{w:?} stalled {stall:?}");
    }
}

#[test]
fn joiner_stands_down_when_the_job_ends_first() {
    // A joiner that is still cut off when the job shuts down is never
    // admitted, and shutdown does not wait on it.
    let mut rt = ElasticRuntime::builder()
        .workers(3)
        .chaos(ChaosPolicy::new(6)) // engine only: scripts the window
        .time(TimeSource::virtual_seeded(6))
        .compute_us(500)
        .open_membership(EpochConfig {
            min_members: 3,
            max_members: 8,
            join_window_ms: 200,
            train_boundaries: 3,
            witness_sample: 2,
            shard_count: 64,
            seed: 6,
        })
        .start()
        .unwrap();
    rt.run_until_iteration(10);
    let joiner = WorkerId(3);
    assert!(rt.partition(
        "joiner-silent",
        vec![vec![EndpointId::Worker(joiner)]],
        Duration::from_secs(600),
    ));
    assert_eq!(rt.open_join(1), vec![joiner]);
    rt.run_until_iteration(30);
    let report = rt.shutdown();
    assert_eq!(report.final_world_size, 3);
    assert!(report.states_consistent());
    assert!(
        report.workers.get(&joiner).is_none_or(|v| !v.alive),
        "the joiner outlived the job"
    );
    assert_eq!(report.journal.count("join_admitted"), 0);
}

#[test]
fn live_runtime_full_lifecycle_stress() {
    let mut rt = ElasticRuntime::builder().workers(2).start().unwrap();
    for step in 1..=4u32 {
        rt.run_until_iteration(u64::from(step) * 10);
        match step % 3 {
            0 => rt.migrate(),
            1 => rt.scale_out(step),
            _ => {
                if rt.members().len() > 2 {
                    rt.scale_in(1);
                }
            }
        }
    }
    rt.run_until_iteration(60);
    let report = rt.shutdown();
    assert!(report.states_consistent());
    assert!(report.adjustments >= 3);
}

#[test]
fn worker_ids_past_the_planning_topology_keep_migrating() {
    // Every migration mints two fresh worker ids; 260 of them carry a
    // 2-worker job past the replication planner's 512 GPU slots. The AM
    // must keep planning (no panic, so no successor election) and the
    // replicas must stay bit-identical.
    let mut rt = ElasticRuntime::builder()
        .workers(2)
        .time(TimeSource::virtual_seeded(512))
        .start()
        .unwrap();
    for round in 1..=260u64 {
        rt.run_until_iteration(round * 5);
        rt.migrate();
    }
    let members = rt.members();
    assert!(members.iter().all(|w| w.0 >= 512), "{members:?}");
    rt.run_until_iteration(261 * 5 + 10);
    let report = rt.shutdown();
    assert_eq!(report.final_world_size, 2);
    assert!(report.states_consistent());
    assert_trained_to_the_end(&report, &members);
    assert_eq!(report.metrics.am_recoveries, 0, "{:?}", report.metrics);
}

#[test]
fn scale_in_frees_threads_promptly() {
    let mut rt = ElasticRuntime::builder().workers(6).start().unwrap();
    rt.run_until_iteration(5);
    rt.scale_in(4);
    assert_eq!(rt.members().len(), 2);
    rt.run_until_iteration(20);
    let report = rt.shutdown();
    assert_eq!(report.final_world_size, 2);
    // Every worker that left did so cleanly (telemetry shows not-alive).
    let dead = report.workers.values().filter(|v| !v.alive).count();
    assert_eq!(dead, report.workers.len());
}
