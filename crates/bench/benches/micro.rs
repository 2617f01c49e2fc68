//! Criterion micro-benchmarks of Elan's hot paths: replication planning,
//! the cost models, the hybrid scaling decision, the data samplers and
//! the live training worker's per-iteration step.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use elan_core::data::{ChunkSampler, SerialSampler};
use elan_core::elasticity::{AdjustmentRequest, ElasticitySystem};
use elan_core::scaling::hybrid_scale;
use elan_core::ElanSystem;
use elan_models::{zoo, PerfModel};
use elan_rt::worker::simulate_training;
use elan_sim::Bytes;
use elan_topology::{BandwidthModel, ClusterSpec, GpuId, ReplicationPlanner};

fn bench_replication_planning(c: &mut Criterion) {
    let topo = ClusterSpec::paper_testbed().build();
    let existing: Vec<GpuId> = (0..32).map(GpuId).collect();
    let joining: Vec<GpuId> = (32..64).map(GpuId).collect();
    c.bench_function("planner/plan_32_to_64", |b| {
        b.iter(|| {
            ReplicationPlanner::new(&topo)
                .plan(black_box(&existing), black_box(&joining))
                .unwrap()
        })
    });
    let plan = ReplicationPlanner::new(&topo)
        .plan(&existing, &joining)
        .unwrap();
    let bw = BandwidthModel::paper_default();
    c.bench_function("planner/price_plan", |b| {
        b.iter(|| plan.duration(&bw, black_box(Bytes::from_mib(200)), Bytes::from_kib(64)))
    });
}

fn bench_models(c: &mut Criterion) {
    let perf = PerfModel::paper_default();
    let model = zoo::resnet50();
    c.bench_function("perf/iteration_time", |b| {
        b.iter(|| perf.iteration_time(&model, black_box(32), black_box(1024)))
    });
    c.bench_function("perf/optimal_workers", |b| {
        b.iter(|| perf.optimal_workers(&model, black_box(1024), 128))
    });
    c.bench_function("scaling/hybrid_decision", |b| {
        b.iter(|| {
            hybrid_scale(black_box(512), 16, 32, |tbs| {
                perf.optimal_workers(&model, tbs, 256)
            })
        })
    });
}

fn bench_adjustment_pricing(c: &mut Criterion) {
    let topo = ClusterSpec::paper_testbed().build();
    let bw = BandwidthModel::paper_default();
    let perf = PerfModel::paper_default();
    let model = zoo::resnet50();
    let ctx = elan_core::elasticity::AdjustmentContext {
        topology: &topo,
        bandwidth: &bw,
        perf: &perf,
        model: &model,
        total_batch: 512,
        coordination_interval: 10,
        seed: 42,
    };
    let sys = ElanSystem::new();
    let req = AdjustmentRequest::contiguous(16, 32);
    c.bench_function("elan/adjust_cost", |b| {
        b.iter(|| sys.adjust(black_box(&req), &ctx))
    });
}

fn bench_data_samplers(c: &mut Criterion) {
    c.bench_function("data/serial_epoch", |b| {
        b.iter(|| {
            let mut s = SerialSampler::new(50_000);
            let mut n = 0u64;
            while s.epoch() == 0 {
                n += s.next_batch(512).len() as u64;
            }
            n
        })
    });
    c.bench_function("data/chunk_repartition", |b| {
        b.iter(|| {
            let mut cs = ChunkSampler::new(50_000, 64, 16);
            for w in 0..16 {
                cs.next_for_worker(w, 100);
            }
            cs.repartition(black_box(24))
        })
    });
}

/// The worker's O(len) hot path at the `steady-1m` state size (1 Mi
/// elements): per iteration, two workers' gradients, their sum, and the
/// SGD step with its parameter checksum — the same code `run_worker`
/// runs, replayed single-threaded over eight iterations.
fn bench_worker_step(c: &mut Criterion) {
    c.bench_function("worker_step_1m", |b| {
        b.iter(|| simulate_training(2, 8, black_box(1 << 20), 0.05, 128))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_replication_planning,
        bench_models,
        bench_adjustment_pricing,
        bench_data_samplers,
        bench_worker_step
);
criterion_main!(benches);
