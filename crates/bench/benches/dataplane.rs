//! Criterion micro-benchmarks for the data-plane hot paths: the chunked
//! cooperative allreduce (against the naive copy-everything baseline) and
//! the chunked snapshot build/assemble round trip used by pipelined state
//! replication.
//!
//! These complement the `dataplane` binary: the binary measures the
//! multi-threaded end-to-end numbers that land in `BENCH_dataplane.json`;
//! these isolate the single-thread per-call costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bench::naive::NaiveCommGroup;
use elan_core::state::WorkerId;
use elan_rt::comm::{AllreduceOutcome, CommGroup};
use elan_rt::worker::{build_state_chunks, SnapshotAssembly};

const LEN: usize = 1 << 20;

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

fn bench_allreduce_single(c: &mut Criterion) {
    let input = fill(7, LEN);

    // World of one isolates the per-call overhead (copy vs zero-copy +
    // pooled buffers) without thread scheduling noise.
    let naive = NaiveCommGroup::new([WorkerId(0)], LEN);
    c.bench_function("allreduce/naive_world1_1m", |b| {
        b.iter(|| match naive.allreduce(WorkerId(0), black_box(&input)) {
            AllreduceOutcome::Sum { sum, .. } => sum.len(),
            other => panic!("unexpected {other:?}"),
        })
    });

    let chunked = CommGroup::new([WorkerId(0)], LEN);
    c.bench_function("allreduce/chunked_world1_1m", |b| {
        b.iter(|| match chunked.allreduce(WorkerId(0), black_box(&input)) {
            AllreduceOutcome::Sum { sum, .. } => sum.len(),
            other => panic!("unexpected {other:?}"),
        })
    });
}

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let params = fill(11, LEN);
    let momentum = fill(13, LEN);

    c.bench_function("replication/build_chunks_1m", |b| {
        b.iter(|| build_state_chunks(black_box(&params), black_box(&momentum), 65_536).len())
    });

    let chunks = build_state_chunks(&params, &momentum, 65_536);
    let mut dst_params = vec![0.0f32; LEN];
    let mut dst_momentum = vec![0.0f32; LEN];
    c.bench_function("replication/assemble_chunks_1m", |b| {
        b.iter(|| {
            let mut asm = SnapshotAssembly::new();
            let mut done = None;
            for (kind, index, total, offset, data) in &chunks {
                if let Some(fin) = asm.offer(
                    *kind,
                    1,
                    0,
                    *index,
                    *total,
                    *offset,
                    data,
                    &mut dst_params,
                    &mut dst_momentum,
                ) {
                    done = Some(fin);
                }
            }
            done.expect("assembly completes")
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_allreduce_single, bench_snapshot_roundtrip
);
criterion_main!(benches);
