//! The mid-range work-stealing path: cache-blocked cooperative reduction
//! over one shared chunk cursor, plus the reduce kernel every path
//! shares and the world-coupled chunk-size derivation used by every
//! cooperative path.
//!
//! When the last member arrives, the round's inputs are split into
//! cache-sized chunks ([`ChunkPlan`]); every blocked waiter (plus the
//! last arriver, plus an evicting thread if eviction completes the
//! round) claims chunks from an atomic work-stealing cursor and reduces
//! them **outside the group lock**. Each chunk sums its contributions in
//! ascending worker-id order, so every output element sees the identical
//! f32 addition sequence regardless of chunk size, thread count, or
//! arrival order — bit-deterministic (the EasyScale requirement) while
//! the accumulator chunk stays hot in L1.

use std::ops::Range;

use elan_core::messages::ChunkPlan;

use super::hier::GroupWork;
use super::SharedSlice;

/// Floor for the reduction chunk size: 4096 f32 = 16 KiB, sized so one
/// accumulator chunk plus a contribution chunk fit comfortably in L1.
/// Also the fixed default for [`super::CommGroup::with_chunk_elems`]-era
/// callers.
pub const DEFAULT_CHUNK_ELEMS: usize = 4096;

/// The world-coupled chunk size: `max(len / world, DEFAULT_CHUNK_ELEMS)`.
///
/// The old fixed 4096-element chunks made the chunk *count* independent
/// of the world size, so at world=16 / len=4M a round had 1024 chunks and
/// sixteen workers hammered the cursor cache line once per 16 KiB of
/// work — the measured speedup collapse (6.1x → 2.9x going world 8 → 16).
/// Deriving the size from `len / world` pins the chunk count to roughly
/// one chunk per worker (never more than `world` full chunks, plus at
/// most one remainder chunk), so cursor traffic stays O(world) per round
/// while the floor keeps tiny quotients from shredding cache locality.
pub fn adaptive_chunk_elems(len: usize, world: u32) -> usize {
    (len / (world.max(1) as usize)).max(DEFAULT_CHUNK_ELEMS)
}

/// The published work plan of one cooperative round, rebuilt at every
/// publish from the contributors actually present.
pub(super) enum RoundWork {
    /// One shared cursor over a flat chunk plan.
    Chunked { plan: ChunkPlan },
    /// One span + cursor per topology group (hierarchical path).
    Hier {
        groups: Vec<GroupWork>,
        /// Total chunk count across all groups (the finish threshold for
        /// the shared done-counter).
        n_chunks: usize,
    },
}

impl RoundWork {
    /// A chunked plan over `len` elements in `chunk_elems` blocks.
    pub(super) fn chunked(len: usize, chunk_elems: usize) -> Self {
        RoundWork::Chunked {
            plan: ChunkPlan::new(len, chunk_elems),
        }
    }

    /// A hierarchical plan over the given per-group spans.
    pub(super) fn hier(groups: Vec<GroupWork>) -> Self {
        let n_chunks = groups.iter().map(|g| g.plan.n_chunks()).sum();
        RoundWork::Hier { groups, n_chunks }
    }

    /// Total chunks this round's done-counter must reach.
    pub(super) fn n_chunks(&self) -> usize {
        match self {
            RoundWork::Chunked { plan } => plan.n_chunks(),
            RoundWork::Hier { n_chunks, .. } => *n_chunks,
        }
    }

    /// Number of parallel work groups (1 for the shared-cursor path).
    pub(super) fn n_groups(&self) -> usize {
        match self {
            RoundWork::Chunked { .. } => 1,
            RoundWork::Hier { groups, .. } => groups.len(),
        }
    }
}

/// Reduces the element `range` of every input (ascending worker-id
/// order) into the accumulator at `out_base`: the one reduce kernel of
/// every path (flat reduces the full range in one call; chunked and
/// hierarchical reduce one claimed chunk per call).
///
/// # Safety
///
/// The caller must hold a unique claim on `range` (no other thread
/// writes it this round), `out_base` must point at an accumulator of at
/// least `range.end` elements, `inputs` must be non-empty with every
/// slice at least `range.end` long, and every `SharedSlice` must honor
/// its lifecycle contract (owners parked for the whole round).
pub(super) unsafe fn reduce_range(inputs: &[SharedSlice], out_base: *mut f32, range: Range<usize>) {
    let out = std::slice::from_raw_parts_mut(out_base.add(range.start), range.len());
    // Sum in ascending worker-id order. The first sweep writes
    // `first + second` straight into the accumulator (no zeroing pass,
    // no copy pass); later contributions are fused eight (then four,
    // two, one) to a sweep so the accumulator chunk is read and written
    // once per *eight* inputs instead of once per input — at large
    // vectors the round is memory-bound and accumulator traffic is the
    // dominant term. Per element the addition sequence is still
    // `((first + a) + b) + …` in ascending worker-id order (Rust
    // evaluates the chain left-to-right), i.e. the exact sequence of
    // `reference_sum`, so fusing changes traffic, not bits. The
    // zipped-iterator bodies (rather than `a[i]` indexing) let the
    // compiler prove every access in-bounds and vectorize the sweeps.
    let n = out.len();
    let first = &inputs[0].slice()[range.clone()][..n];
    let mut rest = &inputs[1..];
    match rest.first() {
        Some(second) => {
            let second = &second.slice()[range.clone()][..n];
            for (o, (a, b)) in out.iter_mut().zip(first.iter().zip(second.iter())) {
                *o = a + b;
            }
            rest = &rest[1..];
        }
        None => out.copy_from_slice(first),
    }
    while rest.len() >= 8 {
        let a = &rest[0].slice()[range.clone()][..n];
        let b = &rest[1].slice()[range.clone()][..n];
        let c = &rest[2].slice()[range.clone()][..n];
        let d = &rest[3].slice()[range.clone()][..n];
        let e = &rest[4].slice()[range.clone()][..n];
        let f = &rest[5].slice()[range.clone()][..n];
        let g = &rest[6].slice()[range.clone()][..n];
        let h = &rest[7].slice()[range.clone()][..n];
        for (o, (((((((a, b), c), d), e), f), g), h)) in out.iter_mut().zip(
            a.iter()
                .zip(b.iter())
                .zip(c.iter())
                .zip(d.iter())
                .zip(e.iter())
                .zip(f.iter())
                .zip(g.iter())
                .zip(h.iter()),
        ) {
            *o = (((((((*o + a) + b) + c) + d) + e) + f) + g) + h;
        }
        rest = &rest[8..];
    }
    while rest.len() >= 4 {
        let a = &rest[0].slice()[range.clone()][..n];
        let b = &rest[1].slice()[range.clone()][..n];
        let c = &rest[2].slice()[range.clone()][..n];
        let d = &rest[3].slice()[range.clone()][..n];
        for (o, (((a, b), c), d)) in out
            .iter_mut()
            .zip(a.iter().zip(b.iter()).zip(c.iter()).zip(d.iter()))
        {
            *o = (((*o + a) + b) + c) + d;
        }
        rest = &rest[4..];
    }
    if rest.len() >= 2 {
        let a = &rest[0].slice()[range.clone()][..n];
        let b = &rest[1].slice()[range.clone()][..n];
        for (o, (a, b)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
            *o = (*o + a) + b;
        }
        rest = &rest[2..];
    }
    if let [last] = rest {
        let a = &last.slice()[range.clone()][..n];
        for (o, a) in out.iter_mut().zip(a.iter()) {
            *o += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_chunk_formula_is_pinned() {
        // The satellite fix for the world=16 pathology: chunk size is
        // len/world with a DEFAULT_CHUNK_ELEMS floor, so the chunk count
        // tracks the world size instead of the vector length.
        assert_eq!(adaptive_chunk_elems(4_194_304, 16), 262_144);
        assert_eq!(
            ChunkPlan::new(4_194_304, adaptive_chunk_elems(4_194_304, 16)).n_chunks(),
            16
        );
        assert_eq!(adaptive_chunk_elems(4_194_304, 8), 524_288);
        assert_eq!(adaptive_chunk_elems(65_536, 4), 16_384);
        assert_eq!(
            ChunkPlan::new(65_536, adaptive_chunk_elems(65_536, 4)).n_chunks(),
            4
        );
        // The floor: small quotients clamp to one cache-sized chunk.
        assert_eq!(adaptive_chunk_elems(1024, 16), DEFAULT_CHUNK_ELEMS);
        assert_eq!(
            ChunkPlan::new(1024, adaptive_chunk_elems(1024, 16)).n_chunks(),
            1
        );
        // Degenerate worlds never divide by zero.
        assert_eq!(adaptive_chunk_elems(8192, 0), 8192);
        assert_eq!(adaptive_chunk_elems(8192, 1), 8192);
    }

    #[test]
    fn round_work_counts_chunks_and_groups() {
        let w = RoundWork::chunked(100, 30);
        assert_eq!(w.n_chunks(), 4);
        assert_eq!(w.n_groups(), 1);
    }
}
