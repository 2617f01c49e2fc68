//! Correctness checks on what the runtime computed.
//!
//! Buffers are compared element by element, never through
//! `elan_rt::worker::checksum`: that fold returns 0 for every training
//! state whose length is a multiple of 4096 (the synthetic gradient
//! repeats every 2048 elements and `2048 * 7 ≡ 0 (mod 64)`, so paired
//! elements cancel), and it cannot see two elements trading places when
//! they sit a multiple of 64 apart.

use elan_rt::worker::{simulate_training, WorkerView};
use elan_rt::CheckpointSnapshot;

/// First index at which `live` and `reference` differ bit for bit (or
/// the shorter length, when the lengths differ).
pub fn first_mismatch(live: &[f32], reference: &[f32]) -> Option<usize> {
    if live.len() != reference.len() {
        return Some(live.len().min(reference.len()));
    }
    live.iter()
        .zip(reference)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

/// Compares a checkpoint with the single-threaded replay of the same
/// number of data-parallel iterations on `world` workers.
pub fn check_against_replay(
    snap: &CheckpointSnapshot,
    world: u32,
    learning_rate: f32,
    total_batch: u32,
) -> Result<(), String> {
    let (params, momentum, cursor) = simulate_training(
        world,
        snap.iteration,
        snap.params.len(),
        learning_rate,
        total_batch,
    );
    if let Some(i) = first_mismatch(&snap.params, &params) {
        return Err(format!(
            "params differ at element {i} (iteration {})",
            snap.iteration
        ));
    }
    if let Some(i) = first_mismatch(&snap.momentum, &momentum) {
        return Err(format!(
            "momentum differs at element {i} (iteration {})",
            snap.iteration
        ));
    }
    if snap.data_cursor != cursor {
        return Err(format!("data cursor {} != {cursor}", snap.data_cursor));
    }
    Ok(())
}

/// The two final members of an elastic job must have stopped at the same
/// boundary with the same data cursor and bit-identical parameters.
pub fn check_final_views(a: &WorkerView, b: &WorkerView) -> Result<(), String> {
    if a.iteration != b.iteration || a.data_cursor != b.data_cursor {
        return Err(format!(
            "workers stopped apart: iteration {} vs {}, cursor {} vs {}",
            a.iteration, b.iteration, a.data_cursor, b.data_cursor
        ));
    }
    if a.params_checksum != b.params_checksum {
        return Err(format!(
            "params checksums differ: {:#x} vs {:#x}",
            a.params_checksum, b.params_checksum
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan_rt::worker::checksum;
    use std::sync::Arc;

    const ELEMS: usize = 1 << 20;

    fn snapshot(params: Vec<f32>, momentum: Vec<f32>, iteration: u64) -> CheckpointSnapshot {
        CheckpointSnapshot {
            params: Arc::new(params),
            momentum: Arc::new(momentum),
            iteration,
            data_cursor: iteration * 128,
        }
    }

    #[test]
    fn replay_check_accepts_the_replay_and_rejects_one_flipped_element() {
        let (params, momentum, _) = simulate_training(2, 3, ELEMS, 0.05, 128);
        let good = snapshot(params.clone(), momentum.clone(), 3);
        assert_eq!(check_against_replay(&good, 2, 0.05, 128), Ok(()));

        let mut flipped = params;
        flipped[ELEMS / 2] = -flipped[ELEMS / 2];
        let bad = snapshot(flipped, momentum, 3);
        let err = check_against_replay(&bad, 2, 0.05, 128).unwrap_err();
        assert!(err.contains(&format!("element {}", ELEMS / 2)), "{err}");
    }

    #[test]
    fn checksum_is_blind_where_the_element_check_is_not() {
        let (params, _, _) = simulate_training(2, 3, ELEMS, 0.05, 128);
        // The defect: every training state of this length folds to 0.
        assert_eq!(checksum(&params), 0);
        // Two elements 64 apart trade places: same checksum, wrong state.
        let mut swapped = params.clone();
        swapped.swap(100, 164);
        assert_ne!(params[100].to_bits(), params[164].to_bits());
        assert_eq!(checksum(&swapped), checksum(&params));
        assert_eq!(first_mismatch(&swapped, &params), Some(100));
    }

    #[test]
    fn final_views_must_agree() {
        let view = |checksum| WorkerView {
            iteration: 10,
            data_cursor: 1280,
            params_checksum: checksum,
            alive: false,
            stalled: std::time::Duration::ZERO,
        };
        assert_eq!(check_final_views(&view(7), &view(7)), Ok(()));
        assert!(check_final_views(&view(7), &view(8)).is_err());
    }
}
