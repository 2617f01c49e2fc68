//! The pre-optimization flat allreduce, preserved verbatim as the
//! data-plane benchmark's baseline and regression reference.
//!
//! Every caller heap-copies its contribution (`data.to_vec()`), and the
//! last arriver allocates a fresh accumulator and serially sums
//! `world × len` floats **while holding the group lock** — the naive
//! data plane the adaptive [`CommGroup`](elan_rt::comm::CommGroup) is
//! measured against in `BENCH_dataplane.json`. (Note the difference from
//! the adaptive flat fast path, which copies nothing and allocates
//! nothing in the steady state.) Not used by the live runtime.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use elan_core::state::WorkerId;
use elan_rt::comm::AllreduceOutcome;
use parking_lot::{Condvar, Mutex};

#[derive(Debug)]
struct NaiveState {
    members: BTreeSet<WorkerId>,
    round: u64,
    contributions: BTreeMap<WorkerId, Vec<f32>>,
    vec_len: usize,
    result: Arc<Vec<f32>>,
    result_round: u64,
    result_world: u32,
}

/// Flat, lock-held, copy-on-entry allreduce (benchmark baseline).
#[derive(Debug)]
pub struct NaiveCommGroup {
    state: Mutex<NaiveState>,
    cvar: Condvar,
}

impl NaiveCommGroup {
    /// Creates a group over `members` reducing vectors of `len`
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or `len` is zero.
    pub fn new(members: impl IntoIterator<Item = WorkerId>, len: usize) -> Self {
        let members: BTreeSet<WorkerId> = members.into_iter().collect();
        assert!(!members.is_empty(), "group needs at least one member");
        assert!(len > 0, "vectors must be non-empty");
        NaiveCommGroup {
            state: Mutex::new(NaiveState {
                members,
                round: 0,
                contributions: BTreeMap::new(),
                vec_len: len,
                result: Arc::new(vec![0.0; len]),
                result_round: u64::MAX,
                result_world: 0,
            }),
            cvar: Condvar::new(),
        }
    }

    /// World size.
    pub fn world_size(&self) -> u32 {
        self.state.lock().members.len() as u32
    }

    /// The flat allreduce: copy in, last arriver sums under the lock.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the group's vector length.
    pub fn allreduce(&self, worker: WorkerId, data: &[f32]) -> AllreduceOutcome {
        let mut st = self.state.lock();
        if !st.members.contains(&worker) {
            return AllreduceOutcome::NotMember;
        }
        assert_eq!(st.vec_len, data.len(), "vector length mismatch");
        if st.contributions.contains_key(&worker) {
            return AllreduceOutcome::DuplicateContribution;
        }
        st.contributions.insert(worker, data.to_vec());
        let my_round = st.round;
        if st.contributions.len() == st.members.len() {
            // Last arriver sums everything serially under the lock.
            let mut sum = vec![0.0f32; st.vec_len];
            for contribution in std::mem::take(&mut st.contributions).into_values() {
                for (a, d) in sum.iter_mut().zip(contribution) {
                    *a += d;
                }
            }
            st.result = Arc::new(sum);
            st.result_round = st.round;
            st.result_world = st.members.len() as u32;
            st.round += 1;
            self.cvar.notify_all();
            return AllreduceOutcome::Sum {
                sum: Arc::clone(&st.result),
                world: st.result_world,
            };
        }
        while st.result_round != my_round {
            self.cvar.wait(&mut st);
        }
        AllreduceOutcome::Sum {
            sum: Arc::clone(&st.result),
            world: st.result_world,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elan_rt::comm::CommGroup;
    use std::thread;

    #[test]
    fn naive_and_chunked_agree() {
        let len = 257;
        let world = 4u32;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|w| {
                (0..len)
                    .map(|j| (w * 1000 + j as u32) as f32 * 1e-4)
                    .collect()
            })
            .collect();
        let chunked = Arc::new(CommGroup::with_chunk_elems(
            (0..world).map(WorkerId),
            len,
            32,
        ));
        let flat = Arc::new(NaiveCommGroup::new((0..world).map(WorkerId), len));
        let mut sums = Vec::new();
        for group in 0..2 {
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(w, data)| {
                    let data = data.clone();
                    let (c, f) = (Arc::clone(&chunked), Arc::clone(&flat));
                    thread::spawn(move || {
                        if group == 0 {
                            c.allreduce(WorkerId(w as u32), &data)
                        } else {
                            f.allreduce(WorkerId(w as u32), &data)
                        }
                    })
                })
                .collect();
            let mut outs = Vec::new();
            for h in handles {
                match h.join().unwrap() {
                    AllreduceOutcome::Sum { sum, .. } => outs.push(sum),
                    other => panic!("unexpected {other:?}"),
                }
            }
            sums.push(outs.pop().unwrap());
        }
        let a: Vec<u32> = sums[0].iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = sums[1].iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "naive and chunked diverge");
    }
}
