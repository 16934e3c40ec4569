//! The block dispatcher (paper Sec. IV-B, end).
//!
//! Blocks of different bitwidths take different numbers of cycles on the
//! mixed-precision PE rows, so a dispatcher balances block-to-row
//! assignment and bypasses 0-bit blocks entirely. This module simulates
//! that assignment and reports the makespan and utilization — the
//! `dispatch` bench compares the policies.

use paro_quant::Bitwidth;
use serde::{Deserialize, Serialize};

/// Dispatch policy for assigning attention-map blocks to PE rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Greedy longest-processing-time-first: sort blocks by descending
    /// cost, always assign to the least-loaded row (the paper's
    /// load-balancing dispatcher).
    GreedyLpt,
    /// Naive static round-robin in block order (no load balancing).
    RoundRobin,
}

/// Outcome of dispatching a set of blocks onto parallel PE rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DispatchOutcome {
    /// Cycles until the last row finishes (the attention op's latency).
    pub makespan: f64,
    /// Total useful cycles across rows divided by `rows x makespan`.
    pub utilization: f64,
    /// Number of blocks bypassed (0-bit).
    pub bypassed: usize,
}

/// Simulates dispatching blocks with the given per-block cycle costs onto
/// `rows` parallel rows.
///
/// Zero-cost blocks (0-bit, [`Bitwidth::B0`]) are bypassed: they consume a
/// single dispatcher-decision cycle rather than row time.
///
/// # Example
///
/// ```
/// use paro_sim::dispatch::{dispatch, DispatchPolicy};
/// // Four blocks (one skipped) onto two PE rows.
/// let out = dispatch(&[8.0, 0.0, 4.0, 4.0], 2, DispatchPolicy::GreedyLpt);
/// assert_eq!(out.bypassed, 1);
/// assert_eq!(out.makespan, 8.0); // {8} and {4,4} balance perfectly
/// assert!((out.utilization - 1.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics if `rows` is zero.
pub fn dispatch(costs: &[f64], rows: usize, policy: DispatchPolicy) -> DispatchOutcome {
    assert!(rows > 0, "dispatcher needs at least one PE row");
    let mut loads = vec![0.0f64; rows];
    let mut bypassed = 0usize;
    let mut decision_cycles = 0.0f64;
    match policy {
        DispatchPolicy::GreedyLpt => {
            for idx in lpt_order(costs) {
                let c = costs[idx];
                if c <= 0.0 {
                    bypassed += 1;
                    decision_cycles += 1.0;
                    continue;
                }
                let (row, _) = loads
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .expect("rows > 0");
                loads[row] += c;
            }
        }
        DispatchPolicy::RoundRobin => {
            let mut next = 0usize;
            for &c in costs {
                if c <= 0.0 {
                    bypassed += 1;
                    decision_cycles += 1.0;
                    continue;
                }
                loads[next] += c;
                next = (next + 1) % rows;
            }
        }
    }
    let makespan_rows = loads.iter().copied().fold(0.0f64, f64::max);
    // Dispatcher decisions for bypassed blocks overlap row compute almost
    // entirely; charge them only when they exceed the row makespan
    // (pathological all-zero workloads).
    let makespan = makespan_rows.max(decision_cycles / rows as f64);
    let useful: f64 = loads.iter().sum();
    let utilization = if makespan > 0.0 {
        useful / (rows as f64 * makespan)
    } else {
        1.0
    };
    DispatchOutcome {
        makespan,
        utilization,
        bypassed,
    }
}

/// Orders item indices longest-processing-time first: descending cost,
/// ties broken by index, so the order is deterministic. The LPT
/// dispatcher places blocks in this order, and the serving engine admits
/// a batch's requests in it — the classic makespan heuristic at both
/// levels.
pub fn lpt_order(costs: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..costs.len()).collect();
    idx.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    idx
}

/// Per-block cycle costs for an attention-map block list, given the MACs of
/// one block at INT8 and each block's bitwidth.
pub fn block_costs(macs_per_block_int8: f64, bits: &[Bitwidth]) -> Vec<f64> {
    bits.iter()
        .map(|b| match b {
            Bitwidth::B0 => 0.0,
            Bitwidth::B2 => macs_per_block_int8 / 4.0,
            Bitwidth::B4 => macs_per_block_int8 / 2.0,
            Bitwidth::B8 => macs_per_block_int8,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_beats_round_robin_on_skewed_costs() {
        // Alternating heavy/zero costs: round-robin piles heavies onto the
        // same rows when zeros are interleaved; LPT spreads them.
        let costs: Vec<f64> = (0..64)
            .map(|i| if i % 4 == 0 { 16.0 } else { 1.0 })
            .collect();
        let lpt = dispatch(&costs, 8, DispatchPolicy::GreedyLpt);
        let rr = dispatch(&costs, 8, DispatchPolicy::RoundRobin);
        assert!(lpt.makespan <= rr.makespan);
        assert!(lpt.utilization >= rr.utilization);
    }

    #[test]
    fn uniform_costs_perfectly_balanced() {
        let costs = vec![4.0; 32];
        let out = dispatch(&costs, 8, DispatchPolicy::GreedyLpt);
        assert!((out.makespan - 16.0).abs() < 1e-9);
        assert!((out.utilization - 1.0).abs() < 1e-9);
        assert_eq!(out.bypassed, 0);
    }

    #[test]
    fn zero_bit_blocks_bypassed() {
        let costs = vec![0.0, 8.0, 0.0, 8.0];
        let out = dispatch(&costs, 2, DispatchPolicy::GreedyLpt);
        assert_eq!(out.bypassed, 2);
        assert!((out.makespan - 8.0).abs() < 1e-9);
    }

    #[test]
    fn all_blocks_bypassed_costs_only_decisions() {
        let costs = vec![0.0; 16];
        let out = dispatch(&costs, 4, DispatchPolicy::GreedyLpt);
        assert_eq!(out.bypassed, 16);
        assert!((out.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn work_is_conserved() {
        // Total useful row time must equal the sum of nonzero costs under
        // both policies.
        let costs: Vec<f64> = (0..37).map(|i| (i % 5) as f64).collect();
        let total: f64 = costs.iter().sum();
        for policy in [DispatchPolicy::GreedyLpt, DispatchPolicy::RoundRobin] {
            let out = dispatch(&costs, 6, policy);
            let useful = out.utilization * 6.0 * out.makespan;
            assert!(
                (useful - total).abs() < 1e-6,
                "{policy:?}: useful {useful} vs total {total}"
            );
        }
    }

    #[test]
    fn lpt_order_is_descending_and_deterministic() {
        let costs = [3.0, 9.0, 1.0, 9.0, 5.0];
        assert_eq!(lpt_order(&costs), vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn block_costs_follow_bitwidths() {
        let costs = block_costs(
            100.0,
            &[Bitwidth::B0, Bitwidth::B2, Bitwidth::B4, Bitwidth::B8],
        );
        assert_eq!(costs, vec![0.0, 25.0, 50.0, 100.0]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_rows_rejected() {
        dispatch(&[1.0], 0, DispatchPolicy::GreedyLpt);
    }
}
