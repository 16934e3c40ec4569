//! Block quantization-sensitivity metric (paper Sec. III-B).
//!
//! After reorder, blocks still differ in value distribution and in how much
//! they matter to the attention output. The paper scores each block with
//!
//! `S = (Σ x)^α · ‖x − x_q‖^(1−α)`
//!
//! combining **block importance** (the attention mass the block carries)
//! and **quantization difficulty** (the error a candidate bitwidth incurs),
//! balanced by the hyper-parameter `α`. The bit allocator then minimizes
//! total sensitivity under an average-bitwidth budget.

use crate::map_scan::{sensitivity_scores, MapView};
use crate::CoreError;
use paro_quant::{Bitwidth, BlockGrid, QuantError};
use paro_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Rejects an `α` outside `[0, 1]` (NaN included) as
/// [`CoreError::BadBudget`] carrying `α`.
pub(crate) fn check_alpha(alpha: f32) -> Result<(), CoreError> {
    if !(0.0..=1.0).contains(&alpha) {
        return Err(CoreError::BadBudget { budget: alpha });
    }
    Ok(())
}

/// Per-block sensitivity scores for every candidate bitwidth.
///
/// Row-major over the block grid; `scores[block][j]` corresponds to
/// `Bitwidth::ALL[j]`.
///
/// # Example
///
/// ```
/// use paro_core::sensitivity::SensitivityTable;
/// use paro_quant::{Bitwidth, BlockGrid};
/// use paro_tensor::Tensor;
/// # fn main() -> Result<(), paro_core::CoreError> {
/// let map = Tensor::from_fn(&[8, 8], |i| if i[0] == i[1] { 0.9 } else { 0.01 });
/// let table = SensitivityTable::compute(&map, BlockGrid::square(4)?, 0.5)?;
/// assert_eq!(table.len(), 4);
/// // Sensitivity never increases with more bits.
/// assert!(table.score(0, Bitwidth::B8) <= table.score(0, Bitwidth::B0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityTable {
    scores: Vec<[f32; 4]>,
    elems_per_block: Vec<usize>,
    alpha: f32,
}

impl SensitivityTable {
    /// Computes the table for an attention map under a block grid.
    ///
    /// For each block and each bitwidth `b`, calibrates a min-max quantizer
    /// at `b` and evaluates `S = importance^α · difficulty^(1−α)` where
    /// importance is the block's summed attention mass and difficulty the
    /// L2 quantization error. Scores are forced non-increasing in `b`
    /// (taking a running minimum) so allocation never prefers fewer bits at
    /// higher cost — a float-noise guard, not a change of semantics.
    ///
    /// The blocks are scored one block row at a time, straight from the
    /// map (one range per block serves every bitwidth), with the block
    /// rows split into jobs of one [`crate::pool::ComputePool`] batch;
    /// the map reaches the jobs through one shared copy.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `map` is not rank 2, and
    /// [`CoreError::BadBudget`] if `alpha` is outside `[0, 1]`.
    pub fn compute(map: &Tensor, grid: BlockGrid, alpha: f32) -> Result<Self, CoreError> {
        check_alpha(alpha)?;
        if map.rank() != 2 {
            return Err(CoreError::Quant(QuantError::Tensor(
                paro_tensor::TensorError::RankMismatch {
                    expected: 2,
                    actual: map.rank(),
                },
            )));
        }
        let maps = Arc::from(std::slice::from_ref(map));
        Ok(SensitivityTable::scan(
            MapView::one(maps, 0, None),
            grid,
            alpha,
        ))
    }

    /// The table of `view` (an `alpha` already checked by
    /// [`check_alpha`]).
    pub(crate) fn scan(view: MapView, grid: BlockGrid, alpha: f32) -> Self {
        let (m, n) = view.dims();
        let (gr, gc) = grid.grid_dims(m, n);
        let elems_per_block = (0..gr)
            .flat_map(|bi| {
                (0..gc).map(move |bj| {
                    let (_, _, h, w) = grid.block_bounds(bi, bj, m, n);
                    h * w
                })
            })
            .collect();
        SensitivityTable {
            scores: sensitivity_scores(view, grid, alpha),
            elems_per_block,
            alpha,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the table holds zero blocks.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The `α` the table was computed with.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Sensitivity of `block` at `bits`.
    pub fn score(&self, block: usize, bits: Bitwidth) -> f32 {
        let j = Bitwidth::ALL
            .iter()
            .position(|&b| b == bits)
            .expect("Bitwidth::ALL covers every variant");
        self.scores[block][j]
    }

    /// Element count of `block` (edge blocks may be smaller).
    pub fn block_elems(&self, block: usize) -> usize {
        self.elems_per_block[block]
    }

    /// Total cost of an assignment (sum of the chosen scores).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.len()`.
    pub fn total_cost(&self, bits: &[Bitwidth]) -> f32 {
        assert_eq!(bits.len(), self.len());
        bits.iter()
            .enumerate()
            .map(|(i, &b)| self.score(i, b))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diagonal_map(n: usize) -> Tensor {
        Tensor::from_fn(&[n, n], |i| {
            if i[0] == i[1] {
                0.8
            } else {
                0.2 / (n - 1) as f32 * (1.0 + 0.3 * ((i[0] * 3 + i[1]) % 5) as f32)
            }
        })
    }

    #[test]
    fn scores_non_increasing_in_bits() {
        let map = diagonal_map(16);
        let t = SensitivityTable::compute(&map, BlockGrid::square(4).unwrap(), 0.5).unwrap();
        for blk in 0..t.len() {
            let s: Vec<f32> = Bitwidth::ALL.iter().map(|&b| t.score(blk, b)).collect();
            for w in s.windows(2) {
                assert!(w[0] >= w[1], "block {blk}: {s:?}");
            }
        }
    }

    #[test]
    fn important_blocks_score_higher() {
        // Diagonal blocks carry the attention mass; at low bits they must
        // be more sensitive than background blocks.
        let map = diagonal_map(16);
        let grid = BlockGrid::square(4).unwrap();
        let t = SensitivityTable::compute(&map, grid, 0.5).unwrap();
        let gc = 4;
        let diag = t.score(0, Bitwidth::B0); // block (0,0): on-diagonal
        let off = t.score(1, Bitwidth::B0); // block (0,1): background
        assert!(
            diag > off,
            "diagonal sensitivity {diag} should exceed off-diagonal {off}"
        );
        let _ = gc;
    }

    #[test]
    fn eight_bit_scores_near_zero_for_smooth_blocks() {
        let map = Tensor::full(&[8, 8], 0.25);
        let t = SensitivityTable::compute(&map, BlockGrid::square(4).unwrap(), 0.5).unwrap();
        for blk in 0..t.len() {
            assert!(t.score(blk, Bitwidth::B8) < 1e-4);
        }
    }

    #[test]
    fn alpha_extremes() {
        let map = diagonal_map(8);
        let grid = BlockGrid::square(4).unwrap();
        // α = 1: pure importance — identical at every bitwidth before the
        // monotonicity clamp, so all entries equal.
        let t1 = SensitivityTable::compute(&map, grid, 1.0).unwrap();
        for blk in 0..t1.len() {
            let s0 = t1.score(blk, Bitwidth::B0);
            let s8 = t1.score(blk, Bitwidth::B8);
            assert!((s0 - s8).abs() <= s0.abs() * 1e-5 + 1e-12);
        }
        // α = 0: pure difficulty — 8-bit must be (near) zero-cost.
        let t0 = SensitivityTable::compute(&map, grid, 0.0).unwrap();
        for blk in 0..t0.len() {
            assert!(t0.score(blk, Bitwidth::B8) <= t0.score(blk, Bitwidth::B0));
        }
        assert!(SensitivityTable::compute(&map, grid, 1.5).is_err());
        assert!(SensitivityTable::compute(&map, grid, -0.1).is_err());
    }

    #[test]
    fn total_cost_sums_scores() {
        let map = diagonal_map(8);
        let t = SensitivityTable::compute(&map, BlockGrid::square(4).unwrap(), 0.5).unwrap();
        let bits = vec![Bitwidth::B8; t.len()];
        let expected: f32 = (0..t.len()).map(|i| t.score(i, Bitwidth::B8)).sum();
        assert_eq!(t.total_cost(&bits), expected);
    }

    #[test]
    fn block_elems_accounts_edges() {
        let map = Tensor::zeros(&[10, 7]);
        let t = SensitivityTable::compute(&map, BlockGrid::square(4).unwrap(), 0.5).unwrap();
        // Grid is 3x2 blocks; the bottom-right block is 2x3.
        assert_eq!(t.len(), 6);
        assert_eq!(t.block_elems(0), 16);
        assert_eq!(t.block_elems(5), 2 * 3);
        let total: usize = (0..t.len()).map(|i| t.block_elems(i)).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let v = Tensor::zeros(&[4]);
        assert!(SensitivityTable::compute(&v, BlockGrid::square(2).unwrap(), 0.5).is_err());
    }
}
