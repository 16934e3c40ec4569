//! Offline calibration: per-head reorder plans and bit allocations
//! derived once from calibration samples, reused at inference.
//!
//! The paper selects reorder plans and bitwidth configurations **offline**
//! and justifies it with the observation that "the observed patterns
//! remain consistent across different timesteps and input noise or
//! prompts" (Sec. III-A). This module makes that workflow concrete:
//!
//! 1. Collect attention maps of one head over several calibration samples
//!    (different diffusion timesteps / prompts).
//! 2. Select the reorder plan on the *averaged* block-quantization error.
//! 3. Compute the sensitivity table on the averaged map and allocate bits.
//! 4. Freeze the result as a [`HeadCalibration`]; at inference, apply it
//!    without re-running selection.
//!
//! Steps 2 and 3 never materialize a reordered, averaged or quantized
//! map. They stream the canonical maps one block row at a time through
//! each order's permutation (`map_scan`): every (sample, order) candidate
//! and then every range of the averaged map's block rows is a job of one
//! [`crate::pool::ComputePool`] batch, sharing one copy of the maps. Only
//! the bit allocation runs serially. The result is bit-identical to the
//! whole-map composition of `reorder_map`, `Tensor::add`/`scale`,
//! `fake_quant_2d`, `metrics::relative_l2`, `SensitivityTable::compute`
//! and `allocate_greedy` (`tests/calibration_oracle.rs`).
//!
//! [`plan_stability`] quantifies the consistency claim itself: the
//! fraction of calibration samples whose individually-selected plan
//! agrees with the consensus.

use crate::allocate::{allocate_greedy, BitAllocation};
use crate::map_scan::{candidate_errors, MapView};
use crate::reorder::{check_map, order_permutations, PlanSelection, ReorderPlan};
use crate::sensitivity::{check_alpha, SensitivityTable};
use crate::CoreError;
use paro_model::{AxisOrder, TokenGrid};
use paro_quant::{Bitwidth, BlockGrid, QuantError};
use paro_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Frozen calibration result for one attention head.
///
/// # Example
///
/// ```
/// use paro_core::calibration::calibrate_head;
/// use paro_core::pipeline::attention_map;
/// use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
/// use paro_model::TokenGrid;
/// use paro_quant::{Bitwidth, BlockGrid, QuantError};
/// # fn main() -> Result<(), paro_core::CoreError> {
/// let grid = TokenGrid::new(4, 4, 4);
/// let spec = PatternSpec::new(PatternKind::Temporal);
/// let maps: Vec<_> = (0..2)
///     .map(|s| {
///         let h = synthesize_head(&grid, 16, &spec, s);
///         attention_map(&h.q, &h.k).unwrap()
///     })
///     .collect();
/// let cal = calibrate_head(&maps, &grid, BlockGrid::square(4)?, Bitwidth::B4, 4.8, 0.5)?;
/// assert!(cal.allocation.avg_bits <= 4.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadCalibration {
    /// The selected axis order.
    pub order: AxisOrder,
    /// The quantization block grid the calibration used.
    pub block: BlockGrid,
    /// The frozen bit allocation (over the reordered map's blocks).
    pub allocation: BitAllocation,
    /// Mean per-sample selection error of the chosen order.
    pub mean_error: f32,
}

impl HeadCalibration {
    /// Rebuilds the concrete reorder plan for this calibration.
    pub fn plan(&self, grid: &TokenGrid) -> ReorderPlan {
        ReorderPlan::new(grid, self.order)
    }

    /// Checks that the frozen allocation holds one bitwidth per block of a
    /// `tokens × tokens` map, so a calibration made for another grid size
    /// fails typed before any work instead of part-way through a head.
    ///
    /// # Errors
    ///
    /// [`QuantError::BitwidthCountMismatch`] (as [`CoreError::Quant`]).
    pub fn check_tokens(&self, tokens: usize) -> Result<(), CoreError> {
        let blocks = self.block.block_count(tokens, tokens);
        if self.allocation.bits.len() != blocks {
            return Err(QuantError::BitwidthCountMismatch {
                supplied: self.allocation.bits.len(),
                blocks,
            }
            .into());
        }
        Ok(())
    }
}

/// Calibrates one head from a set of calibration attention maps (all
/// `[n, n]`, canonical token order, post-softmax).
///
/// The plan is selected on the mean candidate error across samples; the
/// bit allocation is computed on the element-wise averaged reordered map
/// (the paper's offline procedure uses a calibration set the same way).
///
/// Every (sample, order) candidate and then every range of the averaged
/// map's block rows is scored as a job of one
/// [`crate::pool::ComputePool`] batch, straight from `maps` through the
/// order's permutation (see [`crate::reorder::select_plan`]); the jobs
/// share one copy of `maps`. The allocation runs on this thread. Spans:
/// `calibrate.head` over `calibrate.select`, `calibrate.sensitivity` and
/// `calibrate.allocate`.
///
/// # Errors
///
/// Checked in this order: [`CoreError::EmptyAllocation`] if `maps` is
/// empty, [`CoreError::GridMismatch`] for the first map that is not
/// `[n, n]`, [`CoreError::BadBudget`] (carrying `alpha`) for an `alpha`
/// outside `[0, 1]`, then the budget errors of [`allocate_greedy`].
pub fn calibrate_head(
    maps: &[Tensor],
    grid: &TokenGrid,
    block: BlockGrid,
    calib_bits: Bitwidth,
    budget: f32,
    alpha: f32,
) -> Result<HeadCalibration, CoreError> {
    if maps.is_empty() {
        return Err(CoreError::EmptyAllocation);
    }
    for map in maps {
        check_map(map, grid)?;
    }
    check_alpha(alpha)?;
    let _t = paro_trace::span(paro_trace::stage::CALIBRATE_HEAD);
    let select = paro_trace::span(paro_trace::stage::CALIBRATE_SELECT);
    let maps: Arc<[Tensor]> = Arc::from(maps);
    let perms = order_permutations(grid);
    let errors = candidate_errors(&maps, &perms, block, calib_bits);
    drop(select);
    // Per-order totals over the samples, in sample order; the first
    // smallest total wins.
    let samples = maps.len() as f32;
    let (order_idx, total_err) = (0..AxisOrder::ALL.len())
        .map(|o| (o, errors.iter().fold(0.0f32, |sum, e| sum + e[o])))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("AxisOrder::ALL is non-empty");
    let table = {
        let _t = paro_trace::span(paro_trace::stage::CALIBRATE_SENSITIVITY);
        let view = MapView::mean(maps, Arc::clone(&perms[order_idx]));
        SensitivityTable::scan(view, block, alpha)
    };
    let allocation = {
        let _t = paro_trace::span(paro_trace::stage::CALIBRATE_ALLOCATE);
        allocate_greedy(&table, budget)?
    };
    Ok(HeadCalibration {
        order: AxisOrder::ALL[order_idx],
        block,
        allocation,
        mean_error: total_err / samples,
    })
}

/// Plan-stability report across calibration samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Plan selected per sample.
    pub per_sample: Vec<AxisOrder>,
    /// The most common (consensus) plan.
    pub consensus: AxisOrder,
    /// Fraction of samples whose plan exactly equals the consensus.
    pub agreement: f32,
    /// Fraction of samples whose plan is *functionally* equivalent to the
    /// consensus (same innermost axis, hence same token contiguity — e.g.
    /// `fwh` and `wfh` both group same-`(f,w)` tokens).
    pub functional_agreement: f32,
    /// Mean relative regret of freezing the consensus plan: over samples,
    /// `(err(consensus) − err(sample's best)) / err(sample's best)`.
    ///
    /// This is the criterion that actually matters for offline selection:
    /// even when the per-sample argmin flips between near-tied orders, a
    /// small regret means the frozen plan loses almost nothing.
    pub mean_regret: f32,
}

/// Measures how stable per-sample plan selection is — the paper's
/// "patterns are consistent across timesteps and prompts" claim.
///
/// # Errors
///
/// Returns [`CoreError::EmptyAllocation`] if `maps` is empty, and
/// propagates selection errors.
pub fn plan_stability(
    maps: &[Tensor],
    grid: &TokenGrid,
    block: BlockGrid,
    calib_bits: Bitwidth,
) -> Result<StabilityReport, CoreError> {
    if maps.is_empty() {
        return Err(CoreError::EmptyAllocation);
    }
    for map in maps {
        check_map(map, grid)?;
    }
    let errors = candidate_errors(
        &Arc::from(maps),
        &order_permutations(grid),
        block,
        calib_bits,
    );
    let (per_sample, all_candidates): (Vec<AxisOrder>, Vec<_>) = errors
        .iter()
        .map(|e| {
            let sel = PlanSelection::from_errors(e);
            (sel.order, sel.candidate_errors)
        })
        .unzip();
    let mut counts = std::collections::HashMap::new();
    for &o in &per_sample {
        *counts.entry(o.name()).or_insert(0usize) += 1;
    }
    let (&name, &count) = counts
        .iter()
        .max_by_key(|&(_, c)| *c)
        .expect("per_sample is non-empty");
    let consensus = AxisOrder::ALL
        .iter()
        .copied()
        .find(|o| o.name() == name)
        .expect("name comes from AxisOrder");
    let functional = per_sample
        .iter()
        .filter(|o| o.innermost() == consensus.innermost())
        .count();
    let mut regret_sum = 0.0f32;
    for candidates in &all_candidates {
        let best = candidates
            .iter()
            .map(|&(_, e)| e)
            .fold(f32::INFINITY, f32::min);
        let consensus_err = candidates
            .iter()
            .find(|(o, _)| *o == consensus)
            .map(|&(_, e)| e)
            .expect("candidate list covers all orders");
        regret_sum += (consensus_err - best) / best.max(1e-12);
    }
    Ok(StabilityReport {
        agreement: count as f32 / per_sample.len() as f32,
        functional_agreement: functional as f32 / per_sample.len() as f32,
        mean_regret: regret_sum / per_sample.len() as f32,
        per_sample,
        consensus,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::attention_map;
    use crate::reorder::select_plan;
    use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};

    fn maps_for(kind: PatternKind, grid: &TokenGrid, samples: u64) -> Vec<Tensor> {
        (0..samples)
            .map(|s| {
                let head = synthesize_head(grid, 32, &PatternSpec::new(kind), 400 + s);
                attention_map(&head.q, &head.k).unwrap()
            })
            .collect()
    }

    #[test]
    fn calibration_freezes_plan_and_budget() {
        let grid = TokenGrid::new(4, 4, 4);
        let maps = maps_for(PatternKind::Temporal, &grid, 3);
        let cal = calibrate_head(
            &maps,
            &grid,
            BlockGrid::square(4).unwrap(),
            Bitwidth::B4,
            4.8,
            0.5,
        )
        .unwrap();
        assert!(cal.allocation.avg_bits <= 4.8 + 1e-4);
        assert!(cal.mean_error > 0.0 && cal.mean_error.is_finite());
        let plan = cal.plan(&grid);
        assert_eq!(plan.order(), cal.order);
        assert_eq!(plan.len(), grid.len());
    }

    #[test]
    fn plans_are_stable_across_samples() {
        // The paper's consistency claim: different noise samples of the
        // same head (same pattern) select the same plan.
        let grid = TokenGrid::new(4, 4, 4);
        for kind in [PatternKind::Temporal, PatternKind::SpatialCol] {
            let maps = maps_for(kind, &grid, 5);
            let report =
                plan_stability(&maps, &grid, BlockGrid::square(4).unwrap(), Bitwidth::B4).unwrap();
            // Functional agreement is the consistency that matters: two
            // orders with the same innermost axis realize the same
            // block-diagonal unification.
            assert!(
                report.functional_agreement >= 0.8,
                "{kind}: functional agreement {} too low ({:?})",
                report.functional_agreement,
                report.per_sample
            );
            assert!(report.functional_agreement >= report.agreement);
        }
    }

    #[test]
    fn consensus_is_majority() {
        let grid = TokenGrid::new(4, 4, 4);
        let maps = maps_for(PatternKind::SpatialRow, &grid, 4);
        let report =
            plan_stability(&maps, &grid, BlockGrid::square(4).unwrap(), Bitwidth::B4).unwrap();
        let count = report
            .per_sample
            .iter()
            .filter(|&&o| o == report.consensus)
            .count();
        assert_eq!(count as f32 / 4.0, report.agreement);
    }

    #[test]
    fn empty_calibration_rejected() {
        let grid = TokenGrid::new(2, 2, 2);
        assert!(matches!(
            calibrate_head(
                &[],
                &grid,
                BlockGrid::square(2).unwrap(),
                Bitwidth::B4,
                4.8,
                0.5
            ),
            Err(CoreError::EmptyAllocation)
        ));
        assert!(plan_stability(&[], &grid, BlockGrid::square(2).unwrap(), Bitwidth::B4).is_err());
    }

    #[test]
    fn averaged_allocation_matches_single_sample_scale() {
        // Calibrating on 1 sample equals selecting + allocating on it.
        let grid = TokenGrid::new(4, 4, 4);
        let maps = maps_for(PatternKind::Temporal, &grid, 1);
        let block = BlockGrid::square(4).unwrap();
        let cal = calibrate_head(&maps, &grid, block, Bitwidth::B4, 4.8, 0.5).unwrap();
        let sel = select_plan(&maps[0], &grid, block, Bitwidth::B4).unwrap();
        assert_eq!(cal.order, sel.order);
        assert!((cal.mean_error - sel.error).abs() < 1e-6);
    }
}
