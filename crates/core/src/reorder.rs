//! Token reorder: the pattern-aware transformation at the heart of PARO.
//!
//! Paper Sec. III-A and Fig. 3: the `Q/K/V` embeddings are permuted along
//! the token dimension so the head's attention pattern becomes a unified
//! "block diagonal"; the attention output `O` is inversely permuted, making
//! the whole transformation mathematically exact. The permutation is one of
//! the six axis orders of the `(frame, height, width)` grid; the best order
//! is selected **offline** per head (patterns are stable across timesteps
//! and prompts), and applied **online** at negligible cost.
//!
//! [`select_plan`] scores each order without building the reordered map:
//! it reads the canonical map through the order's permutation one block
//! row at a time (the calibration scorer of `map_scan`, shared with
//! [`crate::calibration::calibrate_head`] and
//! [`crate::sensitivity::SensitivityTable::compute`]). [`reorder_map`]
//! still materializes a reordered map, for the analysis experiments and
//! the map renderer; [`select_plan_weighted`] (an ablation) builds one per
//! order.

use crate::map_scan::candidate_errors;
use crate::CoreError;
use paro_model::{AxisOrder, TokenGrid};
use paro_quant::{fake_quant_2d, Bitwidth, BlockGrid, Grouping};
use paro_tensor::{inverse_permutation, Tensor};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A concrete reorder plan for one attention head: an axis order plus its
/// realized token permutation and inverse.
///
/// # Example
///
/// ```
/// use paro_core::reorder::ReorderPlan;
/// use paro_model::{AxisOrder, TokenGrid};
/// use paro_tensor::Tensor;
/// # fn main() -> Result<(), paro_core::CoreError> {
/// let grid = TokenGrid::new(2, 2, 2);
/// let plan = ReorderPlan::new(&grid, AxisOrder::Hwf);
/// let x = Tensor::from_fn(&[8, 4], |i| i[0] as f32);
/// let reordered = plan.apply(&x)?;
/// // The inverse restores canonical order exactly.
/// assert_eq!(plan.invert(&reordered)?, x);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderPlan {
    order: AxisOrder,
    /// `forward[i]` = canonical index of the token at reordered position `i`.
    forward: Vec<usize>,
    /// `inverse[c]` = reordered position of canonical token `c`.
    inverse: Vec<usize>,
}

impl ReorderPlan {
    /// Builds the plan realizing `order` on `grid`.
    pub fn new(grid: &TokenGrid, order: AxisOrder) -> Self {
        let forward = grid.reorder_indices(order);
        let inverse = inverse_permutation(&forward);
        ReorderPlan {
            order,
            forward,
            inverse,
        }
    }

    /// Builds a plan for a sequence of `text_tokens` prompt tokens followed
    /// by the grid's visual tokens (the CogVideoX layout).
    ///
    /// Text tokens are not part of the 3-D grid, so the reorder pins them
    /// in place and permutes only the visual suffix — their rows of the
    /// attention map form a fixed border strip that block-wise
    /// quantization handles like any other region.
    pub fn with_text_tokens(grid: &TokenGrid, order: AxisOrder, text_tokens: usize) -> Self {
        let mut forward: Vec<usize> = (0..text_tokens).collect();
        forward.extend(
            grid.reorder_indices(order)
                .into_iter()
                .map(|t| t + text_tokens),
        );
        let inverse = inverse_permutation(&forward);
        ReorderPlan {
            order,
            forward,
            inverse,
        }
    }

    /// The identity plan (canonical order).
    pub fn identity(grid: &TokenGrid) -> Self {
        ReorderPlan::new(grid, AxisOrder::Fhw)
    }

    /// The axis order this plan realizes.
    pub fn order(&self) -> AxisOrder {
        self.order
    }

    /// Number of tokens the plan covers.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the plan covers zero tokens.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// The forward token permutation.
    pub fn forward_indices(&self) -> &[usize] {
        &self.forward
    }

    /// Applies the reorder to a `[tokens, dim]` matrix (Q, K or V).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GridMismatch`] if the row count differs from the
    /// plan's token count, or a tensor error for non-rank-2 input.
    pub fn apply(&self, embedding: &Tensor) -> Result<Tensor, CoreError> {
        self.check_rows(embedding)?;
        Ok(embedding.gather_rows(&self.forward)?)
    }

    /// Applies the inverse reorder to a `[tokens, dim]` matrix (the
    /// attention output `O`), restoring canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GridMismatch`] if the row count differs from the
    /// plan's token count, or a tensor error for non-rank-2 input.
    pub fn invert(&self, reordered: &Tensor) -> Result<Tensor, CoreError> {
        self.check_rows(reordered)?;
        Ok(reordered.gather_rows(&self.inverse)?)
    }

    fn check_rows(&self, t: &Tensor) -> Result<(), CoreError> {
        if t.rank() != 2 {
            return Err(CoreError::Tensor(paro_tensor::TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            }));
        }
        if t.shape()[0] != self.forward.len() {
            return Err(CoreError::GridMismatch {
                tokens: t.shape()[0],
                grid_len: self.forward.len(),
            });
        }
        Ok(())
    }
}

/// Result of the offline plan search for one head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSelection {
    /// The chosen axis order.
    pub order: AxisOrder,
    /// Block-wise quantization error (relative L2 of the fake-quantized
    /// attention map) under the chosen order.
    pub error: f32,
    /// Error of every candidate order, in [`AxisOrder::ALL`] sequence.
    pub candidate_errors: Vec<(AxisOrder, f32)>,
}

/// Offline reorder-plan selection (paper Sec. III-A): evaluates all six
/// axis orders and picks the one minimizing the block-wise quantization
/// error of the head's attention map.
///
/// `map` is the head's calibration attention map in canonical token order
/// (`[n, n]`, post-softmax); `block` is the quantization block grid and
/// `bits` the uniform calibration bitwidth (the paper calibrates at the
/// target precision).
///
/// Each candidate is scored one block row at a time, reading the map
/// through the order's permutation, so no reordered or quantized copy is
/// built; the six candidates run as one [`crate::pool::ComputePool`]
/// batch over one shared copy of the map. Each error is bit for bit the
/// relative L2 of `fake_quant_2d(reorder_map(map, plan), Block, bits)`.
///
/// # Errors
///
/// Returns [`CoreError::GridMismatch`] if `map` is not `[n, n]` for the
/// grid's `n`.
pub fn select_plan(
    map: &Tensor,
    grid: &TokenGrid,
    block: BlockGrid,
    bits: Bitwidth,
) -> Result<PlanSelection, CoreError> {
    check_map(map, grid)?;
    let maps = Arc::from(std::slice::from_ref(map));
    let errors = candidate_errors(&maps, &order_permutations(grid), block, bits);
    Ok(PlanSelection::from_errors(&errors[0]))
}

impl PlanSelection {
    /// The selection from every candidate's error, in [`AxisOrder::ALL`]
    /// sequence: the first strictly smallest wins.
    pub(crate) fn from_errors(errors: &[f32]) -> Self {
        let mut best: Option<(AxisOrder, f32)> = None;
        let mut candidate_errors = Vec::with_capacity(AxisOrder::ALL.len());
        for (&order, &err) in AxisOrder::ALL.iter().zip(errors) {
            candidate_errors.push((order, err));
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((order, err));
            }
        }
        let (order, error) = best.expect("AxisOrder::ALL is non-empty");
        PlanSelection {
            order,
            error,
            candidate_errors,
        }
    }
}

/// The token permutation of every order of [`AxisOrder::ALL`] on `grid`.
pub(crate) fn order_permutations(grid: &TokenGrid) -> Vec<Arc<[usize]>> {
    AxisOrder::ALL
        .iter()
        .map(|&order| Arc::from(grid.reorder_indices(order)))
        .collect()
}

/// Rejects a calibration map that is not `[n, n]` for the grid's `n`.
pub(crate) fn check_map(map: &Tensor, grid: &TokenGrid) -> Result<(), CoreError> {
    let n = grid.len();
    if map.rank() != 2 || map.shape() != [n, n] {
        return Err(CoreError::GridMismatch {
            tokens: map.shape().first().copied().unwrap_or(0),
            grid_len: n,
        });
    }
    Ok(())
}

/// Offline plan selection with an **importance-weighted** objective
/// (ablation variant): instead of the plain relative-L2 quantization error,
/// each element's squared error is weighted by its attention value, so
/// errors on high-attention entries dominate the choice.
///
/// The `reorder_selection` bench compares this against [`select_plan`];
/// both discover the planted patterns, and the plain objective is what the
/// shipped pipeline uses (matching the paper's description).
///
/// # Errors
///
/// Same conditions as [`select_plan`].
pub fn select_plan_weighted(
    map: &Tensor,
    grid: &TokenGrid,
    block: BlockGrid,
    bits: Bitwidth,
) -> Result<PlanSelection, CoreError> {
    check_map(map, grid)?;
    let mut best: Option<(AxisOrder, f32)> = None;
    let mut candidate_errors = Vec::with_capacity(AxisOrder::ALL.len());
    for order in AxisOrder::ALL {
        let plan = ReorderPlan::new(grid, order);
        let reordered = reorder_map(map, &plan)?;
        let (quantized, _) = fake_quant_2d(&reordered, Grouping::Block(block), bits)?;
        // Importance-weighted error: sum of |x| * (x - x̂)², normalized by
        // sum of |x| * x².
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (&x, &xq) in reordered.as_slice().iter().zip(quantized.as_slice()) {
            let w = x.abs() as f64;
            let e = (x - xq) as f64;
            num += w * e * e;
            den += w * (x as f64) * (x as f64);
        }
        let err = if den > 0.0 {
            (num / den).sqrt() as f32
        } else {
            0.0
        };
        candidate_errors.push((order, err));
        if best.is_none_or(|(_, e)| err < e) {
            best = Some((order, err));
        }
    }
    let (order, error) = best.expect("AxisOrder::ALL is non-empty");
    Ok(PlanSelection {
        order,
        error,
        candidate_errors,
    })
}

/// Applies a reorder plan to both axes of an attention map: permutes query
/// rows and key columns, producing the map as it would appear if `Q` and
/// `K` had been reordered before `QKᵀ`.
///
/// # Errors
///
/// Returns [`CoreError::GridMismatch`] on a size mismatch.
pub fn reorder_map(map: &Tensor, plan: &ReorderPlan) -> Result<Tensor, CoreError> {
    let rows = plan.apply(map)?;
    // Permute columns by transposing, permuting rows, transposing back.
    let cols = plan.apply(&rows.transpose2d()?)?;
    Ok(cols.transpose2d()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
    use paro_tensor::metrics;
    use paro_tensor::rng::seeded;
    use rand::distributions::Uniform;

    fn grid() -> TokenGrid {
        TokenGrid::new(4, 4, 4)
    }

    fn attention_map(q: &Tensor, k: &Tensor) -> Tensor {
        let d = q.shape()[1] as f32;
        q.matmul(&k.transpose2d().unwrap())
            .unwrap()
            .scale(1.0 / d.sqrt())
            .softmax_rows()
            .unwrap()
    }

    #[test]
    fn apply_invert_roundtrip_all_orders() {
        let g = grid();
        let x = Tensor::random(&[g.len(), 8], &Uniform::new(-1.0f32, 1.0), &mut seeded(3));
        for order in AxisOrder::ALL {
            let plan = ReorderPlan::new(&g, order);
            let y = plan.apply(&x).unwrap();
            assert_eq!(plan.invert(&y).unwrap(), x, "order {order}");
        }
    }

    #[test]
    fn identity_plan_is_noop() {
        let g = grid();
        let x = Tensor::from_fn(&[g.len(), 4], |i| (i[0] * 4 + i[1]) as f32);
        let plan = ReorderPlan::identity(&g);
        assert_eq!(plan.apply(&x).unwrap(), x);
    }

    #[test]
    fn mathematical_equivalence_of_reordered_attention() {
        // The paper's Fig. 3 guarantee: reorder QKV, compute attention,
        // inverse-reorder O == attention in canonical order. Exactly, up to
        // float addition order.
        let g = grid();
        let spec = PatternSpec::new(PatternKind::Temporal);
        let head = synthesize_head(&g, 16, &spec, 11);
        let reference = {
            let map = attention_map(&head.q, &head.k);
            map.matmul(&head.v).unwrap()
        };
        for order in AxisOrder::ALL {
            let plan = ReorderPlan::new(&g, order);
            let q = plan.apply(&head.q).unwrap();
            let k = plan.apply(&head.k).unwrap();
            let v = plan.apply(&head.v).unwrap();
            let o = attention_map(&q, &k).matmul(&v).unwrap();
            let restored = plan.invert(&o).unwrap();
            let err = metrics::relative_l2(&reference, &restored).unwrap();
            assert!(err < 1e-4, "order {order}: equivalence violated, err {err}");
        }
    }

    #[test]
    fn reorder_map_matches_reordered_qk() {
        // reorder_map(softmax(QKᵀ)) == softmax((PQ)(PK)ᵀ): row softmax
        // commutes with row/column permutation.
        let g = grid();
        let spec = PatternSpec::new(PatternKind::SpatialCol);
        let head = synthesize_head(&g, 16, &spec, 5);
        let plan = ReorderPlan::new(&g, AxisOrder::Whf);
        let direct = attention_map(&plan.apply(&head.q).unwrap(), &plan.apply(&head.k).unwrap());
        let via_map = reorder_map(&attention_map(&head.q, &head.k), &plan).unwrap();
        let err = metrics::relative_l2(&direct, &via_map).unwrap();
        assert!(err < 1e-4, "err {err}");
    }

    #[test]
    fn select_plan_discovers_planted_pattern() {
        // For each plantable pattern, the offline search must pick an order
        // that makes the pattern's groups contiguous.
        let g = grid();
        let block = BlockGrid::square(4).unwrap();
        for kind in [
            PatternKind::Temporal,
            PatternKind::SpatialRow,
            PatternKind::SpatialCol,
        ] {
            let spec = PatternSpec::new(kind);
            let head = synthesize_head(&g, 32, &spec, 21);
            let map = attention_map(&head.q, &head.k);
            let sel = select_plan(&map, &g, block, Bitwidth::B4).unwrap();
            // The discovered order must make groups contiguous — several
            // orders can do so (e.g. Hwf and Whf both group (h,w)
            // positions), so check contiguity rather than order equality.
            let idx = g.reorder_indices(sel.order);
            let mut seen = std::collections::HashSet::new();
            let mut current = usize::MAX;
            let mut contiguous = true;
            for &t in &idx {
                let gid = kind.group_of(&g, t);
                if gid != current {
                    if !seen.insert(gid) {
                        contiguous = false;
                        break;
                    }
                    current = gid;
                }
            }
            assert!(
                contiguous,
                "{kind}: selected order {} does not make groups contiguous; \
                 errors={:?}",
                sel.order, sel.candidate_errors
            );
            // And its error must strictly beat the worst candidate.
            let worst = sel
                .candidate_errors
                .iter()
                .map(|&(_, e)| e)
                .fold(0.0f32, f32::max);
            assert!(sel.error < worst);
        }
    }

    #[test]
    fn select_plan_reports_all_candidates() {
        let g = grid();
        let spec = PatternSpec::new(PatternKind::Diffuse);
        let head = synthesize_head(&g, 16, &spec, 2);
        let map = attention_map(&head.q, &head.k);
        let sel = select_plan(&map, &g, BlockGrid::square(8).unwrap(), Bitwidth::B4).unwrap();
        assert_eq!(sel.candidate_errors.len(), 6);
        let min = sel
            .candidate_errors
            .iter()
            .map(|&(_, e)| e)
            .fold(f32::INFINITY, f32::min);
        assert_eq!(sel.error, min);
    }

    #[test]
    fn weighted_objective_is_a_worse_selector() {
        // Ablation finding (DESIGN.md #1): importance-weighting the
        // selection objective down-weights exactly the low-magnitude
        // background entries whose information the reorder protects, so it
        // can prefer outlier-spreading orders over pattern-unifying ones.
        // The plain objective is the right selector — pin both behaviors.
        let g = grid();
        let block = BlockGrid::square(4).unwrap();
        let mut plain_contiguous = 0;
        let mut weighted_contiguous = 0;
        let contiguous_under = |kind: PatternKind, order: AxisOrder| {
            let idx = g.reorder_indices(order);
            let mut seen = std::collections::HashSet::new();
            let mut current = usize::MAX;
            for &t in &idx {
                let gid = kind.group_of(&g, t);
                if gid != current {
                    if !seen.insert(gid) {
                        return false;
                    }
                    current = gid;
                }
            }
            true
        };
        for kind in [
            PatternKind::Temporal,
            PatternKind::SpatialRow,
            PatternKind::SpatialCol,
        ] {
            let head = synthesize_head(&g, 32, &PatternSpec::new(kind), 23);
            let map = attention_map(&head.q, &head.k);
            let plain = select_plan(&map, &g, block, Bitwidth::B4).unwrap();
            let weighted = select_plan_weighted(&map, &g, block, Bitwidth::B4).unwrap();
            assert_eq!(weighted.candidate_errors.len(), 6);
            if contiguous_under(kind, plain.order) {
                plain_contiguous += 1;
            }
            if contiguous_under(kind, weighted.order) {
                weighted_contiguous += 1;
            }
        }
        assert_eq!(
            plain_contiguous, 3,
            "plain objective must discover all patterns"
        );
        assert!(
            weighted_contiguous <= plain_contiguous,
            "the weighted variant should not beat the plain objective"
        );
    }

    #[test]
    fn weighted_selection_rejects_bad_shapes() {
        let g = grid();
        let bad = Tensor::zeros(&[4, 4]);
        assert!(
            select_plan_weighted(&bad, &g, BlockGrid::square(4).unwrap(), Bitwidth::B4).is_err()
        );
    }

    #[test]
    fn text_tokens_stay_pinned() {
        let g = grid();
        let text = 5;
        let plan = ReorderPlan::with_text_tokens(&g, AxisOrder::Hwf, text);
        assert_eq!(plan.len(), g.len() + text);
        // Text prefix is the identity.
        for t in 0..text {
            assert_eq!(plan.forward_indices()[t], t);
        }
        // Visual suffix is the grid permutation shifted by the text count.
        let visual = g.reorder_indices(AxisOrder::Hwf);
        for (i, &v) in visual.iter().enumerate() {
            assert_eq!(plan.forward_indices()[text + i], v + text);
        }
        // Roundtrip on a full-sequence embedding.
        let x = Tensor::from_fn(&[g.len() + text, 3], |i| (i[0] * 3 + i[1]) as f32);
        let y = plan.apply(&x).unwrap();
        // Text rows unchanged by the forward reorder.
        for t in 0..text {
            assert_eq!(y.at(&[t, 0]), x.at(&[t, 0]));
        }
        assert_eq!(plan.invert(&y).unwrap(), x);
    }

    #[test]
    fn zero_text_tokens_equals_plain_plan() {
        let g = grid();
        assert_eq!(
            ReorderPlan::with_text_tokens(&g, AxisOrder::Fwh, 0),
            ReorderPlan::new(&g, AxisOrder::Fwh)
        );
    }

    #[test]
    fn shape_errors_rejected() {
        let g = grid();
        let plan = ReorderPlan::new(&g, AxisOrder::Hwf);
        let wrong = Tensor::zeros(&[g.len() + 1, 4]);
        assert!(matches!(
            plan.apply(&wrong),
            Err(CoreError::GridMismatch { .. })
        ));
        let not2d = Tensor::zeros(&[g.len()]);
        assert!(plan.apply(&not2d).is_err());
        let bad_map = Tensor::zeros(&[4, 4]);
        assert!(select_plan(&bad_map, &g, BlockGrid::square(4).unwrap(), Bitwidth::B4).is_err());
    }
}
