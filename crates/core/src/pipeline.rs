//! The quantized-attention pipeline: runs one attention head under any
//! [`AttentionMethod`] and returns the output plus quantization statistics.
//!
//! This is the algorithm-side executable model of the paper's datapath:
//! `QKV` quantization, optional token reorder, `QKᵀ` (optionally with
//! LDZ-truncated `K`, the output-bitwidth-aware mode), softmax, attention-
//! map quantization (row-wise / block-wise / mixed-precision), `AttnV`, and
//! the inverse reorder of the output.

use crate::allocate::{allocate_greedy, BitAllocation};
use crate::methods::AttentionMethod;
use crate::reorder::{select_plan, ReorderPlan};
use crate::score::RowScorer;
use crate::sensitivity::SensitivityTable;
use crate::CoreError;
use paro_model::TokenGrid;
use paro_quant::{fake_quant_2d, fake_quant_blocks, Bitwidth, BlockGrid, Grouping};
use paro_tensor::kernel::{active_kernel, Kernel};
use paro_tensor::{Tensor, TensorError};

/// Validated inputs of one attention head in canonical token order,
/// optionally with a prompt-token prefix (the CogVideoX sequence layout:
/// text tokens, then the flattened visual grid).
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionInputs {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    grid: TokenGrid,
    text_tokens: usize,
}

impl AttentionInputs {
    /// Bundles and validates `Q/K/V` (`[n, d]` each, `n = grid.len()`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InconsistentQkv`] if the three shapes differ,
    /// and [`CoreError::GridMismatch`] if the row count does not match the
    /// grid.
    pub fn new(q: Tensor, k: Tensor, v: Tensor, grid: TokenGrid) -> Result<Self, CoreError> {
        AttentionInputs::with_text(q, k, v, grid, 0)
    }

    /// Like [`AttentionInputs::new`] but for a sequence of `text_tokens`
    /// prompt tokens followed by the grid's visual tokens
    /// (`n = text_tokens + grid.len()`). PARO's reorder pins the text
    /// prefix in place and permutes only the visual suffix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AttentionInputs::new`], with the row count
    /// checked against `text_tokens + grid.len()`.
    pub fn with_text(
        q: Tensor,
        k: Tensor,
        v: Tensor,
        grid: TokenGrid,
        text_tokens: usize,
    ) -> Result<Self, CoreError> {
        if q.rank() != 2 {
            return Err(CoreError::Tensor(TensorError::RankMismatch {
                expected: 2,
                actual: q.rank(),
            }));
        }
        if q.shape() != k.shape() || q.shape() != v.shape() {
            return Err(CoreError::InconsistentQkv {
                q: q.shape().to_vec(),
                k: k.shape().to_vec(),
                v: v.shape().to_vec(),
            });
        }
        if q.shape()[0] != grid.len() + text_tokens {
            return Err(CoreError::GridMismatch {
                tokens: q.shape()[0],
                grid_len: grid.len() + text_tokens,
            });
        }
        Ok(AttentionInputs {
            q,
            k,
            v,
            grid,
            text_tokens,
        })
    }

    /// Number of prompt tokens at the front of the sequence.
    pub fn text_tokens(&self) -> usize {
        self.text_tokens
    }

    /// Query embeddings.
    pub fn q(&self) -> &Tensor {
        &self.q
    }

    /// Key embeddings.
    pub fn k(&self) -> &Tensor {
        &self.k
    }

    /// Value embeddings.
    pub fn v(&self) -> &Tensor {
        &self.v
    }

    /// Token grid.
    pub fn grid(&self) -> &TokenGrid {
        &self.grid
    }

    /// Sequence length.
    pub fn tokens(&self) -> usize {
        self.q.shape()[0]
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.q.shape()[1]
    }
}

/// Output and statistics of one quantized attention run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionRun {
    /// Attention output `[n, d]` in canonical token order.
    pub output: Tensor,
    /// Average attention-map bitwidth over blocks (16 when the map is kept
    /// in full precision, `bits` for fixed-precision methods).
    pub avg_bits: f32,
    /// The reorder plan used, if the method reorders.
    pub plan: Option<ReorderPlan>,
    /// The mixed-precision allocation, if the method allocates.
    pub allocation: Option<BitAllocation>,
    /// Fraction of attention-map elements that are exactly zero after
    /// quantization/pruning (skippable work).
    pub map_sparsity: f32,
}

/// Full-precision reference attention `softmax(QKᵀ/√d)·V`.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn reference_attention(q: &Tensor, k: &Tensor, v: &Tensor) -> Result<Tensor, CoreError> {
    let map = attention_map(q, k)?;
    Ok(map.matmul(v)?)
}

/// `softmax(QKᵀ/√d)` for `[n, d]` inputs.
///
/// # Errors
///
/// Propagates tensor shape errors.
pub fn attention_map(q: &Tensor, k: &Tensor) -> Result<Tensor, CoreError> {
    let d = q.shape()[1] as f32;
    Ok(q.matmul(&k.transpose2d()?)?
        .scale(1.0 / d.sqrt())
        .softmax_rows()?)
}

/// Runs one attention head under `method`.
///
/// # Errors
///
/// Returns shape errors from validation, quantization errors from the
/// substrate, and budget errors from allocation.
pub fn run_attention(
    inputs: &AttentionInputs,
    method: &AttentionMethod,
) -> Result<AttentionRun, CoreError> {
    match *method {
        AttentionMethod::Fp16 => {
            let map = attention_map(&inputs.q, &inputs.k)?;
            let sparsity = fraction_zero(&map);
            Ok(AttentionRun {
                output: map.matmul(&inputs.v)?,
                avg_bits: 16.0,
                plan: None,
                allocation: None,
                map_sparsity: sparsity,
            })
        }
        AttentionMethod::SageAttention => {
            // INT8 per-token Q/K; map and V stay full precision.
            let q8 = int8_rowwise(&inputs.q)?;
            let k8 = int8_rowwise(&inputs.k)?;
            let map = attention_map(&q8, &k8)?;
            let sparsity = fraction_zero(&map);
            Ok(AttentionRun {
                output: map.matmul(&inputs.v)?,
                avg_bits: 16.0,
                plan: None,
                allocation: None,
                map_sparsity: sparsity,
            })
        }
        AttentionMethod::SageAttentionV2 => {
            // Outlier smoothing: subtract the per-channel mean of K. The
            // correction Q·mean is constant along each map row, so the
            // post-softmax map is mathematically unchanged — but the
            // centered K quantizes far better at 4 bits.
            let k_smooth = mean_center_channels(&inputs.k)?;
            let q4 = fake_quant_2d(&inputs.q, Grouping::PerRow, Bitwidth::B4)?.0;
            let k4 = fake_quant_2d(&k_smooth, Grouping::PerRow, Bitwidth::B4)?.0;
            let map = attention_map(&q4, &k4)?;
            let sparsity = fraction_zero(&map);
            Ok(AttentionRun {
                output: map.matmul(&inputs.v)?,
                avg_bits: 16.0,
                plan: None,
                allocation: None,
                map_sparsity: sparsity,
            })
        }
        AttentionMethod::SangerSparse { threshold } => run_sanger(inputs, threshold),
        AttentionMethod::NaiveInt { bits } => {
            let q8 = int8_rowwise(&inputs.q)?;
            let k8 = int8_rowwise(&inputs.k)?;
            let v8 = int8_colwise(&inputs.v)?;
            let map = attention_map(&q8, &k8)?;
            let (map_q, _) = fake_quant_2d(&map, Grouping::PerRow, bits)?;
            let sparsity = fraction_zero(&map_q);
            Ok(AttentionRun {
                output: map_q.matmul(&v8)?,
                avg_bits: bits.bits() as f32,
                plan: None,
                allocation: None,
                map_sparsity: sparsity,
            })
        }
        AttentionMethod::BlockwiseInt { bits, block_edge } => {
            let q8 = int8_rowwise(&inputs.q)?;
            let k8 = int8_rowwise(&inputs.k)?;
            let v8 = int8_colwise(&inputs.v)?;
            let map = attention_map(&q8, &k8)?;
            let grid = block_grid_for(inputs.tokens(), block_edge)?;
            let (map_q, _) = fake_quant_2d(&map, Grouping::Block(grid), bits)?;
            let sparsity = fraction_zero(&map_q);
            Ok(AttentionRun {
                output: map_q.matmul(&v8)?,
                avg_bits: bits.bits() as f32,
                plan: None,
                allocation: None,
                map_sparsity: sparsity,
            })
        }
        AttentionMethod::ParoInt { bits, block_edge } => {
            run_paro(inputs, block_edge, ParoPrecision::Fixed(bits))
        }
        AttentionMethod::ParoMixed {
            budget,
            block_edge,
            alpha,
            output_aware,
        } => run_paro(
            inputs,
            block_edge,
            ParoPrecision::Mixed {
                budget,
                alpha,
                output_aware,
            },
        ),
    }
}

/// Runs PARO attention with a **frozen**
/// [`HeadCalibration`](crate::calibration::HeadCalibration) — the
/// inference-time path: no plan search, no allocation; the offline tables
/// drive the reorder and the per-block bitwidths directly, exactly as the
/// accelerator's configuration tables would.
///
/// Since PR 2 this executes on packed integer codes (see
/// [`crate::int_pipeline`]); use
/// [`crate::int_pipeline::run_attention_calibrated_int`] directly when the
/// packed-byte / MAC statistics are needed, or
/// [`run_attention_calibrated_reference`] for the float-side model.
///
/// # Errors
///
/// Returns [`paro_quant::QuantError::BitwidthCountMismatch`] if the
/// calibration's allocation does not cover the input's block grid, shape
/// errors if its reorder plan does not fit the input, and propagates
/// quantization errors.
pub fn run_attention_calibrated(
    inputs: &AttentionInputs,
    cal: &crate::calibration::HeadCalibration,
    output_aware: bool,
) -> Result<AttentionRun, CoreError> {
    Ok(crate::int_pipeline::run_attention_calibrated_int(inputs, cal, output_aware)?.run)
}

/// The float-side model of [`run_attention_calibrated`]: fake-quantized
/// f32 tensors end to end, kept as the reference the integer path is
/// validated and benchmarked against.
///
/// # Errors
///
/// Same conditions as [`run_attention_calibrated`].
pub fn run_attention_calibrated_reference(
    inputs: &AttentionInputs,
    cal: &crate::calibration::HeadCalibration,
    output_aware: bool,
) -> Result<AttentionRun, CoreError> {
    cal.check_tokens(inputs.tokens())?;
    let q8 = int8_rowwise(&inputs.q)?;
    let k8 = int8_rowwise(&inputs.k)?;
    let v8 = int8_colwise(&inputs.v)?;
    let plan = cal.plan(&inputs.grid);
    let qr = plan.apply(&q8)?;
    let kr = plan.apply(&k8)?;
    let vr = plan.apply(&v8)?;
    let source_map = if output_aware {
        output_aware_map(&qr, &kr, cal.block, &cal.allocation.bits)?
    } else {
        // Integer scores here too, so the reference stays bit-comparable
        // with the int path's exact mode (same map, same sparsity).
        exact_int_map(&qr, &kr)?
    };
    let (map_q, _) = fake_quant_blocks(&source_map, cal.block, &cal.allocation.bits)?;
    let sparsity = fraction_zero(&map_q);
    let out_reordered =
        crate::sparse::sparse_attn_v_with_allocation(&map_q, cal.block, &cal.allocation, &vr)?
            .output;
    let output = plan.invert(&out_reordered)?;
    Ok(AttentionRun {
        output,
        avg_bits: cal.allocation.avg_bits,
        plan: Some(plan),
        allocation: Some(cal.allocation.clone()),
        map_sparsity: sparsity,
    })
}

enum ParoPrecision {
    Fixed(Bitwidth),
    Mixed {
        budget: f32,
        alpha: f32,
        output_aware: bool,
    },
}

/// The PARO pipeline: offline plan selection, online reorder, (mixed-)
/// precision block quantization, AttnV, inverse reorder.
fn run_paro(
    inputs: &AttentionInputs,
    block_edge: usize,
    precision: ParoPrecision,
) -> Result<AttentionRun, CoreError> {
    let n = inputs.tokens();
    let text = inputs.text_tokens;
    let n_vis = inputs.grid.len();
    let grid = block_grid_for(n, block_edge)?;
    let quantize_qkv = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_QKV);
    let q8 = int8_rowwise(&inputs.q)?;
    let k8 = int8_rowwise(&inputs.k)?;
    let v8 = int8_colwise(&inputs.v)?;
    drop(quantize_qkv);

    // Offline: select the reorder plan on the calibration map. The paper
    // calibrates once per head/block offline; here the calibration map is
    // the current map, consistent with the observation that patterns are
    // stable across timesteps and prompts. With a text prefix, the plan is
    // selected on the visual-visual submap (the only region the reorder
    // can restructure) and applied with the text tokens pinned.
    let select_span = paro_trace::span(paro_trace::stage::PIPELINE_SELECT_PLAN);
    let calib_map = attention_map(&q8, &k8)?;
    let calib_bits = match precision {
        ParoPrecision::Fixed(b) => b,
        ParoPrecision::Mixed { .. } => Bitwidth::B4,
    };
    let calib_visual = if text == 0 {
        calib_map
    } else {
        calib_map.block(text, text, n_vis, n_vis)?
    };
    let selection = select_plan(
        &calib_visual,
        &inputs.grid,
        block_grid_for(n_vis, block_edge)?,
        calib_bits,
    )?;
    let plan = ReorderPlan::with_text_tokens(&inputs.grid, selection.order, text);
    drop(select_span);

    // Online: reorder Q/K/V (quantized embeddings; per-token quantization
    // commutes with token permutation).
    let reorder_span = paro_trace::span(paro_trace::stage::PIPELINE_REORDER);
    let qr = plan.apply(&q8)?;
    let kr = plan.apply(&k8)?;
    let vr = plan.apply(&v8)?;
    drop(reorder_span);

    let qkt_span = paro_trace::span(paro_trace::stage::PIPELINE_QKT);
    let map = attention_map(&qr, &kr)?;
    drop(qkt_span);
    let quantize_map_span = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_MAP);
    let (map_q, avg_bits, allocation) = match precision {
        ParoPrecision::Fixed(bits) => {
            let (m, _) = fake_quant_2d(&map, Grouping::Block(grid), bits)?;
            (m, bits.bits() as f32, None)
        }
        ParoPrecision::Mixed {
            budget,
            alpha,
            output_aware,
        } => {
            let table = SensitivityTable::compute(&map, grid, alpha)?;
            let alloc = allocate_greedy(&table, budget)?;
            // Output-bitwidth-aware QKᵀ: recompute the map from
            // LDZ-truncated K, then quantize with the allocated bits.
            let source_map = if output_aware {
                output_aware_map(&qr, &kr, grid, &alloc.bits)?
            } else {
                map
            };
            let (m, _) = fake_quant_blocks(&source_map, grid, &alloc.bits)?;
            let avg = alloc.avg_bits;
            (m, avg, Some(alloc))
        }
    };
    drop(quantize_map_span);
    let sparsity = fraction_zero(&map_q);
    // AttnV: block-sparse when an allocation exists (0-bit blocks skipped,
    // as the dispatcher does in hardware), dense otherwise.
    let attn_v_span = paro_trace::span(paro_trace::stage::PIPELINE_ATTN_V);
    let out_reordered = match &allocation {
        Some(alloc) => {
            crate::sparse::sparse_attn_v_with_allocation(&map_q, grid, alloc, &vr)?.output
        }
        None => map_q.matmul(&vr)?,
    };
    drop(attn_v_span);
    let _unreorder_span = paro_trace::span(paro_trace::stage::PIPELINE_UNREORDER);
    let output = plan.invert(&out_reordered)?;
    Ok(AttentionRun {
        output,
        avg_bits,
        plan: Some(plan),
        allocation,
        map_sparsity: sparsity,
    })
}

/// Sanger-style sparse attention: INT4 prediction pass, threshold pruning,
/// full-precision computation of the surviving entries.
fn run_sanger(inputs: &AttentionInputs, threshold: f32) -> Result<AttentionRun, CoreError> {
    let q4 = fake_quant_2d(&inputs.q, Grouping::PerRow, Bitwidth::B4)?.0;
    let k4 = fake_quant_2d(&inputs.k, Grouping::PerRow, Bitwidth::B4)?.0;
    let prediction = attention_map(&q4, &k4)?;
    let d = inputs.head_dim() as f32;
    let scores = inputs
        .q
        .matmul(&inputs.k.transpose2d()?)?
        .scale(1.0 / d.sqrt());
    // Mask scores whose predicted attention falls below the threshold.
    let masked = scores.zip_with(&prediction, |s, p| {
        if p >= threshold {
            s
        } else {
            f32::NEG_INFINITY
        }
    })?;
    let map = masked.softmax_rows()?;
    let sparsity = fraction_zero(&map);
    Ok(AttentionRun {
        output: map.matmul(&inputs.v)?,
        avg_bits: 16.0,
        plan: None,
        allocation: None,
        map_sparsity: sparsity,
    })
}

/// Recomputes the attention map with `K` operands LDZ-truncated to each
/// output block's allocated bitwidth (paper Fig. 5(b)).
///
/// Works on the integer codes of a symmetric INT8 quantization of `Q`/`K`
/// so the truncation is bit-exact with the hardware model. The map is
/// scored block row by block row through the fused executor's own
/// [`RowScorer`]: one truncated `K` per kept bitwidth (under `qkt.ldz`),
/// 0-bit blocks never computed and read as −∞ by the masked softmax, and
/// a block row that is *entirely* B0 — whose dense softmax would be
/// 0/0 = NaN — uniformly zero, the contribution a fully-skipped row has
/// in the sparse AttnV bypass.
pub(crate) fn output_aware_map(
    q: &Tensor,
    k: &Tensor,
    grid: BlockGrid,
    bits: &[Bitwidth],
) -> Result<Tensor, CoreError> {
    output_aware_map_with(q, k, grid, bits, active_kernel())
}

/// [`output_aware_map`] on an explicit [`Kernel`] (forced-kernel
/// testing); the map is bit-identical across kernels.
pub(crate) fn output_aware_map_with(
    q: &Tensor,
    k: &Tensor,
    grid: BlockGrid,
    bits: &[Bitwidth],
    kernel: Kernel,
) -> Result<Tensor, CoreError> {
    let mut scorer = RowScorer::new(q, k, grid, Some(bits.into()), kernel)?;
    scorer.build_panels()?;
    scorer.whole_map()
}

/// The exact (non-output-aware) integer `QKᵀ` of the deployment path:
/// symmetric INT8 scores on the dispatched score kernel — exactly
/// the fixed-point multiply the PEs run, with no LDZ truncation and no
/// block bypass. Every key column participates in every softmax row, so
/// the semantics match the f32 [`attention_map`] up to the INT8 operand
/// precision.
pub(crate) fn exact_int_map(q: &Tensor, k: &Tensor) -> Result<Tensor, CoreError> {
    exact_int_map_with(q, k, active_kernel())
}

/// [`exact_int_map`] on an explicit [`Kernel`] (forced-kernel testing);
/// the map is bit-identical across kernels.
pub(crate) fn exact_int_map_with(
    q: &Tensor,
    k: &Tensor,
    kernel: Kernel,
) -> Result<Tensor, CoreError> {
    // Any row panel scores the same map; this one bounds the scratch.
    let rows = BlockGrid::square(EXACT_ROW_PANEL)?;
    let mut scorer = RowScorer::new(q, k, rows, None, kernel)?;
    scorer.build_panels()?;
    scorer.whole_map()
}

/// Map rows per block row of [`exact_int_map`]'s scorer.
const EXACT_ROW_PANEL: usize = 64;

/// Subtracts the per-channel (column) mean: SageAttention2's "outlier
/// smoothing" of `K`. Exactly softmax-invariant because the induced score
/// correction is constant along every map row.
fn mean_center_channels(t: &Tensor) -> Result<Tensor, CoreError> {
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let a = t.as_slice();
    let mut means = vec![0.0f32; n];
    for r in 0..m {
        for c in 0..n {
            means[c] += a[r * n + c];
        }
    }
    for mean in &mut means {
        *mean /= m.max(1) as f32;
    }
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        for c in 0..n {
            out[r * n + c] = a[r * n + c] - means[c];
        }
    }
    Ok(Tensor::from_vec(&[m, n], out)?)
}

/// Fake-quantizes a `[n, d]` embedding per row (per token) at INT8.
pub(crate) fn int8_rowwise(t: &Tensor) -> Result<Tensor, CoreError> {
    Ok(fake_quant_2d(t, Grouping::PerRow, Bitwidth::B8)?.0)
}

/// Fake-quantizes a `[n, d]` embedding per column (per dimension) at INT8.
pub(crate) fn int8_colwise(t: &Tensor) -> Result<Tensor, CoreError> {
    Ok(fake_quant_2d(t, Grouping::PerCol, Bitwidth::B8)?.0)
}

fn block_grid_for(n: usize, block_edge: usize) -> Result<BlockGrid, CoreError> {
    Ok(BlockGrid::square(block_edge.clamp(1, n.max(1)))?)
}

fn fraction_zero(map: &Tensor) -> f32 {
    if map.is_empty() {
        return 0.0;
    }
    map.as_slice().iter().filter(|&&x| x == 0.0).count() as f32 / map.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
    use paro_model::ModelConfig;
    use paro_tensor::metrics;

    fn setup(kind: PatternKind, seed: u64) -> AttentionInputs {
        let cfg = ModelConfig::tiny(4, 4, 4);
        let head = synthesize_head(&cfg.grid, cfg.head_dim(), &PatternSpec::new(kind), seed);
        AttentionInputs::new(head.q, head.k, head.v, cfg.grid).unwrap()
    }

    fn error_vs_reference(inputs: &AttentionInputs, method: &AttentionMethod) -> f32 {
        let reference = reference_attention(inputs.q(), inputs.k(), inputs.v()).unwrap();
        let run = run_attention(inputs, method).unwrap();
        metrics::relative_l2(&reference, &run.output).unwrap()
    }

    #[test]
    fn fp16_is_exact() {
        let inputs = setup(PatternKind::Temporal, 1);
        assert_eq!(error_vs_reference(&inputs, &AttentionMethod::Fp16), 0.0);
    }

    #[test]
    fn sage_attention_is_accurate() {
        let inputs = setup(PatternKind::Temporal, 2);
        let err = error_vs_reference(&inputs, &AttentionMethod::SageAttention);
        assert!(err < 0.05, "SageAttention error {err}");
    }

    #[test]
    fn table1_quality_ordering_naive_vs_blockwise_vs_paro() {
        // The core result of Table I at INT4: naive << block-wise < PARO.
        let mut naive_sum = 0.0;
        let mut block_sum = 0.0;
        let mut paro_sum = 0.0;
        for (i, kind) in [
            PatternKind::Temporal,
            PatternKind::SpatialRow,
            PatternKind::SpatialCol,
        ]
        .iter()
        .enumerate()
        {
            let inputs = setup(*kind, 100 + i as u64);
            naive_sum +=
                error_vs_reference(&inputs, &AttentionMethod::NaiveInt { bits: Bitwidth::B4 });
            block_sum += error_vs_reference(
                &inputs,
                &AttentionMethod::BlockwiseInt {
                    bits: Bitwidth::B4,
                    block_edge: 4,
                },
            );
            paro_sum += error_vs_reference(
                &inputs,
                &AttentionMethod::ParoInt {
                    bits: Bitwidth::B4,
                    block_edge: 4,
                },
            );
        }
        assert!(
            paro_sum < block_sum && block_sum < naive_sum,
            "expected paro {paro_sum} < blockwise {block_sum} < naive {naive_sum}"
        );
    }

    #[test]
    fn paro_mixed_comparable_to_int8() {
        let inputs = setup(PatternKind::Temporal, 7);
        let mp = error_vs_reference(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: false,
            },
        );
        let int4 = error_vs_reference(
            &inputs,
            &AttentionMethod::ParoInt {
                bits: Bitwidth::B4,
                block_edge: 4,
            },
        );
        assert!(
            mp < int4,
            "mixed precision {mp} should beat fixed INT4 {int4}"
        );
    }

    #[test]
    fn paro_mixed_respects_budget() {
        let inputs = setup(PatternKind::SpatialRow, 8);
        let run = run_attention(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: false,
            },
        )
        .unwrap();
        assert!(run.avg_bits <= 4.8 + 1e-4);
        let alloc = run.allocation.as_ref().unwrap();
        assert_eq!(alloc.bits.len(), (64usize / 4).pow(2));
        assert!(run.plan.is_some());
    }

    #[test]
    fn output_aware_mode_close_to_exact_mode() {
        // The paper: output-bitwidth-aware QKᵀ "produced no perceptible
        // differences". Verify the two modes are close.
        let inputs = setup(PatternKind::Temporal, 9);
        let reference = reference_attention(inputs.q(), inputs.k(), inputs.v()).unwrap();
        let base = run_attention(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: false,
            },
        )
        .unwrap();
        let aware = run_attention(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: true,
            },
        )
        .unwrap();
        let e_base = metrics::relative_l2(&reference, &base.output).unwrap();
        let e_aware = metrics::relative_l2(&reference, &aware.output).unwrap();
        assert!(
            e_aware < e_base + 0.05,
            "output-aware error {e_aware} vs exact-QK error {e_base}"
        );
    }

    #[test]
    fn mean_centering_is_softmax_invariant() {
        // The SageAttention2 trick, verified exactly: centering K changes
        // the map by at most float noise.
        let inputs = setup(PatternKind::Temporal, 31);
        let k_smooth = mean_center_channels(inputs.k()).unwrap();
        let a = attention_map(inputs.q(), inputs.k()).unwrap();
        let b = attention_map(inputs.q(), &k_smooth).unwrap();
        let err = metrics::relative_l2(&a, &b).unwrap();
        assert!(err < 1e-3, "smoothing must not change the map, err {err}");
    }

    #[test]
    fn sage_v2_int4_close_to_sage_int8() {
        // With smoothing, 4-bit QK approaches the 8-bit QK quality —
        // SageAttention2's headline claim.
        let inputs = setup(PatternKind::SpatialRow, 32);
        let sage8 = error_vs_reference(&inputs, &AttentionMethod::SageAttention);
        let sage4 = error_vs_reference(&inputs, &AttentionMethod::SageAttentionV2);
        // Plain 4-bit QK without smoothing, for contrast.
        let reference = reference_attention(inputs.q(), inputs.k(), inputs.v()).unwrap();
        let q4 = fake_quant_2d(inputs.q(), Grouping::PerRow, Bitwidth::B4)
            .unwrap()
            .0;
        let k4 = fake_quant_2d(inputs.k(), Grouping::PerRow, Bitwidth::B4)
            .unwrap()
            .0;
        let plain4 = attention_map(&q4, &k4).unwrap().matmul(inputs.v()).unwrap();
        let plain4_err = metrics::relative_l2(&reference, &plain4).unwrap();
        assert!(
            sage4 <= plain4_err,
            "smoothing should not hurt: v2 {sage4} vs plain INT4 {plain4_err}"
        );
        assert!(
            sage4 < plain4_err.max(sage8 * 20.0),
            "v2 {sage4} should be in a usable range (sage8 {sage8})"
        );
    }

    #[test]
    fn sanger_prunes_but_stays_reasonable() {
        let inputs = setup(PatternKind::Temporal, 10);
        let run =
            run_attention(&inputs, &AttentionMethod::SangerSparse { threshold: 1e-3 }).unwrap();
        // Strongly-patterned heads are mostly prunable background.
        assert!(run.map_sparsity > 0.2, "sparsity {}", run.map_sparsity);
        let reference = reference_attention(inputs.q(), inputs.k(), inputs.v()).unwrap();
        let err = metrics::relative_l2(&reference, &run.output).unwrap();
        assert!(err < 0.2, "Sanger error {err}");
    }

    #[test]
    fn mixed_precision_zero_blocks_create_sparsity() {
        let inputs = setup(PatternKind::Temporal, 11);
        let run = run_attention(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 3.0,
                block_edge: 4,
                alpha: 0.5,
                output_aware: false,
            },
        )
        .unwrap();
        let hist = run.allocation.as_ref().unwrap().histogram();
        assert!(hist[0] > 0, "tight budget should produce 0-bit blocks");
        assert!(run.map_sparsity > 0.1);
    }

    /// Regression: an allocation that zeroes an entire block-row used to
    /// leave that row of the output-aware map all −∞ going into softmax,
    /// so the whole row came back 0/0 = NaN and flowed into AttnV.
    #[test]
    fn all_b0_block_row_yields_uniform_zero_row() {
        let q = Tensor::from_fn(&[8, 4], |i| ((i[0] * 7 + i[1] * 3) % 11) as f32 * 0.1 - 0.5);
        let k = Tensor::from_fn(&[8, 4], |i| ((i[0] * 5 + i[1]) % 13) as f32 * 0.1 - 0.6);
        let grid = BlockGrid::square(4).unwrap();
        // First block-row entirely bypassed.
        let bits = [Bitwidth::B0, Bitwidth::B0, Bitwidth::B4, Bitwidth::B8];
        let map = output_aware_map(&q, &k, grid, &bits).unwrap();
        assert!(
            map.as_slice().iter().all(|v| v.is_finite()),
            "map must contain no NaN/∞"
        );
        // Bypassed rows read as uniform zero — the contribution a
        // fully-skipped row has in the sparse AttnV bypass.
        for r in 0..4 {
            for c in 0..8 {
                assert_eq!(map.at(&[r, c]), 0.0, "r={r} c={c}");
            }
        }
        // Live rows stay proper softmax rows.
        for r in 4..8 {
            let sum: f32 = (0..8).map(|c| map.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    /// Every supported kernel must reproduce the scalar QKᵀ maps bit for
    /// bit — including the B0 bypass, an all-B0 block-row, and ragged
    /// block tails (n = 10 on a 4-edge grid).
    #[test]
    fn qkt_maps_bit_identical_across_kernels() {
        let q = Tensor::from_fn(&[10, 6], |i| {
            (((i[0] * 31 + i[1] * 17) % 23) as f32 - 11.0) * 0.09
        });
        let k = Tensor::from_fn(&[10, 6], |i| {
            (((i[0] * 13 + i[1] * 29) % 19) as f32 - 9.0) * 0.07
        });
        let grid = BlockGrid::square(4).unwrap();
        let (gr, gc) = grid.grid_dims(10, 10);
        let mut bits = vec![Bitwidth::B8; gr * gc];
        bits[1] = Bitwidth::B2;
        bits[3] = Bitwidth::B4;
        bits[4] = Bitwidth::B0;
        for bj in 0..gc {
            bits[(gr - 1) * gc + bj] = Bitwidth::B0; // all-B0 last block-row
        }
        let want_aware = output_aware_map_with(&q, &k, grid, &bits, Kernel::Scalar).unwrap();
        let want_exact = exact_int_map_with(&q, &k, Kernel::Scalar).unwrap();
        for kernel in Kernel::supported() {
            let aware = output_aware_map_with(&q, &k, grid, &bits, kernel).unwrap();
            assert_eq!(aware, want_aware, "output-aware kernel={kernel:?}");
            let exact = exact_int_map_with(&q, &k, kernel).unwrap();
            assert_eq!(exact, want_exact, "exact kernel={kernel:?}");
        }
    }

    #[test]
    fn input_validation() {
        let cfg = ModelConfig::tiny(2, 2, 2);
        let q = Tensor::zeros(&[8, 4]);
        let k = Tensor::zeros(&[8, 4]);
        let v = Tensor::zeros(&[8, 4]);
        assert!(AttentionInputs::new(q.clone(), k.clone(), v.clone(), cfg.grid).is_ok());
        let bad_k = Tensor::zeros(&[8, 5]);
        assert!(matches!(
            AttentionInputs::new(q.clone(), bad_k, v.clone(), cfg.grid),
            Err(CoreError::InconsistentQkv { .. })
        ));
        let bad_rows = Tensor::zeros(&[9, 4]);
        assert!(matches!(
            AttentionInputs::new(bad_rows.clone(), bad_rows.clone(), bad_rows, cfg.grid),
            Err(CoreError::GridMismatch { .. })
        ));
    }

    #[test]
    fn calibrated_inference_matches_online_quality() {
        // The frozen offline calibration must deliver quality comparable
        // to online per-call selection+allocation (the paper's deployment
        // story).
        use crate::calibration::calibrate_head;
        let inputs = setup(PatternKind::Temporal, 14);
        let reference = reference_attention(inputs.q(), inputs.k(), inputs.v()).unwrap();
        // Calibrate on maps from *different* seeds of the same pattern.
        let grid = *inputs.grid();
        let calib_maps: Vec<Tensor> = (0..3)
            .map(|s| {
                let other = setup(PatternKind::Temporal, 200 + s);
                attention_map(other.q(), other.k()).unwrap()
            })
            .collect();
        let cal = calibrate_head(
            &calib_maps,
            &grid,
            paro_quant::BlockGrid::square(4).unwrap(),
            Bitwidth::B4,
            4.8,
            0.5,
        )
        .unwrap();
        let frozen = run_attention_calibrated(&inputs, &cal, false).unwrap();
        let online = run_attention(
            &inputs,
            &AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: false,
            },
        )
        .unwrap();
        let e_frozen = metrics::relative_l2(&reference, &frozen.output).unwrap();
        let e_online = metrics::relative_l2(&reference, &online.output).unwrap();
        assert!(
            e_frozen < e_online * 3.0 + 0.02,
            "frozen calibration err {e_frozen} vs online {e_online}"
        );
        assert!(frozen.plan.is_some());
    }

    #[test]
    fn text_token_sequences_run_through_paro() {
        use paro_model::patterns::synthesize_head_with_text;
        let cfg = ModelConfig::tiny(4, 4, 4);
        let text = 8;
        let head = synthesize_head_with_text(
            &cfg.grid,
            text,
            cfg.head_dim(),
            &PatternSpec::new(PatternKind::Temporal),
            17,
        );
        let reference = reference_attention(&head.q, &head.k, &head.v).unwrap();
        let inputs = AttentionInputs::with_text(head.q, head.k, head.v, cfg.grid, text).unwrap();
        assert_eq!(inputs.tokens(), 64 + text);
        assert_eq!(inputs.text_tokens(), text);
        for method in [
            AttentionMethod::ParoInt {
                bits: Bitwidth::B8,
                block_edge: 4,
            },
            AttentionMethod::ParoMixed {
                budget: 4.8,
                block_edge: 4,
                alpha: 0.5,
                output_aware: true,
            },
        ] {
            let run = run_attention(&inputs, &method).unwrap();
            assert_eq!(run.output.shape(), &[64 + text, 32]);
            // The plan pins the text prefix.
            let plan = run.plan.as_ref().unwrap();
            for t in 0..text {
                assert_eq!(plan.forward_indices()[t], t);
            }
            // Quality holds across the whole sequence, text rows included.
            let err = metrics::relative_l2(&reference, &run.output).unwrap();
            assert!(err < 0.15, "{}: err {err}", method.name());
            for t in 0..text {
                let r = reference.block(t, 0, 1, 32).unwrap();
                let o = run.output.block(t, 0, 1, 32).unwrap();
                let cos = metrics::cosine_similarity(&r, &o).unwrap();
                assert!(cos > 0.95, "text row {t}: cosine {cos}");
            }
        }
    }

    #[test]
    fn text_token_row_count_validated() {
        let cfg = ModelConfig::tiny(2, 2, 2);
        let t = Tensor::zeros(&[8, 4]);
        // Without the text allowance, 8 rows matches the grid...
        assert!(AttentionInputs::with_text(t.clone(), t.clone(), t.clone(), cfg.grid, 0).is_ok());
        // ...with 3 text tokens it must be 11 rows.
        assert!(matches!(
            AttentionInputs::with_text(t.clone(), t.clone(), t, cfg.grid, 3),
            Err(CoreError::GridMismatch { .. })
        ));
        let t11 = Tensor::zeros(&[11, 4]);
        assert!(AttentionInputs::with_text(t11.clone(), t11.clone(), t11, cfg.grid, 3).is_ok());
    }

    #[test]
    fn all_roster_methods_run() {
        let inputs = setup(PatternKind::SpatialCol, 12);
        for method in AttentionMethod::table1_roster() {
            let run = run_attention(&inputs, &method).expect("method should run");
            assert_eq!(run.output.shape(), &[64, 32]);
            assert!(run.output.as_slice().iter().all(|x| x.is_finite()));
        }
    }
}
