//! Frozen-calibration attention on packed integer codes — the deployment
//! path.
//!
//! [`crate::pipeline::run_attention_calibrated_reference`] models the
//! datapath with fake-quantized f32 tensors; this module executes it the
//! way the accelerator does, as one fused pass per block row of the map:
//! integer `QKᵀ` over the row's live blocks (LDZ output-aware or exact)
//! and the row's softmax, per-block min-max quantization into packed
//! 2/4/8-bit codes (nothing for 0-bit blocks), and `AttnV` on the
//! per-bitwidth i32 micro-kernels of [`paro_quant::AttnVOperand`] against
//! per-column INT8 `V`. A block row holds whole softmax rows and a
//! block's quantization parameters depend only on that block, so the
//! fused pass yields the codes, counts and output of quantizing the whole
//! map first, bit for bit, while holding one block row of it: a head
//! needs `O(edge · N + N · d)` memory instead of `N²`.
//!
//! Both `QKᵀ` modes share the float-side model's block-row scorer, so both
//! paths quantize identical source maps to identical codes; only the
//! `AttnV` arithmetic differs (i32 accumulate + one scale product per
//! block/column instead of rounded f32 multiplies), which keeps the two
//! outputs within float rounding of each other.

use crate::calibration::HeadCalibration;
use crate::cancel::Deadline;
use crate::pipeline::{int8_rowwise, AttentionInputs, AttentionRun};
use crate::score::{RowScorer, RowScratch};
use crate::CoreError;
use paro_quant::{AttnVOperand, Bitwidth, PackedRow, PerColCodes, RowCounts};
use paro_tensor::kernel::{active_kernel, Kernel};
use paro_tensor::Tensor;
use std::ops::Range;

/// Execution statistics of one packed-integer attention run: the numbers
/// the paper's traffic and speedup claims are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntPathStats {
    /// Packed attention-map bytes actually read (code payloads + per-block
    /// parameters of every non-bypassed block).
    pub packed_map_bytes: u64,
    /// Packed `V` bytes (per-column INT8 codes + parameters).
    pub v_payload_bytes: u64,
    /// `AttnV` MACs executed (0-bit blocks bypassed).
    pub executed_macs: u64,
    /// MACs a dense `AttnV` would execute.
    pub dense_macs: u64,
    /// Number of 0-bit blocks bypassed by the dispatcher.
    pub skipped_blocks: usize,
    /// Stable name of the micro-kernel that executed the `AttnV` MACs
    /// (`scalar`, `sse4.1` or `avx2`; see `paro_tensor::kernel`).
    pub kernel: &'static str,
}

impl IntPathStats {
    /// Fraction of dense `AttnV` MACs skipped.
    pub fn skipped_fraction(&self) -> f64 {
        if self.dense_macs == 0 {
            return 0.0;
        }
        1.0 - self.executed_macs as f64 / self.dense_macs as f64
    }
}

/// An [`AttentionRun`] plus the integer-path execution statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct IntAttentionRun {
    /// The attention output and quantization statistics.
    pub run: AttentionRun,
    /// Packed-byte and MAC accounting of this run.
    pub stats: IntPathStats,
}

/// Runs frozen-calibration PARO attention on packed integer codes.
///
/// The pipeline: calibrated reorder, INT8 per-token `Q`/`K`, per-column
/// INT8 `V`, then per block row `QKᵀ` (LDZ output-aware or exact) +
/// softmax, block-wise quantization into packed mixed-precision codes and
/// block-sparse integer `AttnV`; finally the inverse reorder.
///
/// `Q`/`K`/`V` are quantized *after* the reorder: per-token and per-column
/// calibration both commute bitwise with row permutation, so the codes
/// equal those of the float path's quantize-then-reorder order.
///
/// # Errors
///
/// Returns [`paro_quant::QuantError::BitwidthCountMismatch`] (before any
/// work) if the calibration's allocation does not cover the input's block
/// grid, shape errors if its reorder plan does not fit the input, and
/// propagates quantization errors.
pub fn run_attention_calibrated_int(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
) -> Result<IntAttentionRun, CoreError> {
    run_attention_calibrated_int_with(inputs, cal, output_aware, Deadline::NONE)
}

/// [`run_attention_calibrated_int`] with a cooperative [`Deadline`]
/// checked between stages and between block rows: an expired deadline
/// stops the pipeline at the next check with [`CoreError::Cancelled`]
/// instead of finishing work whose result nobody will wait for.
///
/// # Errors
///
/// Everything [`run_attention_calibrated_int`] returns, plus
/// [`CoreError::Cancelled`] on deadline expiry, [`CoreError::Transient`]
/// when the `pipeline.int_attn` failpoint is armed, and a transient
/// [`CoreError::Quant`] when `quant.pack_attn_v` is (chaos builds only;
/// each fires once per head).
pub fn run_attention_calibrated_int_with(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    deadline: Deadline,
) -> Result<IntAttentionRun, CoreError> {
    run_attention_calibrated_int_on(inputs, cal, output_aware, deadline, active_kernel())
}

/// [`run_attention_calibrated_int_with`] on an explicit [`Kernel`] for
/// every hot loop (forced-kernel testing); outputs, sparsity and
/// statistics are bit-identical across kernels, except
/// [`IntPathStats::kernel`], which names `kernel`.
///
/// # Errors
///
/// Same as [`run_attention_calibrated_int_with`].
pub fn run_attention_calibrated_int_on(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    deadline: Deadline,
    kernel: Kernel,
) -> Result<IntAttentionRun, CoreError> {
    // A Delay fault here holds the request mid-service so chaos tests can
    // expire `deadline` deterministically at the next check.
    if paro_failpoint::fire(paro_failpoint::site::PIPELINE_INT_ATTN) {
        return Err(CoreError::Transient {
            site: paro_failpoint::site::PIPELINE_INT_ATTN,
        });
    }
    let n = inputs.tokens();
    cal.check_tokens(n)?;
    deadline.check()?;
    let plan = cal.plan(inputs.grid());
    let (qr, kr, vr) = {
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_REORDER);
        (
            plan.apply(inputs.q())?,
            plan.apply(inputs.k())?,
            plan.apply(inputs.v())?,
        )
    };
    deadline.check()?;
    let bits = &cal.allocation.bits[..];
    let mut scorer = {
        // INT8 per-token fake quantization, then the symmetric INT8 codes
        // the score kernel multiplies.
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_QKV);
        let (q8, k8) = (int8_rowwise(&qr)?, int8_rowwise(&kr)?);
        RowScorer::new(&q8, &k8, cal.block, output_aware.then_some(bits), kernel)?
    };
    drop((qr, kr));
    deadline.check()?;
    let vq = {
        // Own stage: V's packed quantization is a different workload from
        // the Q/K quantization above, and sharing `pipeline.quantize_qkv`
        // doubled that stage's count and mixed its median.
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_V);
        PerColCodes::quantize(&vr, Bitwidth::B8)?
    };
    drop(vr);
    let attn = AttnVOperand::new(&vq, kernel)?;
    let v_payload_bytes = vq.payload_bytes() as u64;
    drop(vq);
    scorer.build_ldz();
    let d = inputs.head_dim();
    let mut out = vec![0.0f32; n * d];
    let counts = run_block_rows(
        &scorer,
        &attn,
        cal,
        0..scorer.block_rows(),
        &mut out,
        deadline,
        kernel,
    )?;
    deadline.check()?;
    let output = {
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_UNREORDER);
        plan.invert(&Tensor::from_vec(&[n, d], out)?)?
    };
    let elems = (n * n) as u64;
    Ok(IntAttentionRun {
        run: AttentionRun {
            output,
            avg_bits: cal.allocation.avg_bits,
            plan: Some(plan),
            allocation: Some(cal.allocation.clone()),
            map_sparsity: if elems == 0 {
                0.0
            } else {
                counts.zero_elems as f32 / elems as f32
            },
        },
        stats: IntPathStats {
            packed_map_bytes: counts.packed_bytes,
            v_payload_bytes,
            executed_macs: counts.live_elems * d as u64,
            dense_macs: elems * d as u64,
            skipped_blocks: counts.skipped_blocks,
            kernel: kernel.as_str(),
        },
    })
}

/// The fused loop over block rows `rows` of one head
/// (`pipeline.block_rows`): per block row, `QKᵀ` + softmax
/// (`pipeline.qkt`), block-wise quantization (`pipeline.quantize_map`)
/// and packed `AttnV` (`pipeline.attn_v`), each recorded once per row.
/// Writes the rows' outputs into `out` (`[map rows, d]` from the range's
/// first map row) and returns their exact counts. Ranges touch disjoint
/// output rows, so they can run as separate jobs; the deadline is checked
/// before every block row.
fn run_block_rows(
    scorer: &RowScorer,
    attn: &AttnVOperand,
    cal: &HeadCalibration,
    rows: Range<usize>,
    out: &mut [f32],
    deadline: Deadline,
    kernel: Kernel,
) -> Result<RowCounts, CoreError> {
    let (n, d) = (scorer.cols(), attn.cols());
    let gc = n.div_ceil(cal.block.block_cols);
    let first = rows.start * cal.block.block_rows;
    let mut scratch = RowScratch::default();
    let mut packed = PackedRow::new();
    let mut counts = RowCounts::default();
    let _t = paro_trace::span(paro_trace::stage::PIPELINE_BLOCK_ROWS);
    for bi in rows {
        deadline.check()?;
        let (r0, h) = {
            let _t = paro_trace::span(paro_trace::stage::PIPELINE_QKT);
            scorer.score_row(bi, &mut scratch)?
        };
        counts += {
            let _t = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_MAP);
            let row_bits = &cal.allocation.bits[bi * gc..(bi + 1) * gc];
            packed.quantize(&scratch.panel, n, cal.block, row_bits, kernel)?
        };
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_ATTN_V);
        let rows_out = &mut out[(r0 - first) * d..(r0 - first + h) * d];
        attn.accumulate(&mut packed, rows_out)?;
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::calibrate_head;
    use crate::pipeline::{attention_map, run_attention_calibrated_reference};
    use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
    use paro_model::ModelConfig;
    use paro_quant::BlockGrid;
    use paro_tensor::metrics;

    fn setup(seed: u64) -> (AttentionInputs, HeadCalibration) {
        let cfg = ModelConfig::tiny(4, 4, 4);
        let spec = PatternSpec::new(PatternKind::Temporal);
        let head = synthesize_head(&cfg.grid, cfg.head_dim(), &spec, seed);
        let inputs = AttentionInputs::new(head.q, head.k, head.v, cfg.grid).unwrap();
        let calib_maps: Vec<_> = (0..2)
            .map(|s| {
                let other = synthesize_head(&cfg.grid, cfg.head_dim(), &spec, 300 + s);
                attention_map(&other.q, &other.k).unwrap()
            })
            .collect();
        let cal = calibrate_head(
            &calib_maps,
            &cfg.grid,
            BlockGrid::square(4).unwrap(),
            Bitwidth::B4,
            4.0,
            0.5,
        )
        .unwrap();
        (inputs, cal)
    }

    #[test]
    fn int_path_matches_reference_path() {
        for output_aware in [false, true] {
            let (inputs, cal) = setup(21);
            let int = run_attention_calibrated_int(&inputs, &cal, output_aware).unwrap();
            let reference =
                run_attention_calibrated_reference(&inputs, &cal, output_aware).unwrap();
            let err = metrics::relative_l2(&reference.output, &int.run.output).unwrap();
            assert!(
                err < 1e-5,
                "output_aware={output_aware}: int vs reference err {err}"
            );
            assert_eq!(int.run.avg_bits, reference.avg_bits);
            assert_eq!(int.run.map_sparsity, reference.map_sparsity);
            assert_eq!(int.run.plan, reference.plan);
            assert_eq!(int.run.allocation, reference.allocation);
        }
    }

    #[test]
    fn stats_account_for_skipped_blocks_and_bytes() {
        let (inputs, cal) = setup(22);
        let int = run_attention_calibrated_int(&inputs, &cal, false).unwrap();
        let n = inputs.tokens() as u64;
        let d = inputs.head_dim() as u64;
        assert_eq!(int.stats.dense_macs, n * n * d);
        // The 4.0-bit budget forces 0-bit blocks on this pattern.
        assert!(int.stats.skipped_blocks > 0, "expected bypassed blocks");
        assert!(int.stats.executed_macs < int.stats.dense_macs);
        assert!(int.stats.skipped_fraction() > 0.0);
        assert!(int.stats.packed_map_bytes > 0);
        // Packed map must be smaller than a uniform INT8 map.
        assert!(int.stats.packed_map_bytes < n * n);
        // V: d columns of n INT8 codes + 4 param bytes each.
        assert_eq!(int.stats.v_payload_bytes, d * (n + 4));
    }

    #[test]
    fn executed_macs_match_float_sparse_accounting() {
        // The dispatcher bypass must skip exactly the blocks the float-side
        // block-sparse reference skips.
        let (inputs, cal) = setup(23);
        let int = run_attention_calibrated_int(&inputs, &cal, false).unwrap();
        let q8 = int8_rowwise(inputs.q()).unwrap();
        let k8 = int8_rowwise(inputs.k()).unwrap();
        let v8 = crate::pipeline::int8_colwise(inputs.v()).unwrap();
        let plan = cal.plan(inputs.grid());
        let qr = plan.apply(&q8).unwrap();
        let kr = plan.apply(&k8).unwrap();
        let vr = plan.apply(&v8).unwrap();
        let map = attention_map(&qr, &kr).unwrap();
        let (map_q, _) =
            paro_quant::fake_quant_blocks(&map, cal.block, &cal.allocation.bits).unwrap();
        let sparse =
            crate::sparse::sparse_attn_v_with_allocation(&map_q, cal.block, &cal.allocation, &vr)
                .unwrap();
        assert_eq!(int.stats.executed_macs, sparse.executed_macs);
        assert_eq!(int.stats.dense_macs, sparse.dense_macs);
    }

    #[test]
    fn expired_deadline_cancels_between_stages() {
        let (inputs, cal) = setup(25);
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = run_attention_calibrated_int_with(&inputs, &cal, false, expired)
            .expect_err("expired deadline must cancel");
        assert_eq!(err, CoreError::Cancelled);
        // A generous deadline changes nothing.
        let relaxed = Deadline::after(std::time::Duration::from_secs(3600));
        let with = run_attention_calibrated_int_with(&inputs, &cal, false, relaxed).unwrap();
        let without = run_attention_calibrated_int(&inputs, &cal, false).unwrap();
        assert_eq!(with, without);
    }

    /// Regression: with output-aware `QKᵀ`, a calibration for another grid
    /// size indexed past its allocation mid-head and panicked; exact mode
    /// failed only after scoring the whole map. Both modes now fail typed
    /// before any work, on the int and the reference path alike.
    #[test]
    fn calibration_for_another_grid_fails_typed_in_both_modes() {
        let (_, cal) = setup(26);
        let cfg = ModelConfig::tiny(4, 4, 6);
        let spec = PatternSpec::new(PatternKind::Temporal);
        let head = synthesize_head(&cfg.grid, cfg.head_dim(), &spec, 26);
        let inputs = AttentionInputs::new(head.q, head.k, head.v, cfg.grid).unwrap();
        let want = CoreError::Quant(paro_quant::QuantError::BitwidthCountMismatch {
            supplied: 256,
            blocks: 576,
        });
        for output_aware in [false, true] {
            let int = run_attention_calibrated_int(&inputs, &cal, output_aware);
            assert_eq!(
                int.unwrap_err(),
                want,
                "int path, output_aware={output_aware}"
            );
            let reference = run_attention_calibrated_reference(&inputs, &cal, output_aware);
            assert_eq!(
                reference.unwrap_err(),
                want,
                "reference, output_aware={output_aware}"
            );
        }
    }

    #[test]
    fn delegate_equals_int_path() {
        let (inputs, cal) = setup(24);
        let via_delegate = crate::pipeline::run_attention_calibrated(&inputs, &cal, true).unwrap();
        let direct = run_attention_calibrated_int(&inputs, &cal, true).unwrap();
        assert_eq!(via_delegate, direct.run);
    }
}
