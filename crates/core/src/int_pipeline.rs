//! Frozen-calibration attention on packed integer codes — the deployment
//! path.
//!
//! [`crate::pipeline::run_attention_calibrated_reference`] models the
//! datapath with fake-quantized f32 tensors; this module executes it the
//! way the accelerator does, as one fused pass per block row of the map:
//! integer `QKᵀ` over the row's live blocks (LDZ output-aware or exact)
//! and the row's softmax, per-block min-max quantization into packed
//! 2/4/8-bit codes (nothing for 0-bit blocks), and `AttnV` on the block
//! body of [`paro_quant::AttnVOperand`] against per-column INT8 `V`. A block row holds whole softmax rows and a
//! block's quantization parameters depend only on that block, so the
//! fused pass yields the codes, counts and output of quantizing the whole
//! map first, bit for bit, while holding one block row of it: a head
//! needs `O(edge · N + N · d)` memory instead of `N²`. Block rows are
//! independent, so after its serial preparation a head's block rows are
//! cut into fixed ranges that the thread running the head and any idle
//! pool worker pull in turn; outputs and counts do not depend on who ran
//! which range.
//!
//! Both `QKᵀ` modes share the float-side model's block-row scorer, so both
//! paths quantize identical source maps to identical codes; only the
//! `AttnV` arithmetic differs (i32 accumulate + one scale product per
//! block/column instead of rounded f32 multiplies), which keeps the two
//! outputs within float rounding of each other.

use crate::calibration::HeadCalibration;
use crate::cancel::Deadline;
use crate::pipeline::{int8_rowwise, AttentionInputs, AttentionRun};
use crate::pool::ComputePool;
use crate::reorder::ReorderPlan;
use crate::score::{RowScorer, RowScratch};
use crate::CoreError;
use paro_quant::{AttnVOperand, Bitwidth, BlockGrid, PackedRow, PerColCodes, RowCounts};
use paro_tensor::kernel::{active_kernel, Kernel};
use paro_tensor::Tensor;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

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
    /// (`scalar` or `avx2`; see `paro_tensor::kernel`).
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
/// the `Q`/`K` codes, the scores, the map quantization and `AttnV`
/// (forced-kernel testing). The INT8 fake quantization of `Q` and `K`
/// ahead of their codes still runs on the process's dispatched kernel
/// ([`active_kernel`]). Outputs, sparsity and statistics are
/// bit-identical across kernels, except [`IntPathStats::kernel`], which
/// names `kernel`.
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
    let (head, v_payload_bytes) = prepare(inputs, &plan, cal, output_aware, deadline, kernel)?;
    let ranges = head.ranges(RANGE_ROWS);
    // The preparation lives until the inverse reorder is done, the order
    // the head freed it in before it was split: freeing it first
    // measured slower on the DiT block.
    let split = Arc::new(Split::new(head, ranges));
    let (out, counts) = run_ranges(&split)?;
    deadline.check()?;
    let d = inputs.head_dim();
    let output = {
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_UNREORDER);
        plan.invert(&Tensor::from_vec(&[n, d], out)?)?
    };
    drop(split);
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

/// Map rows per block-row range, the unit a head's block rows are shared
/// out in: rounded up to whole block rows, and independent of the pool's
/// width, so a head splits the same way on every host.
const RANGE_ROWS: usize = 48;

/// One head after its serial preparation: the reorder, the `Q`/`K` codes
/// with their LDZ panels, and the `V` operand, plus what its block rows
/// are quantized with. Read-only once built, so every participant in the
/// head's ranges shares one through an `Arc`.
struct Head {
    scorer: RowScorer,
    attn: AttnVOperand,
    bits: Arc<[Bitwidth]>,
    block: BlockGrid,
    deadline: Deadline,
    kernel: Kernel,
}

/// The serial preparation of one head, checking the deadline between its
/// stages; also returns the packed `V` bytes.
fn prepare(
    inputs: &AttentionInputs,
    plan: &ReorderPlan,
    cal: &HeadCalibration,
    output_aware: bool,
    deadline: Deadline,
    kernel: Kernel,
) -> Result<(Head, u64), CoreError> {
    let (qr, kr, vr) = {
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_REORDER);
        (
            plan.apply(inputs.q())?,
            plan.apply(inputs.k())?,
            plan.apply(inputs.v())?,
        )
    };
    deadline.check()?;
    let bits: Arc<[Bitwidth]> = cal.allocation.bits.as_slice().into();
    let mut scorer = {
        // INT8 per-token fake quantization, then the symmetric INT8 codes
        // the score kernel multiplies.
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_QKV);
        let (q8, k8) = (int8_rowwise(&qr)?, int8_rowwise(&kr)?);
        let aware = output_aware.then(|| Arc::clone(&bits));
        RowScorer::new(&q8, &k8, cal.block, aware, kernel)?
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
    scorer.build_panels()?;
    let head = Head {
        scorer,
        attn,
        bits,
        block: cal.block,
        deadline,
        kernel,
    };
    Ok((head, v_payload_bytes))
}

impl Head {
    /// The head's block rows cut into consecutive ranges of
    /// `rows` map rows each, rounded up to whole block rows; the last
    /// range takes what is left.
    fn ranges(&self, rows: usize) -> Vec<Range<usize>> {
        let total = self.scorer.block_rows();
        let step = rows.div_ceil(self.block.block_rows).max(1);
        (0..total)
            .step_by(step)
            .map(|bi| bi..(bi + step).min(total))
            .collect()
    }

    /// Map rows `[r0, r1)` of block-row range `rows`.
    fn map_rows(&self, rows: &Range<usize>) -> (usize, usize) {
        let edge = self.block.block_rows;
        let n = self.scorer.rows();
        ((rows.start * edge).min(n), (rows.end * edge).min(n))
    }
}

/// A head's ranges and the cursor its participants claim them from, in
/// order.
struct Split {
    head: Head,
    ranges: Vec<Range<usize>>,
    /// Index of the next unclaimed range. A claim only hands out an
    /// index (so `Relaxed` suffices): everything a range reads was
    /// published to the participants before the batch started.
    next: AtomicUsize,
}

/// What one participant computed: the rows of the ranges it claimed, in
/// claim order, and their counts. The lead participant's `out` is the
/// whole head output, written in place.
struct Share {
    ranges: Vec<Range<usize>>,
    out: Vec<f32>,
    counts: RowCounts,
}

impl Split {
    fn new(head: Head, ranges: Vec<Range<usize>>) -> Self {
        Split {
            head,
            ranges,
            next: AtomicUsize::new(0),
        }
    }

    /// Claims ranges until none are left and runs each on one scratch.
    /// The lead (`out` given: the zeroed `[n, d]` head output) writes
    /// every range in place; any other participant writes its ranges
    /// back to back into a buffer of its own.
    fn participate(&self, out: Option<Vec<f32>>) -> Result<Share, CoreError> {
        let d = self.head.attn.cols();
        let lead = out.is_some();
        let mut share = Share {
            ranges: Vec::new(),
            out: out.unwrap_or_default(),
            counts: RowCounts::default(),
        };
        let mut scratch = RowScratch::default();
        let mut packed = PackedRow::new();
        while let Some(rows) = self.ranges.get(self.next.fetch_add(1, Relaxed)) {
            let (r0, r1) = self.head.map_rows(rows);
            let at = if lead { r0 * d } else { share.out.len() };
            if !lead {
                share.out.resize(at + (r1 - r0) * d, 0.0);
            }
            let dst = &mut share.out[at..at + (r1 - r0) * d];
            share.counts +=
                run_block_rows(&self.head, rows.clone(), dst, &mut scratch, &mut packed)?;
            share.ranges.push(rows.clone());
        }
        Ok(share)
    }
}

/// Runs the split's ranges; returns the head's `[n, d]` output (in
/// reordered row order) and the exact counts. With more than one range,
/// one participant per pool thread (at most one per range) runs as one
/// [`ComputePool::run_many`] batch. On a pool worker (every head the
/// serving engine or `exec` runs) this thread pulls ranges, and so does
/// every pool worker idle right now; with none idle, the head runs as one
/// loop on this thread. Called from outside the pool, the participants
/// queue as ordinary pool jobs. The first participant writes into the
/// output in place; the others' rows are copied in afterwards and their
/// buffers freed before this returns. Outputs and counts are
/// bit-identical for any partition and any number of participants:
/// ranges write disjoint rows, and the counts are integer sums.
///
/// A participant that panics re-raises on this thread once the batch is
/// back, so a head run as a pool job faults only its own request.
fn run_ranges(split: &Arc<Split>) -> Result<(Vec<f32>, RowCounts), CoreError> {
    let d = split.head.attn.cols();
    let out = vec![0.0f32; split.head.scorer.rows() * d];
    if split.ranges.len() <= 1 {
        let Share { out, counts, .. } = split.participate(Some(out))?;
        return Ok((out, counts));
    }
    let pool = ComputePool::global();
    let mut lead = Some(out);
    let jobs = (0..split.ranges.len().min(pool.threads()))
        .map(|_| {
            let (split, out) = (Arc::clone(split), lead.take());
            Box::new(move || split.participate(out))
                as Box<dyn FnOnce() -> Result<Share, CoreError> + Send>
        })
        .collect();
    let mut shares = pool.run_many(jobs).into_iter();
    let Share {
        mut out,
        mut counts,
        ..
    } = shares.next().expect("one lead participant")?;
    for share in shares {
        let share = share?;
        counts += share.counts;
        let mut at = 0;
        for rows in &share.ranges {
            let (r0, r1) = split.head.map_rows(rows);
            let len = (r1 - r0) * d;
            out[r0 * d..r1 * d].copy_from_slice(&share.out[at..at + len]);
            at += len;
        }
    }
    Ok((out, counts))
}

/// The fused loop over one range `rows` of a head's block rows
/// (`pipeline.block_rows`, one span per range): per block row, `QKᵀ` +
/// softmax (`pipeline.qkt`), block-wise quantization
/// (`pipeline.quantize_map`) and packed `AttnV` (`pipeline.attn_v`), each
/// recorded once per row. Adds the rows' outputs into `out` (`[map rows,
/// d]` from the range's first map row) and returns their exact counts;
/// the deadline is checked before every block row.
fn run_block_rows(
    head: &Head,
    rows: Range<usize>,
    out: &mut [f32],
    scratch: &mut RowScratch,
    packed: &mut PackedRow,
) -> Result<RowCounts, CoreError> {
    let (n, d) = (head.scorer.cols(), head.attn.cols());
    let gc = n.div_ceil(head.block.block_cols);
    let first = rows.start * head.block.block_rows;
    let mut counts = RowCounts::default();
    let _t = paro_trace::span(paro_trace::stage::PIPELINE_BLOCK_ROWS);
    for bi in rows {
        head.deadline.check()?;
        let (r0, h) = {
            let _t = paro_trace::span(paro_trace::stage::PIPELINE_QKT);
            head.scorer.score_row(bi, scratch)?
        };
        counts += {
            let _t = paro_trace::span(paro_trace::stage::PIPELINE_QUANTIZE_MAP);
            let row_bits = &head.bits[bi * gc..(bi + 1) * gc];
            packed.quantize(&scratch.panel, n, head.block, row_bits, head.kernel)?
        };
        let _t = paro_trace::span(paro_trace::stage::PIPELINE_ATTN_V);
        let rows_out = &mut out[(r0 - first) * d..(r0 - first + h) * d];
        head.attn.accumulate(packed, rows_out)?;
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

    /// One head's block rows run as a single range, as the production
    /// ranges and as 7 uneven ranges — one ending in the ragged last
    /// block row, one holding an all-B0 block row — give the same output
    /// bits and counts in both `QKᵀ` modes.
    #[test]
    fn any_partition_of_a_heads_block_rows_is_bit_identical() {
        // 105 tokens at 4-token blocks: 27 block rows, the last one row.
        let grid = paro_model::TokenGrid::new(3, 5, 7);
        let spec = PatternSpec::new(PatternKind::Temporal);
        let head = synthesize_head(&grid, 16, &spec, 71);
        let inputs = AttentionInputs::new(head.q, head.k, head.v, grid).unwrap();
        let maps: Vec<_> = (0..2)
            .map(|s| {
                let other = synthesize_head(&grid, 16, &spec, 700 + s);
                attention_map(&other.q, &other.k).unwrap()
            })
            .collect();
        let block = BlockGrid::square(4).unwrap();
        let mut cal = calibrate_head(&maps, &grid, block, Bitwidth::B4, 4.0, 0.5).unwrap();
        let (gr, gc) = block.grid_dims(105, 105);
        assert_eq!(gr, 27);
        cal.allocation.bits[5 * gc..6 * gc].fill(Bitwidth::B0);
        let uneven = vec![0..1, 1..5, 5..6, 6..13, 13..20, 20..22, 22..27];
        for output_aware in [false, true] {
            let run = |ranges: Option<Vec<Range<usize>>>| {
                let plan = cal.plan(inputs.grid());
                let (head, _) = prepare(
                    &inputs,
                    &plan,
                    &cal,
                    output_aware,
                    Deadline::NONE,
                    active_kernel(),
                )
                .unwrap();
                let ranges = ranges.unwrap_or_else(|| head.ranges(RANGE_ROWS));
                let (out, counts) = run_ranges(&Arc::new(Split::new(head, ranges))).unwrap();
                (out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), counts)
            };
            let single = run(Some(std::iter::once(0..gr).collect()));
            assert!(single.1.skipped_blocks >= gc, "the all-B0 row is bypassed");
            assert_eq!(run(None), single, "production, output_aware={output_aware}");
            assert_eq!(
                run(Some(uneven.clone())),
                single,
                "7 uneven, output_aware={output_aware}"
            );
        }
    }

    #[test]
    fn production_ranges_cover_whole_block_rows_independent_of_pool_width() {
        let (inputs, cal) = setup(27);
        let plan = cal.plan(inputs.grid());
        let (head, _) =
            prepare(&inputs, &plan, &cal, true, Deadline::NONE, active_kernel()).unwrap();
        // 64 tokens at 4-token blocks: 16 block rows, 48 map rows each.
        assert_eq!(head.ranges(RANGE_ROWS), vec![0..12, 12..16]);
        assert_eq!(
            head.ranges(1),
            (0..16).map(|b| b..b + 1).collect::<Vec<_>>()
        );
        assert!(head.ranges(1000).into_iter().eq(std::iter::once(0..16)));
    }

    #[test]
    fn delegate_equals_int_path() {
        let (inputs, cal) = setup(24);
        let via_delegate = crate::pipeline::run_attention_calibrated(&inputs, &cal, true).unwrap();
        let direct = run_attention_calibrated_int(&inputs, &cal, true).unwrap();
        assert_eq!(via_delegate, direct.run);
    }
}
