//! Bit-identity oracle of the fused block-row attention executor.
//!
//! `run_attention_calibrated_int` scores, quantizes and multiplies one
//! block row at a time and never holds the `n × n` map. This suite
//! rebuilds the composition it replaced from public primitives — the
//! whole map (`QKᵀ` + softmax over every row at once), then
//! `MixedPrecisionMap::quantize`, `packed_attn_v` and the inverse
//! reorder, with the map's sparsity counted on the dequantized map — and
//! requires the output bits, the `map_sparsity` bits and every
//! `IntPathStats` field to match: in both `QKᵀ` modes, on every kernel
//! the host supports, with `n` not divisible by the block edge, with
//! all-B0 block rows, with an all-B0 plan, with heads split into
//! block-row ranges that pool workers share, and at the workloads' shape
//! (`d = 64`, 6- and 5-token blocks), where the dispatched kernel must
//! also match the scalar reference bit for bit. CI also runs it forced to
//! the scalar kernel (`PARO_KERNEL=scalar`) and on one- and three-thread
//! compute pools (`PARO_POOL_THREADS=1` and `3`).

use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::cancel::Deadline;
use paro_core::int_pipeline::{
    run_attention_calibrated_int, run_attention_calibrated_int_on, IntAttentionRun,
};
use paro_core::ldz;
use paro_core::pipeline::{attention_map, AttentionInputs};
use paro_core::pool::ComputePool;
use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
use paro_model::TokenGrid;
use paro_quant::{
    fake_quant_2d, fake_quant_blocks, packed_attn_v_with, Bitwidth, BlockGrid, Grouping,
    MixedPrecisionMap, PackedRow, PerColCodes, RowCounts, SymmetricInt8,
};
use paro_tensor::kernel::Kernel;
use paro_tensor::Tensor;

/// `Σ_j a[j] · b[j]` of two INT8 code rows, in i32.
fn dot(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// The whole `[n, n]` map as the int path scored it before fusion: one
/// score buffer, −∞ for bypassed blocks, and a masked softmax that turns
/// an all-−∞ row into zeros (output-aware); or one dense `QKᵀ` and
/// `Tensor::softmax_rows` (exact). The integer dot products are plain
/// loops, independent of the score kernels.
fn whole_map(
    q: &Tensor,
    k: &Tensor,
    grid: BlockGrid,
    bits: Option<&[Bitwidth]>,
    kernel: Kernel,
) -> Tensor {
    let (n, d) = (q.shape()[0], q.shape()[1]);
    let sq = SymmetricInt8::quantize_rowwise_with(q, kernel).unwrap();
    let sk = SymmetricInt8::quantize_rowwise_with(k, kernel).unwrap();
    let scale = 1.0 / (d as f32).sqrt();
    let Some(bits) = bits else {
        let scores = (0..n * n)
            .map(|i| {
                let (r, c) = (i / n, i % n);
                let acc = dot(sq.row_codes(r), sk.row_codes(c));
                acc as f32 * sq.scales()[r] * sk.scales()[c] * scale
            })
            .collect();
        return Tensor::from_vec(&[n, n], scores)
            .unwrap()
            .softmax_rows()
            .unwrap();
    };
    let (gr, gc) = grid.grid_dims(n, n);
    let mut scores = vec![f32::NEG_INFINITY; n * n];
    for bi in 0..gr {
        for bj in 0..gc {
            let b = bits[bi * gc + bj];
            if b == Bitwidth::B0 {
                continue;
            }
            let (r0, c0, h, w) = grid.block_bounds(bi, bj, n, n);
            for c in c0..c0 + w {
                let key = ldz::truncate_slice(sk.row_codes(c), b.bits());
                for r in r0..r0 + h {
                    let acc = dot(sq.row_codes(r), &key);
                    scores[r * n + c] = acc as f32 * sq.scales()[r] * sk.scales()[c] * scale;
                }
            }
        }
    }
    for row in scores.chunks_exact_mut(n) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            row.fill(0.0);
            continue;
        }
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            if *v == f32::NEG_INFINITY {
                *v = 0.0;
            } else {
                *v = (*v - max).exp();
                sum += *v;
            }
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    Tensor::from_vec(&[n, n], scores).unwrap()
}

/// Fraction of exact zeros in a dense map.
fn dense_zero_fraction(map: &Tensor) -> f32 {
    let zeros = map.as_slice().iter().filter(|&&x| x == 0.0).count();
    zeros as f32 / map.len() as f32
}

/// The pre-fusion composition: quantize `Q`/`K` per token, reorder,
/// quantize `V`, whole map, `MixedPrecisionMap::quantize`,
/// `packed_attn_v`, inverse reorder.
fn composed(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    kernel: Kernel,
) -> (Vec<u32>, f32, [u64; 5]) {
    let int8 = |t: &Tensor| fake_quant_2d(t, Grouping::PerRow, Bitwidth::B8).unwrap().0;
    let plan = cal.plan(inputs.grid());
    let qr = plan.apply(&int8(inputs.q())).unwrap();
    let kr = plan.apply(&int8(inputs.k())).unwrap();
    let vq = PerColCodes::quantize(&plan.apply(inputs.v()).unwrap(), Bitwidth::B8).unwrap();
    let bits = &cal.allocation.bits;
    let map = whole_map(&qr, &kr, cal.block, output_aware.then_some(bits), kernel);
    let packed = MixedPrecisionMap::quantize_with(&map, cal.block, bits, kernel).unwrap();
    let dequantized = packed.dequantize().unwrap();
    // The packed codes are the float path's fake quantization, bit for bit.
    assert_eq!(
        dequantized,
        fake_quant_blocks(&map, cal.block, bits).unwrap().0
    );
    let attn = packed_attn_v_with(&packed, &vq, kernel).unwrap();
    let output = plan.invert(&attn.output).unwrap();
    (
        output.as_slice().iter().map(|x| x.to_bits()).collect(),
        dense_zero_fraction(&dequantized),
        [
            attn.packed_map_bytes,
            vq.payload_bytes() as u64,
            attn.executed_macs,
            attn.dense_macs,
            attn.skipped_blocks as u64,
        ],
    )
}

/// Asserts the fused run equals the composition on `kernel`.
fn assert_fused_matches(
    inputs: &AttentionInputs,
    cal: &HeadCalibration,
    output_aware: bool,
    kernel: Kernel,
    what: &str,
) -> IntAttentionRun {
    let fused = run_attention_calibrated_int_on(inputs, cal, output_aware, Deadline::NONE, kernel)
        .unwrap_or_else(|e| panic!("{what}: fused run failed: {e}"));
    let (output, sparsity, counts) = composed(inputs, cal, output_aware, kernel);
    let what = format!("{what} output_aware={output_aware} kernel={kernel}");
    let got: Vec<u32> = fused
        .run
        .output
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(got, output, "{what}: output bits");
    assert_eq!(
        fused.run.map_sparsity.to_bits(),
        sparsity.to_bits(),
        "{what}: map_sparsity {} vs {sparsity}",
        fused.run.map_sparsity
    );
    let s = fused.stats;
    assert_eq!(
        [
            s.packed_map_bytes,
            s.v_payload_bytes,
            s.executed_macs,
            s.dense_macs,
            s.skipped_blocks as u64,
        ],
        counts,
        "{what}: [packed_map_bytes, v_payload_bytes, executed_macs, dense_macs, skipped_blocks]"
    );
    assert_eq!(s.kernel, kernel.as_str(), "{what}: kernel name");
    assert_eq!(fused.run.avg_bits, cal.allocation.avg_bits);
    assert_eq!(fused.run.allocation.as_ref(), Some(&cal.allocation));
    fused
}

/// A head of `d` dimensions on `grid` plus a calibration from two other
/// samples of the same pattern, at `edge`-token blocks and a
/// `budget`-bit allocation.
fn case(
    grid: TokenGrid,
    d: usize,
    edge: usize,
    budget: f32,
    seed: u64,
) -> (AttentionInputs, HeadCalibration) {
    let spec = PatternSpec::new(PatternKind::Temporal);
    let head = synthesize_head(&grid, d, &spec, seed);
    let inputs = AttentionInputs::new(head.q, head.k, head.v, grid).unwrap();
    let maps: Vec<Tensor> = (0..2)
        .map(|s| {
            let other = synthesize_head(&grid, d, &spec, 500 + seed + s);
            attention_map(&other.q, &other.k).unwrap()
        })
        .collect();
    let block = BlockGrid::square(edge).unwrap();
    let cal = calibrate_head(&maps, &grid, block, Bitwidth::B4, budget, 0.5).unwrap();
    (inputs, cal)
}

/// `cal` with its allocation replaced by `bits`.
fn with_bits(cal: &HeadCalibration, bits: Vec<Bitwidth>) -> HeadCalibration {
    let mut cal = cal.clone();
    cal.allocation.avg_bits =
        bits.iter().map(|b| b.bits() as f32).sum::<f32>() / bits.len().max(1) as f32;
    cal.allocation.bits = bits;
    cal
}

#[test]
fn fused_matches_composition_in_both_modes_on_every_kernel() {
    // 64 tokens at 4-token blocks: a mixed 2/4/8-bit plan with 0-bit
    // blocks from the tight budget.
    let (inputs, cal) = case(TokenGrid::new(4, 4, 4), 16, 4, 3.0, 21);
    assert!(cal.allocation.bits.contains(&Bitwidth::B0));
    for output_aware in [false, true] {
        for kernel in Kernel::supported() {
            assert_fused_matches(&inputs, &cal, output_aware, kernel, "mixed plan");
        }
    }
}

#[test]
fn fused_matches_composition_on_ragged_block_edges() {
    // 45 tokens at 4- and 7-token blocks: the last block row and column
    // are clipped.
    for (edge, seed) in [(4, 31), (7, 32)] {
        let (inputs, cal) = case(TokenGrid::new(3, 3, 5), 16, edge, 4.8, seed);
        assert_ne!(inputs.tokens() % edge, 0);
        for output_aware in [false, true] {
            for kernel in Kernel::supported() {
                assert_fused_matches(&inputs, &cal, output_aware, kernel, "ragged");
            }
        }
    }
}

#[test]
fn fused_matches_composition_with_all_b0_block_rows() {
    let (inputs, cal) = case(TokenGrid::new(3, 3, 5), 16, 4, 4.8, 41);
    let n = inputs.tokens();
    let (gr, gc) = cal.block.grid_dims(n, n);
    let mut bits = cal.allocation.bits.clone();
    // The first and the clipped last block rows bypass every block.
    for bi in [0, gr - 1] {
        bits[bi * gc..(bi + 1) * gc].fill(Bitwidth::B0);
    }
    // A lone live block in an otherwise bypassed row, at every width.
    bits[gc..2 * gc].fill(Bitwidth::B0);
    bits[gc + 1] = Bitwidth::B2;
    bits[2 * gc..3 * gc].fill(Bitwidth::B0);
    bits[3 * gc - 1] = Bitwidth::B8;
    let cal = with_bits(&cal, bits);
    for output_aware in [false, true] {
        for kernel in Kernel::supported() {
            let run = assert_fused_matches(&inputs, &cal, output_aware, kernel, "B0 rows");
            assert!(run.run.output.as_slice().iter().all(|x| x.is_finite()));
        }
    }
}

#[test]
fn fused_matches_composition_on_an_all_b0_plan() {
    let (inputs, cal) = case(TokenGrid::new(4, 4, 4), 16, 4, 4.8, 51);
    let cal = with_bits(&cal, vec![Bitwidth::B0; cal.allocation.bits.len()]);
    for output_aware in [false, true] {
        for kernel in Kernel::supported() {
            let run = assert_fused_matches(&inputs, &cal, output_aware, kernel, "all B0");
            assert!(run.run.output.as_slice().iter().all(|&x| x == 0.0));
            assert_eq!(run.stats.executed_macs, 0);
            assert_eq!(run.stats.packed_map_bytes, 0);
            assert_eq!(run.run.map_sparsity, 1.0);
        }
    }
}

#[test]
fn fused_runs_are_identical_at_pool_widths_one_and_three() {
    // 105 tokens at 4-token blocks: three block-row ranges, so each head
    // is split. The heads run as jobs on pools of one and three threads,
    // and each shares its ranges with the global pool's idle workers
    // (CI runs this suite with that pool at one and at three threads).
    let (inputs, cal) = case(TokenGrid::new(3, 5, 7), 16, 4, 4.8, 61);
    for output_aware in [false, true] {
        let direct = run_attention_calibrated_int(&inputs, &cal, output_aware).unwrap();
        let kernel = paro_tensor::kernel::active_kernel();
        assert_fused_matches(&inputs, &cal, output_aware, kernel, "split head");
        for threads in [1, 3] {
            let pool = ComputePool::new(threads);
            let jobs = (0..3)
                .map(|_| {
                    let (inputs, cal) = (inputs.clone(), cal.clone());
                    Box::new(move || {
                        run_attention_calibrated_int(&inputs, &cal, output_aware).unwrap()
                    }) as Box<dyn FnOnce() -> IntAttentionRun + Send>
                })
                .collect();
            for run in pool.run_many(jobs) {
                assert_eq!(run, direct, "threads={threads} output_aware={output_aware}");
            }
        }
    }
}

/// `RowCounts::zero_elems`, counted while quantizing, equals the dense
/// zero count of the dequantized map: every element of a 0-bit block
/// plus every code at its block's zero point.
#[test]
fn zero_counts_match_dense_count_of_dequantized_map() {
    let n = 18;
    let map = Tensor::from_fn(&[n, n], |i| {
        if i[0] / 4 == i[1] / 4 {
            0.2 + 0.01 * ((i[0] + i[1]) % 5) as f32
        } else {
            0.002 + 0.0005 * ((i[0] * 3 + i[1]) % 7) as f32 - 0.003 * (i[1] % 2) as f32
        }
    });
    let grid = BlockGrid::square(4).unwrap();
    let (gr, gc) = grid.grid_dims(n, n);
    let bits: Vec<Bitwidth> = (0..gr * gc)
        .map(|i| [Bitwidth::B8, Bitwidth::B4, Bitwidth::B2, Bitwidth::B0][i % 4])
        .collect();
    for kernel in Kernel::supported() {
        let mut row = PackedRow::new();
        let mut counts = RowCounts::default();
        for bi in 0..gr {
            let (r0, _, h, _) = grid.block_bounds(bi, 0, n, n);
            let panel = &map.as_slice()[r0 * n..(r0 + h) * n];
            counts += row
                .quantize(panel, n, grid, &bits[bi * gc..(bi + 1) * gc], kernel)
                .unwrap();
        }
        let dense = MixedPrecisionMap::quantize_with(&map, grid, &bits, kernel)
            .unwrap()
            .dequantize()
            .unwrap();
        let zeros = dense.as_slice().iter().filter(|&&v| v == 0.0).count() as u64;
        assert_eq!(counts.zero_elems, zeros, "kernel={kernel}");
        assert!(zeros > 0, "B0 blocks guarantee zeros");
        let live = bits.iter().filter(|&&b| b != Bitwidth::B0).count();
        assert_eq!(counts.skipped_blocks, bits.len() - live);
    }
}

/// The workloads' shape: `d = 64` and 6-token blocks, plus 5-token
/// blocks whose block columns start at odd keys, on a ragged `n`, with
/// every width and 0-bit blocks spread over the plan, so 8-key score
/// groups straddle width changes and bypassed blocks. In both modes every
/// kernel matches the composition, and the dispatched kernel's outputs,
/// sparsity and counts equal the scalar reference's bit for bit.
#[test]
fn fused_matches_scalar_at_the_production_shape() {
    let widths = [Bitwidth::B0, Bitwidth::B2, Bitwidth::B4, Bitwidth::B8];
    for (edge, seed) in [(6, 81), (5, 82)] {
        // 189 tokens: the last block column holds 3 of 6 or 4 of 5 keys.
        let (inputs, cal) = case(TokenGrid::new(3, 7, 9), 64, edge, 4.8, seed);
        assert_ne!(inputs.tokens() % edge, 0);
        let mut bits = cal.allocation.bits.clone();
        for (i, b) in bits.iter_mut().enumerate().step_by(7) {
            *b = widths[(i / 7) % 4];
        }
        let cal = with_bits(&cal, bits);
        for output_aware in [false, true] {
            let what = format!("edge={edge}");
            let want = assert_fused_matches(&inputs, &cal, output_aware, Kernel::Scalar, &what);
            for kernel in Kernel::supported() {
                let got = assert_fused_matches(&inputs, &cal, output_aware, kernel, &what);
                let bits = |run: &IntAttentionRun| -> Vec<u32> {
                    run.run
                        .output
                        .as_slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect()
                };
                let what = format!("{what} output_aware={output_aware} kernel={kernel}");
                assert_eq!(bits(&got), bits(&want), "{what}: output bits vs scalar");
                assert_eq!(
                    got.run.map_sparsity.to_bits(),
                    want.run.map_sparsity.to_bits(),
                    "{what}: map_sparsity vs scalar"
                );
                let counts = |run: &IntAttentionRun| {
                    let s = run.stats;
                    [
                        s.packed_map_bytes,
                        s.v_payload_bytes,
                        s.executed_macs,
                        s.dense_macs,
                    ]
                };
                assert_eq!(counts(&got), counts(&want), "{what}: counts vs scalar");
                assert_eq!(got.stats.skipped_blocks, want.stats.skipped_blocks);
            }
        }
    }
}
