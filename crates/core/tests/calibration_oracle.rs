//! Pins calibration to the whole-map composition it is defined by.
//!
//! `select_plan`, `calibrate_head` and `SensitivityTable::compute` score
//! block rows straight from the canonical maps through each order's
//! permutation. The oracle here builds what they stand for from public
//! whole-map calls: `reorder_map`, `fake_quant_2d(.., Block)` and
//! `metrics::relative_l2` per candidate, the averaged reordered map from
//! `Tensor::add`/`scale`, then `SensitivityTable::compute` and
//! `allocate_greedy`. Every candidate error and every `HeadCalibration`
//! must match it bit for bit — on ragged and rectangular block grids, one
//! to three samples, every calibration width, `α` and budget extremes,
//! near-uniform maps whose zero points pass 2³⁰, constant and all-zero
//! blocks, and from inside a pool job — and every invalid input must fail
//! with the oracle's error. `SensitivityTable::compute` is pinned to a
//! plain per-block loop, and three calibrations to fingerprints of their
//! serde form recorded before the block-row scorer existed.

use paro_core::allocate::allocate_greedy;
use paro_core::calibration::{calibrate_head, plan_stability, HeadCalibration};
use paro_core::exec::rms_norm;
use paro_core::pipeline::attention_map;
use paro_core::pool::ComputePool;
use paro_core::reorder::{reorder_map, select_plan, ReorderPlan};
use paro_core::sensitivity::SensitivityTable;
use paro_core::CoreError;
use paro_model::dit::SyntheticDit;
use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
use paro_model::{AxisOrder, ModelConfig, TokenGrid};
use paro_quant::{fake_quant_2d, Bitwidth, BlockGrid, Grouping, QuantParams};
use paro_tensor::rng::{derive_seed, seeded};
use paro_tensor::{metrics, Tensor};
use rand::distributions::Uniform;

const ALPHAS: [f32; 3] = [0.0, 0.5, 1.0];
const BUDGETS: [f32; 3] = [0.0, 4.8, 8.0];

/// Every candidate's whole-map error: the reordered map against its own
/// block-wise fake quantization.
fn oracle_errors(map: &Tensor, grid: &TokenGrid, block: BlockGrid, bits: Bitwidth) -> Vec<f32> {
    AxisOrder::ALL
        .iter()
        .map(|&order| {
            let reordered = reorder_map(map, &ReorderPlan::new(grid, order)).unwrap();
            let (quantized, _) = fake_quant_2d(&reordered, Grouping::Block(block), bits).unwrap();
            metrics::relative_l2(&reordered, &quantized).unwrap()
        })
        .collect()
}

/// The element-wise mean of the maps reordered by `order`.
fn oracle_average(maps: &[Tensor], grid: &TokenGrid, order: AxisOrder) -> Tensor {
    let plan = ReorderPlan::new(grid, order);
    let mut avg: Option<Tensor> = None;
    for map in maps {
        let reordered = reorder_map(map, &plan).unwrap();
        avg = Some(match avg {
            None => reordered,
            Some(acc) => acc.add(&reordered).unwrap(),
        });
    }
    avg.unwrap().scale(1.0 / maps.len() as f32)
}

/// The whole-map calibration, with its checks in their order: empty
/// maps, each map's shape, then `α` and the budget.
fn oracle_calibrate(
    maps: &[Tensor],
    grid: &TokenGrid,
    block: BlockGrid,
    bits: Bitwidth,
    budget: f32,
    alpha: f32,
) -> Result<HeadCalibration, CoreError> {
    if maps.is_empty() {
        return Err(CoreError::EmptyAllocation);
    }
    let n = grid.len();
    let mut sums = [0.0f32; 6];
    for map in maps {
        if map.rank() != 2 || map.shape() != [n, n] {
            return Err(CoreError::GridMismatch {
                tokens: map.shape().first().copied().unwrap_or(0),
                grid_len: n,
            });
        }
        for (sum, e) in sums.iter_mut().zip(oracle_errors(map, grid, block, bits)) {
            *sum += e;
        }
    }
    let (o, total) = sums
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let avg = oracle_average(maps, grid, AxisOrder::ALL[o]);
    let table = SensitivityTable::compute(&avg, block, alpha)?;
    Ok(HeadCalibration {
        order: AxisOrder::ALL[o],
        block,
        allocation: allocate_greedy(&table, budget)?,
        mean_error: total / maps.len() as f32,
    })
}

/// A calibration with its floats as bits, so `-0`, `0` and NaN compare
/// exactly.
fn bits_of(cal: &HeadCalibration) -> (AxisOrder, BlockGrid, Vec<Bitwidth>, [u32; 3]) {
    let a = &cal.allocation;
    (
        cal.order,
        cal.block,
        a.bits.clone(),
        [
            a.avg_bits.to_bits(),
            a.total_cost.to_bits(),
            cal.mean_error.to_bits(),
        ],
    )
}

fn assert_same(
    got: &Result<HeadCalibration, CoreError>,
    want: &Result<HeadCalibration, CoreError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(bits_of(g), bits_of(w), "{what}"),
        // Debug text compares a NaN payload (`α` = NaN) too.
        _ => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}"),
    }
}

/// The maps of one synthetic head: `samples` seeds of `kind` on `grid`,
/// with `Q` scaled by `q_scale` (a small scale flattens the softmax).
fn head_maps(grid: &TokenGrid, kind: PatternKind, samples: u64, q_scale: f32) -> Vec<Tensor> {
    (0..samples)
        .map(|s| {
            let h = synthesize_head(grid, 32, &PatternSpec::new(kind), 70 + s);
            attention_map(&h.q.scale(q_scale), &h.k).unwrap()
        })
        .collect()
}

/// Checks every candidate error of every map and every calibration over
/// `bits × α × budget` against the oracle.
fn check(
    what: &str,
    maps: &[Tensor],
    grid: &TokenGrid,
    block: BlockGrid,
    widths: &[Bitwidth],
    alphas: &[f32],
    budgets: &[f32],
) {
    for &bits in widths {
        let mut sums = [0.0f32; 6];
        for (s, map) in maps.iter().enumerate() {
            let want = oracle_errors(map, grid, block, bits);
            let got = select_plan(map, grid, block, bits).unwrap();
            let got_bits: Vec<u32> = got.candidate_errors.iter().map(|e| e.1.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|e| e.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{what}: sample {s} at {bits}");
            for (sum, e) in sums.iter_mut().zip(want) {
                *sum += e;
            }
        }
        let (o, total) = sums
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let avg = oracle_average(maps, grid, AxisOrder::ALL[o]);
        for &alpha in alphas {
            let table = SensitivityTable::compute(&avg, block, alpha).unwrap();
            for &budget in budgets {
                let want = allocate_greedy(&table, budget).map(|allocation| HeadCalibration {
                    order: AxisOrder::ALL[o],
                    block,
                    allocation,
                    mean_error: total / maps.len() as f32,
                });
                let got = calibrate_head(maps, grid, block, bits, budget, alpha);
                assert_same(
                    &got,
                    &want,
                    &format!("{what}: {bits} α={alpha} budget={budget}"),
                );
            }
        }
    }
}

#[test]
fn production_head_matches_the_whole_map_path() {
    let grid = TokenGrid::new(6, 12, 16);
    let maps = head_maps(&grid, PatternKind::Temporal, 1, 1.0);
    let block = BlockGrid::square(6).unwrap();
    check(
        "6x12x16",
        &maps,
        &grid,
        block,
        &[Bitwidth::B4],
        &[0.5],
        &[4.8],
    );
}

#[test]
fn serve_shape_matches_over_alpha_and_budget() {
    let grid = TokenGrid::new(6, 8, 8);
    let maps = head_maps(&grid, PatternKind::SpatialCol, 2, 1.0);
    let block = BlockGrid::square(6).unwrap();
    check(
        "6x8x8",
        &maps,
        &grid,
        block,
        &[Bitwidth::B4],
        &ALPHAS,
        &BUDGETS,
    );
    let other = [Bitwidth::B0, Bitwidth::B2, Bitwidth::B8];
    check("6x8x8", &maps, &grid, block, &other, &[0.5], &[4.8]);
}

#[test]
fn ragged_and_rectangular_grids_match_everywhere() {
    let cases = [
        (TokenGrid::new(3, 5, 7), BlockGrid::square(6).unwrap()),
        (TokenGrid::new(2, 3, 5), BlockGrid::square(4).unwrap()),
        (TokenGrid::new(3, 5, 7), BlockGrid::new(4, 6).unwrap()),
        (TokenGrid::new(2, 3, 5), BlockGrid::new(6, 4).unwrap()),
        // Fewer tokens than one block edge: one clipped block.
        (TokenGrid::new(1, 2, 2), BlockGrid::square(6).unwrap()),
    ];
    for (grid, block) in cases {
        for samples in 1..=3 {
            let maps = head_maps(&grid, PatternKind::SpatialRow, samples, 1.0);
            let what = format!("{grid:?} {block:?} ×{samples}");
            check(
                &what,
                &maps,
                &grid,
                block,
                &Bitwidth::ALL,
                &ALPHAS,
                &BUDGETS,
            );
        }
    }
}

/// Near-uniform heads give near-flat blocks, whose zero points pass 2³⁰
/// at B8 (the kernel's scalar lanes); constant and all-zero blocks take
/// calibration's degenerate branch.
#[test]
fn near_uniform_constant_and_zero_blocks_match() {
    let grid = TokenGrid::new(3, 5, 7);
    let block = BlockGrid::square(6).unwrap();
    for q_scale in [1e-5, 1e-7, 0.0] {
        let maps = head_maps(&grid, PatternKind::Temporal, 2, q_scale);
        let wide = AxisOrder::ALL.iter().any(|&order| {
            let reordered = reorder_map(&maps[0], &ReorderPlan::new(&grid, order)).unwrap();
            let (_, params) =
                fake_quant_2d(&reordered, Grouping::Block(block), Bitwidth::B8).unwrap();
            params
                .iter()
                .any(|p| p.zero_point().unsigned_abs() > 1 << 30)
        });
        if q_scale == 1e-7 {
            assert!(wide, "Q × {q_scale} must reach zero points past 2³⁰");
        }
        check(
            &format!("Q × {q_scale}"),
            &maps,
            &grid,
            block,
            &Bitwidth::ALL,
            &ALPHAS,
            &[4.8],
        );
    }
    // Rows of zeros, constant stripes and an all-zero map.
    let n = grid.len();
    let striped = Tensor::from_fn(&[n, n], |i| match (i[0] % 5, (i[1] / 6) % 3) {
        (0, _) => 0.0,
        (_, 1) => 0.25,
        _ => ((i[0] * 7 + i[1] * 3) % 11) as f32 * 0.01,
    });
    let zeros = Tensor::zeros(&[n, n]);
    for maps in [
        vec![striped.clone()],
        vec![zeros.clone()],
        vec![striped, zeros],
    ] {
        check(
            "constant/zero blocks",
            &maps,
            &grid,
            block,
            &Bitwidth::ALL,
            &ALPHAS,
            &BUDGETS,
        );
    }
}

/// A call nested in a pool job (its batches share idle workers or run
/// inline) freezes the plan a plain thread does.
#[test]
fn calibration_inside_a_pool_job_matches_a_plain_thread() {
    let grid = TokenGrid::new(6, 8, 8);
    let block = BlockGrid::square(6).unwrap();
    let run = move || {
        let maps = head_maps(&grid, PatternKind::Temporal, 2, 1.0);
        calibrate_head(&maps, &grid, block, Bitwidth::B4, 4.8, 0.5).unwrap()
    };
    let plain = std::thread::spawn(run).join().unwrap();
    let pooled = ComputePool::global().run(run);
    let own_pool = ComputePool::new(2).run(run);
    assert_eq!(bits_of(&plain), bits_of(&pooled));
    assert_eq!(bits_of(&plain), bits_of(&own_pool));
    let maps = head_maps(&grid, PatternKind::Temporal, 2, 1.0);
    let want = oracle_calibrate(&maps, &grid, block, Bitwidth::B4, 4.8, 0.5).unwrap();
    assert_eq!(bits_of(&plain), bits_of(&want));
}

/// The sensitivity table is the paper's score computed block by block
/// with the public quantizer, on square, rectangular and ragged grids.
#[test]
fn sensitivity_table_matches_a_plain_block_loop() {
    let grid = TokenGrid::new(3, 5, 7);
    let map = &head_maps(&grid, PatternKind::SpatialCol, 1, 1.0)[0];
    let flat = &head_maps(&grid, PatternKind::SpatialCol, 1, 1e-7)[0];
    let wide = Tensor::from_fn(&[10, 23], |i| {
        ((i[0] * 5 + i[1] * 3) % 7) as f32 * 0.1 - 0.2
    });
    for (map, block) in [
        (map, BlockGrid::square(6).unwrap()),
        (map, BlockGrid::new(4, 6).unwrap()),
        (flat, BlockGrid::square(4).unwrap()),
        (&wide, BlockGrid::new(3, 4).unwrap()),
    ] {
        let (m, n) = (map.shape()[0], map.shape()[1]);
        let (gr, gc) = block.grid_dims(m, n);
        for alpha in ALPHAS {
            let table = SensitivityTable::compute(map, block, alpha).unwrap();
            assert_eq!(table.len(), gr * gc);
            for bi in 0..gr {
                for bj in 0..gc {
                    let (r0, c0, h, w) = block.block_bounds(bi, bj, m, n);
                    let values = map.block(r0, c0, h, w).unwrap();
                    let values = values.as_slice();
                    let importance: f32 = values.iter().map(|x| x.abs()).sum();
                    let mut running_min = f32::INFINITY;
                    for bits in Bitwidth::ALL {
                        let p = QuantParams::calibrate_minmax(values, bits);
                        let difficulty = p.sq_error(values).sqrt();
                        let s = importance.powf(alpha) * difficulty.powf(1.0 - alpha);
                        running_min = running_min.min(s);
                        let got = table.score(bi * gc + bj, bits);
                        assert_eq!(
                            got.to_bits(),
                            running_min.to_bits(),
                            "block ({bi}, {bj}) at {bits}, α={alpha}: {got} vs {running_min}"
                        );
                    }
                    assert_eq!(table.block_elems(bi * gc + bj), h * w);
                }
            }
        }
    }
}

/// Every invalid input fails with the oracle's error, checked in the
/// oracle's order.
#[test]
fn invalid_inputs_fail_like_the_oracle() {
    let grid = TokenGrid::new(2, 3, 5);
    let block = BlockGrid::square(4).unwrap();
    let good = head_maps(&grid, PatternKind::Temporal, 1, 1.0).remove(0);
    let short = Tensor::zeros(&[29, 30]);
    let rank1 = Tensor::zeros(&[30]);
    let rank3 = Tensor::zeros(&[30, 30, 1]);
    let cases: Vec<(Vec<Tensor>, f32, f32)> = vec![
        (vec![], 4.8, 0.5),
        (vec![], 9.0, 2.0),
        (vec![short.clone()], 4.8, 0.5),
        (vec![good.clone(), short.clone()], 4.8, 0.5),
        (vec![good.clone(), rank1.clone()], 9.0, f32::NAN),
        (vec![rank3.clone(), short.clone()], 4.8, 0.5),
        (vec![good.clone()], 4.8, 1.5),
        (vec![good.clone()], 4.8, -0.1),
        (vec![good.clone()], 4.8, f32::NAN),
        (vec![good.clone()], 9.0, 1.5),
        (vec![good.clone()], 8.5, 0.5),
        (vec![good.clone()], -1.0, 0.5),
        (vec![good.clone()], f32::NAN, 0.5),
        (vec![good.clone(), good.clone()], f32::INFINITY, 1.0),
    ];
    for (maps, budget, alpha) in &cases {
        let got = calibrate_head(maps, &grid, block, Bitwidth::B4, *budget, *alpha);
        let want = oracle_calibrate(maps, &grid, block, Bitwidth::B4, *budget, *alpha);
        assert!(want.is_err(), "case must be invalid: {budget} {alpha}");
        assert_same(
            &got,
            &want,
            &format!("{} maps, budget {budget}, α {alpha}", maps.len()),
        );
    }
    let mismatch = |tokens| {
        Err::<(), _>(CoreError::GridMismatch {
            tokens,
            grid_len: 30,
        })
    };
    for (map, tokens) in [(&short, 29), (&rank1, 30), (&rank3, 30)] {
        let sel = select_plan(map, &grid, block, Bitwidth::B4).map(|_| ());
        assert_eq!(sel, mismatch(tokens));
        let stability = plan_stability(&[good.clone(), map.clone()], &grid, block, Bitwidth::B4);
        assert_eq!(stability.map(|_| ()), mismatch(tokens));
    }
    assert_eq!(
        plan_stability(&[], &grid, block, Bitwidth::B4).map(|_| ()),
        Err(CoreError::EmptyAllocation)
    );
    // The table checks `α` before the rank.
    for (map, alpha) in [(&rank1, 0.5), (&rank1, 1.5), (&good, -1.0)] {
        let got = SensitivityTable::compute(map, block, alpha).map(|_| ());
        let want = if (0.0..=1.0).contains(&alpha) {
            Err(CoreError::Quant(paro_quant::QuantError::Tensor(
                paro_tensor::TensorError::RankMismatch {
                    expected: 2,
                    actual: 1,
                },
            )))
        } else {
            Err(CoreError::BadBudget { budget: alpha })
        };
        assert_eq!(got, want);
    }
}

/// FNV-1a over the serde-JSON form: any byte difference changes it.
fn fingerprint(cal: &HeadCalibration) -> u64 {
    let json = serde_json::to_string(cal).unwrap();
    json.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One head of a one-block synthetic DiT at the `dit_block` shape: the
/// map of head 1 on normalized uniform content.
fn dit_head_map() -> (TokenGrid, Tensor) {
    let cfg = ModelConfig {
        name: "DiT-block-256".into(),
        blocks: 1,
        hidden: 256,
        heads: 4,
        ffn_mult: 4,
        grid: TokenGrid::new(6, 12, 16),
        text_tokens: 0,
        steps: 1,
    };
    let (n, hd) = (cfg.total_tokens(), cfg.head_dim());
    let dit = SyntheticDit::build(&cfg, derive_seed(5, 1));
    let content = Tensor::random(
        &[n, cfg.hidden],
        &Uniform::new(-0.5f32, 0.5),
        &mut seeded(derive_seed(5, 2)),
    );
    let x = rms_norm(&content.add(dit.positional()).unwrap());
    let block = &dit.blocks()[0];
    let q = x.matmul(&block.w_q).unwrap().block(0, hd, n, hd).unwrap();
    let k = x.matmul(&block.w_k).unwrap().block(0, hd, n, hd).unwrap();
    (cfg.grid, attention_map(&q, &k).unwrap())
}

/// Two calibration samples of a serving pair on the 384-token grid, as
/// the synthetic calibration source draws them.
fn serve_pair_maps() -> (TokenGrid, Vec<Tensor>) {
    let grid = TokenGrid::new(6, 8, 8);
    let (block, head, heads) = (1, 2, 30);
    let pattern = PatternSpec::for_head_phase(&grid, block, head, 0);
    let pair = (block * heads + head) as u64;
    let maps = (0..2u64)
        .map(|s| {
            let h = synthesize_head(&grid, 64, &pattern, derive_seed(7, 0xca11b + pair * 97 + s));
            attention_map(&h.q, &h.k).unwrap()
        })
        .collect();
    (grid, maps)
}

#[test]
fn calibrations_keep_their_recorded_fingerprints() {
    let edge6 = BlockGrid::square(6).unwrap();
    let (grid, map) = dit_head_map();
    let dit = calibrate_head(&[map], &grid, edge6, Bitwidth::B4, 4.8, 0.5).unwrap();
    let (grid, maps) = serve_pair_maps();
    let serve = calibrate_head(&maps, &grid, edge6, Bitwidth::B4, 4.8, 0.5).unwrap();
    let grid = TokenGrid::new(3, 5, 7);
    let maps = head_maps(&grid, PatternKind::SpatialRow, 3, 1.0);
    let edge4 = BlockGrid::square(4).unwrap();
    let three = calibrate_head(&maps, &grid, edge4, Bitwidth::B4, 4.8, 0.5).unwrap();
    let got = [fingerprint(&dit), fingerprint(&serve), fingerprint(&three)];
    // Recorded from the whole-map implementation this scorer replaced.
    let want = [
        0x4f9b_5e9f_cc30_4032,
        0x5757_d239_86a9_805d,
        0x8c65_b81a_bca3_693c,
    ];
    assert_eq!(
        got, want,
        "dit head, serve pair, 3-sample head: {got:#018x?}"
    );
}
