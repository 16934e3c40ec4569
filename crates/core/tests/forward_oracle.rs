//! `exec::forward` and `exec::forward_calibrated` run their dense layers
//! as row panels on the compute pool, with one activation quant shared by
//! Q/K/V and each block's weights quantized once. This oracle rebuilds
//! the forward one layer at a time from public calls on the calling
//! thread — `fake_quant_2d`, `matmul_with` on the scalar kernel, an
//! element-wise GELU and per-head attention — and requires both passes
//! to equal it bit for bit. CI runs it on a one-thread pool as well
//! (`PARO_POOL_THREADS=1`), where the whole sequence is one panel.

use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::exec::{forward, forward_calibrated, rms_norm, ForwardOptions};
use paro_core::methods::AttentionMethod;
use paro_core::pipeline::{
    attention_map, run_attention, run_attention_calibrated, AttentionInputs,
};
use paro_core::pool::ComputePool;
use paro_model::dit::SyntheticDit;
use paro_model::ModelConfig;
use paro_quant::{fake_quant_2d, Bitwidth, BlockGrid, Grouping};
use paro_tensor::rng::seeded;
use paro_tensor::{Kernel, Tensor};
use rand::distributions::Uniform;

/// How the oracle's heads attend.
enum Attend<'a> {
    Online(AttentionMethod),
    Calibrated(&'a [Vec<HeadCalibration>]),
}

/// The tanh GELU `exec` applies between the FFN projections.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

/// One linear layer: per-row activations and per-column weights
/// fake-quantized at `bits` (or neither), then the scalar matmul.
fn linear(x: &Tensor, w: &Tensor, bits: Option<Bitwidth>) -> Tensor {
    let Some(bits) = bits else {
        return x.matmul_with(w, Kernel::Scalar).unwrap();
    };
    let xq = fake_quant_2d(x, Grouping::PerRow, bits).unwrap().0;
    let wq = fake_quant_2d(w, Grouping::PerCol, bits).unwrap().0;
    xq.matmul_with(&wq, Kernel::Scalar).unwrap()
}

fn oracle(dit: &SyntheticDit, content: &Tensor, bits: Option<Bitwidth>, attend: &Attend) -> Tensor {
    let cfg = dit.config();
    let (n, d, hd) = (cfg.total_tokens(), cfg.hidden, cfg.head_dim());
    let mut x = content.add(dit.positional()).unwrap();
    for (bi, block) in dit.blocks().iter().enumerate() {
        let normed = rms_norm(&x);
        let q = linear(&normed, &block.w_q, bits);
        let k = linear(&normed, &block.w_k, bits);
        let v = linear(&normed, &block.w_v, bits);
        let mut attn = Tensor::zeros(&[n, d]);
        for h in 0..cfg.heads {
            let inputs = AttentionInputs::with_text(
                q.block(0, h * hd, n, hd).unwrap(),
                k.block(0, h * hd, n, hd).unwrap(),
                v.block(0, h * hd, n, hd).unwrap(),
                cfg.grid,
                cfg.text_tokens,
            )
            .unwrap();
            let run = match attend {
                Attend::Online(method) => run_attention(&inputs, method),
                Attend::Calibrated(cals) => run_attention_calibrated(&inputs, &cals[bi][h], true),
            }
            .unwrap();
            attn.set_block(0, h * hd, &run.output).unwrap();
        }
        x = x.add(&linear(&attn, &block.w_o, bits)).unwrap();
        let up = linear(&rms_norm(&x), &block.w_ffn_up, bits).map(gelu);
        x = x.add(&linear(&up, &block.w_ffn_down, bits)).unwrap();
    }
    x
}

fn content(cfg: &ModelConfig, seed: u64) -> Tensor {
    Tensor::random(
        &[cfg.total_tokens(), cfg.hidden],
        &Uniform::new(-0.5f32, 0.5),
        &mut seeded(seed),
    )
}

/// Frozen plans for every `(block, head)`, calibrated on the maps of the
/// first projections, as the deployment path would ship them.
fn calibrations(dit: &SyntheticDit) -> Vec<Vec<HeadCalibration>> {
    let cfg = dit.config();
    let (n, hd) = (cfg.total_tokens(), cfg.head_dim());
    let x = rms_norm(&content(cfg, 77).add(dit.positional()).unwrap());
    let block_grid = BlockGrid::square(4).unwrap();
    dit.blocks()
        .iter()
        .map(|block| {
            let q = x.matmul(&block.w_q).unwrap();
            let k = x.matmul(&block.w_k).unwrap();
            (0..cfg.heads)
                .map(|h| {
                    let map = attention_map(
                        &q.block(0, h * hd, n, hd).unwrap(),
                        &k.block(0, h * hd, n, hd).unwrap(),
                    )
                    .unwrap();
                    calibrate_head(&[map], &cfg.grid, block_grid, Bitwidth::B4, 4.8, 0.5).unwrap()
                })
                .collect()
        })
        .collect()
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, case: &str) {
    assert_eq!(got.shape(), want.shape(), "{case}");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{case}: element {i} {x} vs {y}");
    }
}

#[test]
fn row_panel_forwards_match_the_per_layer_oracle_bit_for_bit() {
    let threads = ComputePool::global().threads();
    // 48 visual + 5 text tokens = 53 rows (prime) for the online pass; the
    // frozen plans cover visual tokens only, so the calibrated pass runs
    // a 7×7 grid: 49 rows. Neither splits evenly over a 2..=6-thread
    // pool, so the last panel is short.
    let online = ModelConfig::tiny_with_text(3, 4, 4, 5);
    let frozen = ModelConfig::tiny(1, 7, 7);
    for cfg in [&online, &frozen] {
        let n = cfg.total_tokens();
        assert!(
            threads == 1 || n % threads != 0,
            "{n} rows split evenly over {threads} threads"
        );
    }

    let dit = SyntheticDit::build(&online, 3);
    let x = content(&online, 5);
    let method = AttentionMethod::paro_mixed(4.8);
    for (w8a8, bits) in [
        (false, Bitwidth::B8),
        (true, Bitwidth::B8),
        (true, Bitwidth::B4),
    ] {
        let opts = ForwardOptions {
            method,
            linear_w8a8: w8a8,
            linear_bits: bits,
        };
        let (got, _) = forward(&dit, &x, &opts).unwrap();
        let want = oracle(&dit, &x, w8a8.then_some(bits), &Attend::Online(method));
        assert_bits_eq(&got, &want, &format!("forward w8a8={w8a8} {bits}"));
    }

    let dit = SyntheticDit::build(&frozen, 4);
    let x = content(&frozen, 6);
    let cals = calibrations(&dit);
    for w8a8 in [false, true] {
        let got = forward_calibrated(&dit, &x, &cals, w8a8, true).unwrap();
        let want = oracle(
            &dit,
            &x,
            w8a8.then_some(Bitwidth::B8),
            &Attend::Calibrated(&cals),
        );
        assert_bits_eq(&got, &want, &format!("forward_calibrated w8a8={w8a8}"));
    }
}
