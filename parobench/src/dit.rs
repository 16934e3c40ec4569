//! `dit_block`: one caller runs `exec::forward_calibrated` on a one-block
//! `SyntheticDit` in a closed loop.
//!
//! 4 heads × 64 (hidden 256, FFN ×4) over 6×12×16 = 1,152 tokens, W8A8
//! linears and output-aware `QKᵀ`, with frozen per-head plans calibrated
//! in set-up on separate content (the recipe of the `exec` test
//! `calibrated_forward_matches_online_quality`). It loads what serving
//! skips, with no queue and no serving stack: the `Tensor::matmul` +
//! `fake_quant_2d` linears, `rms_norm`, the LDZ `QKᵀ`, and the pool's
//! per-block fan-out of 4 heads.

use crate::alloc::measure_peak;
use crate::harness::{
    all_finite, bits, closed_loop, highest, mean_rel_l2, repeat_setup, RunCfg, PEAK_REPS,
};
use crate::layers::{add_calibration_layers, b0_share, int_pipeline_layers, HeadCase};
use crate::report::{median, Outcome};
use crate::spans::{SpanId, Tracer};
use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::exec::{forward, forward_calibrated, rms_norm, ForwardOptions};
use paro_core::pipeline::{attention_map, run_attention_calibrated, AttentionInputs, AttentionRun};
use paro_core::pool::ComputePool;
use paro_core::CoreError;
use paro_model::dit::SyntheticDit;
use paro_model::{ModelConfig, TokenGrid};
use paro_quant::{fake_quant_2d, Bitwidth, BlockGrid, Grouping};
use paro_tensor::rng::{derive_seed, seeded};
use paro_tensor::Tensor;
use rand::distributions::Uniform;
use std::hint::black_box;
use std::time::Instant;

const BLOCK_EDGE: usize = 6;
const BUDGET: f32 = 4.8;
const ALPHA: f32 = 0.5;
/// Largest `output_rel_l2` against the f32 forward that passes (measured
/// ~0.005 on this workload).
pub const REL_L2_BOUND: f64 = 0.02;
/// How far the staged replay's median may differ from the direct
/// forward's before the attribution check fails.
const STAGED_TOLERANCE: f64 = 0.15;
/// Distinct contents the loop cycles; `output_rel_l2` is their mean.
const CONTENTS: u64 = 3;

fn model(tiny: bool) -> ModelConfig {
    let (grid, hidden, heads) = if tiny {
        (TokenGrid::new(2, 4, 6), 128, 2)
    } else {
        (TokenGrid::new(6, 12, 16), 256, 4)
    };
    ModelConfig {
        name: format!("DiT-block-{hidden}"),
        blocks: 1,
        hidden,
        heads,
        ffn_mult: 4,
        grid,
        text_tokens: 0,
        steps: 1,
    }
}

fn content(cfg: &ModelConfig, seed: u64) -> Tensor {
    Tensor::random(
        &[cfg.total_tokens(), cfg.hidden],
        &Uniform::new(-0.5f32, 0.5),
        &mut seeded(seed),
    )
}

type Plans = Vec<Vec<HeadCalibration>>;

/// Model build and per-head calibration on the calibration content.
fn setup(
    cfg: &ModelConfig,
    seed: u64,
    calib: &Tensor,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> (SyntheticDit, Plans) {
    let dit = SyntheticDit::build(cfg, seed);
    let n = cfg.total_tokens();
    let hd = cfg.head_dim();
    let x = rms_norm(&calib.add(dit.positional()).expect("shapes agree"));
    let block_grid = BlockGrid::square(BLOCK_EDGE).expect("non-zero edge");
    let plans = dit
        .blocks()
        .iter()
        .map(|block| {
            let q = x.matmul(&block.w_q).expect("shapes agree");
            let k = x.matmul(&block.w_k).expect("shapes agree");
            (0..cfg.heads)
                .map(|h| {
                    let map = {
                        let _s = tracer.span("calibration.maps", parent, h as u64);
                        attention_map(
                            &q.block(0, h * hd, n, hd).expect("head slice"),
                            &k.block(0, h * hd, n, hd).expect("head slice"),
                        )
                        .expect("map")
                    };
                    let _s = tracer.span("calibration.head", parent, h as u64);
                    calibrate_head(&[map], &cfg.grid, block_grid, Bitwidth::B4, BUDGET, ALPHA)
                        .expect("calibration")
                })
                .collect()
        })
        .collect();
    (dit, plans)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let model = model(cfg.tiny);
    // Inputs first, before any clock starts.
    let calib = content(&model, derive_seed(cfg.seed, 2));
    let contents: Vec<Tensor> = (0..CONTENTS)
        .map(|i| content(&model, derive_seed(cfg.seed, 10 + i)))
        .collect();
    let (dit, plans) = repeat_setup(
        &mut out,
        &cfg.tracer,
        |parent| {
            setup(
                &model,
                derive_seed(cfg.seed, 1),
                &calib,
                &cfg.tracer,
                parent,
            )
        },
        |a, b| a == b,
    );
    let forward_frozen =
        |x: &Tensor| forward_calibrated(&dit, x, &plans, true, true).map_err(|e| e.to_string());

    let firsts: Vec<Tensor> = contents
        .iter()
        .map(|x| forward_frozen(x).expect("forward runs"))
        .collect();
    let expected: Vec<Vec<u32>> = firsts.iter().map(bits).collect();
    let mut finite = firsts.iter().all(all_finite);
    let mut identical = true;
    let mut next = 0;
    let lp = closed_loop(
        &cfg.tracer,
        "exec.forward_calibrated",
        cfg.loop_time(),
        contents.len(),
        || {
            let i = next % contents.len();
            next += 1;
            forward_frozen(&contents[i]).map(|y| (i, y))
        },
        |(i, y)| {
            finite &= all_finite(&y);
            identical &= bits(&y) == expected[i];
        },
    );
    lp.report(&mut out, "closed_loop");
    if cfg.traced() {
        lp.report_pool(&mut out);
    }

    let rel = mean_rel_l2(contents.iter().zip(&firsts).map(|(x, y)| {
        let (reference, _) = forward(&dit, x, &ForwardOptions::reference()).expect("f32 forward");
        (reference, y)
    }));
    out.metrics.add("output_rel_l2", "ratio", rel);
    let peaks: Vec<f64> = (0..PEAK_REPS)
        .map(|_| measure_peak(|| forward_frozen(&contents[0])).1)
        .collect();
    out.metrics.add("peak_heap_mb", "MiB", highest(&peaks));

    out.check(
        "outputs.finite",
        finite,
        format!("{} forwards", lp.ops() + contents.len()),
    );
    out.check(
        "outputs.bit_identical_across_iterations",
        identical,
        "every closed-loop forward equals the first forward of its content bit for bit",
    );
    out.check(
        "output_rel_l2.bound",
        rel < REL_L2_BOUND,
        format!("{rel:.6} against the f32 exec::forward, bound {REL_L2_BOUND}"),
    );

    let b0: Vec<f64> = plans.iter().flatten().map(b0_share).collect();
    out.property("tokens", model.total_tokens());
    out.property("heads", model.heads);
    out.property("head_dim", model.head_dim());
    out.property("hidden", model.hidden);
    out.property("block_edge", BLOCK_EDGE);
    out.property("budget_bits", BUDGET);
    out.property("b0_share", format!("{:.4}", median(&b0)));

    if cfg.traced() {
        out.metrics
            .add("trace_overhead_pct", "%", lp.trace_overhead_pct());
        let budget = cfg.layer_time().mul_f64(0.7);
        exec_layers(
            &cfg.tracer,
            &dit,
            &contents[0],
            &plans,
            &firsts[0],
            budget,
            &mut out,
        );
        let head0 = head_inputs(&dit, &contents[0], 0).expect("head inputs");
        let case = HeadCase {
            inputs: &head0,
            cal: &plans[0][0],
            output_aware: true,
        };
        int_pipeline_layers(
            &cfg.tracer,
            &case,
            5,
            cfg.layer_time().mul_f64(0.3),
            &mut out,
        );
        add_calibration_layers(&cfg.tracer, &mut out);
    }
    out
}

/// `exec::linear`, which is private: per-row activations and per-column
/// weights fake-quantized to INT8, then one matmul.
fn linear(tracer: &Tracer, parent: Option<SpanId>, round: u64, x: &Tensor, w: &Tensor) -> Tensor {
    let span = tracer.span("exec.linear", parent, round);
    let id = span.id();
    let (xq, wq) = {
        let _s = tracer.span("quant.fake_quant", id, round);
        let xq = fake_quant_2d(x, Grouping::PerRow, Bitwidth::B8)
            .expect("rank 2")
            .0;
        let wq = fake_quant_2d(w, Grouping::PerCol, Bitwidth::B8)
            .expect("rank 2")
            .0;
        (xq, wq)
    };
    let _s = tracer.span("tensor.matmul", id, round);
    xq.matmul(&wq).expect("shapes agree")
}

/// `exec`'s private tanh GELU.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

/// Head `h` of block 0, as `forward_calibrated` hands it to the pipeline.
fn head_inputs(dit: &SyntheticDit, x: &Tensor, h: usize) -> Result<AttentionInputs, CoreError> {
    let cfg = dit.config();
    let (n, hd) = (cfg.total_tokens(), cfg.head_dim());
    let quiet = Tracer::new(false);
    let normed = rms_norm(&x.add(dit.positional())?);
    let b = &dit.blocks()[0];
    let [q, k, v] = [&b.w_q, &b.w_k, &b.w_v].map(|w| linear(&quiet, None, 0, &normed, w));
    AttentionInputs::new(
        q.block(0, h * hd, n, hd)?,
        k.block(0, h * hd, n, hd)?,
        v.block(0, h * hd, n, hd)?,
        cfg.grid,
    )
}

/// `forward_calibrated` replayed from public calls, each in its own span,
/// so every layer of the block forward has a time of its own.
fn staged_forward(
    tracer: &Tracer,
    round: u64,
    dit: &SyntheticDit,
    x: &Tensor,
    plans: &Plans,
) -> Tensor {
    let cfg = dit.config();
    let (n, d, hd) = (cfg.total_tokens(), cfg.hidden, cfg.head_dim());
    let span = tracer.span("exec.forward_staged", None, round);
    let id = span.id();
    let norm = |t: &Tensor| {
        let _s = tracer.span("exec.rms_norm", id, round);
        rms_norm(t)
    };
    let mut x = x.add(dit.positional()).expect("shapes agree");
    for (bi, block) in dit.blocks().iter().enumerate() {
        let normed = norm(&x);
        let q = linear(tracer, id, round, &normed, &block.w_q);
        let k = linear(tracer, id, round, &normed, &block.w_k);
        let v = linear(tracer, id, round, &normed, &block.w_v);
        let mut jobs: Vec<Box<dyn FnOnce() -> Result<AttentionRun, CoreError> + Send>> =
            Vec::with_capacity(cfg.heads);
        for (h, cal) in plans[bi].iter().enumerate() {
            let inputs = AttentionInputs::new(
                q.block(0, h * hd, n, hd).expect("head slice"),
                k.block(0, h * hd, n, hd).expect("head slice"),
                v.block(0, h * hd, n, hd).expect("head slice"),
                cfg.grid,
            )
            .expect("head shapes agree");
            let cal = cal.clone();
            jobs.push(Box::new(move || {
                run_attention_calibrated(&inputs, &cal, true)
            }));
        }
        let runs = {
            let _s = tracer.span("exec.heads", id, round);
            ComputePool::global().run_many(jobs)
        };
        let mut attn = Tensor::zeros(&[n, d]);
        for (h, run) in runs.into_iter().enumerate() {
            attn.set_block(0, h * hd, &run.expect("head runs").output)
                .expect("head slot");
        }
        let o = linear(tracer, id, round, &attn, &block.w_o);
        x = x.add(&o).expect("shapes agree");
        let normed = norm(&x);
        let up = linear(tracer, id, round, &normed, &block.w_ffn_up);
        let down = linear(tracer, id, round, &up.map(gelu), &block.w_ffn_down);
        x = x.add(&down).expect("shapes agree");
    }
    x
}

/// Per-layer times of the block forward. Each round runs the direct
/// forward, the staged replay and the heads one after another on this
/// thread, so all three see the same host conditions.
fn exec_layers(
    tracer: &Tracer,
    dit: &SyntheticDit,
    x: &Tensor,
    plans: &Plans,
    direct_out: &Tensor,
    budget: std::time::Duration,
    out: &mut Outcome,
) {
    let cfg = dit.config();
    let heads: Vec<AttentionInputs> = (0..cfg.heads)
        .map(|h| head_inputs(dit, x, h).expect("head inputs"))
        .collect();
    let threads = ComputePool::global().threads() as f64;
    let started = Instant::now();
    let mut bit_identical = true;
    let mut round = 0u64;
    while round < 3 || started.elapsed() < budget {
        {
            let _s = tracer.span("exec.forward", None, round);
            black_box(forward_calibrated(dit, x, plans, true, true).expect("forward runs"));
        }
        let staged = staged_forward(tracer, round, dit, x, plans);
        bit_identical &= staged
            .as_slice()
            .iter()
            .zip(direct_out.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        for (h, inputs) in heads.iter().enumerate() {
            let _s = tracer.span("exec.head_serial", None, round);
            black_box(run_attention_calibrated(inputs, &plans[0][h], true).expect("head runs"));
        }
        round += 1;
    }
    let forward_ms = median(&tracer.durations_ms("exec.forward"));
    let staged_ms = median(&tracer.durations_ms("exec.forward_staged"));
    let linear_ms = median(&tracer.sums_by_request_ms("exec.linear"));
    let fq_ms = median(&tracer.sums_by_request_ms("quant.fake_quant"));
    let mm_ms = median(&tracer.sums_by_request_ms("tensor.matmul"));
    let norm_ms = median(&tracer.sums_by_request_ms("exec.rms_norm"));
    let heads_ms = median(&tracer.durations_ms("exec.heads"));
    let serial: Vec<f64> = tracer.sums_by_request_ms("exec.head_serial");
    let fanout: Vec<f64> = tracer.durations_ms("exec.heads");
    let efficiency: Vec<f64> = serial
        .iter()
        .zip(&fanout)
        .map(|(s, f)| s / (threads * f))
        .collect();
    let (n, d, f) = (
        cfg.total_tokens() as f64,
        cfg.hidden as f64,
        cfg.ffn_mult as f64,
    );
    // q, k, v and o are n×d×d; the FFN pair is n×d×fd each.
    let macs = (4.0 * n * d * d + 2.0 * n * d * f * d) * cfg.blocks as f64;
    let unattributed = forward_ms - linear_ms - norm_ms - heads_ms;
    out.metrics.add("exec.forward_ms", "ms", forward_ms);
    out.metrics.add("exec.forward_staged_ms", "ms", staged_ms);
    out.metrics.add("exec.linear_ms", "ms", linear_ms);
    out.metrics.add("quant.fake_quant_ms", "ms", fq_ms);
    out.metrics.add("tensor.matmul_ms", "ms", mm_ms);
    out.metrics.add(
        "tensor.matmul_gmac_per_s",
        "GMAC/s",
        macs / (mm_ms * 1e-3) / 1e9,
    );
    out.metrics.add("exec.rms_norm_ms", "ms", norm_ms);
    out.metrics.add("exec.heads_ms", "ms", heads_ms);
    out.metrics.add(
        "exec.head_serial_ms",
        "ms",
        median(&serial) / cfg.heads as f64,
    );
    out.metrics
        .add("pool.fanout_efficiency", "ratio", median(&efficiency));
    out.metrics.add("exec.unattributed_ms", "ms", unattributed);
    out.metrics.add(
        "exec.staged_self_ms",
        "ms",
        median(&tracer.self_ms("exec.forward_staged")),
    );
    out.attribution(
        "exec.staged_replay_bit_identical",
        bit_identical,
        "the forward replayed from public calls equals forward_calibrated bit for bit",
    );
    out.attribution(
        "exec.attribution",
        (staged_ms - forward_ms).abs() <= STAGED_TOLERANCE * forward_ms
            && unattributed >= -STAGED_TOLERANCE * forward_ms,
        format!(
            "linear {linear_ms:.2} + rms_norm {norm_ms:.2} + heads {heads_ms:.2} + unattributed \
             {unattributed:.2} = forward {forward_ms:.2} ms; staged replay {staged_ms:.2} ms \
             within {:.0}% of it",
            STAGED_TOLERANCE * 100.0
        ),
    );
}
