//! Quantized forward execution of the synthetic DiT.
//!
//! Runs [`paro_model::dit::SyntheticDit`] end to end — QKV projections,
//! per-head quantized attention under any [`AttentionMethod`], output
//! projection, FFN, residuals — so the reproduction can measure error
//! *accumulation through a real multi-block forward pass*, not just one
//! isolated head. Linear layers optionally run under W8A8 fake
//! quantization, matching the paper's "quantize everything" software
//! configuration.
//!
//! Every layer but attention is row-local, so both forward passes keep
//! the residual stream as one row panel per [`ComputePool`] thread. A
//! block runs `rms_norm` → one activation quant shared by Q/K/V → the
//! three projections on every panel at once, then the heads on the same
//! pool, then O-proj → residual → `rms_norm` → up → GELU → down →
//! residual on every panel again. Each block's weights are
//! fake-quantized once and shared read-only by the panels. A row's
//! result does not depend on which panel computes it, so the output is
//! bit-identical to running each layer over all rows on one thread.

use crate::calibration::HeadCalibration;
use crate::methods::AttentionMethod;
use crate::pipeline::{run_attention, run_attention_calibrated, AttentionInputs, AttentionRun};
use crate::pool::ComputePool;
use crate::CoreError;
use paro_model::dit::{BlockWeights, SyntheticDit};
use paro_model::{AxisOrder, ModelConfig};
use paro_quant::{fake_quant_2d, fake_quant_rows_in_place, Bitwidth, Grouping};
use paro_tensor::Tensor;
use std::sync::Arc;

/// Statistics collected during one forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardStats {
    /// Reorder plan selected per `(block, head)` (`None` for methods that
    /// do not reorder).
    pub plans: Vec<Vec<Option<AxisOrder>>>,
    /// Mean attention-map bitwidth over all heads.
    pub avg_bits: f32,
    /// Mean attention-map zero (skippable) fraction over all heads.
    pub map_sparsity: f32,
}

/// Options of a forward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardOptions {
    /// The attention quantization method applied to every head.
    pub method: AttentionMethod,
    /// Whether linear layers run under weight/activation fake quantization.
    pub linear_w8a8: bool,
    /// Bitwidth of the linear layers when `linear_w8a8` is set (the paper
    /// uses INT8; lower widths are the "why not W4 linears" ablation).
    pub linear_bits: Bitwidth,
}

impl ForwardOptions {
    /// Full-precision execution (reference).
    pub fn reference() -> Self {
        ForwardOptions {
            method: AttentionMethod::Fp16,
            linear_w8a8: false,
            linear_bits: Bitwidth::B8,
        }
    }

    /// The full PARO software configuration: W8A8 linears + mixed-precision
    /// attention at the given block edge.
    pub fn paro(budget: f32, block_edge: usize) -> Self {
        ForwardOptions {
            method: AttentionMethod::ParoMixed {
                budget,
                block_edge,
                alpha: 0.5,
                output_aware: true,
            },
            linear_w8a8: true,
            linear_bits: Bitwidth::B8,
        }
    }

    /// Overrides the linear-layer bitwidth (ablation).
    pub fn with_linear_bits(mut self, bits: Bitwidth) -> Self {
        self.linear_bits = bits;
        self
    }
}

/// Runs the DiT on `content` (`[n, hidden]`, added to the positional
/// embedding) and returns the output plus statistics.
///
/// # Errors
///
/// Returns [`CoreError::GridMismatch`] if `content` does not have one row
/// per token, [`CoreError::ContentShape`] if it is not `[n, hidden]`
/// otherwise, and propagates pipeline errors.
pub fn forward(
    dit: &SyntheticDit,
    content: &Tensor,
    opts: &ForwardOptions,
) -> Result<(Tensor, ForwardStats), CoreError> {
    let cfg = dit.config();
    let bits = opts.linear_w8a8.then_some(opts.linear_bits);
    let mut x = row_panels(cfg, content, dit.positional())?;
    let mut plans = Vec::with_capacity(cfg.blocks);
    let mut bits_sum = 0.0f32;
    let mut sparsity_sum = 0.0f32;
    let mut head_count = 0usize;
    for block in dit.blocks() {
        let heads = block_forward(cfg, block, &mut x, bits, Heads::Online(opts.method))?;
        let mut block_plans = Vec::with_capacity(heads.len());
        for head in heads {
            block_plans.push(head.plan);
            bits_sum += head.avg_bits;
            sparsity_sum += head.map_sparsity;
            head_count += 1;
        }
        plans.push(block_plans);
    }
    let stats = ForwardStats {
        plans,
        avg_bits: bits_sum / head_count.max(1) as f32,
        map_sparsity: sparsity_sum / head_count.max(1) as f32,
    };
    Ok((stack_columns(x.iter().map(|p| &**p), 0, cfg.hidden)?, stats))
}

/// Runs the DiT with **frozen per-head calibrations** — the deployment
/// path: no online plan search or allocation; `calibrations[block][head]`
/// supplies each head's offline reorder plan and bit assignment, exactly
/// as the accelerator's configuration tables would.
///
/// # Errors
///
/// Returns [`CoreError::EmptyAllocation`] if the calibration table does
/// not cover every `(block, head)` and a bitwidth-count error if a head's
/// allocation does not cover the model's block grid, both before any
/// work, plus the content shape errors of [`forward`].
pub fn forward_calibrated(
    dit: &SyntheticDit,
    content: &Tensor,
    calibrations: &[Vec<HeadCalibration>],
    linear_w8a8: bool,
    output_aware: bool,
) -> Result<Tensor, CoreError> {
    let cfg = dit.config();
    let mut x = row_panels(cfg, content, dit.positional())?;
    if calibrations.len() != cfg.blocks || calibrations.iter().any(|b| b.len() != cfg.heads) {
        return Err(CoreError::EmptyAllocation);
    }
    let tokens = cfg.grid.len() + cfg.text_tokens;
    for cal in calibrations.iter().flatten() {
        cal.check_tokens(tokens)?;
    }
    let bits = linear_w8a8.then_some(Bitwidth::B8);
    for (block, cals) in dit.blocks().iter().zip(calibrations) {
        let heads = Heads::Calibrated { cals, output_aware };
        block_forward(cfg, block, &mut x, bits, heads)?;
    }
    stack_columns(x.iter().map(|p| &**p), 0, cfg.hidden)
}

/// How every head of one block attends.
#[derive(Clone, Copy)]
enum Heads<'a> {
    /// Online plan search and allocation under one method ([`forward`]).
    Online(AttentionMethod),
    /// The block's frozen per-head calibrations ([`forward_calibrated`]).
    Calibrated {
        cals: &'a [HeadCalibration],
        output_aware: bool,
    },
}

/// What [`forward`]'s statistics keep of one head's run.
struct HeadStats {
    plan: Option<AxisOrder>,
    avg_bits: f32,
    map_sparsity: f32,
}

type Job<T> = Box<dyn FnOnce() -> Result<T, CoreError> + Send>;

/// One transformer block over the residual stream's row panels `x`
/// (pre-norm residual attention, then pre-norm residual FFN); replaces
/// `x` with the block's output panels. Linear layers quantize their
/// activations per row and their weights per column at `bits`, or run
/// in f32 when `bits` is `None`.
fn block_forward(
    cfg: &ModelConfig,
    block: &BlockWeights,
    x: &mut Vec<Arc<Tensor>>,
    bits: Option<Bitwidth>,
    heads: Heads<'_>,
) -> Result<Vec<HeadStats>, CoreError> {
    let pool = ComputePool::global();
    let hd = cfg.head_dim();

    let w = Arc::new(dense_weights([&block.w_q, &block.w_k, &block.w_v], bits)?);
    let jobs: Vec<Job<[Tensor; 3]>> = x
        .iter()
        .map(|panel| {
            let (panel, w) = (Arc::clone(panel), Arc::clone(&w));
            Box::new(move || {
                let a = quant_rows(rms_norm(&panel), bits)?;
                Ok([a.matmul(&w[0])?, a.matmul(&w[1])?, a.matmul(&w[2])?])
            }) as Job<_>
        })
        .collect();
    let qkv = pool
        .run_many(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    // Free the weights and, below, the panel projections before the heads
    // run: their attention maps are the forward's largest buffers.
    drop(w);

    // Heads are independent: fan them out on the same pool.
    let jobs: Vec<Job<AttentionRun>> = (0..cfg.heads)
        .map(|h| {
            let [q, k, v] = [0, 1, 2].map(|i| stack_columns(qkv.iter().map(|t| &t[i]), h * hd, hd));
            let (grid, text) = (cfg.grid, cfg.text_tokens);
            match heads {
                Heads::Online(method) => Box::new(move || {
                    run_attention(
                        &AttentionInputs::with_text(q?, k?, v?, grid, text)?,
                        &method,
                    )
                }) as Job<_>,
                Heads::Calibrated { cals, output_aware } => {
                    let cal = cals[h].clone();
                    Box::new(move || {
                        let inputs = AttentionInputs::with_text(q?, k?, v?, grid, text)?;
                        run_attention_calibrated(&inputs, &cal, output_aware)
                    })
                }
            }
        })
        .collect();
    drop(qkv);
    let runs = pool
        .run_many(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    let stats = runs
        .iter()
        .map(|run| HeadStats {
            plan: run.plan.as_ref().map(|p| p.order()),
            avg_bits: run.avg_bits,
            map_sparsity: run.map_sparsity,
        })
        .collect();

    let w = Arc::new(dense_weights(
        [&block.w_o, &block.w_ffn_up, &block.w_ffn_down],
        bits,
    )?);
    let outputs: Vec<&Tensor> = runs.iter().map(|run| &run.output).collect();
    let mut r0 = 0;
    let mut jobs: Vec<Job<Arc<Tensor>>> = Vec::with_capacity(x.len());
    for panel in x.iter() {
        let rows = panel.shape()[0];
        let attn = side_by_side(&outputs, r0, rows)?;
        r0 += rows;
        let (panel, w) = (Arc::clone(panel), Arc::clone(&w));
        jobs.push(Box::new(move || {
            let x = panel.add(&quant_rows(attn, bits)?.matmul(&w[0])?)?;
            let mut up = quant_rows(rms_norm(&x), bits)?.matmul(&w[1])?;
            for v in up.as_mut_slice() {
                *v = gelu(*v);
            }
            let down = quant_rows(up, bits)?.matmul(&w[2])?;
            Ok(Arc::new(x.add(&down)?))
        }));
    }
    drop(outputs);
    drop(runs);
    *x = pool.run_many(jobs).into_iter().collect::<Result<_, _>>()?;
    Ok(stats)
}

/// `content + positional`, checked against the model's `[tokens,
/// hidden]`, split into one contiguous row panel per pool thread.
fn row_panels(
    cfg: &ModelConfig,
    content: &Tensor,
    positional: &Tensor,
) -> Result<Vec<Arc<Tensor>>, CoreError> {
    let (n, d) = (cfg.total_tokens(), cfg.hidden);
    match content.shape() {
        &[rows, _] if rows != n => {
            return Err(CoreError::GridMismatch {
                tokens: rows,
                grid_len: n,
            })
        }
        &[_, cols] if cols == d => {}
        shape => {
            return Err(CoreError::ContentShape {
                expected: vec![n, d],
                actual: shape.to_vec(),
            })
        }
    }
    let x = content.add(positional)?;
    let count = ComputePool::global().threads().min(n).max(1);
    (0..count)
        .map(|p| {
            let (r0, r1) = (p * n / count, (p + 1) * n / count);
            Ok(Arc::new(x.block(r0, 0, r1 - r0, d)?))
        })
        .collect()
}

/// Columns `c0..c0 + width` of row panels, stacked into one tensor: a
/// head's slice of the projections, or the whole residual stream.
fn stack_columns<'a>(
    panels: impl Iterator<Item = &'a Tensor>,
    c0: usize,
    width: usize,
) -> Result<Tensor, CoreError> {
    let mut data = Vec::new();
    let mut rows = 0;
    for panel in panels {
        let (r, cols) = (panel.shape()[0], panel.shape()[1]);
        let a = panel.as_slice();
        for i in 0..r {
            data.extend_from_slice(&a[i * cols + c0..i * cols + c0 + width]);
        }
        rows += r;
    }
    Ok(Tensor::from_vec(&[rows, width], data)?)
}

/// Rows `r0..r0 + rows` of every head's output, side by side: one row
/// panel of the concatenated attention output.
fn side_by_side(heads: &[&Tensor], r0: usize, rows: usize) -> Result<Tensor, CoreError> {
    let mut data = Vec::new();
    for i in r0..r0 + rows {
        for head in heads {
            let w = head.shape()[1];
            data.extend_from_slice(&head.as_slice()[i * w..(i + 1) * w]);
        }
    }
    let width = heads.iter().map(|h| h.shape()[1]).sum();
    Ok(Tensor::from_vec(&[rows, width], data)?)
}

/// The weights of one block's layers as the panels use them:
/// fake-quantized per column (per output dimension) at `bits`, or as
/// they are when `bits` is `None`.
fn dense_weights(ws: [&Tensor; 3], bits: Option<Bitwidth>) -> Result<Vec<Tensor>, CoreError> {
    ws.into_iter()
        .map(|w| match bits {
            Some(bits) => Ok(fake_quant_2d(w, Grouping::PerCol, bits)?.0),
            None => Ok(w.clone()),
        })
        .collect()
}

/// A linear layer's activations: fake-quantized per row (per token) at
/// `bits`, in their own buffer, or as they are when `bits` is `None`. A
/// copy would double the FFN's `up` activations for as long as the
/// quantization runs, and the heap's peak would then depend on whether
/// two panels quantize at the same moment.
fn quant_rows(mut x: Tensor, bits: Option<Bitwidth>) -> Result<Tensor, CoreError> {
    if let Some(bits) = bits {
        fake_quant_rows_in_place(&mut x, bits)?;
    }
    Ok(x)
}

/// Row-wise RMS normalization (the pre-norm that keeps residual scales
/// stable through blocks).
pub fn rms_norm(x: &Tensor) -> Tensor {
    let (m, n) = (x.shape()[0], x.shape()[1]);
    let a = x.as_slice();
    let mut out = vec![0.0f32; m * n];
    for r in 0..m {
        let row = &a[r * n..(r + 1) * n];
        let rms = (row.iter().map(|v| v * v).sum::<f32>() / n as f32)
            .sqrt()
            .max(1e-6);
        for (o, &v) in out[r * n..(r + 1) * n].iter_mut().zip(row) {
            *o = v / rms;
        }
    }
    Tensor::from_vec(&[m, n], out).expect("size preserved")
}

/// Tanh-approximated GELU.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_model::ModelConfig;
    use paro_tensor::rng::seeded;
    use paro_tensor::{metrics, Tensor};
    use rand::distributions::Uniform;

    fn setup() -> (SyntheticDit, Tensor) {
        let cfg = ModelConfig::tiny(4, 4, 4);
        let dit = SyntheticDit::build(&cfg, 5);
        let content = Tensor::random(
            &[cfg.grid.len(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(11),
        );
        (dit, content)
    }

    #[test]
    fn forward_produces_finite_output() {
        let (dit, content) = setup();
        let (out, stats) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        assert_eq!(out.shape(), &[64, 128]);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert_eq!(stats.plans.len(), dit.config().blocks);
        assert_eq!(stats.avg_bits, 16.0);
    }

    #[test]
    fn dit_attention_exhibits_planted_patterns() {
        // The DiT's projection weights must reproduce the per-head planted
        // pattern: the plan selected for each head should make that head's
        // pattern groups contiguous (i.e. match one of its contiguity
        // orders).
        let (dit, content) = setup();
        let opts = ForwardOptions {
            method: AttentionMethod::ParoInt {
                bits: Bitwidth::B4,
                block_edge: 4,
            },
            linear_w8a8: false,
            linear_bits: Bitwidth::B8,
        };
        let (_, stats) = forward(&dit, &content, &opts).unwrap();
        let grid = dit.config().grid;
        let mut matched = 0usize;
        let mut total = 0usize;
        for (b, block_plans) in stats.plans.iter().enumerate() {
            for (h, plan) in block_plans.iter().enumerate() {
                let kind = dit.head_pattern(b, h);
                let order = plan.expect("ParoInt reorders");
                // Check group contiguity of the selected order.
                let idx = grid.reorder_indices(order);
                let mut seen = std::collections::HashSet::new();
                let mut current = usize::MAX;
                let mut contiguous = true;
                for &t in &idx {
                    let g = kind.group_of(&grid, t);
                    if g != current {
                        if !seen.insert(g) {
                            contiguous = false;
                            break;
                        }
                        current = g;
                    }
                }
                if contiguous {
                    matched += 1;
                }
                total += 1;
            }
        }
        assert!(
            matched * 10 >= total * 8,
            "only {matched}/{total} heads got a pattern-contiguous plan"
        );
    }

    #[test]
    fn quantized_forward_tracks_reference() {
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let (quantized, stats) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        let err = metrics::relative_l2(&reference, &quantized).unwrap();
        assert!(
            err < 0.15,
            "full PARO forward should stay close to reference, err {err}"
        );
        assert!(stats.avg_bits <= 4.8 + 1e-3);
        assert!(stats.map_sparsity > 0.0);
    }

    #[test]
    fn naive_int4_forward_much_worse() {
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let naive = ForwardOptions {
            method: AttentionMethod::NaiveInt { bits: Bitwidth::B4 },
            linear_w8a8: true,
            linear_bits: Bitwidth::B8,
        };
        let (nout, _) = forward(&dit, &content, &naive).unwrap();
        let (pout, _) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        let nerr = metrics::relative_l2(&reference, &nout).unwrap();
        let perr = metrics::relative_l2(&reference, &pout).unwrap();
        assert!(
            perr < nerr,
            "PARO forward err {perr} should beat naive INT4 {nerr}"
        );
    }

    #[test]
    fn text_token_dit_forward() {
        // A DiT with a prompt prefix: the forward pass threads the text
        // tokens through every head's quantized attention with the reorder
        // pinning them in place.
        let cfg = ModelConfig::tiny_with_text(4, 4, 4, 6);
        let dit = SyntheticDit::build(&cfg, 9);
        assert_eq!(dit.positional().shape(), &[70, 128]);
        let content = Tensor::random(
            &[cfg.total_tokens(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(13),
        );
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let (quantized, stats) = forward(&dit, &content, &ForwardOptions::paro(4.8, 4)).unwrap();
        assert_eq!(reference.shape(), &[70, 128]);
        let err = metrics::relative_l2(&reference, &quantized).unwrap();
        assert!(err < 0.2, "text-aware PARO forward err {err}");
        assert!(stats.avg_bits <= 4.8 + 1e-3);
        // Content sized for the visual grid only must be rejected.
        let bad = Tensor::zeros(&[cfg.grid.len(), cfg.hidden]);
        assert!(forward(&dit, &bad, &ForwardOptions::reference()).is_err());
    }

    #[test]
    fn w4_linears_degrade_vs_w8() {
        // The "why the paper stops at W8A8 for linears" ablation: pushing
        // the linear layers to 4 bits hurts noticeably, while the attention
        // map tolerates much lower average bits — the asymmetry PARO's
        // design exploits (attention is both the bottleneck AND the more
        // quantizable tensor).
        let (dit, content) = setup();
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let w8 = ForwardOptions::paro(4.8, 4);
        let w4 = ForwardOptions::paro(4.8, 4).with_linear_bits(Bitwidth::B4);
        let (out8, _) = forward(&dit, &content, &w8).unwrap();
        let (out4, _) = forward(&dit, &content, &w4).unwrap();
        let e8 = metrics::relative_l2(&reference, &out8).unwrap();
        let e4 = metrics::relative_l2(&reference, &out4).unwrap();
        assert!(
            e4 > e8 * 2.0,
            "W4 linears ({e4}) should be clearly worse than W8 ({e8})"
        );
    }

    #[test]
    fn calibrated_forward_matches_online_quality() {
        // The full deployment loop at model scope: calibrate every head
        // offline (on separate content), then run the frozen configuration
        // on unseen content and compare against the online pipeline.
        use crate::calibration::calibrate_head;
        use crate::pipeline::attention_map;
        let (dit, content) = setup();
        let cfg = dit.config().clone();
        let hd = cfg.head_dim();
        let block_grid = paro_quant::BlockGrid::square(4).unwrap();
        // Calibration content (different seed from the test content).
        let calib_content = Tensor::random(
            &[cfg.grid.len(), cfg.hidden],
            &Uniform::new(-0.5f32, 0.5),
            &mut seeded(777),
        );
        let x = rms_norm(&calib_content.add(dit.positional()).unwrap());
        let mut calibrations = Vec::new();
        for block in dit.blocks() {
            let q = x.matmul(&block.w_q).unwrap();
            let k = x.matmul(&block.w_k).unwrap();
            let mut per_head = Vec::new();
            for h in 0..cfg.heads {
                let map = attention_map(
                    &q.block(0, h * hd, cfg.grid.len(), hd).unwrap(),
                    &k.block(0, h * hd, cfg.grid.len(), hd).unwrap(),
                )
                .unwrap();
                per_head.push(
                    calibrate_head(&[map], &cfg.grid, block_grid, Bitwidth::B4, 4.8, 0.5).unwrap(),
                );
            }
            calibrations.push(per_head);
        }
        let (reference, _) = forward(&dit, &content, &ForwardOptions::reference()).unwrap();
        let frozen = forward_calibrated(&dit, &content, &calibrations, true, true).unwrap();
        let err = metrics::relative_l2(&reference, &frozen).unwrap();
        assert!(err < 0.2, "frozen model-scope inference err {err}");
        // Wrong-shaped calibration table rejected.
        assert!(forward_calibrated(&dit, &content, &calibrations[..1], true, true).is_err());
    }

    /// Regression: a head calibrated for another grid size fails typed
    /// before any work, in both `QKᵀ` modes, instead of panicking mid-head.
    #[test]
    fn calibration_for_another_grid_is_rejected_up_front() {
        use crate::calibration::calibrate_head;
        use crate::pipeline::attention_map;
        use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
        let small = ModelConfig::tiny(4, 4, 4);
        let spec = PatternSpec::new(PatternKind::Temporal);
        let head = synthesize_head(&small.grid, small.head_dim(), &spec, 3);
        let map = attention_map(&head.q, &head.k).unwrap();
        let block = paro_quant::BlockGrid::square(4).unwrap();
        let cal = calibrate_head(&[map], &small.grid, block, Bitwidth::B4, 4.8, 0.5).unwrap();
        let cfg = ModelConfig::tiny(4, 4, 6);
        let dit = SyntheticDit::build(&cfg, 5);
        let content = Tensor::zeros(&[cfg.grid.len(), cfg.hidden]);
        let cals = vec![vec![cal; cfg.heads]; cfg.blocks];
        let want = CoreError::Quant(paro_quant::QuantError::BitwidthCountMismatch {
            supplied: 256,
            blocks: 576,
        });
        for output_aware in [false, true] {
            let got = forward_calibrated(&dit, &content, &cals, true, output_aware);
            assert_eq!(got, Err(want.clone()), "output_aware={output_aware}");
        }
    }

    #[test]
    fn content_shape_validated() {
        let (dit, _) = setup();
        let bad = Tensor::zeros(&[10, 128]);
        assert!(matches!(
            forward(&dit, &bad, &ForwardOptions::reference()),
            Err(CoreError::GridMismatch { .. })
        ));
        // The right token count at the wrong width names both shapes.
        let wide = Tensor::zeros(&[64, 129]);
        let want = CoreError::ContentShape {
            expected: vec![64, 128],
            actual: vec![64, 129],
        };
        let err = forward(&dit, &wide, &ForwardOptions::reference()).unwrap_err();
        assert_eq!(err, want);
        assert!(err.to_string().contains("[64, 129]") && err.to_string().contains("[64, 128]"));
        assert_eq!(forward_calibrated(&dit, &wide, &[], true, true), Err(want));
    }

    #[test]
    fn rms_norm_rows_are_unit_rms() {
        let x = Tensor::from_fn(&[3, 8], |i| (i[0] * 8 + i[1]) as f32 - 10.0);
        let n = rms_norm(&x);
        for r in 0..3 {
            let row = n.block(r, 0, 1, 8).unwrap();
            let rms = (row.as_slice().iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-4);
        }
    }
}
