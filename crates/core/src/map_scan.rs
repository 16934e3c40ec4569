//! Block-row scans of calibration maps: the one scorer behind plan
//! selection ([`crate::reorder::select_plan`]), the block sensitivity
//! table ([`crate::sensitivity::SensitivityTable::compute`]) and head
//! calibration ([`crate::calibration::calibrate_head`]).
//!
//! A scan reads a [`MapView`] — canonical `[m, n]` maps, averaged
//! element-wise, read through a token permutation on both axes — one
//! block row at a time, straight from the canonical maps. It gathers the
//! block row (at most `block_rows × n` values), takes every block's
//! min–max once from per-column ranges, and fake-quantizes the row one
//! map row at a time on [`fake_quant_sq_errors`], each lane carrying its
//! block's parameters. No reordered, averaged or quantized copy of a map
//! is ever built.
//!
//! Every result is bit-identical to the whole-map composition it
//! replaced (`reorder_map`, `Tensor::add`/`scale`, `fake_quant_2d` and
//! `metrics::relative_l2`; pinned by `tests/calibration_oracle.rs`):
//!
//! - an averaged element is `((m₀ + m₁) + …) · (1/samples)`;
//! - min and max are exact, so one range per block serves every
//!   bitwidth, and the fake quantization is element for element
//!   `QuantParams::fake_quant`;
//! - a candidate's `Σ(x − x̂)²` and `Σx²` are sequential f32 sums in the
//!   reordered map's row-major order, and a block's `Σ|x|` and squared
//!   errors are sequential sums in the block's row-major order.
//!
//! A map scan is one job, so its sums are never split; the jobs of a
//! call (one per sample and order, or one per range of sensitivity block
//! rows) run as one [`ComputePool`] batch and come back in submission
//! order. The maps reach the `'static` jobs through one shared copy per
//! call.

use crate::pool::ComputePool;
use paro_quant::{fake_quant_sq_errors, widen_range, Bitwidth, BlockGrid, QuantParams};
use paro_tensor::kernel::{active_kernel, Kernel};
use paro_tensor::Tensor;
use std::ops::Range;
use std::sync::Arc;

/// Map rows one sensitivity job scores (rounded up to whole block rows):
/// a fixed split, so the batch never depends on the pool's width.
const SENSITIVITY_JOB_ROWS: usize = 48;

/// A read-only `[m, n]` map as calibration sees it: samples
/// `samples` of `maps`, averaged element-wise when `mean` is set, with
/// row and column `i` read from canonical token `perm[i]`.
#[derive(Debug, Clone)]
pub(crate) struct MapView {
    maps: Arc<[Tensor]>,
    samples: Range<usize>,
    /// `Some(1/samples)`: the view is `((m₀ + m₁) + …) · (1/samples)`.
    mean: Option<f32>,
    /// The token permutation of both axes; `None` is the identity.
    perm: Option<Arc<[usize]>>,
}

impl MapView {
    /// Map `sample` of `maps` as it is, read through `perm`.
    pub(crate) fn one(maps: Arc<[Tensor]>, sample: usize, perm: Option<Arc<[usize]>>) -> Self {
        MapView {
            maps,
            samples: sample..sample + 1,
            mean: None,
            perm,
        }
    }

    /// The element-wise mean of every map of `maps`, read through
    /// `perm`.
    pub(crate) fn mean(maps: Arc<[Tensor]>, perm: Arc<[usize]>) -> Self {
        MapView {
            mean: Some(1.0 / maps.len() as f32),
            samples: 0..maps.len(),
            maps,
            perm: Some(perm),
        }
    }

    /// `(rows, cols)` of the view (the maps are rank 2 and share a shape).
    pub(crate) fn dims(&self) -> (usize, usize) {
        let shape = self.maps[self.samples.start].shape();
        (shape[0], shape[1])
    }

    /// Writes view rows `r0..r0 + h` into `panel`, row-major.
    fn gather(&self, r0: usize, h: usize, panel: &mut Vec<f32>) {
        let n = self.dims().1;
        panel.clear();
        panel.resize(h * n, 0.0);
        for (i, row) in panel.chunks_exact_mut(n).enumerate() {
            let src_row = self.perm.as_ref().map_or(r0 + i, |p| p[r0 + i]);
            for (k, map) in self.maps[self.samples.clone()].iter().enumerate() {
                let src = &map.as_slice()[src_row * n..(src_row + 1) * n];
                match (&self.perm, k) {
                    (None, 0) => row.copy_from_slice(src),
                    (None, _) => row.iter_mut().zip(src).for_each(|(a, &b)| *a += b),
                    (Some(p), 0) => row.iter_mut().zip(p.iter()).for_each(|(a, &c)| *a = src[c]),
                    (Some(p), _) => row
                        .iter_mut()
                        .zip(p.iter())
                        .for_each(|(a, &c)| *a += src[c]),
                }
            }
            if let Some(inv) = self.mean {
                row.iter_mut().for_each(|a| *a *= inv);
            }
        }
    }
}

/// The reused buffers of one scan job: the gathered block row, its
/// per-column ranges, one lane row of parameters per scanned bitwidth,
/// and one row of squared errors and squares.
struct Scan {
    block: BlockGrid,
    widths: Vec<Bitwidth>,
    panel: Vec<f32>,
    lo: Vec<f32>,
    hi: Vec<f32>,
    lanes: Vec<(Vec<f32>, Vec<i32>)>,
    err: Vec<f32>,
    sq: Vec<f32>,
}

impl Scan {
    fn new(n: usize, block: BlockGrid, widths: &[Bitwidth]) -> Self {
        Scan {
            block,
            widths: widths.to_vec(),
            panel: Vec::new(),
            lo: vec![0.0; n],
            hi: vec![0.0; n],
            lanes: widths.iter().map(|_| (vec![0.0; n], vec![0; n])).collect(),
            err: vec![0.0; n],
            sq: vec![0.0; n],
        }
    }

    /// Gathers block row `bi` of `view` and sets every lane's parameters
    /// at each width to its block's min–max calibration. Returns the
    /// block row's map rows.
    fn load(&mut self, view: &MapView, bi: usize) -> usize {
        let (m, n) = view.dims();
        let (r0, _, h, _) = self.block.block_bounds(bi, 0, m, n);
        view.gather(r0, h, &mut self.panel);
        self.lo.fill(f32::INFINITY);
        self.hi.fill(f32::NEG_INFINITY);
        for row in self.panel.chunks_exact(n) {
            widen_range(&mut self.lo, &mut self.hi, row);
        }
        for c0 in (0..n).step_by(self.block.block_cols) {
            let cols = c0..n.min(c0 + self.block.block_cols);
            let lo = self.lo[cols.clone()]
                .iter()
                .fold(f32::INFINITY, |a, &b| a.min(b));
            let hi = self.hi[cols.clone()]
                .iter()
                .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            for (&bits, (scales, zps)) in self.widths.iter().zip(&mut self.lanes) {
                let p = QuantParams::from_finite_range(lo, hi, bits);
                scales[cols.clone()].fill(p.scale());
                zps[cols.clone()].fill(p.zero_point());
            }
        }
        h
    }

    /// Fills `err` and `sq` for row `r` of the loaded block row at width
    /// `k` (an index into the scan's widths).
    fn row_errors(&mut self, r: usize, k: usize, kernel: Kernel) {
        let n = self.err.len();
        let (scales, zps) = &self.lanes[k];
        fake_quant_sq_errors(
            kernel,
            &self.panel[r * n..(r + 1) * n],
            scales,
            zps,
            self.widths[k],
            &mut self.err,
            &mut self.sq,
        );
    }
}

/// Relative L2 error of fake-quantizing `view` block-wise at `bits`:
/// `√Σ(x − x̂)² / √Σx²`, 0 when both norms are 0 and `∞` when only the
/// reference norm is.
fn relative_error(view: &MapView, block: BlockGrid, bits: Bitwidth, kernel: Kernel) -> f32 {
    let (m, n) = view.dims();
    let mut scan = Scan::new(n, block, &[bits]);
    let (mut diff, mut reference) = (0.0f32, 0.0f32);
    for bi in 0..m.div_ceil(block.block_rows) {
        for r in 0..scan.load(view, bi) {
            scan.row_errors(r, 0, kernel);
            for (&e, &x) in scan.err.iter().zip(&scan.sq) {
                diff += e;
                reference += x;
            }
        }
    }
    let (diff, reference) = (diff.sqrt(), reference.sqrt());
    if reference == 0.0 {
        return if diff == 0.0 { 0.0 } else { f32::INFINITY };
    }
    diff / reference
}

/// The relative error of every `(sample, permutation)` pair of `maps` at
/// `bits`, as one pool batch: `errors[s][p]`.
pub(crate) fn candidate_errors(
    maps: &Arc<[Tensor]>,
    perms: &[Arc<[usize]>],
    block: BlockGrid,
    bits: Bitwidth,
) -> Vec<Vec<f32>> {
    let kernel = active_kernel();
    let jobs = (0..maps.len())
        .flat_map(|s| perms.iter().map(move |p| (s, p)))
        .map(|(s, perm)| {
            let view = MapView::one(Arc::clone(maps), s, Some(Arc::clone(perm)));
            Box::new(move || relative_error(&view, block, bits, kernel))
                as Box<dyn FnOnce() -> f32 + Send>
        })
        .collect();
    let errors = ComputePool::global().run_many(jobs);
    errors.chunks(perms.len()).map(<[f32]>::to_vec).collect()
}

/// Sensitivity rows of block rows `rows` of `view`: per block,
/// `importance^α · difficulty^(1−α)` at each of [`Bitwidth::ALL`] with a
/// running minimum over the widths, where importance is `Σ|x|` and
/// difficulty `√Σ(x − x̂)²` (`√Σx²` at `B0`).
fn block_scores(
    view: &MapView,
    block: BlockGrid,
    alpha: f32,
    rows: Range<usize>,
    kernel: Kernel,
) -> Vec<[f32; 4]> {
    const LIVE: [Bitwidth; 3] = [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8];
    let n = view.dims().1;
    let gc = n.div_ceil(block.block_cols);
    let mut scan = Scan::new(n, block, &LIVE);
    let mut scores = Vec::with_capacity(rows.len() * gc);
    // Per block of the row: Σ|x|, then Σ(x − x̂)² at B0, B2, B4, B8.
    let mut sums = vec![(0.0f32, [0.0f32; 4]); gc];
    for bi in rows {
        sums.fill((0.0, [0.0; 4]));
        for r in 0..scan.load(view, bi) {
            for k in 0..LIVE.len() {
                scan.row_errors(r, k, kernel);
                for ((_, sq_err), seg) in sums.iter_mut().zip(scan.err.chunks(block.block_cols)) {
                    sq_err[k + 1] = seg.iter().fold(sq_err[k + 1], |a, &e| a + e);
                }
            }
            // Attention maps are non-negative post-softmax, so Σx is a
            // block's attention mass; Σ|x| keeps signed inputs meaningful.
            let row = &scan.panel[r * n..(r + 1) * n];
            let segs = row
                .chunks(block.block_cols)
                .zip(scan.sq.chunks(block.block_cols));
            for ((importance, sq_err), (x, sq)) in sums.iter_mut().zip(segs) {
                *importance = x.iter().fold(*importance, |a, &v| a + v.abs());
                sq_err[0] = sq.iter().fold(sq_err[0], |a, &v| a + v);
            }
        }
        for &(importance, sq_err) in &sums {
            let weight = importance.powf(alpha);
            let mut row = [0.0f32; 4];
            let mut running_min = f32::INFINITY;
            for (slot, e) in row.iter_mut().zip(sq_err) {
                let s = weight * e.sqrt().powf(1.0 - alpha);
                running_min = running_min.min(s);
                *slot = running_min;
            }
            scores.push(row);
        }
    }
    scores
}

/// The sensitivity row of every block of `view`, row-major, with the
/// block rows split into fixed ranges that run as one pool batch.
pub(crate) fn sensitivity_scores(view: MapView, block: BlockGrid, alpha: f32) -> Vec<[f32; 4]> {
    let kernel = active_kernel();
    let (m, n) = view.dims();
    if n == 0 {
        return Vec::new(); // no block columns, so no blocks
    }
    let gr = m.div_ceil(block.block_rows);
    let per_job = SENSITIVITY_JOB_ROWS.div_ceil(block.block_rows);
    let jobs = (0..gr)
        .step_by(per_job)
        .map(|b0| {
            let view = view.clone();
            let rows = b0..gr.min(b0 + per_job);
            Box::new(move || block_scores(&view, block, alpha, rows, kernel))
                as Box<dyn FnOnce() -> Vec<[f32; 4]> + Send>
        })
        .collect();
    ComputePool::global().run_many(jobs).concat()
}
