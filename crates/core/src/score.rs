//! Integer `QKᵀ` + softmax one block row at a time: the one scorer behind
//! the fused attention executor ([`crate::int_pipeline`]) and the
//! whole-map `output_aware_map` / `exact_int_map` of [`crate::pipeline`].
//!
//! A block row holds whole softmax rows, so scoring a map row by row
//! gives exactly the map scored whole, in `O(edge · N)` memory.

use crate::ldz;
use crate::CoreError;
use paro_quant::{qkt_block_i32_with, Bitwidth, BlockGrid, QuantError, SymmetricInt8};
use paro_tensor::kernel::Kernel;
use paro_tensor::Tensor;
use std::sync::Arc;

/// Kept `K` bits of the truncated panels, by slot.
const LDZ_KEEP: [u32; 2] = [2, 4];

/// Most bytes of `K` codes plus i32 accumulators one score-kernel call
/// touches, so both stay L1-resident while the call walks the block
/// row's queries (46 six-key blocks, or one 64-key block, at `d = 64`).
const RUN_BYTES: usize = 24 * 1024;

/// Scores one block row of `softmax(QKᵀ/√d)` at a time on symmetric
/// INT8 codes of `Q` and `K`.
///
/// - **Exact** (`bits` = `None`): every key column participates in every
///   softmax row, with [`Tensor::softmax_rows`]' arithmetic.
/// - **Output-aware** (`bits` = the per-block allocation): each live
///   block's `K` operand is LDZ-truncated to the block's bitwidth (paper
///   Fig. 5(b)); 0-bit blocks are never computed and read as −∞, so the
///   masked softmax gives them exactly 0. A block row with no live block
///   has no finite score (a dense softmax would be 0/0 = NaN) and comes
///   back uniformly zero, the contribution a fully bypassed row has in
///   the sparse `AttnV`.
///
/// The scorer owns its codes and allocation, so the fused executor's
/// participants can share one read-only scorer across threads.
pub(crate) struct RowScorer {
    q: SymmetricInt8,
    k: SymmetricInt8,
    /// `K` codes truncated to [`LDZ_KEEP`] bits, built once per head for
    /// the widths the allocation uses (empty otherwise): a truncated
    /// operand depends only on the key and the kept width, never on the
    /// query row.
    ldz: [Vec<i8>; 2],
    bits: Option<Arc<[Bitwidth]>>,
    grid: BlockGrid,
    scale: f32,
    kernel: Kernel,
}

/// The reusable buffers of one row job: the scored block row (`[h, n]`,
/// row-major) and the integer accumulators behind it.
#[derive(Default)]
pub(crate) struct RowScratch {
    pub(crate) panel: Vec<f32>,
    acc: Vec<i32>,
    runs: Vec<(usize, usize, Bitwidth)>,
}

impl RowScorer {
    /// Symmetric INT8 codes of `q` (`[m, d]`) and `k` (`[n, d]`) for an
    /// `[m, n]` map scored in block rows of `grid`, output-aware when
    /// `bits` gives the per-block allocation.
    ///
    /// # Errors
    ///
    /// Rank errors from the quantizer, and
    /// [`QuantError::BitwidthCountMismatch`] if `bits` does not cover the
    /// map's blocks.
    pub(crate) fn new(
        q: &Tensor,
        k: &Tensor,
        grid: BlockGrid,
        bits: Option<Arc<[Bitwidth]>>,
        kernel: Kernel,
    ) -> Result<Self, CoreError> {
        let q = SymmetricInt8::quantize_rowwise_with(q, kernel)?;
        let k = SymmetricInt8::quantize_rowwise_with(k, kernel)?;
        if let Some(bits) = &bits {
            let blocks = grid.block_count(q.rows(), k.rows());
            if bits.len() != blocks {
                return Err(QuantError::BitwidthCountMismatch {
                    supplied: bits.len(),
                    blocks,
                }
                .into());
            }
        }
        Ok(RowScorer {
            scale: 1.0 / (q.cols() as f32).sqrt(),
            q,
            k,
            ldz: [Vec::new(), Vec::new()],
            bits,
            grid,
            kernel,
        })
    }

    /// Builds the LDZ-truncated `K` panels the allocation needs (one
    /// `qkt.ldz` span each); a no-op in exact mode. 8-bit blocks keep
    /// every bit, so they read the raw codes.
    pub(crate) fn build_ldz(&mut self) {
        let Some(bits) = &self.bits else { return };
        for (slot, keep) in LDZ_KEEP.iter().enumerate() {
            if bits.iter().any(|b| b.bits() == *keep) {
                let _t = paro_trace::span(paro_trace::stage::QKT_LDZ);
                self.ldz[slot] = self
                    .k
                    .codes()
                    .iter()
                    .map(|&v| ldz::truncate(v, *keep))
                    .collect();
            }
        }
    }

    /// Map rows (queries).
    pub(crate) fn rows(&self) -> usize {
        self.q.rows()
    }

    /// Map columns (keys).
    pub(crate) fn cols(&self) -> usize {
        self.k.rows()
    }

    /// Number of block rows.
    pub(crate) fn block_rows(&self) -> usize {
        self.rows().div_ceil(self.grid.block_rows)
    }

    /// `K` codes for a live block at `bits`.
    fn k_codes(&self, bits: Bitwidth) -> &[i8] {
        match bits {
            Bitwidth::B2 => &self.ldz[0],
            Bitwidth::B4 => &self.ldz[1],
            _ => self.k.codes(),
        }
    }

    /// Scores block row `bi` into `scratch.panel` (`[h, n]`, softmaxed)
    /// and returns `(first map row, h)`. One `qkt.mac` span covers the
    /// row's integer micro-kernel calls and their scaling to f32 scores.
    ///
    /// # Errors
    ///
    /// Propagates the score kernel's shape checks (unreachable for a
    /// scorer built by [`RowScorer::new`] with its LDZ panels).
    pub(crate) fn score_row(
        &self,
        bi: usize,
        scratch: &mut RowScratch,
    ) -> Result<(usize, usize), CoreError> {
        let (n, d) = (self.cols(), self.q.cols());
        let r0 = bi * self.grid.block_rows;
        let h = self.grid.block_rows.min(self.rows() - r0);
        let q_codes = &self.q.codes()[r0 * d..(r0 + h) * d];
        let RowScratch { panel, acc, runs } = scratch;
        // Every live lane is overwritten below, so the panel only needs
        // the row's length, not a refill.
        panel.resize(h * n, 0.0);
        if n == 0 {
            return Ok((r0, h));
        }
        // Runs of adjacent key columns that share one `K` operand — every
        // column in exact mode, one live bitwidth's block columns in
        // output-aware mode — so each run is one kernel call. The kernel
        // streams a run's `K` codes once per query row, so a run is cut
        // at `RUN_BYTES` of codes and accumulators, and each run's
        // accumulators are scaled while still hot.
        let block_cols = self.grid.block_cols;
        let max_blocks = (RUN_BYTES / ((d + 4 * h) * block_cols).max(1)).max(1);
        let max_cols = (max_blocks * block_cols).min(n);
        runs.clear();
        match &self.bits {
            None => {
                let runs_of = (0..n).step_by(max_cols);
                runs.extend(runs_of.map(|c0| (c0, (c0 + max_cols).min(n), Bitwidth::B8)));
            }
            Some(bits) => {
                let gc = n.div_ceil(block_cols);
                let row_bits = &bits[bi * gc..(bi + 1) * gc];
                let mut bj = 0;
                while bj < gc {
                    let b = row_bits[bj];
                    let same = row_bits[bj..].iter().take(max_blocks);
                    let end = bj + same.take_while(|&&x| x == b).count();
                    if b != Bitwidth::B0 {
                        runs.push((bj * block_cols, (end * block_cols).min(n), b));
                    }
                    bj = end;
                }
            }
        }
        // Bypassed scores read as −∞: the gaps between live runs (none in
        // exact mode).
        let mut next = 0;
        for &(c0, c1, _) in runs.iter().chain([(n, n, Bitwidth::B0)].iter()) {
            if next < c0 {
                for row in panel.chunks_exact_mut(n) {
                    row[next..c0].fill(f32::NEG_INFINITY);
                }
            }
            next = c1;
        }
        acc.resize(h * max_cols, 0);
        {
            let _mac = paro_trace::span_detailed(paro_trace::stage::QKT_MAC, self.kernel.as_str());
            for &(c0, c1, b) in runs.iter() {
                let w = c1 - c0;
                let run_acc = &mut acc[..h * w];
                let k_codes = &self.k_codes(b)[c0 * d..c1 * d];
                qkt_block_i32_with(q_codes, h, k_codes, w, d, run_acc, self.kernel)?;
                // score = acc · s_q · s_k · 1/√d, in that order.
                let k_scales = &self.k.scales()[c0..c1];
                for (r, arow) in run_acc.chunks_exact(w).enumerate() {
                    let qs = self.q.scales()[r0 + r];
                    let srow = &mut panel[r * n + c0..r * n + c1];
                    for ((slot, &a), &ks) in srow.iter_mut().zip(arow).zip(k_scales) {
                        *slot = a as f32 * qs * ks * self.scale;
                    }
                }
            }
        }
        for row in panel.chunks_exact_mut(n) {
            if self.bits.is_some() {
                masked_softmax(row);
            } else {
                paro_tensor::softmax_in_place(row);
            }
        }
        Ok((r0, h))
    }

    /// The whole `[m, n]` map, scored block row by block row.
    ///
    /// # Errors
    ///
    /// As [`RowScorer::score_row`].
    pub(crate) fn whole_map(&self) -> Result<Tensor, CoreError> {
        let (m, n) = (self.rows(), self.cols());
        let mut map = Vec::with_capacity(m * n);
        let mut scratch = RowScratch::default();
        for bi in 0..self.block_rows() {
            self.score_row(bi, &mut scratch)?;
            map.extend_from_slice(&scratch.panel);
        }
        Ok(Tensor::from_vec(&[m, n], map)?)
    }
}

/// Softmax of a row whose bypassed lanes hold −∞. `exp(−∞ − max)` is
/// exactly `0.0`, so a bypassed lane adds nothing to the row sum and
/// skipping its exp is bit-identical to [`Tensor::softmax_rows`] over the
/// same scores; the bypass majority never reaches the exp unit. A row
/// with no live lane comes back uniformly zero instead of 0/0 = NaN.
fn masked_softmax(row: &mut [f32]) {
    let max = paro_tensor::row_max(row);
    if max == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    // At least one live lane sits at `max`, so the sum is ≥ 1.
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        if *v == f32::NEG_INFINITY {
            *v = 0.0;
        } else {
            let e = (*v - max).exp();
            *v = e;
            sum += e;
        }
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}
