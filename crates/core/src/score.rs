//! Integer `QKᵀ` + softmax one block row at a time: the one scorer behind
//! the fused attention executor ([`crate::int_pipeline`]) and the
//! whole-map `output_aware_map` / `exact_int_map` of [`crate::pipeline`].
//!
//! A block row holds whole softmax rows, so scoring a map row by row
//! gives exactly the map scored whole, in `O(edge · N)` memory.

use crate::ldz;
use crate::CoreError;
use paro_quant::{
    qkt_scores_with, Bitwidth, BlockGrid, KeySpan, QuantError, SymmetricInt8, WideRows,
};
use paro_tensor::kernel::Kernel;
use paro_tensor::Tensor;
use std::sync::Arc;

/// Kept `K` bits of the truncated panels 1 and 2.
const LDZ_KEEP: [u32; 2] = [2, 4];

/// Scores one block row of `softmax(QKᵀ/√d)` at a time on symmetric
/// INT8 codes of `Q` and `K`.
///
/// - **Exact** (`bits` = `None`): every key column participates in every
///   softmax row.
/// - **Output-aware** (`bits` = the per-block allocation): each live
///   block's `K` operand is LDZ-truncated to the block's bitwidth (paper
///   Fig. 5(b)); 0-bit blocks are never computed and read as −∞, so the
///   softmax gives them exactly 0. A block row with no live block has no
///   finite score and comes back uniformly zero, the contribution a fully
///   bypassed row has in the sparse `AttnV`.
///
/// Both modes run [`paro_tensor::softmax_in_place_with`] on the scorer's
/// kernel, the row arithmetic of [`Tensor::softmax_rows`].
///
/// The scorer owns its codes and allocation, so the fused executor's
/// participants can share one read-only scorer across threads.
pub(crate) struct RowScorer {
    q: SymmetricInt8,
    /// `K`'s INT8 codes until [`RowScorer::build_panels`] widens them
    /// into `panels` and `k_scales`.
    k: Option<SymmetricInt8>,
    k_scales: Vec<f32>,
    /// `K` codes widened to i16 (panel 0), and truncated to
    /// [`LDZ_KEEP`] bits (panels 1 and 2), built once per head for the
    /// widths the allocation uses (empty otherwise): a truncated operand
    /// depends only on the key and the kept width, never on the query
    /// row.
    panels: [WideRows; 3],
    bits: Option<Arc<[Bitwidth]>>,
    grid: BlockGrid,
    scale: f32,
    kernel: Kernel,
}

/// The reusable buffers of one row job: the scored block row (`[h, n]`,
/// row-major), its widened queries and its key spans.
#[derive(Default)]
pub(crate) struct RowScratch {
    pub(crate) panel: Vec<f32>,
    q: WideRows,
    spans: Vec<KeySpan>,
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
            k: Some(k),
            k_scales: Vec::new(),
            panels: Default::default(),
            bits,
            grid,
            kernel,
        })
    }

    /// Widens `K` into the panel the score kernel reads and builds the
    /// LDZ-truncated panels the allocation needs (one `qkt.ldz` span
    /// each; none in exact mode); 8-bit blocks keep every bit, so they
    /// read the widened codes. Scoring needs the panels. Separate from
    /// [`RowScorer::new`] so that a head widens `K` after its f32
    /// operands are freed, which keeps the wider codes off the head's
    /// peak heap.
    ///
    /// # Errors
    ///
    /// None for a scorer built by [`RowScorer::new`].
    pub(crate) fn build_panels(&mut self) -> Result<(), CoreError> {
        let Some(k) = self.k.take() else {
            return Ok(());
        };
        self.panels[0] = WideRows::new(k.codes(), k.rows(), k.cols())?;
        self.k_scales = k.scales().to_vec();
        drop(k);
        let Some(bits) = &self.bits else {
            return Ok(());
        };
        for (slot, keep) in LDZ_KEEP.iter().enumerate() {
            if bits.iter().any(|b| b.bits() == *keep) {
                let _t = paro_trace::span(paro_trace::stage::QKT_LDZ);
                let lut: [i8; 256] = std::array::from_fn(|c| ldz::truncate(c as u8 as i8, *keep));
                self.panels[slot + 1] = self.panels[0].map(|v| lut[v as u8 as usize]);
            }
        }
        Ok(())
    }

    /// Map rows (queries).
    pub(crate) fn rows(&self) -> usize {
        self.q.rows()
    }

    /// Map columns (keys).
    pub(crate) fn cols(&self) -> usize {
        self.k
            .as_ref()
            .map_or(self.k_scales.len(), SymmetricInt8::rows)
    }

    /// Number of block rows.
    pub(crate) fn block_rows(&self) -> usize {
        self.rows().div_ceil(self.grid.block_rows)
    }

    /// Scores block row `bi` into `scratch.panel` (`[h, n]`, softmaxed)
    /// and returns `(first map row, h)`. One `qkt.mac` span covers
    /// widening the row's queries and the score kernel call, which
    /// scales the integer sums to f32 scores; one `qkt.softmax` span
    /// covers the row's softmax.
    ///
    /// # Errors
    ///
    /// Propagates the score kernel's shape checks (unreachable once
    /// [`RowScorer::build_panels`] has run).
    pub(crate) fn score_row(
        &self,
        bi: usize,
        scratch: &mut RowScratch,
    ) -> Result<(usize, usize), CoreError> {
        let (n, d) = (self.cols(), self.q.cols());
        let r0 = bi * self.grid.block_rows;
        let h = self.grid.block_rows.min(self.rows() - r0);
        let RowScratch { panel, q, spans } = scratch;
        // Every live lane is overwritten below, so the panel only needs
        // the row's length, not a refill.
        panel.resize(h * n, 0.0);
        if n == 0 {
            return Ok((r0, h));
        }
        // The live key columns, as runs that read one panel: every column
        // in exact mode; in output-aware mode the blocks of each live
        // bitwidth, while bypassed scores read as −∞.
        spans.clear();
        match &self.bits {
            None => spans.push(KeySpan {
                cols: 0..n,
                panel: 0,
            }),
            Some(bits) => {
                let block_cols = self.grid.block_cols;
                let gc = n.div_ceil(block_cols);
                for (bj, &b) in bits[bi * gc..(bi + 1) * gc].iter().enumerate() {
                    let cols = bj * block_cols..((bj + 1) * block_cols).min(n);
                    let panel_of = match b {
                        Bitwidth::B0 => {
                            for row in panel.chunks_exact_mut(n) {
                                row[cols.clone()].fill(f32::NEG_INFINITY);
                            }
                            continue;
                        }
                        Bitwidth::B2 => 1,
                        Bitwidth::B4 => 2,
                        Bitwidth::B8 => 0,
                    };
                    match spans.last_mut() {
                        Some(last) if last.panel == panel_of && last.cols.end == cols.start => {
                            last.cols.end = cols.end;
                        }
                        _ => spans.push(KeySpan {
                            cols,
                            panel: panel_of,
                        }),
                    }
                }
            }
        }
        {
            let _mac = paro_trace::span_detailed(paro_trace::stage::QKT_MAC, self.kernel.as_str());
            q.assign(&self.q.codes()[r0 * d..(r0 + h) * d], h, d)?;
            let [k, ldz2, ldz4] = &self.panels;
            qkt_scores_with(
                q,
                &self.q.scales()[r0..r0 + h],
                &[k, ldz2, ldz4],
                spans,
                &self.k_scales,
                self.scale,
                panel,
                self.kernel,
            )?;
        }
        let _softmax = paro_trace::span(paro_trace::stage::QKT_SOFTMAX);
        for row in panel.chunks_exact_mut(n) {
            paro_tensor::softmax_in_place_with(row, self.kernel);
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
