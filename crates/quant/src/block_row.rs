//! One block row of an attention map in packed mixed-precision storage,
//! and the per-block quantize and `AttnV` steps every packed path shares.
//!
//! A block row holds whole softmax rows, and a block's min-max parameters
//! depend only on that block, so quantizing a map one block row at a time
//! gives exactly the codes of quantizing it whole; `AttnV` adds a row's
//! blocks into its output in block-column order either way. The fused
//! attention executor of `paro-core` streams a head through [`PackedRow`]
//! and [`AttnVOperand`] one block row at a time, holding `O(edge · N)` of
//! the map instead of `N²`; [`MixedPrecisionMap::quantize`] and
//! [`packed_attn_v`] run the same two steps over a whole map.
//!
//! [`MixedPrecisionMap::quantize`]: crate::MixedPrecisionMap::quantize
//! [`packed_attn_v`]: crate::packed_attn_v

use crate::kernels::{self, BlockScratch, Kernel, VPairs};
use crate::mixed_map::PARAM_BYTES_PER_BLOCK;
use crate::packed::pack_append;
use crate::{Bitwidth, BlockGrid, PackedCodes, PerColCodes, QuantError, QuantParams};
use paro_tensor::TensorError;
use std::ops::AddAssign;

/// Exact integer counts of block-wise quantized map rows: what packed
/// `AttnV` reads and bypasses, and how much of the map dequantizes to
/// zero. They are counted while quantizing, so no second pass over the
/// codes is needed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RowCounts {
    /// Packed bytes of the live (non-0-bit) blocks: code payload plus
    /// [`PARAM_BYTES_PER_BLOCK`] each.
    pub packed_bytes: u64,
    /// Elements of the live blocks; each costs one MAC per `V` column.
    pub live_elems: u64,
    /// 0-bit blocks, bypassed without storage or compute.
    pub skipped_blocks: usize,
    /// Elements that dequantize to exactly zero: every element of a
    /// 0-bit block, plus every code equal to its block's zero point
    /// (`s·(z − z) = 0`; any other code is nonzero, because scales are
    /// at least `f32::MIN_POSITIVE`).
    pub zero_elems: u64,
}

impl AddAssign for RowCounts {
    fn add_assign(&mut self, other: RowCounts) {
        self.packed_bytes += other.packed_bytes;
        self.live_elems += other.live_elems;
        self.skipped_blocks += other.skipped_blocks;
        self.zero_elems += other.zero_elems;
    }
}

/// One block of a [`PackedRow`]: its key columns, its parameters and its
/// payload's byte range in the row.
#[derive(Debug, Clone, Copy)]
struct RowBlock {
    c0: usize,
    w: usize,
    params: QuantParams,
    start: usize,
    end: usize,
}

/// A borrowed packed block as `AttnV` consumes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRef<'a> {
    /// First key column.
    pub(crate) c0: usize,
    /// Key columns.
    pub(crate) w: usize,
    /// Stored codes (`h · w` in a well-formed block).
    pub(crate) elems: usize,
    /// Storage bitwidth; 0-bit blocks are bypassed.
    pub(crate) bits: Bitwidth,
    /// The block's min-max parameters.
    pub(crate) params: QuantParams,
    /// The packed code payload.
    pub(crate) bytes: &'a [u8],
}

/// One block row of an attention map in packed mixed-precision storage,
/// plus the scratch its quantize and `AttnV` steps reuse, so streaming a
/// map through it allocates nothing per block. One per concurrent row
/// job.
#[derive(Debug, Default)]
pub struct PackedRow {
    h: usize,
    cols: usize,
    blocks: Vec<RowBlock>,
    bytes: Vec<u8>,
    gather: Vec<f32>,
    codes: Vec<u32>,
    scratch: BlockScratch,
}

impl PackedRow {
    /// An empty row.
    pub fn new() -> Self {
        PackedRow::default()
    }

    /// Quantizes the block row `panel` (map rows of `cols` values each,
    /// row-major, at most `grid.block_rows` of them) block-wise: block
    /// column `bj` is min-max calibrated at `bits[bj]`, quantized on
    /// `kernel` and packed; a 0-bit block stores nothing. Replaces the
    /// row's previous contents and returns its counts.
    ///
    /// # Errors
    ///
    /// [`QuantError::BitwidthCountMismatch`] if `bits` does not hold one
    /// bitwidth per block column, and a tensor element-count error if
    /// `panel` is not whole rows of `cols` values or holds more rows than
    /// a block.
    pub fn quantize(
        &mut self,
        panel: &[f32],
        cols: usize,
        grid: BlockGrid,
        bits: &[Bitwidth],
        kernel: Kernel,
    ) -> Result<RowCounts, QuantError> {
        let h = panel.len().checked_div(cols).unwrap_or(0);
        if h * cols != panel.len() || h > grid.block_rows {
            return Err(QuantError::Tensor(TensorError::ElementCountMismatch {
                requested: h.min(grid.block_rows) * cols,
                actual: panel.len(),
            }));
        }
        let gc = cols.div_ceil(grid.block_cols);
        if bits.len() != gc {
            return Err(QuantError::BitwidthCountMismatch {
                supplied: bits.len(),
                blocks: gc,
            });
        }
        self.h = h;
        self.cols = cols;
        self.blocks.clear();
        self.bytes.clear();
        let mut counts = RowCounts::default();
        for (bj, &b) in bits.iter().enumerate() {
            let c0 = bj * grid.block_cols;
            let w = grid.block_cols.min(cols - c0);
            let start = self.bytes.len();
            let params = self.quantize_block(panel, c0, w, b, kernel, &mut counts);
            self.blocks.push(RowBlock {
                c0,
                w,
                params,
                start,
                end: self.bytes.len(),
            });
        }
        Ok(counts)
    }

    /// Quantizes and packs block columns `c0..c0 + w` of the row at
    /// `bits`, appending the payload to the row's bytes: the one
    /// per-block quantization of every packed map path.
    fn quantize_block(
        &mut self,
        panel: &[f32],
        c0: usize,
        w: usize,
        bits: Bitwidth,
        kernel: Kernel,
        counts: &mut RowCounts,
    ) -> QuantParams {
        let elems = self.h * w;
        if bits == Bitwidth::B0 {
            // Bypassed block: calibration ignores its values and every
            // code is 0, so there is nothing to gather, quantize or store.
            counts.skipped_blocks += 1;
            counts.zero_elems += elems as u64;
            return QuantParams::calibrate_minmax(&[], bits);
        }
        self.gather.clear();
        for row in panel.chunks_exact(self.cols) {
            self.gather.extend_from_slice(&row[c0..c0 + w]);
        }
        let params = QuantParams::calibrate_minmax(&self.gather, bits);
        self.codes.resize(elems, 0);
        params.quantize_into(&self.gather, kernel, &mut self.codes);
        if let Ok(z) = u32::try_from(params.zero_point()) {
            counts.zero_elems += self.codes.iter().filter(|&&c| c == z).count() as u64;
        }
        let start = self.bytes.len();
        pack_append(&self.codes, bits, &mut self.bytes);
        counts.packed_bytes += (self.bytes.len() - start + PARAM_BYTES_PER_BLOCK) as u64;
        counts.live_elems += elems as u64;
        params
    }

    /// The row's blocks in column order as owned packed storage:
    /// `(bitwidth, parameters, codes)`.
    pub(crate) fn stored_blocks(
        &self,
    ) -> impl Iterator<Item = (Bitwidth, QuantParams, PackedCodes)> + '_ {
        self.blocks.iter().map(|b| {
            let bits = b.params.bits();
            let codes =
                PackedCodes::from_packed(self.bytes[b.start..b.end].to_vec(), self.h * b.w, bits);
            (bits, b.params, codes)
        })
    }
}

/// The per-head `V` operand of packed `AttnV`: per-column codes with
/// their zero points subtracted, laid out as row pairs (the operand form
/// of the `vpmaddwd` MAC; i16, half the bytes of i32 rows, whenever the
/// zero points allow), and the column scales. Read-only once built, so concurrent row jobs can share
/// one.
#[derive(Debug, Clone)]
pub struct AttnVOperand {
    v: VPairs,
    scales: Vec<f32>,
    kernel: Kernel,
}

impl AttnVOperand {
    /// The operand of `v` for `AttnV` on `kernel`. Building it is the
    /// entry of the packed `AttnV` kernel: the `quant.pack_attn_v`
    /// failpoint fires here, once per head.
    ///
    /// # Errors
    ///
    /// [`QuantError::Transient`] when the `quant.pack_attn_v` failpoint
    /// is armed (chaos builds only).
    pub fn new(v: &PerColCodes, kernel: Kernel) -> Result<Self, QuantError> {
        if paro_failpoint::fire(paro_failpoint::site::QUANT_PACK_ATTN_V) {
            return Err(QuantError::Transient {
                site: paro_failpoint::site::QUANT_PACK_ATTN_V,
            });
        }
        let _t = paro_trace::span(paro_trace::stage::ATTNV_UNPACK);
        let zero_points: Vec<i32> = v.params().iter().map(QuantParams::zero_point).collect();
        let max_code = v.bits().max_code();
        Ok(AttnVOperand {
            v: VPairs::new(v.codes(), v.rows(), v.cols(), &zero_points, max_code),
            scales: v.params().iter().map(QuantParams::scale).collect(),
            kernel,
        })
    }

    /// Columns of `V` (the head dimension).
    pub fn cols(&self) -> usize {
        self.v.cols()
    }

    /// `out += row · V` for one quantized block row: its `h × d` output
    /// rows, row-major. Blocks are added in column order and 0-bit blocks
    /// are bypassed, exactly as [`crate::packed_attn_v`] adds them.
    ///
    /// # Errors
    ///
    /// A matmul dimension error if the row's width differs from `V`'s
    /// rows, and a tensor element-count error if `out` is not `h × d`.
    pub fn accumulate(&self, row: &mut PackedRow, out: &mut [f32]) -> Result<(), QuantError> {
        if row.cols != self.v.rows() {
            return Err(QuantError::Tensor(TensorError::MatmulDimMismatch {
                left: vec![row.h, row.cols],
                right: vec![self.v.rows(), self.cols()],
            }));
        }
        let PackedRow {
            h,
            blocks,
            bytes,
            scratch,
            ..
        } = row;
        let h = *h;
        let refs = blocks.iter().map(|b| BlockRef {
            c0: b.c0,
            w: b.w,
            elems: h * b.w,
            bits: b.params.bits(),
            params: b.params,
            bytes: &bytes[b.start..b.end],
        });
        self.accumulate_blocks(refs, h, scratch, out)
    }

    /// `out += Σ_blocks dequant(block · V[c0..c0 + w])` over `h` output
    /// rows: per live block, the block body of the operand's kernel adds
    /// its exact sums times `s_b · s_c` (as [`crate::dequantize_gemm`]
    /// scales them) straight into the f32 rows. One `attnv.mac` span
    /// covers the block row's live blocks (none when every block is
    /// 0-bit): a block's MAC is shorter than a span record.
    ///
    /// # Errors
    ///
    /// A packed-length error for a block whose payload does not hold
    /// `h · w` codes, a matmul dimension error for one whose keys pass
    /// `V`'s rows, and a tensor element-count error if `out` is not
    /// `h × d`.
    pub(crate) fn accumulate_blocks<'a>(
        &self,
        blocks: impl IntoIterator<Item = BlockRef<'a>>,
        h: usize,
        scratch: &mut BlockScratch,
        out: &mut [f32],
    ) -> Result<(), QuantError> {
        let d = self.cols();
        if out.len() != h * d {
            return Err(QuantError::Tensor(TensorError::ElementCountMismatch {
                requested: h * d,
                actual: out.len(),
            }));
        }
        if d == 0 {
            return Ok(());
        }
        // Opened at the first live block, so a fully bypassed row records
        // no MAC time at all.
        let mut mac = None;
        for b in blocks {
            if b.bits == Bitwidth::B0 {
                continue; // dispatcher bypass: bytes never touched
            }
            mac.get_or_insert_with(|| {
                paro_trace::span_detailed(paro_trace::stage::ATTNV_MAC, self.kernel.as_str())
            });
            if b.c0 + b.w > self.v.rows() {
                return Err(QuantError::Tensor(TensorError::MatmulDimMismatch {
                    left: vec![h, b.c0 + b.w],
                    right: vec![self.v.rows(), d],
                }));
            }
            for (got, expected) in [
                (b.elems, h * b.w),
                (b.bytes.len(), PackedCodes::bytes_for(b.elems, b.bits)),
            ] {
                if got != expected {
                    return Err(QuantError::PackedLengthMismatch {
                        bytes: got,
                        expected,
                    });
                }
            }
            kernels::attn_v_block(self.kernel, &b, h, &self.v, &self.scales, scratch, out);
        }
        Ok(())
    }
}
