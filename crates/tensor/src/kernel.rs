//! Runtime-dispatched CPU micro-kernels for the f32 hot loops.
//!
//! The PARO accelerator maps mixed-bitwidth blocks onto reconfigurable
//! multipliers; the software analogue on a CPU is per-ISA micro-kernels
//! picked once at startup. This module is the dispatch substrate shared
//! by every hot loop in the workspace: it runs AVX2 when the x86 CPU has
//! it and the scalar reference otherwise, honors the `PARO_KERNEL`
//! environment variable as a downgrade override, and hosts the f32
//! matmul drivers. The integer kernels in `paro-quant` dispatch on the
//! same [`Kernel`] value so one process always runs one consistent
//! kernel set.
//!
//! # The f32 matmul
//!
//! The scalar driver is the reference: an axpy row stream that adds
//! `a[i,p]·b[p,·]` into output row `i` for `p` ascending. The AVX2
//! driver is register-blocked instead. A 16-column panel of `b` is
//! packed once into contiguous rows, and each 6-row tile of `a` runs
//! over it with its 6×16 sums in twelve ymm registers: per `k` step, two
//! panel loads, six broadcast `a` values, twelve multiplies and twelve
//! adds. The output is written once per tile instead of loaded and
//! stored for every `k`.
//!
//! # Bit-identity contract
//!
//! The AVX2 kernels produce **bit-identical** results to the scalar
//! reference:
//!
//! - integer kernels are exact by construction (i32 adds commute);
//! - the f32 tiles vectorize the *output* axes only: each output element
//!   still starts from `+0` and adds its `k` products one at a time in
//!   ascending `k`, each product rounded by a separate multiply before a
//!   separate add (never FMA, which rounds once instead of twice). A
//!   tile's sums wait in registers, or in a stack buffer between `k`
//!   segments, and f32 loads and stores are exact, so the sequence of
//!   roundings per element is the scalar one;
//! - skipping an all-zero `TILE_K` segment of `a` is exact whenever `b`
//!   is finite: each skipped product is `±0`, an accumulator that starts
//!   at `+0` can never become `-0` (round-to-nearest gives `+0` for
//!   `x + (−x)` and for `+0 + −0`), and `x + ±0 == x` bit for bit for
//!   every other `x`, NaN and ∞ included. So the scalar driver may skip
//!   per row and a tile only when all six of its rows are zero, with the
//!   same bits. When `b` holds NaN or ∞ the caller turns the bypass off,
//!   so `0·NaN = NaN` reaches the output on every kernel;
//! - the softmax row function ([`crate::softmax_in_place_with`]) is one
//!   `#[inline(always)]` loop that the AVX2 kernel compiles with AVX2
//!   enabled. The loop's exponential is [`crate::exp`], which selects
//!   and never branches on data, and its row sum is eight lane sums
//!   reduced in a fixed tree, so the compiler vectorizes it without
//!   reordering a single rounding. Nothing in it calls libm, so its bits
//!   do not depend on the host either.
//!
//! The equivalence suites (`tensor/tests/matmul_kernels.rs`,
//! `tensor/tests/softmax_kernels.rs`, `quant/tests/kernel_equivalence.rs`)
//! pin this contract on every kernel the host can run; a CPU without AVX2
//! runs only the reference.

// SIMD intrinsics are the one place the workspace needs `unsafe`; every
// block is bounded by explicit slice lengths checked in the safe callers.
#![allow(unsafe_code)]

use std::str::FromStr;
use std::sync::OnceLock;

/// A dispatchable micro-kernel implementation, ordered by preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kernel {
    /// Portable scalar reference — always available, the semantic ground
    /// truth every SIMD path must match bit for bit.
    Scalar,
    /// x86-64 AVX2: 8×f32 / 8×i32 lanes plus variable shifts for the
    /// packed-code unpack.
    Avx2,
}

impl Kernel {
    /// Every kernel this build knows about, in preference order
    /// (scalar first).
    pub const ALL: &'static [Kernel] = &[Kernel::Scalar, Kernel::Avx2];

    /// Stable lowercase name, as printed in reports and accepted by
    /// `PARO_KERNEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this kernel. Inlined: every
    /// kernel dispatcher checks it once per call, that is once per block.
    #[inline]
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
            _ => false,
        }
    }

    /// The kernels the running CPU supports, in preference order.
    pub fn supported() -> Vec<Kernel> {
        Kernel::ALL
            .iter()
            .copied()
            .filter(|k| k.is_supported())
            .collect()
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown kernel name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelError(pub String);

impl std::fmt::Display for ParseKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown kernel '{}' (use scalar or avx2)", self.0)
    }
}

impl std::error::Error for ParseKernelError {}

impl FromStr for Kernel {
    type Err = ParseKernelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Ok(Kernel::Scalar),
            "avx2" => Ok(Kernel::Avx2),
            other => Err(ParseKernelError(other.to_string())),
        }
    }
}

/// The widest kernel the running CPU supports, ignoring any override.
pub fn detected() -> Kernel {
    *Kernel::ALL
        .iter()
        .rev()
        .find(|k| k.is_supported())
        .expect("scalar is always supported")
}

/// What [`active`] resolved and why — for reports that must show whether
/// the run was forced off the detected path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// The kernel every dispatched hot loop runs.
    pub kernel: Kernel,
    /// `true` when `PARO_KERNEL` overrode detection.
    pub forced: bool,
}

/// Resolves a `PARO_KERNEL` value against the `detected` kernel. The
/// override can only *downgrade*: an unknown name, or a kernel wider
/// than `detected` (one the CPU cannot run), leaves `detected` in place
/// and the run unforced.
fn env_dispatch(raw: Option<&str>, detected: Kernel) -> Dispatch {
    let kernel = raw
        .and_then(|name| name.parse::<Kernel>().ok())
        .map_or(detected, |k| k.min(detected));
    Dispatch {
        kernel,
        forced: kernel != detected,
    }
}

/// The dispatch decision for this process: the `PARO_KERNEL`-aware
/// detection result, computed once and cached.
pub fn active() -> Dispatch {
    static ENV: OnceLock<Dispatch> = OnceLock::new();
    *ENV.get_or_init(|| env_dispatch(std::env::var("PARO_KERNEL").ok().as_deref(), detected()))
}

/// The kernel every dispatched hot loop currently runs.
pub fn active_kernel() -> Kernel {
    active().kernel
}

/// k-dimension segment of the f32/i32 GEMM drivers. 256 f32 values =
/// 1 KiB per operand row segment. It is the granularity of the f32
/// zero-segment bypass, and the i32 drivers in `paro-quant` stream one
/// `B` panel per segment.
pub const TILE_K: usize = 256;

/// Rows of the f32 register tile: six broadcast `a` values per `k` step.
const MR: usize = 6;

/// Columns of the f32 register tile: two 8-lane ymm registers per row.
const NR: usize = 16;

/// Scalar reference: `out = a·b` as an axpy row stream, one
/// `out[i, ·] += a[i, p] · b[p, ·]` per `p` in ascending order, a row's
/// all-zero `TILE_K` segment skipped when `skip_zeros` holds.
fn matmul_driver_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    skip_zeros: bool,
) {
    out.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for k0 in (0..k).step_by(TILE_K) {
            let aseg = &arow[k0..k0 + TILE_K.min(k - k0)];
            if skip_zeros && aseg.iter().all(|&v| v == 0.0) {
                continue;
            }
            for (p, &av) in aseg.iter().enumerate() {
                let brow = &b[(k0 + p) * n..(k0 + p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Register-blocked `out = a·b` for the AVX2 kernel. Columns are taken
/// `NR` at a time: the column panel of `b` is packed once into `k` rows
/// of `NR` floats (zero-padded past `n`), then every `MR`-row tile of `a`
/// runs `tile` over it one `TILE_K` segment at a time, its sums carried
/// in `acc` between segments. Row remainders repeat the last real row
/// and column remainders compute on the zero padding; both extra results
/// are discarded, so remainders run the same SIMD tile as full tiles.
#[allow(clippy::too_many_arguments)]
fn matmul_tiled(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    skip_zeros: bool,
    tile: impl Fn(&[&[f32]; MR], &[f32], &mut [[f32; NR]; MR]),
) {
    let mut panel = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            dst[..nr].copy_from_slice(&b[p * n + j0..p * n + j0 + nr]);
            dst[nr..].fill(0.0);
        }
        for i0 in (0..m).step_by(MR) {
            let mr = MR.min(m - i0);
            let rows: [&[f32]; MR] = std::array::from_fn(|r| {
                let i = i0 + r.min(mr - 1);
                &a[i * k..(i + 1) * k]
            });
            let mut acc = [[0.0f32; NR]; MR];
            for k0 in (0..k).step_by(TILE_K) {
                let k1 = k0 + TILE_K.min(k - k0);
                if skip_zeros && rows.iter().all(|row| row[k0..k1].iter().all(|&v| v == 0.0)) {
                    continue;
                }
                // `from_fn` rather than `rows.map`: the compiler left the
                // `map` an out-of-line call per segment, which slowed a
                // 1152×256×1024 product by about a fifth.
                tile(
                    &std::array::from_fn(|r| &rows[r][k0..k1]),
                    &panel[k0 * NR..k1 * NR],
                    &mut acc,
                );
            }
            for (r, sums) in acc[..mr].iter().enumerate() {
                out[(i0 + r) * n + j0..(i0 + r) * n + j0 + nr].copy_from_slice(&sums[..nr]);
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{MR, NR};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// One `MR × NR` register tile: `acc[r][j] += rows[r][p] ·
    /// panel[p·NR + j]` for `p` ascending, in `2·MR` ymm accumulators
    /// with a separate multiply and add (no FMA), so every sum rounds
    /// exactly as the scalar reference's.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile_avx2(rows: &[&[f32]; MR], panel: &[f32], acc: &mut [[f32; NR]; MR]) {
        let kt = panel.len() / NR;
        // The raw reads below rely on these lengths.
        assert!(
            panel.len() == kt * NR && rows.iter().all(|row| row.len() == kt),
            "register tile operands disagree"
        );
        let mut c = [[_mm256_setzero_ps(); 2]; MR];
        for (cr, ar) in c.iter_mut().zip(acc.iter()) {
            // SAFETY: `ar` holds `NR = 16` floats.
            cr[0] = _mm256_loadu_ps(ar.as_ptr());
            cr[1] = _mm256_loadu_ps(ar.as_ptr().add(8));
        }
        for p in 0..kt {
            // SAFETY: `p < kt` and `panel` holds `kt` rows of `NR` floats
            // (asserted above).
            let bp = panel.as_ptr().add(p * NR);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for (cr, row) in c.iter_mut().zip(rows) {
                // SAFETY: every row holds `kt > p` floats (asserted above).
                let av = _mm256_set1_ps(*row.as_ptr().add(p));
                cr[0] = _mm256_add_ps(cr[0], _mm256_mul_ps(av, b0));
                cr[1] = _mm256_add_ps(cr[1], _mm256_mul_ps(av, b1));
            }
        }
        for (cr, ar) in c.iter().zip(acc.iter_mut()) {
            // SAFETY: `ar` holds `NR = 16` floats.
            _mm256_storeu_ps(ar.as_mut_ptr(), cr[0]);
            _mm256_storeu_ps(ar.as_mut_ptr().add(8), cr[1]);
        }
    }
}

/// `out[m,n] = a[m,k] · b[k,n]` dispatched to `kernel`; `out`'s previous
/// contents are overwritten.
///
/// AVX2 runs a 6×16 register tile (see [`crate::kernel`] for why it
/// matches the scalar reference bit for bit).
///
/// `skip_zeros` must be `false` when `b` contains non-finite values so
/// IEEE `0·NaN = NaN` propagation survives; the caller checks this once.
#[allow(clippy::too_many_arguments)]
pub fn matmul_f32(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    skip_zeros: bool,
) {
    assert_eq!(a.len(), m * k, "a is not m×k");
    assert_eq!(b.len(), k * n, "b is not k×n");
    assert_eq!(out.len(), m * n, "out is not m×n");
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Kernel::Avx2 => {
            matmul_tiled(a, b, out, m, k, n, skip_zeros, |rows, panel, acc| {
                // SAFETY: the CPU supports AVX2 (asserted above).
                unsafe { x86::tile_avx2(rows, panel, acc) }
            })
        }
        _ => matmul_driver_scalar(a, b, out, m, k, n, skip_zeros),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_roundtrip() {
        for &k in Kernel::ALL {
            assert_eq!(k.as_str().parse::<Kernel>().unwrap(), k);
        }
        assert!("SSE41".parse::<Kernel>().is_err());
        assert!("neon".parse::<Kernel>().is_err());
        let err = "neon".parse::<Kernel>().unwrap_err();
        assert!(err.to_string().contains("neon"));
    }

    #[test]
    fn scalar_is_always_supported_and_detected_is_best() {
        assert!(Kernel::Scalar.is_supported());
        let best = detected();
        assert!(best.is_supported());
        for &k in Kernel::ALL {
            if k > best {
                assert!(!k.is_supported(), "{k} wider than detected best {best}");
            }
        }
        assert_eq!(Kernel::supported()[0], Kernel::Scalar);
    }

    #[test]
    fn paro_kernel_only_downgrades() {
        let resolve = |raw, detected| {
            let d = env_dispatch(raw, detected);
            (d.kernel, d.forced)
        };
        for detected in Kernel::ALL.iter().copied() {
            let kept = (detected, false);
            assert_eq!(resolve(None, detected), kept);
            assert_eq!(
                resolve(Some("scalar"), detected),
                (Kernel::Scalar, detected == Kernel::Avx2)
            );
            for raw in ["avx2", "sse4.1", "neon", ""] {
                assert_eq!(resolve(Some(raw), detected), kept, "PARO_KERNEL={raw:?}");
            }
        }
    }

    /// Rows 18..=23 are three full row tiles plus every row remainder,
    /// columns 48..=63 three full 16-wide panels plus every column
    /// remainder, and `k` crosses `TILE_K`. Every third row has an
    /// all-zero second segment, so the bypass fires for some tiles and
    /// mixes with computed rows in others; the non-finite pass disables
    /// it and poisons one column per panel.
    #[test]
    fn drivers_match_scalar_bit_for_bit() {
        let k = TILE_K + 13;
        for m in 18..=23 {
            for n in 48..=63 {
                let a: Vec<f32> = (0..m * k)
                    .map(|i| {
                        let (r, p) = (i / k, i % k);
                        if (r % 3 == 0 && p >= TILE_K) || i % 7 == 0 {
                            0.0
                        } else {
                            (i as f32 * 0.37).sin()
                        }
                    })
                    .collect();
                let mut b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
                for skip_zeros in [true, false] {
                    if !skip_zeros {
                        for (j, poison) in (0..n).step_by(16).zip([
                            f32::NAN,
                            f32::INFINITY,
                            f32::NEG_INFINITY,
                            f32::NAN,
                        ]) {
                            b[(j * 5 % k) * n + (j + 3).min(n - 1)] = poison;
                        }
                    }
                    let mut want = vec![0.0f32; m * n];
                    matmul_f32(Kernel::Scalar, &a, &b, &mut want, m, k, n, skip_zeros);
                    for kernel in Kernel::supported() {
                        let mut got = vec![1.0f32; m * n];
                        matmul_f32(kernel, &a, &b, &mut got, m, k, n, skip_zeros);
                        for (x, y) in got.iter().zip(&want) {
                            assert_eq!(x.to_bits(), y.to_bits(), "{kernel} m={m} n={n}");
                        }
                    }
                }
            }
        }
    }
}
