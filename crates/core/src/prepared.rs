//! The prepared exact path that serving runs: the AQS-GEMM's output and
//! accounting, without replaying its loop nest.
//!
//! [`aqs_gemm`](crate::aqs::aqs_gemm) is the executable specification. It
//! walks every (plane pair, 4×1 weight vector, 1×4 activation vector)
//! outer product, skips the compressed ones and adds the Eq. 6
//! compensation. Its output is always the exact product `W_int · x_eff`
//! (modulo 2³², the spec's wrapping `i32` accumulators), where `x_eff` is
//! the value the activation slices represent: the raw codes for DBS type
//! 1, the truncated codes for types 2/3. So serving splits the two jobs:
//!
//! * [`PreparedWeight`] holds the per-layer constants, built once when a
//!   layer is prepared: a row-major `i16` weight panel, the plane count,
//!   and the per-`k` count of compressed (all-zero) HO 4×1 weight vectors;
//! * [`PreparedActivation`] is one pass over the input codes: `x_eff`
//!   transposed into a panel, and the per-`k` count of all-`r` HO 1×4
//!   activation vectors;
//! * [`exact_gemm`] multiplies the two panels with a register-blocked
//!   integer kernel;
//! * [`closed_form_stats`] derives every [`TileStats`] field the spec
//!   counts, in O(K), from the two count vectors.
//!
//! # The closed form
//!
//! With `cw_k`/`cx_k` the compressed weight/activation HO vectors at
//! inner index `k`, `Pw`/`Px` the plane counts and `mg`/`ng` the 4-row and
//! 4-column group counts, the spec's loop nest has four kinds of plane
//! pair:
//!
//! * LO×LO pairs are never skipped;
//! * each W_HO×x_LO pair skips `Σcw·ng` outer products;
//! * each W_LO×x_HO pair skips `Σcx·mg`;
//! * the HO×HO pair skips `Σcw·ng + Σcx·mg − Σcw·cx` (a product touching
//!   both a compressed weight and a compressed activation vector is
//!   skipped once).
//!
//! The compensators add every loaded weight slice of each uncompressed
//! activation position, `4·Σ_k (ng − cx_k)·(mg·Pw − cw_k)` additions, and
//! finish each 4×4 output tile with one 16-multiply outer product, all
//! only when `r ≠ 0`. Slice loads and the measured `ρ_w`/`ρ_x` follow
//! from `Σcw` and `Σcx` alone.
//!
//! # Examples
//!
//! ```
//! use panacea_bitslice::{SlicedActivation, SlicedWeight};
//! use panacea_core::aqs::{aqs_gemm, aqs_tile_stats};
//! use panacea_core::prepared::{closed_form_stats, exact_gemm, PreparedActivation, PreparedWeight};
//! use panacea_quant::dbs::DbsType;
//! use panacea_tensor::Matrix;
//!
//! let w = Matrix::from_fn(8, 16, |r, c| (r as i32 * 5 + c as i32 * 3) % 63 - 31);
//! let x = Matrix::from_fn(16, 4, |r, c| ((r * 29 + c * 7) % 256) as i32);
//! let sw = SlicedWeight::from_int(&w, 1)?;
//! let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1)?;
//! let pw = PreparedWeight::new(&sw);
//! let px = PreparedActivation::from_codes(&x, 1, DbsType::Type1, 6)?;
//! assert_eq!(exact_gemm(&pw, &px), aqs_gemm(&sw, &sx, 6).0);
//! assert_eq!(closed_form_stats(&pw, &px), aqs_tile_stats(&sw, &sx, 6));
//! # Ok::<(), panacea_bitslice::SliceError>(())
//! ```

use panacea_bitslice::{SliceError, SlicedWeight, VECTOR_LEN};
use panacea_quant::dbs::DbsType;
use panacea_tensor::Matrix;

use crate::aqs::TileStats;

/// The weight-side constants of a prepared layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedWeight {
    /// `W_int`, row-major `M × K`. Every `(3n+4)`-bit SBR weight fits.
    panel: Vec<i16>,
    rows: usize,
    cols: usize,
    planes: usize,
    /// Per `k`: the 4×1 weight vectors whose HO slices are all zero.
    ho_compressed: Vec<u32>,
}

impl PreparedWeight {
    /// Packs a sliced weight into the kernel's panel and counts its
    /// compressed HO vectors. Rows past the last full 4-row group hold no
    /// HO vector; the kernel rejects such shapes as the spec does.
    pub fn new(w: &SlicedWeight) -> Self {
        let (rows, cols) = w.ho().shape();
        let panel = w
            .reconstruct()
            .iter()
            .map(|&v| i16::try_from(v).expect("SBR weights have at most 16 bits"))
            .collect();
        let ho = w.ho();
        let mut ho_compressed = vec![0u32; cols];
        for mg in 0..rows / VECTOR_LEN {
            let group: [&[i8]; VECTOR_LEN] = std::array::from_fn(|i| ho.row(mg * VECTOR_LEN + i));
            for (k, count) in ho_compressed.iter_mut().enumerate() {
                *count += u32::from(group.iter().all(|row| row[k] == 0));
            }
        }
        PreparedWeight {
            panel,
            rows,
            cols,
            planes: w.num_planes(),
            ho_compressed,
        }
    }
}

/// `x_eff`, transposed to `N × K`, in the narrowest type that holds it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Panel {
    /// Activations of at most 12 bits.
    Narrow(Vec<i16>),
    /// Wider activations.
    Wide(Vec<i32>),
}

/// One GEMM's activation operand, prepared from its input codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedActivation {
    panel: Panel,
    rows: usize,
    cols: usize,
    planes: usize,
    r: u8,
    /// Per `k`: the 1×4 activation vectors whose HO slices all equal `r`.
    ho_compressed: Vec<u32>,
}

impl PreparedActivation {
    /// Prepares `(4k+4)`-bit unsigned codes (`K × N`) for a GEMM whose
    /// frequent HO slice is `r`. The codes and `k` are checked as
    /// [`SlicedActivation::from_uint`](panacea_bitslice::SlicedActivation::from_uint)
    /// checks them, and `x_eff` is the value its slices would represent.
    ///
    /// # Errors
    ///
    /// Returns the [`SliceError`] that `SlicedActivation::from_uint`
    /// returns for the same codes, `k` and DBS type.
    pub fn from_codes(
        codes: &Matrix<i32>,
        k: usize,
        dbs_type: DbsType,
        r: u8,
    ) -> Result<Self, SliceError> {
        if k > 7 {
            return Err(SliceError::UnsupportedSliceCount(k));
        }
        if dbs_type != DbsType::Type1 && k != 1 {
            return Err(SliceError::DbsUnsupported { k });
        }
        let bits = 4 * (k as u8 + 1);
        let hi = (1i64 << bits) - 1;
        if let Some(&v) = codes.iter().find(|&&v| v < 0 || i64::from(v) > hi) {
            return Err(SliceError::ValueOutOfRange { value: v, bits });
        }
        // DBS types 2/3 drop the LSBs their LO container cannot hold and
        // move the HO/LO boundary up by as many bits.
        let drop = u32::from(dbs_type.discarded_lsbs());
        let ho_shift = 4 * k as u32 + drop;
        let ho_compressed = (0..codes.rows())
            .map(|kk| {
                codes
                    .row(kk)
                    .chunks_exact(VECTOR_LEN)
                    .filter(|v| v.iter().all(|&c| c >> ho_shift == i32::from(r)))
                    .count() as u32
            })
            .collect();
        let eff = |c: i32| (c >> drop) << drop;
        let panel = if bits <= 12 {
            Panel::Narrow(transpose(codes, |c| eff(c) as i16))
        } else {
            Panel::Wide(transpose(codes, eff))
        };
        Ok(PreparedActivation {
            panel,
            rows: codes.rows(),
            cols: codes.cols(),
            planes: k + 1,
            r,
            ho_compressed,
        })
    }
}

/// `codes` transposed to row-major `N × K`, mapped through `f`.
fn transpose<T>(codes: &Matrix<i32>, f: impl Fn(i32) -> T) -> Vec<T> {
    let (rows, cols) = codes.shape();
    let src = codes.as_slice();
    let mut out = Vec::with_capacity(rows * cols);
    for n in 0..cols {
        out.extend((0..rows).map(|k| f(src[k * cols + n])));
    }
    out
}

/// Checks the operands the way the spec does and returns `(M, K, N)`.
fn shapes(w: &PreparedWeight, x: &PreparedActivation) -> (usize, usize, usize) {
    let (m, k, n) = (w.rows, w.cols, x.cols);
    assert_eq!(k, x.rows, "inner dimensions differ");
    assert_eq!(
        m % VECTOR_LEN,
        0,
        "M = {m} must be a multiple of {VECTOR_LEN}"
    );
    assert_eq!(
        n % VECTOR_LEN,
        0,
        "N = {n} must be a multiple of {VECTOR_LEN}"
    );
    (m, k, n)
}

/// `W_int · x_eff`, bit-identical to [`aqs_gemm`](crate::aqs::aqs_gemm)'s
/// output: `i32` accumulators that wrap exactly where the spec's do.
///
/// # Panics
///
/// Panics if the inner dimensions differ, or if `M`/`N` are not
/// multiples of the vector length 4.
pub fn exact_gemm(w: &PreparedWeight, x: &PreparedActivation) -> Matrix<i32> {
    let (m, k, n) = shapes(w, x);
    let mut out = vec![0i32; m * n];
    match &x.panel {
        Panel::Narrow(xt) => gemm_nt(&w.panel, xt, k, n, &mut out),
        Panel::Wide(xt) => gemm_nt(&w.panel, xt, k, n, &mut out),
    }
    Matrix::from_vec(m, n, out).expect("output sized M × N")
}

/// Output columns computed together, so each weight row is loaded once
/// per four columns. `N` is a multiple of the vector length, hence of
/// this block width.
const COL_BLOCK: usize = VECTOR_LEN;

/// `out (M × N) = w (M × K) · xtᵀ`, with `xt` row-major `N × K`.
fn gemm_nt<X: Copy + Into<i32>>(w: &[i16], xt: &[X], k: usize, n: usize, out: &mut [i32]) {
    if k == 0 {
        return;
    }
    for (w_row, out_row) in w.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (x_block, out_block) in xt
            .chunks_exact(COL_BLOCK * k)
            .zip(out_row.chunks_exact_mut(COL_BLOCK))
        {
            let (x0, rest) = x_block.split_at(k);
            let (x1, rest) = rest.split_at(k);
            let (x2, x3) = rest.split_at(k);
            let mut acc = [0i32; COL_BLOCK];
            for i in 0..k {
                let wv = i32::from(w_row[i]);
                acc[0] = acc[0].wrapping_add(wv.wrapping_mul(x0[i].into()));
                acc[1] = acc[1].wrapping_add(wv.wrapping_mul(x1[i].into()));
                acc[2] = acc[2].wrapping_add(wv.wrapping_mul(x2[i].into()));
                acc[3] = acc[3].wrapping_add(wv.wrapping_mul(x3[i].into()));
            }
            out_block.copy_from_slice(&acc);
        }
    }
}

/// Every [`TileStats`] field [`aqs_tile_stats`](crate::aqs::aqs_tile_stats)
/// measures on the same operands, in closed form (see the module docs).
///
/// # Panics
///
/// Same shape conditions as [`exact_gemm`].
pub fn closed_form_stats(w: &PreparedWeight, x: &PreparedActivation) -> TileStats {
    let (m, k, n) = shapes(w, x);
    let mg = (m / VECTOR_LEN) as u64;
    let ng = (n / VECTOR_LEN) as u64;
    let k = k as u64;
    let (pw, px) = (w.planes as u64, x.planes as u64);
    let (mut sw, mut sx, mut swx, mut comp_vectors) = (0u64, 0u64, 0u64, 0u64);
    for (&cw, &cx) in w.ho_compressed.iter().zip(&x.ho_compressed) {
        let (cw, cx) = (u64::from(cw), u64::from(cx));
        sw += cw;
        sx += cx;
        swx += cw * cx;
        comp_vectors += (ng - cx) * (mg * pw - cw);
    }
    let per_pair = mg * k * ng;
    let swo = (pw - 1) * (px - 1) * per_pair;
    let skipped = px * sw * ng + pw * sx * mg - swx;
    let compensated = x.r != 0;
    TileStats {
        dwo_outer_products: pw * px * per_pair - swo - skipped,
        swo_outer_products: swo,
        skipped_outer_products: skipped,
        comp_adds: if compensated { 4 * comp_vectors } else { 0 },
        comp_muls: if compensated { 16 * mg * ng } else { 0 },
        w_slices_loaded: mg * k * 4 * (pw - 1) + (mg * k - sw) * 4,
        x_slices_loaded: k * ng * 4 * (px - 1) + (k * ng - sx) * 4,
        rho_w: sw as f64 / (mg * k).max(1) as f64,
        rho_x: sx as f64 / (k * ng).max(1) as f64,
    }
}
