//! The asymmetrically-quantized bit-slice GEMM (AQS-GEMM), paper §III-B.
//!
//! Operands arrive pre-sliced: weights as SBR planes (`Σ_i W_i·8^i`),
//! activations as straightforward/DBS planes (`Σ_j x_j·c_j`). The kernel:
//!
//! 1. groups HO slices into length-4 vectors (4×1 for weights along M,
//!    1×4 for activations along N);
//! 2. **compresses** all-zero weight HO vectors and all-`r` activation HO
//!    vectors (`r` = HO slice of the zero-point) and **skips** every outer
//!    product that touches a compressed vector;
//! 3. restores exactness with the Eq. 6 **compensation term**: per output
//!    tile, the compensators accumulate the already-loaded weight slices of
//!    the *uncompressed* activation positions, one outer product with the
//!    all-`r` vector recreates `r·(ΣW)·Jᵁ`, and the offline-precomputed
//!    `b' = r·(ΣW)·1` completes `r·(ΣW)·Jᶜ = b' − r·(ΣW)·Jᵁ`.
//!
//! The result is bit-exact against the dense reference for type-1 DBS, and
//! exact against the DBS-truncated activations for types 2/3.

use panacea_bitslice::{SlicedActivation, SlicedWeight, VECTOR_LEN};
use panacea_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// Per-tile scheduling statistics consumed by the accelerator simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TileStats {
    /// Executed outer products that involve at least one HO plane
    /// (allocated to the dynamic workload operators, DWOs).
    pub dwo_outer_products: u64,
    /// Executed dense LO×LO outer products (static workload operators).
    pub swo_outer_products: u64,
    /// Outer products skipped thanks to compression.
    pub skipped_outer_products: u64,
    /// Compensator additions (weight-slice accumulation).
    pub comp_adds: u64,
    /// Compensator multiplications (final outer products with `r`).
    pub comp_muls: u64,
    /// 4-bit weight slices loaded from memory.
    pub w_slices_loaded: u64,
    /// 4-bit activation slices loaded from memory.
    pub x_slices_loaded: u64,
    /// Measured weight HO vector sparsity `ρ_w`.
    pub rho_w: f64,
    /// Measured activation HO vector sparsity `ρ_x`.
    pub rho_x: f64,
}

/// The one mapping from scheduling statistics to the operation counts
/// both [`aqs_gemm`] and the prepared serving path report: every
/// executed outer product is 16 multiplies and 16 additions.
impl From<&TileStats> for Workload {
    fn from(s: &TileStats) -> Self {
        let executed = s.dwo_outer_products + s.swo_outer_products;
        Workload {
            mul: executed * 16,
            add: executed * 16,
            ema_slices: s.w_slices_loaded + s.x_slices_loaded,
            comp_mul: s.comp_muls,
            comp_add: s.comp_adds,
        }
    }
}

/// Extracts the 4×1 weight slice-vector at (`mg`, `k`) of a plane.
#[inline]
fn w_vec(plane: &Matrix<i8>, mg: usize, k: usize) -> [i8; VECTOR_LEN] {
    let base = mg * VECTOR_LEN;
    [
        plane[(base, k)],
        plane[(base + 1, k)],
        plane[(base + 2, k)],
        plane[(base + 3, k)],
    ]
}

/// Extracts the 1×4 activation slice-vector at (`k`, `ng`) of a plane.
#[inline]
fn x_vec(plane: &Matrix<u8>, k: usize, ng: usize) -> [u8; VECTOR_LEN] {
    let base = ng * VECTOR_LEN;
    [
        plane[(k, base)],
        plane[(k, base + 1)],
        plane[(k, base + 2)],
        plane[(k, base + 3)],
    ]
}

/// Computes `W · X` with the AQS-GEMM, returning the exact product of the
/// *represented* operands (dense-reference-exact for DBS type-1,
/// truncated-activation-exact for types 2/3) together with the measured
/// [`Workload`].
///
/// `r` is the frequent HO slice of the activation's zero-point (`zp_HO`,
/// possibly after ZPM). Symmetric activations correspond to `r = 0`.
///
/// # Panics
///
/// Panics if shapes are incompatible, or if `M`/`N` are not multiples of
/// the vector length 4.
///
/// # Examples
///
/// See the crate-level example; the central invariant is
/// `aqs_gemm(W, X, r).0 == W·X` for every `r`.
pub fn aqs_gemm(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> (Matrix<i32>, Workload) {
    let (out, stats) = aqs_gemm_with_stats(w, x, r);
    (out, Workload::from(&stats))
}

/// Scheduling-level statistics only (no result materialization beyond the
/// same pass); used by the simulator and the workload-model tests.
pub fn aqs_tile_stats(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> TileStats {
    aqs_gemm_with_stats(w, x, r).1
}

// The kernel walks (plane, group, k) coordinates across several parallel
// lookup tables; index loops keep it aligned with the paper's notation.
#[allow(clippy::needless_range_loop)]
fn aqs_gemm_with_stats(w: &SlicedWeight, x: &SlicedActivation, r: u8) -> (Matrix<i32>, TileStats) {
    let m = w.plane(0).rows();
    let k_dim = w.plane(0).cols();
    let n = x.plane(0).cols();
    assert_eq!(k_dim, x.plane(0).rows(), "inner dimensions differ");
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
    let n_w_planes = w.num_planes();
    let n_x_planes = x.num_planes();
    let w_ho = n_w_planes - 1;
    let x_ho = n_x_planes - 1;
    let m_groups = m / VECTOR_LEN;
    let n_groups = n / VECTOR_LEN;

    // Pre-compute compressibility of HO vectors.
    let mut w_comp = vec![vec![false; k_dim]; m_groups];
    let mut w_comp_count = 0u64;
    for (mg, row) in w_comp.iter_mut().enumerate() {
        for (k, flag) in row.iter_mut().enumerate() {
            let v = w_vec(w.plane(w_ho), mg, k);
            *flag = v.iter().all(|&s| s == 0);
            w_comp_count += u64::from(*flag);
        }
    }
    let mut x_comp = vec![vec![false; n_groups]; k_dim];
    let mut x_comp_count = 0u64;
    for (k, row) in x_comp.iter_mut().enumerate() {
        for (ng, flag) in row.iter_mut().enumerate() {
            let v = x_vec(x.plane(x_ho), k, ng);
            *flag = v.iter().all(|&s| s == r);
            x_comp_count += u64::from(*flag);
        }
    }

    let mut out = Matrix::<i32>::zeros(m, n);
    let mut stats = TileStats {
        rho_w: w_comp_count as f64 / (m_groups * k_dim).max(1) as f64,
        rho_x: x_comp_count as f64 / (k_dim * n_groups).max(1) as f64,
        ..TileStats::default()
    };

    // EMA accounting: LO planes always move; HO planes move only their
    // uncompressed vectors (weights once per tile, activations once per
    // tile — the dataflow reuse factors are modeled in the simulator).
    stats.w_slices_loaded = (m_groups * k_dim) as u64 * 4 * (n_w_planes as u64 - 1)
        + ((m_groups * k_dim) as u64 - w_comp_count) * 4;
    stats.x_slices_loaded = (k_dim * n_groups) as u64 * 4 * (n_x_planes as u64 - 1)
        + ((k_dim * n_groups) as u64 - x_comp_count) * 4;

    // Bit-slice GEMMs over all plane pairs.
    for i in 0..n_w_planes {
        let wp = w.plane(i);
        let w_scale = w.plane_weight(i);
        for j in 0..n_x_planes {
            let xp = x.plane(j);
            let scale = w_scale * x.plane_weight(j);
            let is_ho_pair = i == w_ho || j == x_ho;
            for mg in 0..m_groups {
                for kk in 0..k_dim {
                    let skip_w = i == w_ho && w_comp[mg][kk];
                    let wv = w_vec(wp, mg, kk);
                    for ng in 0..n_groups {
                        let skip_x = j == x_ho && x_comp[kk][ng];
                        if skip_w || skip_x {
                            stats.skipped_outer_products += 1;
                            continue;
                        }
                        if is_ho_pair {
                            stats.dwo_outer_products += 1;
                        } else {
                            stats.swo_outer_products += 1;
                        }
                        let xv = x_vec(xp, kk, ng);
                        for mm in 0..VECTOR_LEN {
                            let wval = i32::from(wv[mm]) * scale;
                            if wval == 0 {
                                continue;
                            }
                            for nn in 0..VECTOR_LEN {
                                out[(mg * VECTOR_LEN + mm, ng * VECTOR_LEN + nn)] +=
                                    wval * i32::from(xv[nn]);
                            }
                        }
                    }
                }
            }
        }
    }

    // Compensation (Eq. 6). r_eff is the value a compressed HO slice
    // contributes per activation position.
    let r_eff = i32::from(r) * x.plane_weight(x_ho);
    if r_eff != 0 {
        // Offline-precomputed b'[m] = r_eff · Σ_k W_int[m][k]; not counted
        // in the runtime workload (added to the layer bias in advance).
        let w_int = w.reconstruct();
        let b_prime: Vec<i64> = (0..m)
            .map(|mm| {
                w_int
                    .row(mm)
                    .iter()
                    .map(|&v| i64::from(v) * i64::from(r_eff))
                    .sum::<i64>()
            })
            .collect();
        for ng in 0..n_groups {
            for mg in 0..m_groups {
                // CS: accumulate loaded weight slices over *uncompressed*
                // activation positions (Eq. 6 reuses them; no extra EMA).
                let mut acc = [0i64; VECTOR_LEN];
                for kk in 0..k_dim {
                    if x_comp[kk][ng] {
                        continue;
                    }
                    for i in 0..n_w_planes {
                        if i == w_ho && w_comp[mg][kk] {
                            continue; // compressed weight vectors were never loaded
                        }
                        let wv = w_vec(w.plane(i), mg, kk);
                        let pw = i64::from(w.plane_weight(i));
                        for (slot, &s) in acc.iter_mut().zip(wv.iter()) {
                            *slot += i64::from(s) * pw;
                            stats.comp_adds += 1;
                        }
                    }
                }
                // One outer product with the all-r vector per 4×4 tile:
                // comp = b' − r_eff·acc, identical for the 4 columns.
                stats.comp_muls += 16;
                for mm in 0..VECTOR_LEN {
                    let row = mg * VECTOR_LEN + mm;
                    let comp = b_prime[row] - i64::from(r_eff) * acc[mm];
                    for nn in 0..VECTOR_LEN {
                        out[(row, ng * VECTOR_LEN + nn)] =
                            (i64::from(out[(row, ng * VECTOR_LEN + nn)]) + comp) as i32;
                    }
                }
            }
        }
    }

    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::table1;
    use panacea_quant::dbs::{dbs_truncate, DbsType};
    use rand::Rng;

    /// Random weight in the (3n+4)-bit range with controllable HO sparsity.
    fn random_weight(m: usize, k: usize, n_lo: usize, ho_sparse: f64, seed: u64) -> Matrix<i32> {
        let mut rng = panacea_tensor::seeded_rng(seed);
        Matrix::from_fn(m, k, |_, _| {
            if rng.gen::<f64>() < ho_sparse {
                rng.gen_range(-7i32..=7) // zero HO slice guaranteed by SBR
            } else {
                let bits = 3 * n_lo as u32 + 4;
                rng.gen_range(-(1i32 << (bits - 1))..(1i32 << (bits - 1)))
            }
        })
    }

    /// Random activation with controllable fraction inside the skip range
    /// of slice `r`.
    fn random_activation(k: usize, n: usize, r: u8, in_range: f64, seed: u64) -> Matrix<i32> {
        let mut rng = panacea_tensor::seeded_rng(seed);
        Matrix::from_fn(k, n, |_, _| {
            if rng.gen::<f64>() < in_range {
                (i32::from(r) << 4) + rng.gen_range(0..16)
            } else {
                rng.gen_range(0i32..256)
            }
        })
    }

    #[test]
    fn exact_against_dense_reference_across_sparsities() {
        for (i, &(ws, xs)) in [(0.0, 0.0), (0.9, 0.0), (0.0, 0.9), (0.8, 0.95), (1.0, 1.0)]
            .iter()
            .enumerate()
        {
            let w = random_weight(8, 12, 1, ws, 100 + i as u64);
            let x = random_activation(12, 8, 9, xs, 200 + i as u64);
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            let (out, _) = aqs_gemm(&sw, &sx, 9);
            assert_eq!(out, w.gemm(&x).unwrap(), "ws={ws} xs={xs}");
        }
    }

    #[test]
    fn exact_with_r_zero_matches_symmetric_case() {
        // r = 0 degrades gracefully to the classic zero-skipping GEMM.
        let w = random_weight(4, 8, 1, 0.5, 7);
        let x = random_activation(8, 4, 0, 0.7, 8);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, wl) = aqs_gemm(&sw, &sx, 0);
        assert_eq!(out, w.gemm(&x).unwrap());
        // No compensation is ever computed when r = 0.
        assert_eq!(wl.comp_mul, 0);
        assert_eq!(wl.comp_add, 0);
    }

    #[test]
    fn exact_with_multi_plane_weights() {
        // 10-bit weights (n = 2), the paper's GPT-2 MLP mixed precision.
        let w = random_weight(4, 8, 2, 0.6, 31);
        let x = random_activation(8, 8, 5, 0.8, 32);
        let sw = SlicedWeight::from_int(&w, 2).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 5);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn exact_with_multi_plane_activations() {
        // 12-bit activations (k = 2), the paper's Llama down-projection.
        let mut rng = panacea_tensor::seeded_rng(55);
        let w = random_weight(4, 8, 1, 0.3, 41);
        let x = Matrix::from_fn(8, 4, |_, _| rng.gen_range(0i32..4096));
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 2, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 3);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn exact_with_4bit_weights() {
        // n = 0: single-plane weights (the OPTQ 4-bit case of Fig. 19).
        let mut rng = panacea_tensor::seeded_rng(66);
        let w = Matrix::from_fn(4, 8, |_, _| rng.gen_range(-8i32..8));
        let x = random_activation(8, 4, 12, 0.9, 67);
        let sw = SlicedWeight::from_int(&w, 0).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, _) = aqs_gemm(&sw, &sx, 12);
        assert_eq!(out, w.gemm(&x).unwrap());
    }

    #[test]
    fn dbs_types_match_truncated_reference() {
        let w = random_weight(4, 8, 1, 0.4, 71);
        let x = random_activation(8, 4, 6, 0.5, 72);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        for ty in [DbsType::Type2, DbsType::Type3] {
            let sx = SlicedActivation::from_uint(&x, 1, ty).unwrap();
            let x_trunc = x.map(|&v| dbs_truncate(v, ty));
            let (out, _) = aqs_gemm(&sw, &sx, 6 >> (ty.lo_bits() - 4));
            assert_eq!(out, w.gemm(&x_trunc).unwrap(), "ty={ty}");
        }
    }

    #[test]
    fn fully_compressed_activation_is_pure_compensation() {
        // Every activation value inside the skip range of r = 10.
        let w = random_weight(4, 8, 1, 0.0, 81);
        let x = Matrix::from_fn(8, 4, |_, _| 10 << 4); // all slices exactly r, LO 0
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let (out, wl) = aqs_gemm(&sw, &sx, 10);
        assert_eq!(out, w.gemm(&x).unwrap());
        // All HO-involving products skipped: only LO×LO remains.
        let stats = aqs_tile_stats(&sw, &sx, 10);
        assert_eq!(stats.rho_x, 1.0);
        assert_eq!(stats.dwo_outer_products, 8); // W_HO × x_LO only (ρw = 0)
        assert!(wl.comp_mul > 0);
    }

    #[test]
    fn workload_matches_table1_closed_forms() {
        // Construct exact sparsity patterns: the first ⌈ρK⌉ columns of the
        // weight HO are zero vectors; the first ⌈ρK⌉ rows of the
        // activation HO are all-r vectors. One m-group, one n-group, so
        // measured ρ equals the pattern fraction and products factorize.
        let k_dim = 40usize;
        for &(rho_w, rho_x) in &[(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.25, 0.75), (1.0, 1.0)] {
            let kw = (rho_w * k_dim as f64).round() as usize;
            let kx = (rho_x * k_dim as f64).round() as usize;
            let w = Matrix::from_fn(4, k_dim, |_, c| if c < kw { 3 } else { 40 });
            let r = 9u8;
            let x = Matrix::from_fn(k_dim, 4, |rr, _| {
                if rr < kx {
                    i32::from(r) << 4 | 5
                } else {
                    2 // HO slice 0 ≠ r: uncompressed
                }
            });
            let sw = SlicedWeight::from_int(&w, 1).unwrap();
            let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
            let (out, wl) = aqs_gemm(&sw, &sx, r);
            assert_eq!(out, w.gemm(&x).unwrap());
            let stats = aqs_tile_stats(&sw, &sx, r);
            assert!((stats.rho_w - rho_w).abs() < 1e-9);
            assert!((stats.rho_x - rho_x).abs() < 1e-9);
            // Exact combinatorial count: pairs per k = 1 (LO,LO) + [x unc]
            // + [w unc] + [w unc][x unc].
            let exact = 16.0
                * ((k_dim) as f64
                    + (k_dim - kx) as f64
                    + (k_dim - kw) as f64
                    + ((0..k_dim).filter(|&i| i >= kw && i >= kx).count() as f64));
            assert_eq!(wl.mul as f64, exact, "rho_w={rho_w} rho_x={rho_x}");
            // The Table-I expectation formula matches the exact count when
            // one side is dense (independence is then trivial).
            if kw == 0 || kx == 0 {
                assert_eq!(
                    wl.mul as f64,
                    table1::panacea_mul(k_dim as u64, rho_x, rho_w),
                    "rho_w={rho_w} rho_x={rho_x}"
                );
            }
            // EMA matches Table I exactly for all patterns.
            assert_eq!(
                wl.ema_slices as f64,
                table1::panacea_ema(k_dim as u64, rho_x, rho_w),
                "rho_w={rho_w} rho_x={rho_x}"
            );
            // Compensation: 16 muls per 4×4 tile, 8·K·(1−ρx) adds when
            // ρw = 0 (Table I's assumption).
            if rho_w == 0.0 && rho_x > 0.0 {
                assert_eq!(wl.comp_mul as f64, table1::panacea_comp_mul());
                assert_eq!(
                    wl.comp_add as f64,
                    table1::panacea_comp_add(k_dim as u64, rho_x)
                );
            }
        }
    }

    #[test]
    fn stats_partition_outer_products() {
        let w = random_weight(8, 16, 1, 0.5, 91);
        let x = random_activation(16, 8, 4, 0.6, 92);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        let s = aqs_tile_stats(&sw, &sx, 4);
        let total_pairs = (2 * 2 * (8 / 4) * 16 * (8 / 4)) as u64;
        assert_eq!(
            s.dwo_outer_products + s.swo_outer_products + s.skipped_outer_products,
            total_pairs
        );
        // LO×LO products are never skipped.
        assert_eq!(s.swo_outer_products, (16 * 2 * 2) as u64);
    }

    #[test]
    #[should_panic(expected = "multiple of")]
    fn rejects_non_vector_aligned_shapes() {
        let w = Matrix::<i32>::zeros(6, 4);
        let x = Matrix::<i32>::zeros(4, 4);
        let sw = SlicedWeight::from_int(&w, 1).unwrap();
        let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).unwrap();
        aqs_gemm(&sw, &sx, 0);
    }
}
