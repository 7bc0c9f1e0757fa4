//! Property tests: the prepared serving path equals the `aqs_gemm` spec —
//! on outputs, on every `Workload` field and on every `TileStats` field —
//! across weight widths, activation widths, DBS types, `r` and sparsity.

use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_core::aqs::{aqs_gemm, aqs_tile_stats};
use panacea_core::prepared::{closed_form_stats, exact_gemm, PreparedActivation, PreparedWeight};
use panacea_core::Workload;
use panacea_quant::dbs::DbsType;
use panacea_tensor::Matrix;
use proptest::prelude::*;
use rand::Rng;

/// HO sparsity levels: none, mid, all vectors compressible.
const SPARSITY: [f64; 3] = [0.0, 0.5, 1.0];

/// A `(3n+4)`-bit weight whose entries have a zero SBR HO slice with
/// probability `sparsity` (and otherwise span the full range).
fn weight(m: usize, k: usize, n: usize, sparsity: f64, seed: u64) -> Matrix<i32> {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let half = 1i32 << (3 * n + 3);
    // SBR leaves the HO slice zero exactly for -(8^n)..8^n (0 when n = 0).
    let small = 8i32.pow(n as u32);
    Matrix::from_fn(m, k, |_, _| {
        if rng.gen::<f64>() < sparsity {
            if n == 0 {
                0
            } else {
                rng.gen_range(-small..small)
            }
        } else {
            rng.gen_range(-half..half)
        }
    })
}

/// `(4k+4)`-bit codes whose HO slice (as DBS type `ty` splits them) is
/// `r` with probability `sparsity`, and uniform otherwise.
fn codes(
    k: usize,
    n: usize,
    bits_k: usize,
    ty: DbsType,
    r: i32,
    sparsity: f64,
    seed: u64,
) -> Matrix<i32> {
    let mut rng = panacea_tensor::seeded_rng(seed);
    let top = 1i32 << (4 * bits_k + 4);
    let ho_shift = 4 * bits_k as u32 + u32::from(ty.discarded_lsbs());
    Matrix::from_fn(k, n, |_, _| {
        if rng.gen::<f64>() < sparsity {
            (r << ho_shift) + rng.gen_range(0..1i32 << ho_shift)
        } else {
            rng.gen_range(0..top)
        }
    })
}

/// Runs the spec and the prepared path on the same operands and asserts
/// they agree on everything either reports.
fn assert_equivalent(
    w: &Matrix<i32>,
    n: usize,
    x: &Matrix<i32>,
    bits_k: usize,
    ty: DbsType,
    r: u8,
) {
    let sw = SlicedWeight::from_int(w, n).expect("weights in range");
    let sx = SlicedActivation::from_uint(x, bits_k, ty).expect("codes in range");
    let (spec_out, spec_wl) = aqs_gemm(&sw, &sx, r);
    let spec_stats = aqs_tile_stats(&sw, &sx, r);

    let pw = PreparedWeight::new(&sw);
    let px = PreparedActivation::from_codes(x, bits_k, ty, r).expect("codes in range");
    let stats = closed_form_stats(&pw, &px);
    let ctx = format!(
        "n={n} k={bits_k} ty={ty} r={r} shape={:?}x{:?}",
        w.shape(),
        x.shape()
    );
    assert_eq!(exact_gemm(&pw, &px), spec_out, "output: {ctx}");
    // Field by field, so a failure names the field that drifted.
    assert_eq!(
        stats.dwo_outer_products, spec_stats.dwo_outer_products,
        "dwo: {ctx}"
    );
    assert_eq!(
        stats.swo_outer_products, spec_stats.swo_outer_products,
        "swo: {ctx}"
    );
    assert_eq!(
        stats.skipped_outer_products, spec_stats.skipped_outer_products,
        "skipped: {ctx}"
    );
    assert_eq!(stats.comp_adds, spec_stats.comp_adds, "comp_adds: {ctx}");
    assert_eq!(stats.comp_muls, spec_stats.comp_muls, "comp_muls: {ctx}");
    assert_eq!(
        stats.w_slices_loaded, spec_stats.w_slices_loaded,
        "w_slices: {ctx}"
    );
    assert_eq!(
        stats.x_slices_loaded, spec_stats.x_slices_loaded,
        "x_slices: {ctx}"
    );
    assert_eq!(
        stats.rho_w.to_bits(),
        spec_stats.rho_w.to_bits(),
        "rho_w: {ctx}"
    );
    assert_eq!(
        stats.rho_x.to_bits(),
        spec_stats.rho_x.to_bits(),
        "rho_x: {ctx}"
    );
    assert_eq!(stats, spec_stats, "stats: {ctx}");
    assert_eq!(Workload::from(&stats), spec_wl, "workload: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every combination of weight width, activation width, DBS type, `r`
    /// and sparsity level, on a random shape.
    #[test]
    fn prepared_path_equals_spec(
        seed in 0u64..1_000_000,
        m_groups in 1usize..4,
        k in 1usize..20,
        n_groups in 1usize..4,
        zp in 0i32..4096,
    ) {
        let (m, n) = (4 * m_groups, 4 * n_groups);
        for w_lo in 0..3 {
            for (ws, &w_sparsity) in SPARSITY.iter().enumerate() {
                let w = weight(m, k, w_lo, w_sparsity, seed ^ (w_lo * 3 + ws) as u64);
                for (bits_k, ty) in [
                    (1, DbsType::Type1),
                    (1, DbsType::Type2),
                    (1, DbsType::Type3),
                    (2, DbsType::Type1),
                ] {
                    let ho_shift = 4 * bits_k as u32 + u32::from(ty.discarded_lsbs());
                    let zp = zp % (1 << (4 * bits_k + 4));
                    // r = 0 (symmetric) and r = the zero point's HO slice.
                    for r in [0, zp >> ho_shift] {
                        for (xs, &x_sparsity) in SPARSITY.iter().enumerate() {
                            let x_seed = seed.wrapping_mul(31) ^ (xs * 7 + bits_k) as u64;
                            let x = codes(k, n, bits_k, ty, r, x_sparsity, x_seed);
                            assert_equivalent(&w, w_lo, &x, bits_k, ty, r as u8);
                        }
                    }
                }
            }
        }
    }

    /// Decode-width operands (N = 4) at block-like depth, where the
    /// kernel's column blocking covers exactly one group.
    #[test]
    fn prepared_path_equals_spec_at_decode_width(
        seed in 0u64..1_000_000,
        r in 0u8..16,
        w_sparsity in 0usize..3,
        x_sparsity in 0usize..3,
    ) {
        let w = weight(16, 96, 1, SPARSITY[w_sparsity], seed);
        let x = codes(96, 4, 1, DbsType::Type1, i32::from(r), SPARSITY[x_sparsity], seed + 1);
        assert_equivalent(&w, 1, &x, 1, DbsType::Type1, r);
    }
}

#[test]
fn full_sparsity_levels_are_reached() {
    // The generators really produce ρ = 1 at sparsity 1, so the
    // all-compressed corner of the closed form is exercised.
    let w = weight(8, 12, 1, 1.0, 3);
    let x = codes(12, 8, 1, DbsType::Type1, 9, 1.0, 4);
    let sw = SlicedWeight::from_int(&w, 1).expect("weights");
    let sx = SlicedActivation::from_uint(&x, 1, DbsType::Type1).expect("codes");
    let stats = aqs_tile_stats(&sw, &sx, 9);
    assert_eq!((stats.rho_w, stats.rho_x), (1.0, 1.0));
    assert_equivalent(&w, 1, &x, 1, DbsType::Type1, 9);
}

#[test]
fn wide_activations_equal_spec() {
    // 16-bit codes (k = 3) take the kernel's i32 activation panel.
    for (seed, sparsity) in [(5, 0.0), (6, 0.5), (7, 1.0)] {
        let w = weight(8, 12, 1, 0.5, seed);
        let x = codes(12, 8, 3, DbsType::Type1, 11, sparsity, seed + 10);
        assert_equivalent(&w, 1, &x, 3, DbsType::Type1, 11);
    }
}

#[test]
fn accumulators_wrap_like_the_spec() {
    // 16-bit weights times 12-bit codes over a long K overflow i32. The
    // spec's accumulators wrap there (in release builds; debug builds trap
    // the overflow), so compare against the reference GEMM, which
    // truncates to i32 the same way.
    let w = Matrix::from_fn(4, 512, |_, _| i32::from(i16::MIN));
    let x = Matrix::from_fn(512, 4, |_, _| 4095);
    let pw = PreparedWeight::new(&SlicedWeight::from_int(&w, 4).expect("16-bit weights"));
    let px = PreparedActivation::from_codes(&x, 2, DbsType::Type1, 15).expect("12-bit codes");
    assert_eq!(exact_gemm(&pw, &px), w.gemm(&x).expect("shapes"));
}

#[test]
fn rejections_match_the_spec() {
    let too_big = Matrix::from_fn(4, 4, |r, c| if r == 1 && c == 2 { 256 } else { 0 });
    assert_eq!(
        PreparedActivation::from_codes(&too_big, 1, DbsType::Type1, 0).unwrap_err(),
        SlicedActivation::from_uint(&too_big, 1, DbsType::Type1).unwrap_err()
    );
    let ok = Matrix::<i32>::zeros(4, 4);
    assert_eq!(
        PreparedActivation::from_codes(&ok, 2, DbsType::Type2, 0).unwrap_err(),
        SlicedActivation::from_uint(&ok, 2, DbsType::Type2).unwrap_err()
    );
}

#[test]
#[should_panic(expected = "multiple of")]
fn rejects_non_vector_aligned_shapes() {
    let w = SlicedWeight::from_int(&Matrix::<i32>::zeros(4, 4), 1).expect("weights");
    let x = PreparedActivation::from_codes(&Matrix::<i32>::zeros(4, 6), 1, DbsType::Type1, 0)
        .expect("codes");
    exact_gemm(&PreparedWeight::new(&w), &x);
}
