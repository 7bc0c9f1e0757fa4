//! GEMM hot-path timing, machine-readable: the prepared serving path
//! against the AQS-GEMM spec and the dense reference.
//!
//! For each sub-layer of a `d_model = 128` transformer block (qkv
//! 384×128, proj 128×128, fc1 512×128, fc2 128×512) at decode width
//! `N = 4` and prefill width `N = 64`, on operands drawn from the BERT-base
//! zoo distributions, it times three computations of the same exact
//! product:
//!
//! * **spec** — [`aqs_gemm`] on pre-sliced operands, the outer-product
//!   loop nest the simulator and figure binaries run;
//! * **dense** — [`dense_gemm`] on `W_int` and the effective activations;
//! * **forward** — [`QuantizedLinear::forward`] on the raw codes, the
//!   serving path (activation preparation, exact kernel, closed-form
//!   workload and bias fold included).
//!
//! It asserts all three agree bit for bit (forward after removing its
//! folded bias) and that forward's workload equals the spec's, writes the
//! medians and interquartile ranges to `BENCH_gemm.json`, and gates
//! forward at ≥3× faster than the spec at decode width.
//!
//! Run with: `cargo run --release -p panacea-bench --bin gemm_bench`

use std::path::Path;
use std::time::Instant;

use panacea_bitslice::{SlicedActivation, SlicedWeight};
use panacea_core::aqs::aqs_gemm;
use panacea_core::dense::dense_gemm;
use panacea_core::pipeline::QuantizedLinear;
use panacea_models::zoo::{Benchmark, LayerKind};
use panacea_quant::dbs::DbsConfig;
use panacea_quant::{ActivationCalibrator, Quantizer, SymmetricQuantizer};
use panacea_tensor::Matrix;
use serde_json::{json, Value};

const D_MODEL: usize = 128;
const D_FF: usize = 512;
const W_BITS: u8 = 7;
const WIDTHS: [usize; 2] = [4, 64];
/// Timed repeats per measurement; medians and quartiles are over these.
const REPEATS: usize = 15;
/// Each repeat runs the computation until at least this long has passed,
/// so fast kernels are timed over many calls, not one.
const MIN_REPEAT_S: f64 = 2e-3;
/// The gate: forward must beat the spec by this factor at decode width.
const GATED_WIDTH: usize = 4;
const GATED_SPEEDUP: f64 = 3.0;

/// The four block sub-layers: name, zoo role, `M`, `K`.
const SUBS: [(&str, LayerKind, usize, usize); 4] = [
    ("qkv", LayerKind::Qkv, 3 * D_MODEL, D_MODEL),
    ("proj", LayerKind::AttnProj, D_MODEL, D_MODEL),
    ("fc1", LayerKind::MlpFc1, D_FF, D_MODEL),
    ("fc2", LayerKind::MlpFc2, D_MODEL, D_FF),
];

/// The commit this checkout was built from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or("unknown".into(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// `(q1, median, q3)` of the per-call µs of `f` over [`REPEATS`] repeats.
fn time_us<T>(mut f: impl FnMut() -> T) -> (f64, f64, f64) {
    let mut per_call: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || start.elapsed().as_secs_f64() < MIN_REPEAT_S {
                std::hint::black_box(f());
                calls += 1;
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    let at = |q: f64| per_call[((per_call.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

fn timing(us: (f64, f64, f64)) -> Value {
    json!({ "median_us": us.1, "iqr_us": us.2 - us.0 })
}

fn main() {
    let spec = Benchmark::BertBase.spec();
    let mut rng = panacea_tensor::seeded_rng(2025);
    let mut rows = Vec::new();
    let mut gate_failures = Vec::new();
    println!(
        "{:<5} {:>4} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "layer", "N", "spec µs", "dense µs", "forward µs", "vs spec", "vs dense"
    );
    for (name, kind, m, k) in SUBS {
        let zoo = spec
            .layers
            .iter()
            .find(|l| l.kind == kind)
            .expect("BERT-base has every block sub-layer");
        let w_f = zoo.weight_dist.sample_matrix(m, k, &mut rng);
        let calib = zoo.act_dist.sample_matrix(k, 64, &mut rng);
        let mut cal = ActivationCalibrator::new(8)
            .with_zpm(true)
            .with_dbs(DbsConfig::default());
        cal.observe(&calib);
        let act = cal.finalize();
        let layer =
            QuantizedLinear::prepare(&w_f, &vec![0.0; m], W_BITS, act).expect("sub-layer prepares");
        let w_int = SymmetricQuantizer::calibrate(w_f.as_slice(), W_BITS).quantize_matrix(&w_f);
        let sw = SlicedWeight::from_int(&w_int, usize::from((W_BITS - 4) / 3)).expect("slices");
        let zp = i64::from(act.quantizer.params().zero_point);
        let fold: Vec<i64> = (0..m)
            .map(|r| -zp * w_int.row(r).iter().map(|&v| i64::from(v)).sum::<i64>())
            .collect();

        for n in WIDTHS {
            let x_f = zoo.act_dist.sample_matrix(k, n, &mut rng);
            let codes = act.quantizer.quantize_matrix(&x_f);
            let sx = SlicedActivation::from_uint(&codes, 1, act.dbs_type).expect("codes");
            let x_eff = sx.reconstruct();
            let r = act.frequent_ho_slice;

            let (spec_out, spec_wl) = aqs_gemm(&sw, &sx, r);
            let (dense_out, _) = dense_gemm(&w_int, &x_eff, W_BITS, 8).expect("shapes");
            let (fwd_out, fwd_wl) = layer.forward(&codes);
            assert_eq!(dense_out, spec_out, "{name} N={n}: dense differs from spec");
            assert_eq!(fwd_wl, spec_wl, "{name} N={n}: workload differs from spec");
            let unbiased =
                Matrix::from_fn(m, n, |r, c| (i64::from(fwd_out[(r, c)]) - fold[r]) as i32);
            assert_eq!(
                unbiased, spec_out,
                "{name} N={n}: forward differs from spec"
            );

            let spec_t = time_us(|| aqs_gemm(&sw, &sx, r));
            let dense_t = time_us(|| dense_gemm(&w_int, &x_eff, W_BITS, 8));
            let fwd_t = time_us(|| layer.forward(&codes));
            let vs_spec = spec_t.1 / fwd_t.1;
            let vs_dense = dense_t.1 / fwd_t.1;
            println!(
                "{name:<5} {n:>4} {:>12.1} {:>12.1} {:>12.1} {:>8.1}x {:>8.1}x",
                spec_t.1, dense_t.1, fwd_t.1, vs_spec, vs_dense
            );
            if n == GATED_WIDTH && vs_spec < GATED_SPEEDUP {
                gate_failures.push(format!("{name} N={n}: {vs_spec:.2}x"));
            }
            rows.push(json!({
                "layer": name,
                "m": m,
                "k": k,
                "n": n,
                "spec": timing(spec_t),
                "dense": timing(dense_t),
                "forward": timing(fwd_t),
                "forward_vs_spec": vs_spec,
                "forward_vs_dense": vs_dense,
            }));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = json!({
        "bench": "gemm_prepared_vs_spec",
        "commit": commit(),
        "nproc": nproc,
        "repeats": REPEATS,
        "d_model": D_MODEL,
        "d_ff": D_FF,
        "weight_bits": W_BITS,
        "operands": "BERT-base zoo distributions",
        "results": Value::Array(rows),
        "gate": json!({ "n": GATED_WIDTH, "min_forward_vs_spec": GATED_SPEEDUP }),
    });
    let encoded = serde_json::to_string(&report).expect("shim serializer never fails");
    std::fs::write("BENCH_gemm.json", &encoded).expect("write BENCH_gemm.json");
    println!("\nwrote BENCH_gemm.json");

    assert!(
        gate_failures.is_empty(),
        "forward is not >= {GATED_SPEEDUP}x faster than the spec at N={GATED_WIDTH}: {}",
        gate_failures.join(", ")
    );
    println!(
        "forward >= {GATED_SPEEDUP}x faster than the spec at N={GATED_WIDTH} on every layer ✓"
    );
}
