//! Shared f32 transformer math: LayerNorm, softmax, multi-head
//! attention, and elementwise addition.
//!
//! These used to live inside `panacea_models::engine`, but the quantized
//! block engine needs the *same* float semantics for its non-GEMM glue
//! (so a quantized block and the float oracle diverge only where
//! quantization actually happens). Centralizing them here gives both one
//! implementation; `engine` re-exports them for compatibility.
//!
//! Activations follow the workspace GEMM convention: a tensor is
//! `features × tokens` (`K × N`).

use crate::Matrix;

/// Per-token (column-wise) LayerNorm with unit gain and zero bias.
pub fn layer_norm(x: &Matrix<f32>) -> Matrix<f32> {
    let (k, n) = x.shape();
    let mut out = Matrix::<f32>::zeros(k, n);
    for c in 0..n {
        let mut mean = 0f32;
        for r in 0..k {
            mean += x[(r, c)];
        }
        mean /= k as f32;
        let mut var = 0f32;
        for r in 0..k {
            let d = x[(r, c)] - mean;
            var += d * d;
        }
        var /= k as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for r in 0..k {
            out[(r, c)] = (x[(r, c)] - mean) * inv;
        }
    }
    out
}

/// Numerically-stable softmax.
pub fn softmax_in_place(xs: &mut [f32]) {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0f32;
    for v in xs.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in xs.iter_mut() {
        *v /= sum;
    }
}

/// Multi-head self-attention over a stacked QKV tensor
/// (`3·d_model × tokens`, rows ordered Q then K then V): per head,
/// scores `A[i][j] = (q_i · k_j) / √d_h` softmaxed over `j`, then the
/// context `Σ_j A[i][j]·v_j`. Returns the `d_model × tokens` context.
///
/// Every token attends to every column, so callers batching independent
/// sequences must invoke this once per sequence segment.
///
/// # Panics
///
/// Panics if `qkv.rows()` is not divisible by `3·n_heads` or `n_heads`
/// is zero.
pub fn multi_head_attention(qkv: &Matrix<f32>, n_heads: usize) -> Matrix<f32> {
    assert!(n_heads > 0, "attention needs at least one head");
    assert_eq!(
        qkv.rows() % (3 * n_heads),
        0,
        "QKV rows {} must divide by 3·n_heads",
        qkv.rows()
    );
    let d = qkv.rows() / 3;
    let t = qkv.cols();
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut ctx = Matrix::<f32>::zeros(d, t);
    for h in 0..n_heads {
        let q0 = h * dh;
        for i in 0..t {
            let mut row = vec![0f32; t];
            for (j, slot) in row.iter_mut().enumerate() {
                let mut dot = 0f32;
                for f in 0..dh {
                    dot += qkv[(q0 + f, i)] * qkv[(d + q0 + f, j)];
                }
                *slot = dot * scale;
            }
            softmax_in_place(&mut row);
            for f in 0..dh {
                let mut acc = 0f32;
                for (j, &a) in row.iter().enumerate() {
                    acc += a * qkv[(2 * d + q0 + f, j)];
                }
                ctx[(q0 + f, i)] = acc;
            }
        }
    }
    ctx
}

/// Causal multi-head self-attention over a stacked QKV tensor: token `i`
/// attends only to tokens `j ≤ i`. This is the decoder-style counterpart
/// of [`multi_head_attention`] and the full-prefix oracle for KV-cached
/// decode — [`multi_head_attention_decode`] with an empty prefix is
/// bit-identical to this, column for column.
///
/// # Panics
///
/// Same conditions as [`multi_head_attention`].
pub fn multi_head_attention_causal(qkv: &Matrix<f32>, n_heads: usize) -> Matrix<f32> {
    multi_head_attention_decode(qkv, &[], &[], n_heads)
}

/// Incremental causal multi-head attention: `qkv_new` stacks Q/K/V for
/// `t_new` freshly appended tokens (`3·d_model × t_new`), while
/// `k_prefix`/`v_prefix` hold the cached keys/values of every earlier
/// token in **token-major** layout — token `j`'s feature vector
/// occupies `[j·d_model, (j+1)·d_model)` — so a cache appends one token
/// in O(d_model) without rebuilding the prefix. New token `i` (global
/// position `t_prefix + i`) attends causally over the whole prefix plus
/// the new tokens up to and including itself; cached tokens are never
/// recomputed, so one decode step costs O(prefix) instead of
/// O(prefix²).
///
/// Scores and context sums iterate global positions in ascending order
/// with the same accumulation pattern as [`multi_head_attention_causal`],
/// so stepping tokens one at a time through this function is
/// **bit-identical** to one full causal pass over the concatenated
/// sequence (given bit-identical cached K/V, which column-independent
/// GEMMs guarantee).
///
/// Returns the `d_model × t_new` context for the new tokens only.
///
/// # Panics
///
/// Panics if `n_heads` is zero, `qkv_new.rows()` is not divisible by
/// `3·n_heads`, or the prefix slices disagree with each other or are
/// not a whole number of `d_model`-feature tokens.
pub fn multi_head_attention_decode(
    qkv_new: &Matrix<f32>,
    k_prefix: &[f32],
    v_prefix: &[f32],
    n_heads: usize,
) -> Matrix<f32> {
    assert!(n_heads > 0, "attention needs at least one head");
    assert_eq!(
        qkv_new.rows() % (3 * n_heads),
        0,
        "QKV rows {} must divide by 3·n_heads",
        qkv_new.rows()
    );
    let d = qkv_new.rows() / 3;
    assert_eq!(k_prefix.len(), v_prefix.len(), "K/V prefix mismatch");
    assert_eq!(
        k_prefix.len() % d,
        0,
        "prefix length must be a whole number of d_model tokens"
    );
    let t_prev = k_prefix.len() / d;
    let t_new = qkv_new.cols();
    let dh = d / n_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    // The new tokens' Q/K/V in the prefix's token-major layout, so every
    // score and context sum below walks contiguous feature slices.
    let token_major = |part: usize| {
        let mut out = vec![0f32; t_new * d];
        for f in 0..d {
            for (i, &v) in qkv_new.row(part * d + f).iter().enumerate() {
                out[i * d + f] = v;
            }
        }
        out
    };
    let (q_new, k_new, v_new) = (token_major(0), token_major(1), token_major(2));
    let mut ctx = Matrix::<f32>::zeros(d, t_new);
    let mut row = Vec::with_capacity(t_prev + t_new);
    let mut acc = vec![0f32; dh];
    for h in 0..n_heads {
        let head = h * dh..(h + 1) * dh;
        for i in 0..t_new {
            // Global attention span of new token i: every cached token
            // plus the new tokens up to and including itself.
            let q = &q_new[i * d..(i + 1) * d][head.clone()];
            let keys = k_prefix
                .chunks_exact(d)
                .chain(k_new[..(i + 1) * d].chunks_exact(d));
            row.clear();
            row.extend(keys.map(|k| {
                let mut dot = 0f32;
                for (&a, &b) in q.iter().zip(&k[head.clone()]) {
                    dot += a * b;
                }
                dot * scale
            }));
            softmax_in_place(&mut row);
            // Feature by feature, the context sum still runs over the
            // span in ascending order.
            acc.fill(0.0);
            let values = v_prefix.chunks_exact(d).chain(v_new.chunks_exact(d));
            for (v, &a) in values.zip(&row) {
                for (slot, &x) in acc.iter_mut().zip(&v[head.clone()]) {
                    *slot += a * x;
                }
            }
            for (f, &value) in head.clone().zip(&acc) {
                ctx[(f, i)] = value;
            }
        }
    }
    ctx
}

/// Elementwise sum of two same-shaped matrices (the residual add).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn add(a: &Matrix<f32>, b: &Matrix<f32>) -> Matrix<f32> {
    assert_eq!(a.shape(), b.shape(), "residual add needs matching shapes");
    Matrix::from_fn(a.rows(), a.cols(), |r, c| a[(r, c)] + b[(r, c)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistributionKind;
    use crate::stats;

    fn input(d: usize, t: usize, seed: u64) -> Matrix<f32> {
        let mut rng = crate::seeded_rng(seed);
        DistributionKind::Gaussian {
            mean: 0.0,
            std: 1.0,
        }
        .sample_matrix(d, t, &mut rng)
    }

    #[test]
    fn layer_norm_normalizes_columns() {
        let x = input(32, 8, 1);
        let n = layer_norm(&x);
        for c in 0..8 {
            let col: Vec<f32> = (0..32).map(|r| n[(r, c)]).collect();
            assert!(stats::mean(&col).abs() < 1e-4);
            assert!((stats::std_dev(&col) - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut xs = vec![1.0, 2.0, 3.0, -10.0];
        softmax_in_place(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn attention_rows_are_convex_mixes_of_values() {
        // With Q ≡ 0 every score row softmaxes to uniform, so the context
        // is the mean of the value columns — an exact, hand-checkable case.
        let d = 8;
        let t = 4;
        let mut qkv = Matrix::<f32>::zeros(3 * d, t);
        for r in 0..d {
            for c in 0..t {
                qkv[(2 * d + r, c)] = (r * t + c) as f32;
            }
        }
        let ctx = multi_head_attention(&qkv, 2);
        for r in 0..d {
            let mean: f32 = (0..t).map(|c| qkv[(2 * d + r, c)]).sum::<f32>() / t as f32;
            for c in 0..t {
                assert!((ctx[(r, c)] - mean).abs() < 1e-4, "row {r} col {c}");
            }
        }
    }

    #[test]
    fn attention_segments_are_column_independent_across_calls() {
        // Running two sequences separately must equal slicing a stacked
        // tensor — the property the batched block engine relies on.
        let qkv_a = input(3 * 16, 5, 2);
        let qkv_b = input(3 * 16, 3, 3);
        let a = multi_head_attention(&qkv_a, 4);
        let b = multi_head_attention(&qkv_b, 4);
        let stacked = Matrix::hstack(&[&qkv_a, &qkv_b]).expect("same rows");
        let a2 = multi_head_attention(&stacked.submatrix(0, 0, 3 * 16, 5), 4);
        let b2 = multi_head_attention(&stacked.submatrix(0, 5, 3 * 16, 3), 4);
        assert_eq!(a, a2);
        assert_eq!(b, b2);
    }

    #[test]
    fn causal_attention_last_token_matches_bidirectional() {
        // The last token attends over the whole sequence under both
        // masks, so its context column must agree bit for bit.
        let qkv = input(3 * 16, 6, 4);
        let full = multi_head_attention(&qkv, 4);
        let causal = multi_head_attention_causal(&qkv, 4);
        let t = qkv.cols() - 1;
        for r in 0..16 {
            assert_eq!(full[(r, t)].to_bits(), causal[(r, t)].to_bits());
        }
    }

    #[test]
    fn causal_attention_first_token_attends_only_itself() {
        let qkv = input(3 * 8, 3, 5);
        let causal = multi_head_attention_causal(&qkv, 2);
        // Token 0's softmax row has one entry, so its context is exactly
        // its own value vector.
        for r in 0..8 {
            assert_eq!(causal[(r, 0)].to_bits(), qkv[(2 * 8 + r, 0)].to_bits());
        }
    }

    /// Pushes the K and V feature vectors of every column of a stacked
    /// QKV tensor onto token-major prefix buffers.
    fn push_kv(qkv: &Matrix<f32>, k: &mut Vec<f32>, v: &mut Vec<f32>) {
        let d = qkv.rows() / 3;
        for c in 0..qkv.cols() {
            for f in 0..d {
                k.push(qkv[(d + f, c)]);
            }
            for f in 0..d {
                v.push(qkv[(2 * d + f, c)]);
            }
        }
    }

    #[test]
    fn stepwise_decode_is_bit_exact_vs_full_causal_pass() {
        let d = 16;
        let t = 7;
        let qkv = input(3 * d, t, 6);
        let oracle = multi_head_attention_causal(&qkv, 4);
        // Step one token at a time, carrying the K/V prefix forward.
        let mut k = Vec::new();
        let mut v = Vec::new();
        for i in 0..t {
            let step = qkv.submatrix(0, i, 3 * d, 1);
            let ctx = multi_head_attention_decode(&step, &k, &v, 4);
            for r in 0..d {
                assert_eq!(
                    ctx[(r, 0)].to_bits(),
                    oracle[(r, i)].to_bits(),
                    "token {i} row {r} diverged from the full causal pass"
                );
            }
            push_kv(&step, &mut k, &mut v);
        }
    }

    #[test]
    fn multi_token_decode_steps_match_single_token_steps() {
        // Feeding 3 tokens in one decode call must equal feeding them
        // one at a time — the prefill-vs-step equivalence.
        let d = 8;
        let qkv = input(3 * d, 5, 7);
        let prefix = qkv.submatrix(0, 0, 3 * d, 2);
        let mut k = Vec::new();
        let mut v = Vec::new();
        push_kv(&prefix, &mut k, &mut v);
        let chunk = qkv.submatrix(0, 2, 3 * d, 3);
        let at_once = multi_head_attention_decode(&chunk, &k, &v, 2);
        let mut k_step = k.clone();
        let mut v_step = v.clone();
        for i in 0..3 {
            let step = chunk.submatrix(0, i, 3 * d, 1);
            let ctx = multi_head_attention_decode(&step, &k_step, &v_step, 2);
            for r in 0..d {
                assert_eq!(ctx[(r, 0)].to_bits(), at_once[(r, i)].to_bits());
            }
            push_kv(&step, &mut k_step, &mut v_step);
        }
    }

    #[test]
    fn add_is_elementwise() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| (r * c) as f32);
        let s = add(&a, &b);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(s[(r, c)], (r + c + r * c) as f32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn misaligned_qkv_rejected() {
        multi_head_attention(&Matrix::<f32>::zeros(10, 2), 2);
    }
}
