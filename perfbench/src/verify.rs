//! Bit-exact checks of every served reply against in-process oracles,
//! run after the measured window closes.

use std::collections::BTreeMap;

use panacea_block::{decode_step_batch, KvCache, QuantizedBlock};
use panacea_tensor::Matrix;

use crate::fixture::Models;
use crate::inputs::{Inputs, Schedule};
use crate::load::{Failure, Kind, Op};
use crate::stats::{digest_f32, digest_payload};
use crate::Workload;

/// Decode lifetimes stepped together in one fused oracle pass: the
/// batched step is bit-identical to stepping each alone, and far cheaper
/// while per-call weight work dominates.
const ORACLE_LOCKSTEP: usize = 8;

/// Runs hidden states through the block stack one block at a time.
pub fn direct_forward(blocks: &[QuantizedBlock], x: &Matrix<f32>) -> Matrix<f32> {
    blocks.iter().fold(x.clone(), |h, b| b.forward(&h).0)
}

/// Splits `items` over `threads` scoped threads and concatenates results.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                s.spawn(move || part.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// Each decode lifetime's successful steps, in order, as `(unit, digests)`;
/// a lifetime's record ends at its first failed step.
pub fn decode_lifetimes(ops: &[Op]) -> Vec<(u64, Vec<u64>)> {
    type Steps = Vec<(u32, Result<u64, Failure>)>;
    let mut by_unit: BTreeMap<u64, Steps> = BTreeMap::new();
    for op in ops.iter().filter(|o| o.kind == Kind::Step) {
        by_unit
            .entry(op.unit)
            .or_default()
            .push((op.idx, op.result));
    }
    by_unit
        .into_iter()
        .map(|(unit, mut steps)| {
            steps.sort_by_key(|s| s.0);
            let digests = steps
                .iter()
                .enumerate()
                .take_while(|(i, (idx, r))| *idx as usize == *i && r.is_ok())
                .map(|(_, (_, r))| *r.as_ref().expect("ok step"))
                .collect();
            (unit, digests)
        })
        .collect()
}

/// Counts served replies that differ from the oracle.
pub fn mismatches(
    workload: Workload,
    models: &Models,
    inputs: &Inputs,
    schedule: Option<&Schedule>,
    ops: &[Op],
    threads: usize,
) -> usize {
    match workload {
        Workload::Decode => {
            let lifetimes = decode_lifetimes(ops);
            let groups: Vec<&[(u64, Vec<u64>)]> = lifetimes.chunks(ORACLE_LOCKSTEP).collect();
            par_map(&groups, threads, |g| {
                shadow_decode(&models.blocks, inputs, g)
            })
            .into_iter()
            .sum()
        }
        Workload::Prefill => {
            let served: Vec<&Op> = ops.iter().filter(|o| o.kind == Kind::Infer).collect();
            par_map(&served, threads, |op| match op.result {
                Ok(d) => usize::from(
                    digest_f32(&direct_forward(&models.blocks, &inputs.prefill(op.unit))) != d,
                ),
                Err(_) => 0,
            })
            .into_iter()
            .sum()
        }
        Workload::Mixed => {
            let schedule = schedule.expect("mixed has a schedule");
            let expected = par_map(&schedule.payloads, threads, |(target, payload)| {
                let model = &schedule.targets[*target];
                if model.is_block() {
                    let x = payload
                        .as_hidden()
                        .expect("block payloads are hidden states");
                    digest_f32(&direct_forward(&models.blocks, x))
                } else {
                    digest_payload(&model.forward(payload).0)
                }
            });
            ops.iter()
                .filter(|o| o.kind == Kind::Infer)
                .filter(|o| {
                    let payload = schedule.requests[o.unit as usize].payload;
                    o.result.is_ok_and(|d| d != expected[payload])
                })
                .count()
        }
    }
}

/// Steps a group of lifetimes in lockstep on shadow KV caches, comparing
/// every served step's digest; returns the mismatches.
fn shadow_decode(blocks: &[QuantizedBlock], inputs: &Inputs, group: &[(u64, Vec<u64>)]) -> usize {
    let feeds: Vec<Vec<Matrix<f32>>> = group
        .iter()
        .map(|(unit, d)| inputs.decode_lifetime(*unit, d.len()))
        .collect();
    let mut kvs: Vec<KvCache> = group.iter().map(|_| KvCache::for_blocks(blocks)).collect();
    let longest = group.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
    let mut bad = 0;
    for t in 0..longest {
        let (live, parts): (Vec<usize>, Vec<&Matrix<f32>>) = feeds
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.get(t).map(|x| (i, x)))
            .unzip();
        let segments: Vec<usize> = parts.iter().map(|m| m.cols()).collect();
        let stacked = Matrix::hstack(&parts).expect("same width");
        let mut caches: Vec<&mut KvCache> = kvs
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| live.contains(i))
            .map(|(_, kv)| kv)
            .collect();
        let (out, _) = decode_step_batch(blocks, &stacked, &segments, &mut caches);
        let outs = out
            .split_cols(&segments)
            .expect("one output column per input");
        bad += live
            .iter()
            .zip(&outs)
            .filter(|(&i, o)| digest_f32(o) != group[i].1[t])
            .count();
    }
    bad
}
