//! Workload inputs, all derived from `--seed`: the program under test
//! only ever receives these generated payloads.

use std::sync::Arc;
use std::time::Duration;

use panacea_serve::{Payload, PreparedModel};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

use crate::fixture::{act_dist, Models, CHAIN_MODELS, D_MODEL};

/// Tokens sent when a decode session opens, as one multi-column step.
pub const DECODE_PREFIX: usize = 32;
/// Single-token steps a decode session takes before it closes and a new
/// one opens, so the mix of KV lengths does not depend on run length.
pub const DECODE_STEPS: usize = 32;
/// Sessions each decode connection steps round-robin.
pub const DECODE_SESSIONS: usize = 4;
/// Steps of session `j`'s first lifetime on a connection: staggered so
/// sessions do not all reopen at once.
pub fn first_lifetime_steps(j: usize) -> usize {
    DECODE_STEPS - j * DECODE_STEPS / DECODE_SESSIONS
}
/// Tokens per prefill request.
pub const PREFILL_TOKENS: usize = 64;
/// Mixed arrival rate (requests per second, seeded Poisson).
pub const MIXED_RATE: f64 = 100.0;
/// Share of mixed requests that go to the block model; the rest split
/// evenly over the chains.
const MIXED_BLOCK_SHARE: f64 = 0.25;
/// Share of mixed requests that resend an earlier payload of the same
/// model (cache reads beside the misses that insert).
const MIXED_REPEAT_SHARE: f64 = 0.5;
const MIXED_MAX_COLS: usize = 4;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A unit id: one decode session lifetime or one request.
pub fn unit(conn: usize, index: u64) -> u64 {
    ((conn as u64) << 32) | index
}

#[derive(Clone)]
pub struct Inputs {
    seed: u64,
    dist: DistributionKind,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            dist: act_dist(),
        }
    }

    fn rng(&self, stream: u64) -> StdRng {
        panacea_tensor::seeded_rng(splitmix(self.seed ^ splitmix(stream)))
    }

    fn hidden(&self, rng: &mut StdRng, cols: usize) -> Matrix<f32> {
        self.dist.sample_matrix(D_MODEL, cols, rng)
    }

    /// The first `ops` inputs of decode lifetime `unit`: the prefix, then
    /// one token per step. Generation is sequential, so any prefix of a
    /// lifetime's inputs is the same whatever its planned length.
    pub fn decode_lifetime(&self, unit: u64, ops: usize) -> Vec<Matrix<f32>> {
        let mut rng = self.rng(unit);
        (0..ops)
            .map(|i| {
                let cols = if i == 0 { DECODE_PREFIX } else { 1 };
                self.hidden(&mut rng, cols)
            })
            .collect()
    }

    pub fn prefill(&self, unit: u64) -> Matrix<f32> {
        self.hidden(&mut self.rng(unit), PREFILL_TOKENS)
    }

    /// The mixed open-loop schedule covering `horizon`.
    pub fn mixed_schedule(&self, models: &Models, horizon: Duration) -> Schedule {
        let mut rng = self.rng(u64::MAX);
        let targets: Vec<Arc<PreparedModel>> = std::iter::once(Arc::clone(&models.block))
            .chain(CHAIN_MODELS.iter().map(|n| Arc::clone(models.chain(n))))
            .collect();
        let mut earlier: Vec<Vec<usize>> = vec![Vec::new(); targets.len()];
        let mut payloads: Vec<(usize, Payload)> = Vec::new();
        let mut requests = Vec::new();
        let mut at = 0.0f64;
        loop {
            at += -(1.0 - rng.gen::<f64>()).ln() / MIXED_RATE;
            if at > horizon.as_secs_f64() {
                break;
            }
            let target = if rng.gen_bool(MIXED_BLOCK_SHARE) {
                0
            } else {
                rng.gen_range(1..targets.len())
            };
            let pool = &mut earlier[target];
            let payload = if !pool.is_empty() && rng.gen_bool(MIXED_REPEAT_SHARE) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                let cols = rng.gen_range(1..=MIXED_MAX_COLS);
                let x = self.hidden(&mut rng, cols);
                let model = &targets[target];
                let p = if model.is_block() {
                    Payload::Hidden(x)
                } else {
                    model.quantize(&x)
                };
                payloads.push((target, p));
                pool.push(payloads.len() - 1);
                payloads.len() - 1
            };
            requests.push(Scheduled {
                at: Duration::from_secs_f64(at),
                payload,
            });
        }
        Schedule {
            targets,
            payloads,
            requests,
        }
    }
}

/// One mixed request: when it is due and which payload it sends.
pub struct Scheduled {
    pub at: Duration,
    pub payload: usize,
}

pub struct Schedule {
    /// Model per target index (0 is the block model).
    pub targets: Vec<Arc<PreparedModel>>,
    /// Distinct payloads and the target each is sent to.
    pub payloads: Vec<(usize, Payload)>,
    pub requests: Vec<Scheduled>,
}
