//! What every workload serves: a zoo-shaped transformer-block stack, two
//! multi-layer linear chains, and a loopback `GatewayServer` whose shard
//! and worker counts are fixed from the machine's core count.

use std::sync::Arc;
use std::time::Instant;

use panacea_block::{zoo_hidden_states, zoo_transformer, BlockBuilder, QuantizedBlock};
use panacea_gateway::{Gateway, GatewayConfig, GatewayServer, IoModel, ServerConfig};
use panacea_models::engine::{TinyTransformer, TransformerConfig};
use panacea_models::zoo::Benchmark;
use panacea_models::LayerKind;
use panacea_serve::{
    BatchPolicy, LayerSpec, PrepareOptions, PreparedModel, RuntimeConfig, SessionConfig,
};
use panacea_tensor::dist::DistributionKind;
use panacea_tensor::Matrix;

pub const BENCH: Benchmark = Benchmark::BertBase;
pub const D_MODEL: usize = 128;
pub const N_HEADS: usize = 4;
pub const D_FF: usize = 512;
pub const N_BLOCKS: usize = 2;
/// Weight bits of every served GEMM (the block builder's default).
pub const W_BITS: u8 = 7;
/// The model is part of the benchmark's definition, not of its inputs:
/// its seed is fixed so `--seed` only changes the traffic.
const MODEL_SEED: u64 = 20_250_301;
const CALIB_TOKENS: usize = 64;

pub const BLOCK_MODEL: &str = "block";
/// Chain names, chosen so that on two shards their rendezvous favourites
/// differ and chain traffic spreads over both shards.
pub const CHAIN_MODELS: [&str; 2] = ["chain-mlp", "chain-attn"];

/// Server sizing, fixed from `available_parallelism` and recorded with
/// every result so numbers measure the program, not the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub nproc: usize,
    pub shards: usize,
    pub runtime_workers: usize,
    pub reactor_workers: usize,
    pub connections: usize,
}

impl Sizing {
    pub fn for_machine() -> Sizing {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Sizing {
            nproc,
            shards: nproc,
            runtime_workers: 1,
            reactor_workers: nproc,
            connections: nproc.min(2),
        }
    }

    pub fn gateway_config(&self) -> GatewayConfig {
        let policy = BatchPolicy::default();
        GatewayConfig {
            shards: self.shards,
            runtime: RuntimeConfig {
                workers: self.runtime_workers,
                policy,
            },
            // Decode steps linger for batchmates as long as stateless
            // requests do. With no linger, two connections whose sessions
            // share a shard fall into taking turns (each step queues behind
            // the other's pass), and whether a run lands in that regime
            // depends on session placement, not on the program's speed.
            session: SessionConfig {
                decode_max_wait: policy.max_wait,
                ..SessionConfig::default()
            },
            ..GatewayConfig::default()
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            io_model: IoModel::Reactor,
            reactor_workers: self.reactor_workers,
            ..ServerConfig::default()
        }
    }
}

/// The prepared models plus the float oracle they were calibrated from.
pub struct Models {
    pub oracle: TinyTransformer,
    pub calibration: Matrix<f32>,
    pub blocks: Vec<QuantizedBlock>,
    pub block: Arc<PreparedModel>,
    pub chains: Vec<Arc<PreparedModel>>,
}

impl Models {
    pub fn all(&self) -> Vec<Arc<PreparedModel>> {
        let mut all = vec![Arc::clone(&self.block)];
        all.extend(self.chains.iter().cloned());
        all
    }

    pub fn chain(&self, name: &str) -> &Arc<PreparedModel> {
        self.chains
            .iter()
            .find(|m| m.name() == name)
            .expect("chain model exists")
    }
}

/// The zoo benchmark's distribution for one layer kind.
pub fn weight_dist(kind: LayerKind) -> DistributionKind {
    BENCH
        .spec()
        .layers
        .iter()
        .find(|l| l.kind == kind)
        .map(|l| l.weight_dist)
        .expect("benchmark has the layer kind")
}

/// Hidden states entering a block, as the zoo models them.
pub fn act_dist() -> DistributionKind {
    BENCH
        .spec()
        .layers
        .iter()
        .find(|l| l.kind == LayerKind::Qkv)
        .map(|l| l.act_dist)
        .expect("benchmark has a QKV layer")
}

pub fn prepare_models() -> Models {
    let shape = TransformerConfig {
        d_model: D_MODEL,
        n_heads: N_HEADS,
        d_ff: D_FF,
        n_layers: N_BLOCKS,
    };
    let oracle = zoo_transformer(BENCH, shape, MODEL_SEED);
    let calibration = zoo_hidden_states(BENCH, D_MODEL, CALIB_TOKENS, MODEL_SEED + 1);
    let blocks = BlockBuilder::default()
        .prepare(&oracle, &calibration)
        .expect("block stack prepares");
    let block = Arc::new(
        PreparedModel::from_blocks(BLOCK_MODEL, blocks.clone()).expect("block model wraps"),
    );
    let mut rng = panacea_tensor::seeded_rng(MODEL_SEED + 2);
    let mut layer =
        |kind, m, k| LayerSpec::unbiased(weight_dist(kind).sample_matrix(m, k, &mut rng));
    let shapes = [
        vec![
            layer(LayerKind::MlpFc1, D_FF, D_MODEL),
            layer(LayerKind::MlpFc2, D_MODEL, D_FF),
        ],
        vec![
            layer(LayerKind::Qkv, D_MODEL, D_MODEL),
            layer(LayerKind::AttnProj, D_MODEL, D_MODEL),
        ],
    ];
    let chains = CHAIN_MODELS
        .iter()
        .zip(shapes)
        .map(|(name, layers)| {
            let chain =
                PreparedModel::prepare(*name, &layers, &calibration, PrepareOptions::default())
                    .expect("chain prepares");
            Arc::new(chain)
        })
        .collect();
    Models {
        oracle,
        calibration,
        blocks,
        block,
        chains,
    }
}

/// One set-up: models prepared and a server bound on loopback.
pub struct Setup {
    pub models: Models,
    pub server: GatewayServer,
    pub prepare_s: f64,
    pub total_s: f64,
}

pub fn set_up(sizing: &Sizing) -> Setup {
    let started = Instant::now();
    let models = prepare_models();
    let prepare_s = started.elapsed().as_secs_f64();
    let gateway = Arc::new(Gateway::from_shared(models.all(), sizing.gateway_config()));
    let server = GatewayServer::bind_with(gateway, "127.0.0.1:0", sizing.server_config())
        .expect("bind loopback server");
    Setup {
        models,
        server,
        prepare_s,
        total_s: started.elapsed().as_secs_f64(),
    }
}
