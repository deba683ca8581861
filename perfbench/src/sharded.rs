//! `sharded`: the `fullgraph` graph, model and features through a
//! two-shard `ShardedEngine` (one worker per shard) and
//! `GcnModel::forward_sharded`. The one-shard forward is the bit-exact
//! oracle.

use std::time::Instant;

use mpspmm_core::ShardedEngine;
use mpspmm_gcn::GcnModel;
use mpspmm_graphs::gcn_normalize;
use mpspmm_sparse::{DenseMatrix, ShardedCsr};

use crate::fullgraph::{closed_loop_metrics, Inputs, CLASSES, HIDDEN};
use crate::util::{self, median, median_ms, ms, Latency, Outcome};

pub const SHARDS: usize = 2;
/// Cold set-ups timed per run, spread through it.
const SETUPS: usize = 15;
const TAIL_PCT: f64 = 80.0;

pub struct Ready {
    pub sharded: ShardedEngine,
    pub model: GcnModel,
    pub first: DenseMatrix<f32>,
}

pub struct SetupSpans {
    pub total: f64,
    pub partition: f64,
}

/// Raw inputs in memory → first sharded forward done.
pub fn setup(inputs: &Inputs, shards: usize, workers: usize) -> (Ready, SetupSpans) {
    let t0 = Instant::now();
    let a_hat = gcn_normalize(&inputs.a);
    let t1 = Instant::now();
    let parts = ShardedCsr::partition(&a_hat, shards);
    let partition = ms(t1.elapsed());
    drop(a_hat);
    let sharded = ShardedEngine::from_sharded(parts, workers);
    sharded.warm_plans(&[HIDDEN, CLASSES]);
    let model = inputs.model();
    let first = model
        .forward_sharded(&sharded, &inputs.x)
        .expect("sharded forward shapes");
    let spans = SetupSpans {
        total: ms(t0.elapsed()),
        partition,
    };
    (
        Ready {
            sharded,
            model,
            first,
        },
        spans,
    )
}

/// The S = 1 forward, which `forward_sharded` at S = 2 must equal bit
/// for bit. Called before any measured set-up; only its output is kept,
/// so its engine is not counted in the run's peak RSS.
fn oracle(inputs: &Inputs, workers: usize) -> DenseMatrix<f32> {
    setup(inputs, 1, workers).0.first
}

impl Ready {
    pub fn forward(&self, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        self.model
            .forward_sharded(&self.sharded, x)
            .expect("sharded forward shapes")
    }

    /// `forward_sharded` replayed call by call with spans around the
    /// sharded GEMM and SpMM of each layer; `w` are the harness's weights.
    fn forward_traced(&self, x: &DenseMatrix<f32>, w: [&DenseMatrix<f32>; 2]) -> Traced {
        let t0 = Instant::now();
        let (mut gemm, mut spmm) = (0.0, 0.0);
        let mut h: Option<DenseMatrix<f32>> = None;
        let mut products = Vec::new();
        for (layer, w) in self.model.layers().iter().zip(w) {
            let t = Instant::now();
            let g = self
                .sharded
                .gemm(h.as_ref().unwrap_or(x), w)
                .expect("GEMM shapes");
            gemm += ms(t.elapsed());
            let t = Instant::now();
            let epi = layer.epilogue().expect("both layers fuse");
            h = Some(self.sharded.spmm_fused(&g, epi).expect("SpMM shapes"));
            spmm += ms(t.elapsed());
            products.push(g);
        }
        Traced {
            out: h.expect("two layers"),
            products,
            total: ms(t0.elapsed()),
            gemm,
            spmm,
        }
    }
}

struct Traced {
    out: DenseMatrix<f32>,
    /// Each layer's `H × W`, the operand its halo gather reads.
    products: Vec<DenseMatrix<f32>>,
    total: f64,
    gemm: f64,
    spmm: f64,
}

pub fn run(seed: u64, seconds: f64, workers: usize) -> Outcome {
    let inputs = Inputs::generate(seed);
    let want = oracle(&inputs, workers);
    let mut out = Outcome::default();
    let (secs, lat) = util::closed_loop(
        SETUPS,
        seconds,
        &mut out,
        |out| {
            let (ready, spans) = setup(&inputs, SHARDS, workers);
            out.check(util::bits_equal(&ready.first, &want));
            (ready, spans.total / 1e3)
        },
        |ready, out| {
            let t0 = Instant::now();
            let y = ready.forward(&inputs.x);
            let latency = ms(t0.elapsed());
            out.check(util::bits_equal(&y, &want));
            latency
        },
    );
    let setup_s = util::setup_median("sharded", &secs);
    let l = Latency::windowed(&lat, TAIL_PCT);
    eprintln!("{}", l.describe("sharded forward"));
    let throughput = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
    closed_loop_metrics(&mut out, setup_s, &l, throughput);
    out
}

/// Traced run; returns the trace overhead of a sharded forward.
pub fn trace(inputs: &Inputs, workers: usize, reps: usize, out: &mut Outcome) -> f64 {
    let want = oracle(inputs, workers);
    let (ready, spans) = util::cold_setups(SETUPS, || setup(inputs, SHARDS, workers));
    out.put(
        "sparse.shard.partition_ms",
        median(&spans.iter().map(|s| s.partition).collect::<Vec<_>>()),
        "ms",
    );
    let parts = ready.sharded.sharding();
    out.put(
        "sparse.shard.halo_amplification",
        parts.halo_amplification(),
        "count",
    );
    out.check(util::bits_equal(&ready.first, &want));

    let w = [&inputs.w0, &inputs.w1];
    let (mut plain, mut traced, mut gemm, mut spmm) = (vec![], vec![], vec![], vec![]);
    let mut products = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let y = ready.forward(&inputs.x);
        plain.push(ms(t0.elapsed()));
        out.check(util::bits_equal(&y, &want));
        let t = ready.forward_traced(&inputs.x, w);
        out.check(util::bits_equal(&t.out, &want));
        traced.push(t.total);
        gemm.push(t.gemm);
        spmm.push(t.spmm);
        products = t.products;
    }
    out.put("core.shard.gemm_ms", median(&gemm), "ms");
    out.put("core.shard.spmm_ms", median(&spmm), "ms");
    // Halo gather of both layers' operands across every shard, replayed.
    let mut buf = Vec::new();
    let gather = median_ms(reps, || {
        for b in &products {
            for shard in parts.shards() {
                shard.gather_halo_into(b, b.cols(), &mut buf);
                std::hint::black_box(&buf);
            }
        }
    });
    out.put("sparse.shard.halo_gather_ms", gather, "ms");
    let peak = ready
        .sharded
        .shard_stats()
        .iter()
        .map(|s| s.peak_depth)
        .max()
        .unwrap_or(0);
    out.put("core.shard.queue_peak", peak as f64, "count");
    median(&traced) / median(&plain) - 1.0
}
