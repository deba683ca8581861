//! `fullgraph`: one caller, closed loop, a whole two-layer GCN forward
//! (`GcnModel::forward_cached`) on the synthesized Table II com-Amazon
//! graph at the paper's dim-16 setting. Plans are warmed in set-up.

use std::time::Instant;

use mpspmm_core::{ExecEngine, MergePathSpmm, SerialSpmm};
use mpspmm_gcn::{ops, Activation, GcnLayer, GcnModel};
use mpspmm_graphs::{find_dataset, gcn_normalize};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::RngCore;

use crate::util::{self, median, median_ms, ms, Latency, Outcome};

pub const IN_FEATURES: usize = 64;
pub const HIDDEN: usize = 16;
pub const CLASSES: usize = 8;
/// Share of the raw feature matrix that is non-zero.
const FEATURE_DENSITY: f64 = 0.2;
/// Cold set-ups timed per run, spread through it; `setup_s` is their
/// median.
const SETUPS: usize = 15;
/// Tail percentile (at least ten samples lie beyond it at the run length
/// `BENCHMARK.json` sets).
pub const TAIL_PCT: f64 = 80.0;
/// Engine output against the serial oracle, relative per element.
pub const TOLERANCE: f32 = 1e-4;

/// The raw inputs, generated from the seed before anything is timed.
pub struct Inputs {
    pub a: CsrMatrix<f32>,
    pub x: DenseMatrix<f32>,
    pub w0: DenseMatrix<f32>,
    pub w1: DenseMatrix<f32>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let spec = find_dataset("com-Amazon").expect("com-Amazon is a Table II dataset");
        let mut rng = util::rng(seed, 1);
        let a = spec.synthesize(rng.next_u64());
        let x = util::features(&mut rng, a.rows(), IN_FEATURES, FEATURE_DENSITY);
        let w0 = util::weights(&mut rng, IN_FEATURES, HIDDEN);
        let w1 = util::weights(&mut rng, HIDDEN, CLASSES);
        Inputs { a, x, w0, w1 }
    }

    pub fn model(&self) -> GcnModel {
        GcnModel::new(vec![
            GcnLayer::new(self.w0.clone(), Activation::Relu),
            GcnLayer::new(self.w1.clone(), Activation::Identity),
        ])
    }

    /// `GcnModel::forward` with the serial SpMM: the tolerance oracle.
    /// Called before any measured set-up, so that only its output is
    /// alive beside the measured engine and its memory is not counted in
    /// the run's peak RSS.
    pub fn oracle(&self) -> DenseMatrix<f32> {
        self.model()
            .forward(&gcn_normalize(&self.a), &self.x, &SerialSpmm)
            .expect("oracle shapes are consistent")
    }
}

/// A warmed engine ready to serve forwards.
pub struct Ready {
    pub engine: ExecEngine,
    pub kernel: MergePathSpmm,
    pub a_hat: CsrMatrix<f32>,
    pub model: GcnModel,
    pub first: DenseMatrix<f32>,
}

/// Where one cold set-up's time went, milliseconds.
pub struct SetupSpans {
    pub total: f64,
    pub normalize: f64,
    pub warm: f64,
}

/// Raw inputs in memory → first forward done, on a fresh engine.
pub fn setup(inputs: &Inputs, workers: usize) -> (Ready, SetupSpans) {
    let t0 = Instant::now();
    let engine = ExecEngine::new(workers);
    let kernel = MergePathSpmm::new();
    let a_hat = gcn_normalize(&inputs.a);
    let t1 = Instant::now();
    let model = inputs.model();
    model
        .warm_plans(&a_hat, &kernel, &engine, 0)
        .expect("normalized adjacency is square");
    let t2 = Instant::now();
    let first = model
        .forward_cached(&a_hat, &inputs.x, &kernel, &engine, 0)
        .expect("forward shapes are consistent");
    let spans = SetupSpans {
        total: ms(t0.elapsed()),
        normalize: ms(t1 - t0),
        warm: ms(t2 - t1),
    };
    let ready = Ready {
        engine,
        kernel,
        a_hat,
        model,
        first,
    };
    (ready, spans)
}

impl Ready {
    /// The measured operation: one whole forward.
    pub fn forward(&self, x: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        self.model
            .forward_cached(&self.a_hat, x, &self.kernel, &self.engine, 0)
            .expect("forward shapes are consistent")
    }

    /// The same forward, layer by layer, with a span around each layer.
    pub fn forward_traced(&self, x: &DenseMatrix<f32>) -> (DenseMatrix<f32>, [f64; 2]) {
        let [l0, l1] = self.model.layers() else {
            unreachable!("the benchmark model has two layers")
        };
        let t0 = Instant::now();
        let h = l0
            .forward_cached_sparse_features(&self.a_hat, x, &self.kernel, &self.engine, 0)
            .expect("layer 0 shapes");
        let t1 = Instant::now();
        let out = l1
            .forward_cached(&self.a_hat, &h, &self.kernel, &self.engine, 0)
            .expect("layer 1 shapes");
        let t2 = Instant::now();
        self.engine.recycle(h);
        (out, [ms(t1 - t0), ms(t2 - t1)])
    }
}

pub fn run(seed: u64, seconds: f64, workers: usize) -> Outcome {
    let inputs = Inputs::generate(seed);
    let oracle = inputs.oracle();
    let mut out = Outcome::default();
    let (secs, lat) = util::closed_loop(
        SETUPS,
        seconds,
        &mut out,
        |out| {
            let (ready, spans) = setup(&inputs, workers);
            out.check(util::within(&ready.first, &oracle, TOLERANCE));
            (ready, spans.total / 1e3)
        },
        |ready, out| {
            let t0 = Instant::now();
            let y = ready.forward(&inputs.x);
            let latency = ms(t0.elapsed());
            out.check(util::within(&y, &oracle, TOLERANCE));
            ready.engine.recycle(y);
            latency
        },
    );
    let setup_s = util::setup_median("fullgraph", &secs);
    let l = Latency::windowed(&lat, TAIL_PCT);
    eprintln!("{}", l.describe("fullgraph forward"));
    let throughput = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
    closed_loop_metrics(&mut out, setup_s, &l, throughput);
    out
}

/// The end-to-end set of a closed loop with one caller.
pub fn closed_loop_metrics(out: &mut Outcome, setup_s: f64, l: &Latency, throughput: f64) {
    out.put("setup_s", setup_s, "s");
    out.put("latency_ms_p50", l.p50, "ms");
    out.put("latency_ms_tail", l.tail, "ms");
    out.put("throughput_per_s", throughput, "1/s");
    out.put("peak_rss_mb", util::peak_rss_mb(), "MiB");
}

/// Traced run: per-layer spans of set-up and forward, plus replays of
/// each stage on the harness's own weights. Returns the trace overhead
/// of a forward.
pub fn trace(
    inputs: &Inputs,
    workers: usize,
    reps: usize,
    stream_gbps: f64,
    out: &mut Outcome,
) -> f64 {
    let oracle = inputs.oracle();
    let (ready, spans) = util::cold_setups(SETUPS, || setup(inputs, workers));
    out.put(
        "graphs.normalize_ms",
        median(&spans.iter().map(|s| s.normalize).collect::<Vec<_>>()),
        "ms",
    );
    out.put(
        "core.plan.warm_ms",
        median(&spans.iter().map(|s| s.warm).collect::<Vec<_>>()),
        "ms",
    );
    out.check(util::within(&ready.first, &oracle, TOLERANCE));

    // Untraced and traced forwards interleaved, so drift lands on both.
    let (mut plain, mut traced, mut l0, mut l1) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let t0 = Instant::now();
        let y = ready.forward(&inputs.x);
        plain.push(ms(t0.elapsed()));
        out.check(util::within(&y, &oracle, TOLERANCE));
        ready.engine.recycle(y);
        let t0 = Instant::now();
        let (y, [a, b]) = ready.forward_traced(&inputs.x);
        traced.push(ms(t0.elapsed()));
        l0.push(a);
        l1.push(b);
        out.check(util::within(&y, &oracle, TOLERANCE));
        ready.engine.recycle(y);
    }
    let forward_ms = median(&plain);
    let overhead = median(&traced) / forward_ms - 1.0;
    out.put("gcn.layer0_ms", median(&l0), "ms");
    out.put("gcn.layer1_ms", median(&l1), "ms");

    // Stage replays: the same calls the layers make, one at a time.
    let e = &ready.engine;
    let [layer0, layer1] = ready.model.layers() else {
        unreachable!("two layers")
    };
    let epi0 = layer0.epilogue().expect("ReLU fuses").clone();
    let epi1 = layer1.epilogue().expect("identity fuses").clone();
    let hw0 = ops::gemm(&inputs.x, &inputs.w0).expect("layer-0 GEMM shapes");
    let comb0 = median_ms(reps, || {
        std::hint::black_box(ops::gemm(&inputs.x, &inputs.w0).expect("shapes"));
    });
    let spmm = |b: &DenseMatrix<f32>, epi| {
        e.spmm_cached_fused(&ready.kernel, &ready.a_hat, b, 0, epi)
            .expect("SpMM shapes")
            .0
    };
    let h1 = spmm(&hw0, &epi0);
    let spmm16 = median_ms(reps, || e.recycle(spmm(&hw0, &epi0)));
    let hw1 = e.gemm(&h1, &inputs.w1).expect("layer-1 GEMM shapes");
    let gemm1 = median_ms(reps, || e.recycle(e.gemm(&h1, &inputs.w1).expect("shapes")));
    let spmm8 = median_ms(reps, || e.recycle(spmm(&hw1, &epi1)));
    out.put("gcn.comb0_ms", comb0, "ms");
    out.put("core.gemm_ms", gemm1, "ms");
    out.put("core.spmm_ms.d16", spmm16, "ms");
    out.put("core.spmm_ms.d8", spmm8, "ms");
    out.put(
        "stages_residual_frac",
        1.0 - (comb0 + gemm1 + spmm16 + spmm8) / forward_ms,
        "frac",
    );
    let nnz = ready.a_hat.nnz() as f64;
    let rows = ready.a_hat.rows() as f64;
    out.put("core.spmm.ns_per_nnz.d16", spmm16 * 1e6 / nnz, "ns");
    // Computed compulsory traffic: values and u32 column indices once,
    // row pointers once, the dense operand read once, the output written
    // once.
    let bytes = nnz * 8.0 + (rows + 1.0) * 8.0 + 2.0 * rows * HIDDEN as f64 * 4.0;
    let gbps = bytes / (spmm16 * 1e-3) / 1e9;
    out.put("core.spmm.bw_frac.d16", gbps / stream_gbps, "frac");

    let loads = e.worker_loads();
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    out.put(
        "core.engine.worker_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
        "ratio",
    );
    let st = e.stats();
    out.put("core.plan.hit_rate", st.hit_rate(), "frac");
    let takes = (st.arena_reuses + st.arena_misses).max(1) as f64;
    out.put(
        "core.arena.reuse_ratio",
        st.arena_reuses as f64 / takes,
        "frac",
    );
    e.recycle(h1);
    e.recycle(hw1);
    overhead
}
