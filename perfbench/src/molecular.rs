//! The molecular-burst probe, part of the traced run: 2048 Type II
//! molecular graphs (50–500 nnz) served by one shared small GCN with
//! graph packing on. A closed loop of bursts: each burst is 256
//! `Workload::Gcn` requests over 8 tenants for a seeded random subset of
//! the graphs, sent through `Server::submit_many`, and waits for every
//! reply. Compositions rarely repeat, so batch planning runs on the hot
//! path. It is not an end-to-end workload: its ~5 ms bursts slowed up to
//! fourfold at the tail when the host took CPU time away, and its tail
//! and throughput moved past any allowed bound (see STEADINESS.md).

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpspmm_core::{BatchMergeSpmm, BatchShapeClass, ExecEngine, MergePathSpmm};
use mpspmm_gcn::{Activation, GcnLayer, GcnModel};
use mpspmm_graphs::{gcn_normalize, DatasetSpec, GraphClass};
use mpspmm_serve::{Request, ServeConfig, ServeError, Server, Workload};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix};
use rand::{Rng as _, RngCore};

use crate::util::{self, median, ms, us, Latency, Outcome};

const GRAPHS: usize = 2048;
const BURST: usize = 256;
const TENANTS: usize = 8;
const IN_FEATURES: usize = 4;
const HIDDEN: usize = 4;
const CLASSES: usize = 2;
/// Tail percentile of the burst latency.
const TAIL_PCT: f64 = 90.0;

fn config() -> ServeConfig {
    ServeConfig {
        pack_graphs: true,
        max_batch_graphs: BURST,
        // A window waits for the whole burst and closes early once it
        // holds `BURST` graphs.
        max_linger: Duration::from_millis(5),
        tenant_queue_limit: BURST,
        ..ServeConfig::default()
    }
}

pub struct Inputs {
    graphs: Vec<CsrMatrix<f32>>,
    features: Vec<Arc<DenseMatrix<f32>>>,
    w0: DenseMatrix<f32>,
    w1: DenseMatrix<f32>,
    names: Vec<String>,
    tenants: Vec<String>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = util::rng(seed, 4);
        let graphs: Vec<CsrMatrix<f32>> = (0..GRAPHS)
            .map(|_| {
                let nnz = 50 + rng.gen_range(0..451usize);
                let nodes = (nnz / 4).max(16);
                DatasetSpec::custom("typeII-molecule", GraphClass::Structured, nodes, nnz, 8)
                    .synthesize(rng.next_u64())
            })
            .collect();
        let features = graphs
            .iter()
            .map(|a| Arc::new(util::features(&mut rng, a.cols(), IN_FEATURES, 1.0)))
            .collect();
        let w0 = util::weights(&mut rng, IN_FEATURES, HIDDEN);
        let w1 = util::weights(&mut rng, HIDDEN, CLASSES);
        Inputs {
            graphs,
            features,
            w0,
            w1,
            names: (0..GRAPHS).map(|g| format!("mol-{g}")).collect(),
            tenants: (0..TENANTS).map(|t| format!("tenant-{t}")).collect(),
        }
    }

    fn model(&self) -> GcnModel {
        GcnModel::new(vec![
            GcnLayer::new(self.w0.clone(), Activation::Relu),
            GcnLayer::new(self.w1.clone(), Activation::Identity),
        ])
    }

    /// Per-graph sequential forwards (one worker, unsplit rows): packed
    /// replies must equal them bit for bit.
    fn oracle(&self) -> Vec<DenseMatrix<f32>> {
        let model = self.model();
        let engine = ExecEngine::new(1);
        let kernel = MergePathSpmm::with_threads(1);
        self.graphs
            .iter()
            .zip(&self.features)
            .enumerate()
            .map(|(g, (a, x))| {
                model
                    .forward_cached(&gcn_normalize(a), x, &kernel, &engine, g as u64)
                    .expect("oracle forward")
            })
            .collect()
    }

    fn requests(&self, subset: &[usize]) -> Vec<Request> {
        subset
            .iter()
            .enumerate()
            .map(|(j, &g)| Request {
                graph: self.names[g].clone(),
                tenant: self.tenants[j % TENANTS].clone(),
                features: Arc::clone(&self.features[g]),
                workload: Workload::Gcn,
                deadline: None,
            })
            .collect()
    }
}

/// `BURST` distinct graph indices (partial Fisher–Yates).
fn draw(rng: &mut util::Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..GRAPHS).collect();
    for i in 0..BURST {
        let j = i + rng.gen_range(0..GRAPHS - i);
        idx.swap(i, j);
    }
    idx.truncate(BURST);
    idx
}

/// Server started, every graph normalized and registered with the
/// shared model, first burst answered and checked.
fn setup(
    inputs: &Inputs,
    workers: usize,
    first: &[usize],
    oracle: &[DenseMatrix<f32>],
    out: &mut Outcome,
) -> Server {
    let engine = Arc::new(ExecEngine::new(workers));
    let srv = Server::start(engine, Box::new(MergePathSpmm::new()), config());
    let model = Arc::new(inputs.model());
    for (name, a) in inputs.names.iter().zip(&inputs.graphs) {
        srv.registry()
            .register_shared(name, gcn_normalize(a), Some(Arc::clone(&model)));
    }
    let (rejected, ticket) = srv.submit_many(inputs.requests(first));
    let replies = ticket.wait_all();
    check_replies(first, &rejected, &replies, oracle, out);
    srv
}

/// One check per request: admitted, answered, and bit-identical to the
/// graph's sequential forward.
fn check_replies(
    subset: &[usize],
    rejected: &[Option<ServeError>],
    replies: &[Option<Result<DenseMatrix<f32>, ServeError>>],
    oracle: &[DenseMatrix<f32>],
    out: &mut Outcome,
) {
    for ((&g, rej), reply) in subset.iter().zip(rejected).zip(replies) {
        let ok = rej.is_none() && matches!(reply, Some(Ok(m)) if util::bits_equal(m, &oracle[g]));
        out.check(ok);
    }
}

/// Sends one burst and waits for it; returns its latency (ms) and the
/// time spent inside `submit_many` (µs). Checks every reply.
fn burst(
    srv: &Server,
    inputs: &Inputs,
    subset: &[usize],
    oracle: &[DenseMatrix<f32>],
    out: &mut Outcome,
) -> (f64, f64) {
    let reqs = inputs.requests(subset);
    let t0 = Instant::now();
    let (rejected, ticket) = srv.submit_many(reqs);
    let submit = us(t0.elapsed());
    let replies = ticket.wait_all();
    let latency = ms(t0.elapsed());
    check_replies(subset, &rejected, &replies, oracle, out);
    (latency, submit)
}

/// The probe: bursts on a fresh server, each timed whole and inside
/// `submit_many`, then replays of packing, batch planning and the
/// mega-batched forward on fresh compositions.
pub fn trace(seed: u64, seconds: f64, workers: usize, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let oracle = inputs.oracle();
    let mut rng = util::rng(seed, 6);
    let srv = setup(&inputs, workers, &draw(&mut rng), &oracle, out);
    let (mut lat, mut submit) = (vec![], vec![]);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || lat.len() < 3 {
        let subset = draw(&mut rng);
        let (l, s) = burst(&srv, &inputs, &subset, &oracle, out);
        lat.push(l);
        submit.push(s);
    }
    let st = srv.stats();
    srv.shutdown();
    let l = Latency::windowed(&lat, TAIL_PCT);
    eprintln!("{}", l.describe("molecular burst"));
    out.put("serve.burst_ms_p50", l.p50, "ms");
    out.put("serve.burst_ms_tail", l.tail, "ms");
    out.put("serve.submit_many_us", median(&submit), "us");
    out.put("serve.pack_efficiency", st.pack_efficiency, "frac");
    out.put(
        "serve.mean_graphs_per_batch",
        st.mean_graphs_per_batch,
        "count",
    );
    let e = &st.engine;
    let lookups = (e.batch_plan_hits + e.batch_plan_misses + e.batch_plan_rebuilds).max(1);
    out.put(
        "core.batch_plan.hit_rate",
        e.batch_plan_hits as f64 / lookups as f64,
        "frac",
    );

    // Replays on fresh compositions: pack, plan, stack, forward.
    let normalized: Vec<Arc<CsrMatrix<f32>>> = inputs
        .graphs
        .iter()
        .map(|a| Arc::new(gcn_normalize(a)))
        .collect();
    let model = inputs.model();
    let engine = ExecEngine::new(workers);
    let kernel = BatchMergeSpmm::new();
    let (mut build, mut plan, mut forward) = (vec![], vec![], vec![]);
    for _ in 0..32 {
        let subset = draw(&mut rng);
        let parts: Vec<Arc<CsrMatrix<f32>>> =
            subset.iter().map(|&g| Arc::clone(&normalized[g])).collect();
        let t = Instant::now();
        let pack = BlockDiagCsr::build(&parts).expect("block-diagonal pack");
        build.push(us(t.elapsed()));
        let class = BatchShapeClass::from_graphs(
            parts
                .iter()
                .map(|g| (g.rows(), g.nnz(), g.structure_hash())),
        );
        let t = Instant::now();
        let prep = engine.plan_batch_cached(&kernel, pack.matrix(), model.max_features(), &class);
        plan.push(us(t.elapsed()));
        let feats: Vec<&DenseMatrix<f32>> = subset.iter().map(|&g| &*inputs.features[g]).collect();
        let stacked = pack.stack_features(&feats).expect("stack shapes");
        let t = Instant::now();
        let y = model
            .forward_mega_batched(pack.matrix(), &prep, &stacked, &engine)
            .expect("mega-batched forward");
        forward.push(us(t.elapsed()));
        for (i, &g) in subset.iter().enumerate() {
            out.check(util::bits_equal(&pack.scatter_block(&y, i), &oracle[g]));
        }
        engine.recycle(y);
    }
    out.put("sparse.block_diag.build_us", median(&build), "us");
    out.put("core.batch_plan.plan_us", median(&plan), "us");
    out.put("gcn.mega_forward_us", median(&forward), "us");
}
