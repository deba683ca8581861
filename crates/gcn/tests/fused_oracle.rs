//! Fused-pipeline oracle: for every layer type, data path, scheduling
//! policy, and worker count, the fused cached forward pass must agree
//! with an unfused composition of the same engine primitives — **bit-**
//! identically wherever the engine run follows the sequential per-column
//! addition order (one worker, or the column-striped scheduler at any
//! count), and to tolerance on the static multi-worker configuration,
//! whose strip fold reassociates shared-row sums.
//!
//! Every fused output is additionally checked against the seed
//! `forward` path (naive GEMM + plain kernel SpMM + separate epilogue
//! passes) to numerical tolerance, pinning the whole pipeline — not just
//! the fusion delta — to the original semantics.

use mpspmm_core::{default_workers, DataPath, ExecEngine, MergePathSpmm, SchedPolicy};
use mpspmm_gcn::ops::{gemm, random_features, xavier_init, Activation};
use mpspmm_gcn::{GcnLayer, GinLayer, SageMeanLayer};
use mpspmm_graphs::{gcn_normalize, mean_normalize, sum_with_self_loops, DatasetSpec, GraphClass};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};

const NODES: usize = 120;
const IN_DIM: usize = 12;

fn graph() -> CsrMatrix<f32> {
    DatasetSpec::custom("fused", GraphClass::PowerLaw, NODES, 600, 40).synthesize(9)
}

/// A run follows the sequential per-column addition order when it
/// either has no cross-worker write ordering at all (one worker), or
/// partitions output *columns* so every worker replays the full plan
/// walk over a disjoint window (the column-striped scheduler, at any
/// worker count).
fn deterministic(policy: SchedPolicy, workers: usize) -> bool {
    workers == 1 || policy == SchedPolicy::ColumnStriped
}

fn worker_counts() -> Vec<usize> {
    let mut ws = vec![1, 2, 8, default_workers()];
    ws.sort_unstable();
    ws.dedup();
    ws
}

fn engine_matrix() -> Vec<(DataPath, SchedPolicy, usize)> {
    let mut m = Vec::new();
    for path in [DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
        for policy in [SchedPolicy::Static, SchedPolicy::ColumnStriped] {
            for &w in &worker_counts() {
                m.push((path, policy, w));
            }
        }
    }
    m
}

fn assert_matches(
    got: &DenseMatrix<f32>,
    want: &DenseMatrix<f32>,
    exact: bool,
    label: &str,
    path: DataPath,
    policy: SchedPolicy,
    workers: usize,
) {
    if exact {
        assert_eq!(
            got.max_abs_diff(want).unwrap(),
            0.0,
            "{label} fused != unfused oracle (path={path:?} policy={policy:?} workers={workers})"
        );
    } else {
        assert!(
            got.approx_eq(want, 1e-5).unwrap(),
            "{label} fused out of tolerance (path={path:?} policy={policy:?} workers={workers})"
        );
    }
}

/// One GCN configuration under test, holding its own copies of the
/// weight/bias so the unfused oracle can recompose the layer from
/// engine primitives.
struct GcnCase {
    label: &'static str,
    layer: GcnLayer,
    weight: DenseMatrix<f32>,
    bias: Option<Vec<f32>>,
    activation: Activation,
}

fn gcn_cases() -> Vec<GcnCase> {
    let w = xavier_init(IN_DIM, 16, 21);
    let bias: Vec<f32> = (0..16).map(|j| (j as f32) * 0.125 - 1.0).collect();
    vec![
        GcnCase {
            label: "gcn-bias-relu",
            layer: GcnLayer::with_bias(w.clone(), bias.clone(), Activation::Relu),
            weight: w.clone(),
            bias: Some(bias.clone()),
            activation: Activation::Relu,
        },
        GcnCase {
            label: "gcn-identity",
            layer: GcnLayer::new(w.clone(), Activation::Identity),
            weight: w.clone(),
            bias: None,
            activation: Activation::Identity,
        },
        GcnCase {
            label: "gcn-bias-sigmoid-unfused-fallback",
            layer: GcnLayer::with_bias(w.clone(), bias.clone(), Activation::Sigmoid),
            weight: w,
            bias: Some(bias),
            activation: Activation::Sigmoid,
        },
    ]
}

#[test]
fn fused_layer_matches_unfused_oracle() {
    let a = gcn_normalize(&graph());
    let x = random_features(NODES, IN_DIM, 0.4, 33);
    let kernel = MergePathSpmm::with_threads(13);

    // --- GCN: the fused epilogue path proper. ---
    for case in gcn_cases() {
        for &(path, policy, workers) in &engine_matrix() {
            let engine = ExecEngine::with_sched_policy(workers, path, policy);
            let fused = case
                .layer
                .forward_cached(&a, &x, &kernel, &engine, 0)
                .unwrap();
            // Unfused composition on the same engine: engine GEMM, plain
            // cached SpMM, then bias and activation as separate passes.
            let hw = engine.gemm(&x, &case.weight).unwrap();
            let (mut want, _) = engine.spmm_cached(&kernel, &a, &hw, 0).unwrap();
            if let Some(bias) = &case.bias {
                for r in 0..want.rows() {
                    for (v, &b) in want.row_mut(r).iter_mut().zip(bias) {
                        *v += b;
                    }
                }
            }
            case.activation.apply(&mut want);
            assert_matches(
                &fused,
                &want,
                deterministic(policy, workers),
                case.label,
                path,
                policy,
                workers,
            );
            // Seed-path sanity: the whole fused layer stays within
            // numerical tolerance of the original naive pipeline.
            let seed = case.layer.forward(&a, &x, &kernel).unwrap();
            assert!(
                fused.approx_eq(&seed, 1e-4).unwrap(),
                "{} diverged from seed forward (path={path:?} policy={policy:?} workers={workers})",
                case.label,
            );
        }
    }

    // --- GIN: engine-GEMM MLP vs naive-GEMM MLP over the same cached
    // aggregation. ---
    let sum_op = sum_with_self_loops(&graph(), 0.3);
    let gin = GinLayer::new(
        xavier_init(IN_DIM, 20, 40),
        xavier_init(20, 6, 41),
        Activation::Relu,
    );
    for &(path, policy, workers) in &engine_matrix() {
        let engine = ExecEngine::with_sched_policy(workers, path, policy);
        let fused = gin
            .forward_cached(&sum_op, &x, &kernel, &engine, 0)
            .unwrap();
        let (agg, _) = engine.spmm_cached(&kernel, &sum_op, &x, 0).unwrap();
        let mut hidden = gemm(&agg, &xavier_init(IN_DIM, 20, 40)).unwrap();
        Activation::Relu.apply(&mut hidden);
        let mut want = gemm(&hidden, &xavier_init(20, 6, 41)).unwrap();
        Activation::Relu.apply(&mut want);
        assert_matches(
            &fused,
            &want,
            deterministic(policy, workers),
            "gin",
            path,
            policy,
            workers,
        );
        let seed = gin.forward(&sum_op, &x, &kernel).unwrap();
        assert!(fused.approx_eq(&seed, 1e-4).unwrap(), "gin seed sanity");
    }

    // --- SAGE: both dense products on the engine GEMM. ---
    let mean_op = mean_normalize(&graph());
    let w_self = xavier_init(IN_DIM, 7, 50);
    let w_neigh = xavier_init(IN_DIM, 7, 51);
    let sage = SageMeanLayer::new(w_self.clone(), w_neigh.clone(), Activation::Relu);
    for &(path, policy, workers) in &engine_matrix() {
        let engine = ExecEngine::with_sched_policy(workers, path, policy);
        let fused = sage
            .forward_cached(&mean_op, &x, &kernel, &engine, 0)
            .unwrap();
        let hwn = gemm(&x, &w_neigh).unwrap();
        let (neigh, _) = engine.spmm_cached(&kernel, &mean_op, &hwn, 0).unwrap();
        let mut want = gemm(&x, &w_self).unwrap();
        for (dst, &src) in want.as_mut_slice().iter_mut().zip(neigh.as_slice()) {
            *dst += src;
        }
        Activation::Relu.apply(&mut want);
        assert_matches(
            &fused,
            &want,
            deterministic(policy, workers),
            "sage",
            path,
            policy,
            workers,
        );
        let seed = sage.forward(&mean_op, &x, &kernel).unwrap();
        assert!(fused.approx_eq(&seed, 1e-4).unwrap(), "sage seed sanity");
    }
}

/// The wide-feature-dim data path end to end: a GCN layer with a
/// 256-wide hidden dimension must route its aggregation SpMM through
/// column stripes (pinned or via `Auto`'s dim threshold) and remain
/// **bit-identical** to the unfused engine composition — FastMath stays
/// off, so striping may not perturb a single bit.
#[test]
fn wide_hidden_dim_gcn_stripes_and_stays_exact() {
    const OUT_DIM: usize = 256;
    let a = gcn_normalize(&graph());
    let x = random_features(NODES, IN_DIM, 0.4, 34);
    let kernel = MergePathSpmm::with_threads(13);
    let w = xavier_init(IN_DIM, OUT_DIM, 80);
    let bias: Vec<f32> = (0..OUT_DIM)
        .map(|j| (j % 11) as f32 * 0.125 - 0.5)
        .collect();
    let layer = GcnLayer::with_bias(w.clone(), bias.clone(), Activation::Relu);
    for policy in [SchedPolicy::ColumnStriped, SchedPolicy::Auto] {
        for &workers in &[2usize, 4, 8] {
            let engine = ExecEngine::with_sched_policy(workers, DataPath::Auto, policy);
            let fused = layer.forward_cached(&a, &x, &kernel, &engine, 0).unwrap();
            assert!(
                engine.stats().stripes_executed > 0,
                "dim {OUT_DIM} routes through stripes (policy={policy:?} workers={workers})"
            );
            let hw = engine.gemm(&x, &w).unwrap();
            let (mut want, _) = engine.spmm_cached(&kernel, &a, &hw, 0).unwrap();
            for r in 0..want.rows() {
                for (v, &b) in want.row_mut(r).iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            Activation::Relu.apply(&mut want);
            assert_eq!(
                fused.max_abs_diff(&want).unwrap(),
                0.0,
                "wide-dim fused != unfused oracle (policy={policy:?} workers={workers})"
            );
        }
    }
}

/// The fused batched path must match per-request fused forwards: the
/// batch merely regroups columns, and the tiled combined-width bias must
/// land on each block exactly as the per-block bias would.
#[test]
fn fused_batched_forward_matches_per_request() {
    let a = gcn_normalize(&graph());
    let model = mpspmm_gcn::GcnModel::new(vec![
        GcnLayer::with_bias(
            xavier_init(IN_DIM, 10, 60),
            (0..10).map(|j| j as f32 * 0.25 - 1.0).collect(),
            Activation::Relu,
        ),
        GcnLayer::with_bias(
            xavier_init(10, 4, 61),
            vec![0.5, -0.5, 1.0, 0.0],
            Activation::Identity,
        ),
    ]);
    let kernel = MergePathSpmm::new();
    for workers in [1usize, 4] {
        let engine = ExecEngine::with_sched_policy(workers, DataPath::Auto, SchedPolicy::Static);
        let prep = engine.plan_cached(&kernel, &a, model.max_features(), 0);
        let blocks: Vec<DenseMatrix<f32>> = (0..3)
            .map(|i| random_features(NODES, IN_DIM, 0.4, 70 + i))
            .collect();
        let refs: Vec<&DenseMatrix<f32>> = blocks.iter().collect();
        let batched = model
            .forward_batched_prepared(&a, &prep, &refs, &engine)
            .unwrap();
        for (x, out) in blocks.iter().zip(&batched) {
            let solo = model
                .forward_batched_prepared(&a, &prep, &[x], &engine)
                .unwrap();
            assert_eq!(
                out.max_abs_diff(&solo[0]).unwrap(),
                0.0,
                "batched fused (static, workers={workers}) must be exact vs solo"
            );
            let plain = model.forward(&a, x, &kernel).unwrap();
            assert!(out.approx_eq(&plain, 1e-4).unwrap(), "seed sanity");
        }
    }
}

#[test]
fn forward_sharded_agrees_bitwise_across_shard_counts() {
    // The sharded forward's invariant (DESIGN.md §2.15): every shard
    // count produces the same bits, because both halves of each layer —
    // the banded GEMM and the row-aligned shard SpMM — are
    // plan-independent per row. S=1 is the oracle for S>1.
    let a = gcn_normalize(&graph());
    let model = mpspmm_gcn::GcnModel::two_layer(IN_DIM, 16, 4, 23);
    let x = random_features(NODES, IN_DIM, 0.4, 31);
    let baseline = model
        .forward_sharded(&mpspmm_core::ShardedEngine::new(&a, 1, 1), &x)
        .unwrap();
    for shards in [2usize, 3, 5] {
        for total_workers in [1usize, 4, 8] {
            let se = mpspmm_core::ShardedEngine::new(&a, shards, total_workers);
            let got = model.forward_sharded(&se, &x).unwrap();
            assert_eq!(
                got.as_slice(),
                baseline.as_slice(),
                "shards={shards} workers={total_workers}"
            );
        }
    }
}
