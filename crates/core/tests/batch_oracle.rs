//! Property tests pinning **block-diagonal packed execution** to the
//! per-constituent sequential oracle: a batch of small graphs packed
//! onto one diagonal by [`BlockDiagCsr`], planned with the row-aligned
//! [`BatchMergeSpmm`] kernel, and executed as one prepared run must be
//! **bit-identical** — per constituent, after scattering each row band
//! back out — to running every constituent through
//! [`execute_sequential`] separately. Row-aligned plans never split a
//! row across threads, so every output row is one flat fold whatever
//! the data path, scheduling policy, or worker count.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, BatchMergeSpmm, DataPath, ExecEngine, PreparedPlan, SchedPolicy, SerialSpmm,
    SpmmKernel,
};
use mpspmm_sparse::{BlockDiagCsr, CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random square graph; `nnz == 0` yields a completely empty matrix
/// (rows present, no edges) — a legal packed constituent.
fn random_graph(rows: usize, nnz: usize, seed: u64) -> CsrMatrix<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    while coords.len() < nnz.min(rows * rows) {
        coords.insert((rng.gen_range(0..rows), rng.gen_range(0..rows)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    CsrMatrix::from_triplets(rows, rows, &triplets).unwrap()
}

fn features(rows: usize, dim: usize, seed: u64) -> DenseMatrix<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEA7);
    DenseMatrix::from_fn(rows, dim, |_, _| rng.gen_range(-1.0..1.0))
}

/// Per-constituent oracle: a one-segment-per-row serial plan replayed by
/// `execute_sequential` — the flat ascending per-row fold the packed
/// row-aligned plan must reproduce inside each diagonal block.
fn sequential_reference(g: &CsrMatrix<f32>, x: &DenseMatrix<f32>, dim: usize) -> DenseMatrix<f32> {
    execute_sequential(&SerialSpmm.plan(g, dim), g, x)
        .unwrap()
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn packed_execution_bit_matches_per_graph_sequential(
        count in 2usize..6,
        dim in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graphs: Vec<Arc<CsrMatrix<f32>>> = Vec::new();
        let mut feats = Vec::new();
        for i in 0..count {
            let rows = rng.gen_range(2usize..24);
            // The first constituent is always empty: packing must carry
            // zero-nnz graphs without disturbing its neighbours' bands.
            let nnz = if i == 0 { 0 } else { rng.gen_range(1..rows * 3) };
            let g = random_graph(rows, nnz, seed ^ (i as u64).wrapping_mul(0x9E37));
            feats.push(features(rows, dim, seed.wrapping_mul(31) ^ i as u64));
            graphs.push(Arc::new(g));
        }
        let pack = BlockDiagCsr::build(&graphs).unwrap();
        let stacked = pack.stack_features(&feats.iter().collect::<Vec<_>>()).unwrap();
        let plan = BatchMergeSpmm::new().plan(pack.matrix(), dim);
        plan.validate(pack.matrix()).unwrap();
        let prep = PreparedPlan::for_matrix(plan, pack.matrix());
        let wants: Vec<DenseMatrix<f32>> = graphs
            .iter()
            .zip(&feats)
            .map(|(g, x)| sequential_reference(g, x, dim))
            .collect();
        for path in [DataPath::Scalar, DataPath::Vector] {
            for policy in [
                SchedPolicy::Static,
                SchedPolicy::ColumnStriped,
                SchedPolicy::Auto,
            ] {
                for &workers in &[1usize, 2, 8] {
                    let engine = ExecEngine::with_sched_policy(workers, path, policy)
                        .with_fast_math(false);
                    let (out, _) = engine
                        .execute_prepared(&prep, pack.matrix(), &stacked)
                        .unwrap();
                    for (i, want) in wants.iter().enumerate() {
                        let band = pack.scatter_block(&out, i);
                        prop_assert_eq!(
                            band.max_abs_diff(want).unwrap(),
                            0.0,
                            "graph {} path={:?} policy={:?} workers={}",
                            i, path, policy, workers
                        );
                    }
                }
            }
        }
    }
}

/// A single-graph batch is zero-copy (the packed matrix *is* the
/// constituent) and must still execute bit-identically at every worker
/// count; a batch of entirely empty graphs must produce all-zero bands.
#[test]
fn single_graph_and_all_empty_batches_round_trip() {
    let g = Arc::new(random_graph(12, 30, 7));
    let pack = BlockDiagCsr::build(std::slice::from_ref(&g)).unwrap();
    assert!(
        Arc::ptr_eq(pack.matrix(), &g),
        "single-graph pack is zero-copy"
    );
    let x = features(12, 5, 3);
    let stacked = pack.stack_features(&[&x]).unwrap();
    let prep =
        PreparedPlan::for_matrix(BatchMergeSpmm::new().plan(pack.matrix(), 5), pack.matrix());
    let want = sequential_reference(&g, &x, 5);
    for &workers in &[1usize, 2, 8] {
        let engine = ExecEngine::new(workers);
        let (out, _) = engine
            .execute_prepared(&prep, pack.matrix(), &stacked)
            .unwrap();
        assert_eq!(
            pack.scatter_block(&out, 0).max_abs_diff(&want).unwrap(),
            0.0,
            "workers={workers}"
        );
    }

    let empties: Vec<Arc<CsrMatrix<f32>>> = (0..3)
        .map(|i| Arc::new(random_graph(4 + i, 0, 0)))
        .collect();
    let pack = BlockDiagCsr::build(&empties).unwrap();
    assert_eq!(pack.nnz(), 0);
    let feats: Vec<DenseMatrix<f32>> = empties.iter().map(|g| features(g.rows(), 3, 1)).collect();
    let stacked = pack
        .stack_features(&feats.iter().collect::<Vec<_>>())
        .unwrap();
    let prep =
        PreparedPlan::for_matrix(BatchMergeSpmm::new().plan(pack.matrix(), 3), pack.matrix());
    let engine = ExecEngine::new(2);
    let (out, _) = engine
        .execute_prepared(&prep, pack.matrix(), &stacked)
        .unwrap();
    assert!(out.as_slice().iter().all(|&v| v == 0.0));
}

/// The tier-1 matrix leg: at the resolved worker count (honouring
/// `MPSPMM_WORKERS`, swept over 1/2/8 by `scripts/tier1.sh`) a packed
/// batch with an adversarial mix — an evil heavy graph next to empty and
/// single-edge graphs — stays bit-identical to the per-graph oracle
/// under every scheduling policy.
#[test]
fn resolved_worker_count_packed_batch_bit_matches_oracle() {
    let workers = default_workers();
    let graphs: Vec<Arc<CsrMatrix<f32>>> = vec![
        Arc::new(random_graph(6, 0, 1)),
        Arc::new(random_graph(40, 300, 2)),
        Arc::new(random_graph(3, 1, 3)),
        Arc::new(random_graph(17, 51, 4)),
    ];
    let dim = 9;
    let feats: Vec<DenseMatrix<f32>> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| features(g.rows(), dim, 100 + i as u64))
        .collect();
    let pack = BlockDiagCsr::build(&graphs).unwrap();
    let stacked = pack
        .stack_features(&feats.iter().collect::<Vec<_>>())
        .unwrap();
    let prep = PreparedPlan::for_matrix(
        BatchMergeSpmm::new().plan(pack.matrix(), dim),
        pack.matrix(),
    );
    for policy in [
        SchedPolicy::Static,
        SchedPolicy::ColumnStriped,
        SchedPolicy::Auto,
    ] {
        let engine =
            ExecEngine::with_sched_policy(workers, DataPath::Auto, policy).with_fast_math(false);
        let (out, _) = engine
            .execute_prepared(&prep, pack.matrix(), &stacked)
            .unwrap();
        for (i, (g, x)) in graphs.iter().zip(&feats).enumerate() {
            let want = sequential_reference(g, x, dim);
            assert_eq!(
                pack.scatter_block(&out, i).max_abs_diff(&want).unwrap(),
                0.0,
                "graph {i} policy={policy:?} workers={workers}"
            );
        }
    }
}
