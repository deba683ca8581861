//! Property tests pinning the fast-path engine to the sequential oracle:
//! for every parallel kernel, worker count, and dense dimension, the
//! engine's output must stay within tolerance of
//! [`mpspmm_core::executor::execute_sequential`] and its realized
//! [`WriteStats`] must match both the oracle's and the plan's static
//! accounting exactly. The tail of the file pins [`SchedPolicy::Auto`]'s
//! routing between the inline, static pooled and column-striped paths,
//! including on adversarially skewed inputs.

use mpspmm_core::executor::execute_sequential;
use mpspmm_core::{
    default_workers, DataPath, Epilogue, ExecEngine, Flush, KernelPlan, MergePathSerialFixup,
    MergePathSpmm, NnzSplitSpmm, PreparedPlan, RowSplitSpmm, SchedPolicy, Segment, SpmmKernel,
    ThreadPlan, STEAL_SKEW_THRESHOLD, STRIPE_MIN_DIM, STRIPE_SKEW_MIN_DIM,
};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random square CSR matrix with a deliberately heavy first row (to
/// force partial/atomic segments) plus a random dense operand.
fn random_inputs(
    rows: usize,
    nnz: usize,
    dim: usize,
    seed: u64,
) -> (CsrMatrix<f32>, DenseMatrix<f32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    for c in 0..(nnz / 3).min(rows) {
        coords.insert((0usize, c));
    }
    while coords.len() < nnz.min(rows * rows) {
        coords.insert((rng.gen_range(0..rows), rng.gen_range(0..rows)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, rows, &triplets).unwrap();
    let mut feat_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let b = DenseMatrix::from_fn(rows, dim, |_, _| feat_rng.gen_range(-1.0..1.0));
    (a, b)
}

/// The four parallel kernels, with small fixed decompositions so plans
/// contain a mix of regular, atomic, and carry segments.
fn kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(MergePathSpmm::with_threads(7)),
        Box::new(MergePathSerialFixup::with_threads(6)),
        Box::new(NnzSplitSpmm::with_ng_size(3)),
        Box::new(RowSplitSpmm::with_threads(5)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_matches_sequential_oracle(
        rows in 2usize..48,
        fill in 1usize..6,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        for kernel in kernels() {
            for &dim in &[1usize, 3, 8, 33] {
                let (a, b) = random_inputs(rows, nnz, dim, seed);
                let plan = kernel.plan(&a, dim);
                plan.validate(&a).unwrap();
                let (want, want_stats) = execute_sequential(&plan, &a, &b).unwrap();
                // Realized stats are a property of the plan alone.
                prop_assert_eq!(want_stats, plan.write_stats());
                let scale = want.frobenius_norm().max(1.0);
                for &workers in &[1usize, 2, 7, 64] {
                    let engine = ExecEngine::new(workers);
                    let (got, got_stats) = engine.execute(&plan, &a, &b).unwrap();
                    prop_assert!(
                        got.max_abs_diff(&want).unwrap() <= 1e-4 * scale,
                        "kernel={} workers={} dim={}",
                        kernel.name(),
                        workers,
                        dim
                    );
                    prop_assert_eq!(got_stats, want_stats);
                }
            }
        }
    }

    #[test]
    fn cached_path_matches_uncached_engine(
        rows in 2usize..40,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * 4).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, 16, seed);
        let kernel = MergePathSpmm::with_threads(9);
        // One worker: the inline path follows the sequential order, so
        // cached and uncached runs must agree bit-for-bit (the
        // multi-worker strip-fold reassociation is covered with a
        // tolerance by the oracle test above).
        let engine = ExecEngine::new(1);
        let plan = kernel.plan(&a, 16);
        let (want, want_stats) = engine.execute(&plan, &a, &b).unwrap();
        // Twice through the cache: miss then hit must agree bit-for-bit
        // with each other and with the uncached path.
        let (miss, s1) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        let (hit, s2) = engine.spmm_cached(&kernel, &a, &b, 0).unwrap();
        prop_assert_eq!(miss.max_abs_diff(&want).unwrap(), 0.0);
        prop_assert_eq!(hit.max_abs_diff(&want).unwrap(), 0.0);
        prop_assert_eq!(s1, want_stats);
        prop_assert_eq!(s2, want_stats);
        prop_assert!(engine.stats().plan_cache_hits >= 1);
    }

    /// The vectorized data path (gather + streaming panel kernels, packed
    /// or plain indices) must be bit-identical to the scalar oracle for
    /// every kernel at a random dimension in the full 1..=67 lane-tail
    /// matrix (exhaustive dims are covered by the deterministic test
    /// below; this adds random sparsity patterns on top).
    #[test]
    fn vector_path_bit_matches_oracle_at_random_dims(
        rows in 2usize..48,
        fill in 1usize..6,
        dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        let (a, b) = random_inputs(rows, nnz, dim, seed);
        for kernel in kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            for path in [DataPath::Scalar, DataPath::Vector] {
                let engine = ExecEngine::with_data_path(1, path);
                let (got, _) = engine.execute(&plan, &a, &b).unwrap();
                prop_assert_eq!(
                    got.max_abs_diff(&want).unwrap(),
                    0.0,
                    "kernel={} path={:?} dim={}",
                    kernel.name(),
                    path,
                    dim
                );
                let prep = PreparedPlan::for_matrix(plan.clone(), &a);
                let (packed, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                prop_assert_eq!(
                    packed.max_abs_diff(&want).unwrap(),
                    0.0,
                    "packed kernel={} path={:?} dim={}",
                    kernel.name(),
                    path,
                    dim
                );
            }
        }
    }

    /// The wide-dimension data path: at dims 128–512 both the pinned
    /// `ColumnStriped` policy and `Auto` (which stripes at these dims)
    /// must stay **bit-identical** to the sequential oracle at every
    /// worker count — each stripe replays the full (thread, segment)
    /// walk over its own column window, so per-column addition order is
    /// the oracle's. FastMath stays off (the exact default), and the
    /// fused epilogue forms must equal oracle-then-apply exactly too.
    #[test]
    fn column_striped_wide_dims_bit_match_oracle(
        rows in 2usize..32,
        fill in 1usize..4,
        seed in any::<u64>(),
    ) {
        let nnz = (rows * fill).min(rows * rows);
        for &dim in &[128usize, 256, 512] {
            let (a, b) = random_inputs(rows, nnz, dim, seed);
            let plan = MergePathSpmm::with_threads(7).plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            let bias: Vec<f32> = (0..dim).map(|j| (j % 13) as f32 * 0.25 - 1.0).collect();
            let mut biased = want.clone();
            for row in biased.as_mut_slice().chunks_mut(dim) {
                Epilogue::BiasRelu(bias.clone()).apply_row(row);
            }
            for &workers in &[2usize, 4, 8] {
                for policy in [SchedPolicy::ColumnStriped, SchedPolicy::Auto] {
                    let engine =
                        ExecEngine::with_sched_policy(workers, DataPath::Auto, policy)
                            .with_fast_math(false);
                    prop_assert!(
                        engine.selects_striping(&prep, dim),
                        "policy={:?} dim={} stripes", policy, dim
                    );
                    let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
                    prop_assert_eq!(
                        got.max_abs_diff(&want).unwrap(),
                        0.0,
                        "policy={:?} workers={} dim={}", policy, workers, dim
                    );
                    let (fused, _) = engine
                        .execute_prepared_fused(&prep, &a, &b, &Epilogue::BiasRelu(bias.clone()))
                        .unwrap();
                    prop_assert_eq!(
                        fused.max_abs_diff(&biased).unwrap(),
                        0.0,
                        "fused policy={:?} workers={} dim={}", policy, workers, dim
                    );
                }
            }
        }
    }
}

/// Exhaustive sweep of every dense dimension 1..=67 (covering the scalar
/// tail of every lane width: 4, 8, 16 and their combinations) on a matrix
/// that mixes an evil long row, single-nnz rows, and empty rows — the
/// degree spectrum the adaptive dispatcher splits on.
#[test]
fn all_paths_bit_match_oracle_for_dims_1_to_67() {
    let mut triplets: Vec<(usize, usize, f32)> = Vec::new();
    // Evil row 0: 20 non-zeros (streaming kernel territory).
    for c in 0..20 {
        triplets.push((0, c, 0.25 * c as f32 - 2.0));
    }
    // Single-nnz rows (gather territory); rows 21, 24, 27 stay empty.
    for r in (1..30).filter(|r| r % 3 != 0) {
        triplets.push((r, (r * 7) % 30, 1.0 - 0.1 * r as f32));
    }
    let a = CsrMatrix::from_triplets(30, 30, &triplets).unwrap();
    let kernel = MergePathSpmm::with_threads(11);
    for dim in 1..=67usize {
        let b = DenseMatrix::from_fn(30, dim, |r, c| ((r * 13 + c * 5) % 23) as f32 * 0.125 - 1.0);
        let plan = kernel.plan(&a, dim);
        let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
        for path in [DataPath::Scalar, DataPath::Vector] {
            let engine = ExecEngine::with_data_path(1, path);
            let prep = PreparedPlan::for_matrix(plan.clone(), &a);
            let (got, _) = engine.execute_prepared(&prep, &a, &b).unwrap();
            assert_eq!(
                got.max_abs_diff(&want).unwrap(),
                0.0,
                "path={path:?} dim={dim}"
            );
        }
    }
}

/// An adversarially skewed rectangular CSR matrix: row 0 holds **more
/// than half** of all non-zeros (the matrix is wide enough to fit them
/// in one row), a band of rows stays completely empty, and the rest is
/// uniform noise. This is the §III evil-row pathology, one level up:
/// any contiguous static span containing row 0 becomes the critical
/// path, so row-split plans cross [`STEAL_SKEW_THRESHOLD`].
fn skewed_inputs(
    rows: usize,
    nnz: usize,
    dim: usize,
    seed: u64,
) -> (CsrMatrix<f32>, DenseMatrix<f32>) {
    let cols = nnz + 4; // wide: the evil row fits without capping
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coords = std::collections::BTreeSet::new();
    for c in 0..nnz / 2 + 1 {
        coords.insert((0usize, c));
    }
    // Rows in the back quarter stay empty; the rest get the leftovers.
    let live_rows = (rows * 3 / 4).max(2);
    while coords.len() < nnz {
        coords.insert((rng.gen_range(1..live_rows), rng.gen_range(0..cols)));
    }
    let triplets: Vec<(usize, usize, f32)> = coords
        .into_iter()
        .map(|(r, c)| (r, c, rng.gen_range(-2.0..2.0)))
        .collect();
    let a = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
    let mut feat_rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let b = DenseMatrix::from_fn(cols, dim, |_, _| feat_rng.gen_range(-1.0..1.0));
    (a, b)
}

/// The four parallel kernels with decompositions fine enough that the
/// skewed inputs spread over several static worker spans.
fn skew_kernels() -> Vec<Box<dyn SpmmKernel>> {
    vec![
        Box::new(MergePathSpmm::with_threads(13)),
        Box::new(MergePathSerialFixup::with_threads(12)),
        Box::new(NnzSplitSpmm::with_ng_size(3)),
        Box::new(RowSplitSpmm::with_threads(11)),
    ]
}

/// Runs `prep` on `engine` and checks the output contract of the route
/// `Auto` takes: the column-striped and one-worker inline routes are
/// bit-identical to the oracle `want`; the static pooled route gives the
/// same bits on every run and stays within 1e-4·‖want‖ of the oracle.
fn assert_auto_contract(
    engine: &ExecEngine,
    prep: &PreparedPlan,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    want: &DenseMatrix<f32>,
    ctx: &str,
) {
    let (got, _) = engine.execute_prepared(prep, a, b).unwrap();
    if engine.workers() == 1 || engine.selects_striping(prep, b.cols()) {
        assert_eq!(got.max_abs_diff(want).unwrap(), 0.0, "{ctx}");
    } else {
        let (again, _) = engine.execute_prepared(prep, a, b).unwrap();
        assert_eq!(again.max_abs_diff(&got).unwrap(), 0.0, "rerun {ctx}");
        let scale = want.frobenius_norm().max(1.0);
        assert!(got.max_abs_diff(want).unwrap() <= 1e-4 * scale, "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Auto` keeps its route's contract on skewed inputs, whichever
    /// side of the skew threshold a plan lands on: `dim` stays on the
    /// static path, `dim + 64` (65..=131) straddles both stripe minima.
    #[test]
    fn auto_policy_bit_matches_oracle(
        rows in 4usize..40,
        dim in 1usize..=67,
        seed in any::<u64>(),
    ) {
        for d in [dim, dim + 64] {
            let (a, b) = skewed_inputs(rows, rows * 4, d, seed);
            for kernel in skew_kernels() {
                let plan = kernel.plan(&a, d);
                let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
                let prep = PreparedPlan::for_matrix(plan, &a);
                let engine = ExecEngine::with_sched_policy(4, DataPath::Vector, SchedPolicy::Auto);
                let ctx = format!("kernel={} dim={d}", kernel.name());
                assert_auto_contract(&engine, &prep, &a, &b, &want, &ctx);
            }
        }
    }
}

/// The engine at the resolved worker count (honouring `MPSPMM_WORKERS`,
/// which the tier-1 script sweeps over 1/2/8) keeps `Auto`'s output
/// contract on the skewed inputs, and the static route charges every
/// non-zero to exactly one worker slot.
#[test]
fn resolved_worker_count_bit_matches_oracle() {
    let workers = default_workers();
    for dim in [23, STRIPE_MIN_DIM] {
        let (a, b) = skewed_inputs(40, 320, dim, 7);
        for kernel in skew_kernels() {
            let plan = kernel.plan(&a, dim);
            let (want, _) = execute_sequential(&plan, &a, &b).unwrap();
            let prep = PreparedPlan::for_matrix(plan, &a);
            let engine =
                ExecEngine::with_sched_policy(workers, DataPath::Vector, SchedPolicy::Auto);
            let ctx = format!("kernel={} workers={workers} dim={dim}", kernel.name());
            assert_auto_contract(&engine, &prep, &a, &b, &want, &ctx);
            if !engine.selects_striping(&prep, dim) {
                engine.clear_cache();
                engine.execute_prepared(&prep, &a, &b).unwrap();
                let loads = engine.worker_loads();
                assert_eq!(loads.len(), workers);
                assert_eq!(loads.iter().sum::<u64>(), a.nnz() as u64, "{ctx}");
            }
        }
    }
}

/// A merge-path plan is nnz-balanced per logical thread, so its static
/// spans stay under the skew threshold and the skew-assisted stripe
/// dimension stays locked; a row-split plan over the same skewed graph
/// crosses the threshold and stripes from [`STRIPE_SKEW_MIN_DIM`].
#[test]
fn auto_selection_follows_span_skew() {
    let (a, _) = skewed_inputs(64, 600, 8, 5);
    let engine = ExecEngine::with_sched_policy(4, DataPath::Vector, SchedPolicy::Auto);

    let mp = MergePathSpmm::with_threads(64);
    let mp_prep = PreparedPlan::for_matrix(SpmmKernel::plan(&mp, &a, 8), &a);
    assert!(mp_prep.static_span_skew(4) <= STEAL_SKEW_THRESHOLD);
    assert!(!engine.selects_striping(&mp_prep, STRIPE_SKEW_MIN_DIM));

    let rs = RowSplitSpmm::with_threads(64);
    let rs_prep = PreparedPlan::for_matrix(SpmmKernel::plan(&rs, &a, 8), &a);
    assert!(rs_prep.static_span_skew(4) > STEAL_SKEW_THRESHOLD);
    assert!(engine.selects_striping(&rs_prep, STRIPE_SKEW_MIN_DIM));
}

/// A two-row matrix and a two-thread plan whose static worker spans
/// carry exactly (`nnz0`, `nnz1`) non-zeros — full control of the span
/// skew, down to the exact threshold value.
fn two_span_plan(nnz0: usize, nnz1: usize) -> PreparedPlan {
    let cols = nnz0.max(nnz1);
    let mut triplets = Vec::with_capacity(nnz0 + nnz1);
    for c in 0..nnz0 {
        triplets.push((0usize, c, 1.0f32));
    }
    for c in 0..nnz1 {
        triplets.push((1usize, c, 1.0f32));
    }
    let a = CsrMatrix::from_triplets(2, cols, &triplets).unwrap();
    let segment = |row, nz_start, nz_end| ThreadPlan {
        segments: vec![Segment {
            row,
            nz_start,
            nz_end,
            flush: Flush::Regular,
        }],
    };
    let plan = KernelPlan {
        threads: vec![segment(0, 0, nnz0), segment(1, nnz0, nnz0 + nnz1)],
    };
    plan.validate(&a).unwrap();
    PreparedPlan::for_matrix(plan, &a)
}

/// The `Auto` stripe heuristics at their exact threshold boundaries.
/// The skew comparison is strict — skew **equal** to
/// [`STEAL_SKEW_THRESHOLD`] does not unlock the skew-assisted stripe
/// dimension — and the stripe dimension comparisons are inclusive at
/// their minima.
#[test]
fn auto_routing_at_exact_threshold_boundaries() {
    let engine = ExecEngine::with_sched_policy(2, DataPath::Vector, SchedPolicy::Auto);

    // Spans (5, 3): skew = 5 / 4 = 1.25, *exactly* the threshold.
    let at = two_span_plan(5, 3);
    assert_eq!(at.static_span_skew(2), STEAL_SKEW_THRESHOLD);
    // Spans (51, 29): skew = 51 / 40 = 1.275, one step past.
    let past = two_span_plan(51, 29);
    assert!(past.static_span_skew(2) > STEAL_SKEW_THRESHOLD);

    // Balanced spans: striping flips exactly at STRIPE_MIN_DIM.
    let balanced = two_span_plan(4, 4);
    assert_eq!(balanced.static_span_skew(2), 1.0);
    assert!(!engine.selects_striping(&balanced, STRIPE_MIN_DIM - 1));
    assert!(engine.selects_striping(&balanced, STRIPE_MIN_DIM));
    assert!(engine.selects_striping(&balanced, STRIPE_MIN_DIM + 1));

    // Skewed spans: the lower STRIPE_SKEW_MIN_DIM bound applies.
    assert!(!engine.selects_striping(&past, STRIPE_SKEW_MIN_DIM - 1));
    assert!(engine.selects_striping(&past, STRIPE_SKEW_MIN_DIM));

    // Skew exactly at the threshold does *not* unlock the skew-assisted
    // stripe dimension — only the unconditional one.
    assert!(!engine.selects_striping(&at, STRIPE_SKEW_MIN_DIM));
    assert!(!engine.selects_striping(&at, STRIPE_MIN_DIM - 1));
    assert!(engine.selects_striping(&at, STRIPE_MIN_DIM));

    // One worker never stripes, whatever the skew or dim.
    let single = ExecEngine::with_sched_policy(1, DataPath::Vector, SchedPolicy::Auto);
    assert!(!single.selects_striping(&past, STRIPE_MIN_DIM));
}
