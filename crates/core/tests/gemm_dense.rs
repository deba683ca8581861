//! Property tests pinning the engine's blocked, register-tiled dense
//! GEMM to the naive `ikj` loop **with its `a == 0.0` skip** — the
//! reference `mpspmm_gcn::ops::gemm` every engine forward path's
//! combination (layer 0's raw features included) is checked against. The
//! blocked kernel drops the per-element branch, so the two may differ
//! only in the sign of zero terms the skip never adds; `f32` equality
//! treats `-0.0 == 0.0`, so bit-level agreement is asserted with `==`:
//! across dims 1..=67, k = 0 and fully empty operands, and on raw-feature
//! operands (0–5% and 20% row density, whole zero rows, `k` deep enough
//! to span several `gemm_kc` blocks).

use mpspmm_core::{DataPath, ExecEngine, SchedPolicy};
use mpspmm_sparse::DenseMatrix;
use proptest::prelude::*;

/// The pre-fusion `mpspmm_gcn::ops::gemm` loop, inlined as the oracle
/// (ikj order, `av == 0.0` skip).
fn naive_gemm_with_skip(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
    let (m, n) = (a.rows(), b.cols());
    let mut out = DenseMatrix::<f32>::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (dst, &bv) in orow.iter_mut().zip(b.row(p)) {
                *dst += av * bv;
            }
        }
    }
    out
}

/// Deterministic pseudo-random fill with a deliberately fat zero class
/// (about a third of entries are exact `0.0`), so the skip-vs-no-skip
/// difference is actually exercised.
fn filled(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    let mut v = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = (v >> 33) % 9;
        if q < 3 {
            0.0
        } else {
            (q as f32 - 6.0) * 0.375
        }
    })
}

/// A raw-feature operand: every row is either all zero (about one row
/// in four, and always row 0) or holds non-zeros at `per_mille`/1000
/// density — the bag-of-words shape a GCN's layer 0 combines.
fn raw_features(rows: usize, cols: usize, per_mille: u64, seed: u64) -> DenseMatrix<f32> {
    let mut v = seed | 1;
    let mut next = move || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v >> 33
    };
    let mut out = DenseMatrix::<f32>::zeros(rows, cols);
    for r in 0..rows {
        if r == 0 || next() % 4 == 0 {
            continue;
        }
        for x in out.row_mut(r) {
            if next() % 1000 < per_mille {
                *x = (next() % 2000) as f32 / 997.0 - 1.0;
            }
        }
    }
    out
}

/// A dense weight operand with full-mantissa values, so any change in
/// summation order would show in the low bits.
fn weights(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f32> {
    let mut v = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (v >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_dense_vs_naive(
        m in 0usize..=67,
        k in 0usize..=67,
        n in 0usize..=67,
        seed in any::<u64>(),
        workers in 1usize..=5,
    ) {
        let a = filled(m, k, seed);
        let b = filled(k, n, seed ^ 0xBEEF);
        let want = naive_gemm_with_skip(&a, &b);
        for path in [DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
            for policy in [SchedPolicy::Static, SchedPolicy::Auto] {
                let engine = ExecEngine::with_sched_policy(workers, path, policy);
                let got = engine.gemm(&a, &b).unwrap();
                prop_assert_eq!(got.rows(), m);
                prop_assert_eq!(got.cols(), n);
                prop_assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "m={} k={} n={} path={:?} policy={:?} workers={}",
                    m, k, n, path, policy, workers
                );
            }
        }
    }

    #[test]
    fn gemm_matches_skip_oracle_on_sparse_features(
        m in 0usize..=40,
        k in 1usize..=1500,
        n in prop_oneof![Just(8usize), Just(16), Just(64)],
        per_mille in prop_oneof![Just(0u64), Just(5), Just(13), Just(30), Just(50), Just(200)],
        seed in any::<u64>(),
        workers in 1usize..=4,
    ) {
        let a = raw_features(m, k, per_mille, seed);
        let b = weights(k, n, seed ^ 0xF00D);
        let want = naive_gemm_with_skip(&a, &b);
        for path in [DataPath::Scalar, DataPath::Vector, DataPath::Auto] {
            let engine = ExecEngine::with_sched_policy(workers, path, SchedPolicy::Auto);
            let got = engine.gemm(&a, &b).unwrap();
            prop_assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "m={} k={} n={} density={}/1000 path={:?} workers={}",
                m, k, n, per_mille, path, workers
            );
        }
    }
}
