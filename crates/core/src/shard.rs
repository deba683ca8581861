//! Multi-shard scale-out: one graph, S private engines, scatter/gather.
//!
//! A single [`ExecEngine`] caps out at one worker pool and one arena.
//! [`ShardedEngine`] runs one *large* graph across S engines by
//! partitioning the adjacency into contiguous, merge-item-balanced row
//! bands ([`mpspmm_sparse::ShardedCsr`]) and giving every band its own
//! engine — private `BufferArena`, private plan cache,
//! private worker pool sized to `total_workers / S`
//! ([`ExecEngine::with_worker_count`]), and staggered pin bases so
//! `MPSPMM_PIN=1` lays shard `s`'s workers on cores
//! `[s·w, (s+1)·w)`. Shards share **nothing** mutable: no pool queue,
//! no arena lock, no plan-cache lock.
//!
//! # Execution model
//!
//! `spmm(B)` is gather → execute → scatter, one driver thread per
//! non-empty shard:
//!
//! 1. **Gather**: copy the shard's halo rows of `B` (the dense-operand
//!    rows its column indices touch) into a compact local operand,
//!    leased from the shard engine's arena.
//! 2. **Execute**: run the shard's sub-matrix × local operand on the
//!    shard's engine through its plan cache.
//! 3. **Scatter**: copy the result into the shard's row band of the
//!    output — bands are disjoint (`split_at_mut`), so no atomics and
//!    no cross-shard reduction, the same ownership argument as the
//!    column-stripe path one level up.
//!
//! # Bit-identity
//!
//! Sharded output is **bit-identical** to the unsharded engine and to
//! [`execute_sequential`](crate::executor::execute_sequential) at every
//! shard × worker combination, by composition of three facts:
//!
//! * Shard plans come from [`BatchMergeSpmm`], whose merge-path
//!   boundaries are snapped to row edges: every non-empty row is exactly
//!   one `Regular` segment, so per-row accumulation order never depends
//!   on the plan's thread count or the engine's scheduling policy.
//! * The halo remap is strictly monotone, so a row's non-zeros keep
//!   their storage order and pair with byte-identical operand rows —
//!   the shard-local fold of row `r` is the *same float sequence* as
//!   the full-matrix fold of row `r`.
//! * Scatter is `memcpy` into disjoint bands.
//!
//! `shard_oracle` (tier-1) sweeps this claim over shard counts ×
//! `MPSPMM_WORKERS`; see DESIGN.md §2.15.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mpspmm_sparse::{CsrMatrix, DenseMatrix, ShardedCsr, SparseFormatError};

use crate::engine::ExecEngine;
use crate::epilogue::Epilogue;
use crate::spmm::BatchMergeSpmm;

/// Snapshot of one shard's routing counters, surfaced through the
/// serving layer's `ServeStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardQueueStats {
    /// Shard index (row-band order).
    pub shard: usize,
    /// Rows this shard owns.
    pub rows: usize,
    /// Non-zeros this shard owns.
    pub nnz: usize,
    /// Halo size: dense-operand rows this shard gathers per execution.
    pub halo: usize,
    /// Executions currently in flight on this shard's engine.
    pub depth: usize,
    /// High-water mark of [`depth`](Self::depth).
    pub peak_depth: usize,
    /// Total executions completed by this shard.
    pub executed: u64,
}

/// Per-shard in-flight/served counters (see [`ShardQueueStats`]).
#[derive(Debug, Default)]
struct ShardCounters {
    depth: AtomicUsize,
    peak: AtomicUsize,
    executed: AtomicU64,
}

impl ShardCounters {
    fn enter(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(d, Ordering::Relaxed);
    }

    fn exit(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// S private engines over one row-sharded graph; see the module docs
/// for the execution model and bit-identity argument.
#[derive(Debug)]
pub struct ShardedEngine {
    sharded: ShardedCsr,
    engines: Vec<ExecEngine>,
    kernel: BatchMergeSpmm,
    workers_per_shard: usize,
    counters: Vec<ShardCounters>,
}

impl ShardedEngine {
    /// Partitions `a` into `shards` row bands and builds one private
    /// engine per band. `total_workers` is divided evenly
    /// (`max(1, total_workers / shards)` each), matching the
    /// equal-total-resources comparison the scale-out bench makes; pin
    /// bases are staggered so opt-in pinning (`MPSPMM_PIN=1`) gives
    /// each shard a disjoint core range.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(a: &CsrMatrix<f32>, shards: usize, total_workers: usize) -> Self {
        let sharded = ShardedCsr::partition(a, shards);
        Self::from_sharded(sharded, total_workers)
    }

    /// [`new`](Self::new) over an already partitioned matrix.
    pub fn from_sharded(sharded: ShardedCsr, total_workers: usize) -> Self {
        let shards = sharded.shard_count();
        let workers_per_shard = (total_workers / shards).max(1);
        let engines = (0..shards)
            .map(|s| {
                ExecEngine::with_worker_count(workers_per_shard)
                    .with_pin_base(s * workers_per_shard)
            })
            .collect();
        let counters = (0..shards).map(|_| ShardCounters::default()).collect();
        ShardedEngine {
            sharded,
            engines,
            kernel: BatchMergeSpmm::new(),
            workers_per_shard,
            counters,
        }
    }

    /// Row count of the sharded graph.
    pub fn rows(&self) -> usize {
        self.sharded.rows()
    }

    /// Column count of the sharded graph (the dense operand's required
    /// row count).
    pub fn cols(&self) -> usize {
        self.sharded.cols()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.sharded.shard_count()
    }

    /// Workers assigned to each shard's private engine.
    pub fn workers_per_shard(&self) -> usize {
        self.workers_per_shard
    }

    /// The underlying partition (shard boundaries, halo maps).
    pub fn sharding(&self) -> &ShardedCsr {
        &self.sharded
    }

    /// The shard engines, in row-band order.
    pub fn engines(&self) -> &[ExecEngine] {
        &self.engines
    }

    /// Warms every shard's plan cache at the given dense widths so the
    /// first execution pays no planning.
    pub fn warm_plans(&self, dims: &[usize]) {
        for (shard, engine) in self.sharded.shards().iter().zip(&self.engines) {
            for &dim in dims {
                engine.plan_cached(&self.kernel, &shard.matrix, dim, 0);
            }
        }
    }

    /// Per-shard routing counters plus static shape facts.
    pub fn shard_stats(&self) -> Vec<ShardQueueStats> {
        self.sharded
            .shards()
            .iter()
            .zip(&self.counters)
            .enumerate()
            .map(|(i, (shard, c))| ShardQueueStats {
                shard: i,
                rows: shard.matrix.rows(),
                nnz: shard.nnz(),
                halo: shard.halo_cols.len(),
                depth: c.depth.load(Ordering::Relaxed),
                peak_depth: c.peak.load(Ordering::Relaxed),
                executed: c.executed.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Sharded SpMM `A · B`: gather halos, execute each row band on its
    /// private engine, scatter the bands. Bit-identical to the
    /// unsharded engine (module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when
    /// `b.rows() != self.cols()`.
    pub fn spmm(&self, b: &DenseMatrix<f32>) -> Result<DenseMatrix<f32>, SparseFormatError> {
        self.spmm_fused(b, &Epilogue::None)
    }

    /// [`spmm`](Self::spmm) with a fused [`Epilogue`] applied by each
    /// shard engine at its store stage. Epilogues are per-element /
    /// per-column transforms, so fusing them inside a row band is
    /// identical to fusing them over the whole matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when
    /// `b.rows() != self.cols()` or a bias epilogue's length differs
    /// from `b.cols()`.
    pub fn spmm_fused(
        &self,
        b: &DenseMatrix<f32>,
        epi: &Epilogue,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        if b.rows() != self.cols() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (self.rows(), self.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        let dim = b.cols();
        epi.validate(dim)?;
        let mut out = DenseMatrix::zeros(self.rows(), dim);
        {
            let bands = band_slices(out.as_mut_slice(), self.sharded.shards(), dim);
            std::thread::scope(|scope| {
                for (((shard, engine), counters), band) in self
                    .sharded
                    .shards()
                    .iter()
                    .zip(&self.engines)
                    .zip(&self.counters)
                    .zip(bands)
                {
                    if shard.matrix.rows() == 0 {
                        continue;
                    }
                    let kernel = &self.kernel;
                    scope.spawn(move || {
                        counters.enter();
                        let local_b = gather_into_engine(engine, shard, b, dim);
                        let prep = engine.plan_cached(kernel, &shard.matrix, dim, 0);
                        let (res, _) = engine
                            .execute_prepared_fused(&prep, &shard.matrix, &local_b, epi)
                            .expect("shard shapes validated at partition time");
                        band.copy_from_slice(res.as_slice());
                        engine.recycle(res);
                        engine.recycle(local_b);
                        counters.exit();
                    });
                }
            });
        }
        Ok(out)
    }

    /// Sharded dense GEMM `A · B`: the same row bands, each computed by
    /// its shard's engine on a private copy of the band. The engine
    /// GEMM is bit-equal to naive ascending-`k` ikj per row under any
    /// worker split, so the sharded product equals the unsharded one
    /// bitwise — this is the feature-transform half of
    /// `GcnModel::forward_sharded`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] when
    /// `a.cols() != b.rows()`.
    ///
    /// # Panics
    ///
    /// Panics if `a.rows() != self.rows()` — the operand must be the
    /// node-feature matrix of the sharded graph.
    pub fn gemm(
        &self,
        a: &DenseMatrix<f32>,
        b: &DenseMatrix<f32>,
    ) -> Result<DenseMatrix<f32>, SparseFormatError> {
        assert_eq!(a.rows(), self.rows(), "operand rows must match the graph");
        if a.cols() != b.rows() {
            return Err(SparseFormatError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        let (k, n) = (a.cols(), b.cols());
        let mut out = DenseMatrix::zeros(self.rows(), n);
        {
            let bands = band_slices(out.as_mut_slice(), self.sharded.shards(), n);
            std::thread::scope(|scope| {
                for ((shard, engine), band) in
                    self.sharded.shards().iter().zip(&self.engines).zip(bands)
                {
                    let rows = shard.matrix.rows();
                    if rows == 0 {
                        continue;
                    }
                    scope.spawn(move || {
                        let mut local_a = engine.lease_zeroed(rows, k);
                        local_a
                            .as_mut_slice()
                            .copy_from_slice(&a.as_slice()[shard.row_start * k..][..rows * k]);
                        let res = engine
                            .gemm(&local_a, b)
                            .expect("shapes checked before banding");
                        band.copy_from_slice(res.as_slice());
                        engine.recycle(res);
                        engine.recycle(local_a);
                    });
                }
            });
        }
        Ok(out)
    }
}

/// Splits a flat `rows × dim` output into per-shard row-band slices.
/// Bands are contiguous and disjoint by the partition invariant, so
/// plain `split_at_mut` hands each shard exclusive ownership.
fn band_slices<'a>(
    mut flat: &'a mut [f32],
    shards: &[mpspmm_sparse::CsrShard],
    dim: usize,
) -> Vec<&'a mut [f32]> {
    let mut out = Vec::with_capacity(shards.len());
    for shard in shards {
        let (band, rest) = flat.split_at_mut(shard.matrix.rows() * dim);
        out.push(band);
        flat = rest;
    }
    out
}

/// Gathers `shard`'s halo rows of `b` into a compact operand leased
/// from `engine`'s arena (hot pages, no fresh allocation per cycle).
fn gather_into_engine(
    engine: &ExecEngine,
    shard: &mpspmm_sparse::CsrShard,
    b: &DenseMatrix<f32>,
    dim: usize,
) -> DenseMatrix<f32> {
    let mut local = engine.lease_zeroed(shard.halo_cols.len(), dim);
    let dst = local.as_mut_slice();
    let src = b.as_slice();
    for (j, &g) in shard.halo_cols.iter().enumerate() {
        dst[j * dim..][..dim].copy_from_slice(&src[g * dim..][..dim]);
    }
    local
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_sequential;
    use crate::spmm::test_support::random_matrix as random_csr_nnz;
    use crate::spmm::SpmmKernel;

    fn random_csr(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix<f32> {
        let nnz = ((rows * cols) as f64 * density) as usize;
        random_csr_nnz(rows, cols, nnz.max(1), seed)
    }

    fn oracle(a: &CsrMatrix<f32>, b: &DenseMatrix<f32>) -> DenseMatrix<f32> {
        let kernel = BatchMergeSpmm::new();
        let plan = kernel.plan(a, b.cols());
        execute_sequential(&plan, a, b).unwrap().0
    }

    #[test]
    fn sharded_spmm_bit_matches_sequential() {
        let a = random_csr(64, 64, 0.08, 7);
        let b = DenseMatrix::from_fn(64, 8, |r, c| ((r * 31 + c * 17) % 13) as f32 - 6.0);
        let want = oracle(&a, &b);
        for shards in [1, 2, 3, 5] {
            let se = ShardedEngine::new(&a, shards, 4);
            let got = se.spmm(&b).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_fused_epilogue_matches_unsharded_engine() {
        let a = random_csr(48, 48, 0.1, 11);
        let b = DenseMatrix::from_fn(48, 6, |r, c| (r as f32 - 20.0) * 0.5 + c as f32);
        let epi = Epilogue::BiasRelu(vec![0.25, -0.5, 0.0, 1.0, -1.0, 2.0]);
        let engine = ExecEngine::with_worker_count(2);
        let kernel = BatchMergeSpmm::new();
        let prep = engine.plan_cached(&kernel, &a, 6, 0);
        let (want, _) = engine.execute_prepared_fused(&prep, &a, &b, &epi).unwrap();
        let se = ShardedEngine::new(&a, 3, 4);
        let got = se.spmm_fused(&b, &epi).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn sharded_gemm_bit_matches_single_engine() {
        let a = random_csr(40, 40, 0.1, 3);
        let h = DenseMatrix::from_fn(40, 12, |r, c| (r * 7 + c) as f32 * 0.125 - 2.0);
        let w = DenseMatrix::from_fn(12, 5, |r, c| (r as f32 - c as f32) * 0.25);
        let single = ExecEngine::with_worker_count(1);
        let want = single.gemm(&h, &w).unwrap();
        let se = ShardedEngine::new(&a, 4, 4);
        let got = se.gemm(&h, &w).unwrap();
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn shard_stats_count_executions() {
        let a = random_csr(32, 32, 0.1, 5);
        let b = DenseMatrix::from_fn(32, 4, |r, c| (r + c) as f32);
        let se = ShardedEngine::new(&a, 2, 2);
        se.spmm(&b).unwrap();
        se.spmm(&b).unwrap();
        let stats = se.shard_stats();
        assert_eq!(stats.len(), 2);
        for s in &stats {
            assert_eq!(s.depth, 0, "nothing in flight after return");
            if s.rows > 0 {
                assert_eq!(s.executed, 2);
                assert!(s.peak_depth >= 1);
            }
        }
    }

    #[test]
    fn more_shards_than_rows_still_correct() {
        let a = random_csr(5, 5, 0.4, 1);
        let b = DenseMatrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let want = oracle(&a, &b);
        let se = ShardedEngine::new(&a, 9, 4);
        assert_eq!(se.shard_count(), 9);
        assert_eq!(se.spmm(&b).unwrap().as_slice(), want.as_slice());
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = random_csr(8, 8, 0.3, 2);
        let se = ShardedEngine::new(&a, 2, 2);
        let bad = DenseMatrix::zeros(7, 4);
        assert!(se.spmm(&bad).is_err());
    }
}
