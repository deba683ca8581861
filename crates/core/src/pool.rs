//! Persistent worker pool for the execution engine.
//!
//! The seed executor spawned (scoped) OS threads on every `spmm` call;
//! for GNN inference — thousands of small SpMM calls — the spawn/join
//! cost is pure overhead the paper's GPU kernels never pay. This module
//! keeps a process-wide set of long-lived workers and hands them batches
//! of borrowed closures per call.
//!
//! # Safety argument (the one `unsafe` block)
//!
//! [`WorkerPool::scope_run`] accepts closures borrowing the caller's
//! stack (`'scope`) and erases that lifetime to `'static` so they can sit
//! in the shared job queue. Soundness rests on a completion barrier, the
//! same argument `std::thread::scope` / crossbeam's scope make:
//!
//! 1. every submitted job decrements the shared [`Completion`] counter
//!    exactly once — even when the closure panics, because the decrement
//!    happens after `catch_unwind`;
//! 2. `scope_run` does not return (not even by panicking) before the
//!    counter reaches zero — the only panic it raises is *after* the
//!    wait, to propagate worker panics;
//! 3. therefore no erased closure (or anything it borrows) is ever used
//!    after `scope_run` returns, so the `'scope` borrows never dangle.
//!
//! Jobs must not block on other jobs of the same pool (they don't: the
//! engine's static and striped workers only touch disjoint output
//! slices and atomics, and self-scheduled workers only advance a shared
//! atomic cursor — taking work never waits for another job to finish),
//! and [`WorkerPool::scope_run`] must not be
//! called from inside a pool worker (the engine never does; it is only
//! entered from caller threads).
//!
//! # Private pools and core pinning
//!
//! Historically this module held exactly one pool, sized once from
//! `MPSPMM_WORKERS`. Sharded execution ([`crate::shard`]) runs several
//! engines side by side in one process; if they all shared the global
//! queue, every shard's jobs would serialize behind every other
//! shard's — the contention the sharding exists to remove. An engine
//! built with [`crate::ExecEngine::with_worker_count`] therefore owns a
//! **private** pool ([`EnginePool::Private`]), spawned lazily on first
//! parallel run, whose size follows the engine rather than the process.
//!
//! With `MPSPMM_PIN=1`, pool workers additionally pin themselves to
//! consecutive CPU cores starting at the pool's `pin_base` (a raw
//! `sched_setaffinity` syscall on Linux/x86-64; a silent no-op
//! elsewhere, and best-effort even there — a container that restricts
//! affinity just leaves the thread unpinned). Co-resident shard engines
//! pass disjoint bases so their workers land on disjoint cores. The
//! caller thread — which executes one job of every batch — is never
//! pinned; pinning it would leak policy out of the engine into whatever
//! thread happened to submit.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A job after lifetime erasure, parked in the shared queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A borrowed job as submitted by the engine.
pub(crate) type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

struct Completion {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed set of long-lived worker threads consuming a shared job queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` detached workers (min 1). When the
    /// `MPSPMM_PIN=1` opt-in is set, worker `i` pins itself to CPU core
    /// `pin_base + i` (best effort — see the module docs).
    pub(crate) fn with_options(threads: usize, pin_base: usize) -> Self {
        let threads = threads.max(1);
        let pin = pin_requested();
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mpspmm-pool-{i}"))
                .spawn(move || {
                    if pin {
                        pin_current_thread(pin_base + i);
                    }
                    worker_loop(&shared)
                })
                .expect("spawn pool worker");
        }
        Self { shared }
    }

    /// The process-wide pool, sized to the default worker count minus the
    /// caller thread (which executes one job of every batch itself).
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            WorkerPool::with_options(crate::spmm::default_workers().saturating_sub(1), 0)
        })
    }

    /// Runs every job to completion before returning; the last job runs on
    /// the calling thread (so a batch of `n` jobs occupies `n - 1` pool
    /// workers plus the caller).
    ///
    /// # Panics
    ///
    /// Panics (after all jobs finished) if any job panicked.
    pub(crate) fn scope_run(&self, mut jobs: Vec<ScopedJob<'_>>) {
        let Some(local) = jobs.pop() else { return };
        let completion = Arc::new(Completion {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for job in jobs {
                // SAFETY: see the module-level safety argument — the
                // completion barrier below keeps this function from
                // returning until the erased closure has run, so its
                // borrows outlive every use.
                let job: Job = unsafe { std::mem::transmute::<ScopedJob<'_>, Job>(job) };
                let completion = Arc::clone(&completion);
                queue.push_back(Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        completion.panicked.store(true, Ordering::SeqCst);
                    }
                    let mut remaining = completion.remaining.lock().unwrap();
                    *remaining -= 1;
                    if *remaining == 0 {
                        completion.done.notify_all();
                    }
                }));
            }
            self.shared.job_ready.notify_all();
        }

        let local_result = catch_unwind(AssertUnwindSafe(local));

        let mut remaining = completion.remaining.lock().unwrap();
        while *remaining > 0 {
            remaining = completion.done.wait(remaining).unwrap();
        }
        drop(remaining);

        if local_result.is_err() || completion.panicked.load(Ordering::SeqCst) {
            panic!("engine worker job panicked");
        }
    }
}

/// Which worker pool an [`crate::ExecEngine`] runs its parallel phases
/// on: the process-wide pool (the default — one queue, sized once from
/// `MPSPMM_WORKERS`), or an engine-private pool whose thread count
/// follows the engine. Private pools spawn lazily on first use, so
/// engines that only ever run single-worker (or are constructed and
/// dropped by tests) cost no threads.
pub(crate) enum EnginePool {
    /// Share the process-wide pool.
    Global,
    /// A dedicated pool of `threads` workers, pinned (under
    /// `MPSPMM_PIN=1`) to consecutive cores starting at `pin_base`.
    Private {
        threads: usize,
        pin_base: usize,
        pool: OnceLock<WorkerPool>,
    },
}

impl EnginePool {
    /// A lazily spawned private pool serving an engine of
    /// `workers`-way parallelism: the caller thread runs one job of
    /// every batch, so the pool holds `workers - 1` threads.
    pub(crate) fn private(workers: usize, pin_base: usize) -> Self {
        EnginePool::Private {
            threads: workers.saturating_sub(1).max(1),
            pin_base,
            pool: OnceLock::new(),
        }
    }

    /// The pool to submit this engine's jobs to.
    pub(crate) fn get(&self) -> &WorkerPool {
        match self {
            EnginePool::Global => WorkerPool::global(),
            EnginePool::Private {
                threads,
                pin_base,
                pool,
            } => pool.get_or_init(|| WorkerPool::with_options(*threads, *pin_base)),
        }
    }

    /// Whether this is an engine-private pool.
    pub(crate) fn is_private(&self) -> bool {
        matches!(self, EnginePool::Private { .. })
    }

    /// The base core private workers pin from (0 for the global pool).
    pub(crate) fn pin_base(&self) -> usize {
        match self {
            EnginePool::Global => 0,
            EnginePool::Private { pin_base, .. } => *pin_base,
        }
    }

    /// Re-bases the pinning window. Panics if the pool already spawned —
    /// pin placement is fixed at thread birth.
    pub(crate) fn set_pin_base(&mut self, base: usize) {
        match self {
            EnginePool::Global => {}
            EnginePool::Private { pin_base, pool, .. } => {
                assert!(
                    pool.get().is_none(),
                    "pin base must be set before the pool first runs"
                );
                *pin_base = base;
            }
        }
    }
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnginePool::Global => f.write_str("Global"),
            EnginePool::Private {
                threads, pin_base, ..
            } => f
                .debug_struct("Private")
                .field("threads", threads)
                .field("pin_base", pin_base)
                .finish(),
        }
    }
}

/// Whether the process opted into core pinning (`MPSPMM_PIN=1`). Read
/// once: pool threads outlive any env mutation a test could make.
pub(crate) fn pin_requested() -> bool {
    static PIN: OnceLock<bool> = OnceLock::new();
    *PIN.get_or_init(|| {
        std::env::var("MPSPMM_PIN").is_ok_and(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        })
    })
}

/// Pins the calling thread to `core` (modulo the machine's core count).
/// Returns whether the kernel accepted the mask.
///
/// No `libc` is available in this build, so on Linux/x86-64 this issues
/// the raw `sched_setaffinity` syscall (number 203) with a 1024-bit CPU
/// mask; everywhere else it is a no-op returning `false`. Failure is
/// tolerated by every caller: a cpuset-restricted container may refuse
/// cores outside its slice, and an unpinned worker is merely the
/// pre-pinning status quo.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) fn pin_current_thread(core: usize) -> bool {
    let ncpu = std::thread::available_parallelism().map_or(1, usize::from);
    let core = core % ncpu.max(1);
    let mut mask = [0u64; 16]; // 1024 CPUs, the kernel's historical cap
    mask[(core / 64) % mask.len()] = 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: sched_setaffinity(0, len, ptr) reads `len` bytes from
    // `ptr` and touches no other memory; the mask outlives the call and
    // rcx/r11 are declared clobbered per the syscall ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0usize,
            in("rsi") mask.len() * core::mem::size_of::<u64>(),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Non-Linux / non-x86-64 stub: pinning is unsupported, report failure.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) fn pin_current_thread(_core: usize) -> bool {
    false
}

/// Applies `f` to disjoint spans of `data` in parallel on the global
/// pool. Spans are aligned to `granule` elements (the last span takes the
/// remainder), and `f` receives each span's starting offset into `data`
/// alongside the span itself — so callers whose transform depends on the
/// position (e.g. a per-column bias on a row-major matrix with
/// `granule = cols`) stay correct under any split.
///
/// Small inputs (and single-worker processes) run inline on the caller:
/// the crossover is [`crate::tuning::PAR_APPLY_MIN_LEN`] elements, below
/// which the pool's wake/barrier cost exceeds the element-wise work.
pub fn parallel_apply_chunks<F>(data: &mut [f32], granule: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let granule = granule.max(1);
    let workers = crate::spmm::default_workers();
    let granules = data.len().div_ceil(granule);
    if workers <= 1 || data.len() < crate::tuning::PAR_APPLY_MIN_LEN || granules <= 1 {
        f(0, data);
        return;
    }
    let eff = workers.min(granules);
    let per_worker = granules.div_ceil(eff);
    let mut rest: &mut [f32] = data;
    let mut offset = 0usize;
    let mut jobs: Vec<ScopedJob<'_>> = Vec::with_capacity(eff);
    let f = &f;
    while !rest.is_empty() {
        let take = (per_worker * granule).min(rest.len());
        let (span, tail) = std::mem::take(&mut rest).split_at_mut(take);
        rest = tail;
        let start = offset;
        offset += take;
        jobs.push(Box::new(move || f(start, span)));
    }
    WorkerPool::global().scope_run(jobs);
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_ready.wait(queue).unwrap();
            }
        };
        // Jobs contain their own catch_unwind; a stray panic here would
        // only kill this worker, so keep the loop tight and let the
        // wrapper absorb unwinds.
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    impl WorkerPool {
        fn with_options_test(threads: usize) -> Self {
            WorkerPool::with_options(threads, 0)
        }
    }

    #[test]
    fn runs_all_jobs_and_observes_borrowed_state() {
        let pool = WorkerPool::with_options_test(3);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as ScopedJob<'_>
            })
            .collect();
        pool.scope_run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn disjoint_mutable_borrows_work() {
        let pool = WorkerPool::with_options_test(2);
        let mut data = vec![0usize; 4];
        let jobs: Vec<ScopedJob<'_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i + 1;
                }) as ScopedJob<'_>
            })
            .collect();
        pool.scope_run(jobs);
        assert_eq!(data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reuse_across_batches() {
        let pool = WorkerPool::with_options_test(2);
        for round in 0..32 {
            let sum = AtomicUsize::new(0);
            let jobs: Vec<ScopedJob<'_>> = (0..5)
                .map(|i| {
                    let sum = &sum;
                    Box::new(move || {
                        sum.fetch_add(i, Ordering::SeqCst);
                    }) as ScopedJob<'_>
                })
                .collect();
            pool.scope_run(jobs);
            assert_eq!(sum.load(Ordering::SeqCst), 10, "round {round}");
        }
    }

    #[test]
    fn panicking_job_propagates_after_completion() {
        let pool = WorkerPool::with_options_test(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<ScopedJob<'_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            pool.scope_run(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "other jobs still complete");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::with_options_test(1);
        pool.scope_run(Vec::new());
    }

    #[test]
    fn parallel_apply_chunks_covers_every_element_with_offsets() {
        // Large enough to cross PAR_APPLY_MIN_LEN, odd granule so the
        // final span is a remainder.
        let len = crate::tuning::PAR_APPLY_MIN_LEN + 37;
        let mut data = vec![0.0f32; len];
        parallel_apply_chunks(&mut data, 53, |start, span| {
            for (i, v) in span.iter_mut().enumerate() {
                *v = (start + i) as f32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i as f32, "element {i}");
        }
    }

    #[test]
    fn parallel_apply_chunks_inline_small_and_empty() {
        let mut small = vec![1.0f32; 8];
        parallel_apply_chunks(&mut small, 4, |_, span| {
            for v in span {
                *v += 1.0;
            }
        });
        assert!(small.iter().all(|&v| v == 2.0));
        let mut empty: Vec<f32> = Vec::new();
        parallel_apply_chunks(&mut empty, 16, |_, _| {});
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn private_engine_pools_are_distinct_and_lazy() {
        let a = EnginePool::private(4, 0);
        let b = EnginePool::private(2, 4);
        assert!(a.is_private() && b.is_private());
        assert_eq!(b.pin_base(), 4);
        // Lazy: no threads yet; first get() spawns, and repeated gets
        // return the same pool while two engines never share one.
        let pa = a.get() as *const WorkerPool;
        assert_eq!(pa, a.get() as *const _);
        assert_ne!(pa, b.get() as *const _);
        assert_ne!(pa, WorkerPool::global() as *const _);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as ScopedJob<'_>
            })
            .collect();
        b.get().scope_run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn set_pin_base_before_spawn_only() {
        let mut p = EnginePool::private(3, 0);
        p.set_pin_base(7);
        assert_eq!(p.pin_base(), 7);
        let mut g = EnginePool::Global;
        g.set_pin_base(9); // no-op, never panics
        assert_eq!(g.pin_base(), 0);
    }

    #[test]
    fn pinning_is_best_effort_on_this_machine() {
        // Core 0 always exists; the call must not panic whatever the
        // container's cpuset policy is. On Linux/x86-64 with an
        // unrestricted mask this succeeds; elsewhere it reports false.
        let _ = pin_current_thread(0);
        let _ = pin_current_thread(usize::MAX); // wraps modulo ncpu
    }
}
