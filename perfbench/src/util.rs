//! Shared plumbing: the seeded input generator, sample statistics,
//! output checks, peak memory and the host calibration.

use std::time::{Duration, Instant};

use mpspmm_sparse::DenseMatrix;

pub use rand::rngs::SmallRng as Rng;
use rand::{Rng as _, SeedableRng};

/// The generator for one input stream of a run: the workspace's seeded
/// `rand` generator, keyed by `--seed` and a stream number per input.
pub fn rng(seed: u64, stream: u64) -> Rng {
    Rng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Xavier-uniform weights, `fan_in × fan_out`.
pub fn weights(rng: &mut Rng, fan_in: usize, fan_out: usize) -> DenseMatrix<f32> {
    let r = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
    DenseMatrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-r..r))
}

/// Dense-stored features where each entry is non-zero with `density`.
pub fn features(rng: &mut Rng, rows: usize, cols: usize, density: f64) -> DenseMatrix<f32> {
    DenseMatrix::from_fn(rows, cols, |_, _| {
        if rng.gen::<f64>() < density {
            rng.gen::<f32>()
        } else {
            0.0
        }
    })
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of an unsorted sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// `n` cold set-ups back to back, each after the previous one's state is
/// dropped (a server's drop joins its dispatcher). Returns the last state
/// and every set-up's measurement.
pub fn cold_setups<T, S>(n: usize, mut setup: impl FnMut() -> (T, S)) -> (T, Vec<S>) {
    let mut spans = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let (state, span) = setup();
        spans.push(span);
        kept = Some(state);
    }
    (kept.expect("at least one set-up"), spans)
}

/// A closed loop of `seconds` of operation time with `setups` cold
/// set-ups spread through it. Set-up `i` builds a fresh state (the
/// previous one dropped first) once the operations have taken
/// `i / setups` of the time, so set-ups and operations see the same
/// stretches of host speed. `setup` returns its state and its time in
/// seconds, `op` its latency in milliseconds; both record their output
/// checks. Returns the set-up times and the latencies in order.
pub fn closed_loop<T>(
    setups: usize,
    seconds: f64,
    out: &mut Outcome,
    mut setup: impl FnMut(&mut Outcome) -> (T, f64),
    mut op: impl FnMut(&T, &mut Outcome) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let setups = setups.max(1);
    let (mut secs, mut lat) = (Vec::with_capacity(setups), Vec::new());
    let mut busy_ms = 0.0;
    for i in 0..setups {
        let (state, s) = setup(out);
        secs.push(s);
        let until = seconds * 1e3 * (i + 1) as f64 / setups as f64;
        while busy_ms < until || lat.len() < 3 {
            let l = op(&state, out);
            busy_ms += l;
            lat.push(l);
        }
    }
    (secs, lat)
}

/// Median of a run's cold set-up times (seconds), printed with each one.
pub fn setup_median(label: &str, secs: &[f64]) -> f64 {
    let each: Vec<String> = secs.iter().map(|s| format!("{:.4}", s)).collect();
    eprintln!("{label} set-ups (s): {}", each.join(" "));
    median(secs)
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0.elapsed())
        })
        .collect();
    median(&times)
}

/// Nearest-rank percentile of a sorted sample and the number of samples
/// above it (0 and 0 when empty).
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// Consecutive stretches of a run its windowed tail is taken over.
const TAIL_WINDOWS: usize = 4;

/// A latency sample (milliseconds) summarised as its median and its tail
/// at the workload's fixed percentile.
pub struct Latency {
    pub samples: usize,
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    /// Samples above the tail over the whole run.
    pub beyond: usize,
    /// The tail over the whole sample, when `tail` is windowed.
    pub pooled_tail: f64,
}

impl Latency {
    pub fn of(samples_ms: &[f64], tail_pct: f64) -> Latency {
        let mut sorted = samples_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail, beyond) = nearest_rank(&sorted, tail_pct);
        Latency {
            samples: sorted.len(),
            p50: median(&sorted),
            tail,
            tail_pct,
            beyond,
            pooled_tail: tail,
        }
    }

    /// [`Latency::of`] with the tail taken as the median, over
    /// [`TAIL_WINDOWS`] consecutive stretches of the run, of each
    /// stretch's percentile: a host-contention episode that covers part
    /// of a run then moves the tail far less than the pooled figure.
    pub fn windowed(in_order_ms: &[f64], tail_pct: f64) -> Latency {
        let mut l = Latency::of(in_order_ms, tail_pct);
        let chunk = in_order_ms.len().div_ceil(TAIL_WINDOWS).max(1);
        let tails: Vec<f64> = in_order_ms
            .chunks(chunk)
            .map(|c| {
                let mut sorted = c.to_vec();
                sorted.sort_by(f64::total_cmp);
                nearest_rank(&sorted, l.tail_pct).0
            })
            .collect();
        l.tail = median(&tails);
        l
    }

    pub fn describe(&self, label: &str) -> String {
        format!(
            "{label}: n={} p50={:.3} ms tail=p{}={:.3} ms (pooled {:.3} ms, {} samples beyond)",
            self.samples, self.p50, self.tail_pct, self.tail, self.pooled_tail, self.beyond
        )
    }
}

/// Exact equality, bit for bit (so `-0.0 != 0.0` and NaN payloads count).
pub fn bits_equal(a: &DenseMatrix<f32>, b: &DenseMatrix<f32>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Every element within `rel × max(1, |want|)` of the oracle.
pub fn within(got: &DenseMatrix<f32>, want: &DenseMatrix<f32>, rel: f32) -> bool {
    got.rows() == want.rows()
        && got.cols() == want.cols()
        && got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .all(|(g, w)| (g - w).abs() <= rel * w.abs().max(1.0))
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counts and named values one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Records a metric. A value that is not finite (a measurement that
    /// divided by zero) fails the run instead of printing a number.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            self.check(false);
        }
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the machine is: recorded with every result.
pub struct Host {
    pub nproc: usize,
    pub isa: &'static str,
    pub llc_bytes: usize,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            isa: isa(),
            llc_bytes: llc_bytes(),
        }
    }

    /// Streaming bandwidth, GB/s: best of several in-place scale passes
    /// (read + write of every byte) over one array of at least four times
    /// the last-level cache, split across `nproc` threads.
    pub fn stream_gbps(&self) -> f64 {
        let bytes = (4 * self.llc_bytes).max(256 << 20);
        let mut a = vec![1.0f32; bytes / 4];
        let threads = self.nproc.max(1);
        let chunk = a.len().div_ceil(threads);
        let mut best = f64::INFINITY;
        for pass in 0..6 {
            let s = if pass % 2 == 0 { 0.5f32 } else { 2.0f32 };
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for part in a.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for v in part.iter_mut() {
                            *v *= s;
                        }
                    });
                }
            });
            let dt = t0.elapsed().as_secs_f64();
            // The first pass faults the pages in; it is not a bandwidth.
            if pass > 0 {
                best = best.min(dt);
            }
        }
        std::hint::black_box(&a);
        2.0 * (a.len() * 4) as f64 / best / 1e9
    }

    pub fn describe(&self, stream_gbps: f64) -> String {
        format!(
            "host: nproc={} isa={} llc_mib={:.1} stream_gbps={stream_gbps:.2} (in-place scale, {} MiB array)",
            self.nproc,
            self.isa,
            self.llc_bytes as f64 / (1 << 20) as f64,
            (4 * self.llc_bytes).max(256 << 20) >> 20
        )
    }
}

fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "x86_64+avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "x86_64+avx2";
        }
        "x86_64"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH
    }
}

/// Largest cache level's size from sysfs (32 MiB when unreadable).
fn llc_bytes() -> usize {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let mut best = (0u32, 0usize);
    for i in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<usize>().unwrap_or(0) << 10
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<usize>().unwrap_or(0) << 20
        } else {
            size.parse().unwrap_or(0)
        };
        if level > best.0 || (level == best.0 && bytes > best.1) {
            best = (level, bytes);
        }
    }
    if best.1 == 0 {
        32 << 20
    } else {
        best.1
    }
}
