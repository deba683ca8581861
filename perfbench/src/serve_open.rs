//! The serve layer's open-loop probe, part of the traced run: Poisson
//! arrivals of one-column `Workload::Spmm` requests over four tenants
//! on Table II Pubmed, served by `mpspmm_serve::Server` at a light and a
//! busy fixed rate, each request timed from when it was due. It is not
//! an end-to-end workload: its latencies moved past any allowed bound
//! with the host (see STEADINESS.md).

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mpspmm_core::{ExecEngine, MergePathSpmm, SerialSpmm, SpmmKernel};
use mpspmm_graphs::{find_dataset, gcn_normalize};
use mpspmm_serve::{Request, ServeConfig, ServeError, Server, Ticket, Workload};
use mpspmm_sparse::{CsrMatrix, DenseMatrix};
use rand::{Rng as _, RngCore};

use crate::util::{self, median, ms, us, Latency, Outcome};

const GRAPH: &str = "pubmed";
const TENANTS: usize = 4;
/// Distinct one-column feature vectors requests draw from.
const POOL: usize = 64;
/// Offered rates, requests/s: about 20% and 50% of the highest rate at
/// which p99 stayed within 10 ms on the reference host (~3k/s; the
/// server saturates near 6k/s). Closer to capacity, queueing amplified
/// host drift past the metrics' bounds (see STEADINESS.md).
const LIGHT_RATE: f64 = 600.0;
const BUSY_RATE: f64 = 1600.0;
/// Rounds of (light, busy, traced busy) windows.
const ROUNDS: usize = 2;
/// The tail reported. Higher percentiles moved two to ten times as much
/// as the median between runs on the reference host (see STEADINESS.md).
const TAIL_PCT: f64 = 90.0;
/// Every `SAMPLE_EVERY`-th reply is kept for the output check, at most
/// `SAMPLE_MAX` per phase.
const SAMPLE_EVERY: usize = 64;
const SAMPLE_MAX: usize = 16;
const TOLERANCE: f32 = 1e-4;

fn config() -> ServeConfig {
    ServeConfig {
        // Well above the backlog a stall at the busy rate builds.
        tenant_queue_limit: 1024,
        ..ServeConfig::default()
    }
}

pub struct Inputs {
    a: CsrMatrix<f32>,
    pool: Vec<Arc<DenseMatrix<f32>>>,
    tenants: Vec<String>,
    seed: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let spec = find_dataset("Pubmed").expect("Pubmed is a Table II dataset");
        let mut rng = util::rng(seed, 2);
        let a = spec.synthesize(rng.next_u64());
        let pool = (0..POOL)
            .map(|_| Arc::new(util::features(&mut rng, a.cols(), 1, 1.0)))
            .collect();
        let tenants = (0..TENANTS).map(|t| format!("tenant-{t}")).collect();
        Inputs {
            a,
            pool,
            tenants,
            seed,
        }
    }

    fn request(&self, tenant: usize, feature: usize) -> Request {
        Request {
            graph: GRAPH.to_string(),
            tenant: self.tenants[tenant].clone(),
            features: Arc::clone(&self.pool[feature]),
            workload: Workload::Spmm,
            deadline: None,
        }
    }

    /// Poisson arrivals at `rate` for `seconds`, from the seed and `stream`.
    fn schedule(&self, stream: u64, rate: f64, seconds: f64) -> Vec<Arrival> {
        let mut rng = util::rng(self.seed, stream);
        let mut at = 0.0;
        let mut out = Vec::new();
        loop {
            // Exponential gaps: Poisson arrivals.
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            if at >= seconds {
                return out;
            }
            out.push(Arrival {
                at,
                tenant: rng.gen_range(0..TENANTS),
                feature: rng.gen_range(0..POOL),
            });
        }
    }

    /// Serial-SpMM oracle for every pool vector.
    fn oracle(&self) -> Vec<DenseMatrix<f32>> {
        let a_hat = gcn_normalize(&self.a);
        self.pool
            .iter()
            .map(|b| SerialSpmm.spmm(&a_hat, b).expect("oracle shapes"))
            .collect()
    }
}

struct Arrival {
    at: f64,
    tenant: usize,
    feature: usize,
}

/// Raw graph in memory → engine and server started, graph normalized and
/// registered (its plan warmed), first request answered.
fn setup(inputs: &Inputs, workers: usize) -> (Server, f64) {
    let t0 = Instant::now();
    let engine = Arc::new(ExecEngine::new(workers));
    let srv = Server::start(engine, Box::new(MergePathSpmm::new()), config());
    srv.register(GRAPH, gcn_normalize(&inputs.a), None);
    srv.submit(inputs.request(0, 0))
        .expect("first request admitted")
        .wait()
        .expect("first request served");
    let dt = t0.elapsed().as_secs_f64();
    (srv, dt)
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    attempted: u64,
    errors: u64,
    /// Kept replies: (arrival index, reply).
    sampled: Vec<(usize, DenseMatrix<f32>)>,
    /// First due time to last reply, seconds.
    wall_s: f64,
    queue_depth_max: usize,
}

/// Sends `arrivals` on schedule from this thread while one collector
/// thread waits for the replies in order. Traced, it also times each
/// `Server::submit` and samples the queue depth every millisecond.
fn open_loop(srv: &Server, inputs: &Inputs, arrivals: &[Arrival], trace: bool) -> Phase {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<Ticket, ServeError>)>();
    let start = Instant::now() + Duration::from_millis(2);
    let mut phase = Phase::default();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut lat = Vec::new();
            let (mut errors, mut sampled, mut last_reply) = (0u64, Vec::new(), start);
            for (i, due, res) in rx {
                match res.and_then(Ticket::wait) {
                    Ok(m) => {
                        last_reply = Instant::now();
                        lat.push(ms(last_reply.saturating_duration_since(due)));
                        if i % SAMPLE_EVERY == 0 && sampled.len() < SAMPLE_MAX {
                            sampled.push((i, m));
                        }
                    }
                    Err(_) => errors += 1,
                }
            }
            (lat, errors, sampled, last_reply)
        });
        let mut last_sample = start;
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            let res = srv.submit(inputs.request(a.tenant, a.feature));
            if trace {
                phase.submit_us.push(us(t.elapsed()));
            }
            phase.lag_ms.push(ms(t.saturating_duration_since(due)));
            phase.attempted += 1;
            tx.send((i, due, res)).expect("collector is alive");
            if trace && t.duration_since(last_sample) >= Duration::from_millis(1) {
                last_sample = t;
                phase.queue_depth_max = phase.queue_depth_max.max(srv.stats().queue_depth);
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let (lat, errors, sampled, last_reply) = collected;
    phase.latency_ms = lat;
    phase.errors = errors;
    phase.sampled = sampled;
    phase.wall_s = last_reply.saturating_duration_since(start).as_secs_f64();
    phase
}

/// Counts a phase's requests, checks its sampled replies and frees them.
fn account(
    out: &mut Outcome,
    phase: &mut Phase,
    arrivals: &[Arrival],
    oracle: &[DenseMatrix<f32>],
) {
    out.attempted += phase.attempted;
    out.failed += phase.errors;
    for (i, m) in phase.sampled.drain(..) {
        if !util::within(&m, &oracle[arrivals[i].feature], TOLERANCE) {
            out.failed += 1;
        }
    }
}

/// Light, busy and traced busy windows alternate on one server, so slow
/// host drift lands on all three. Traced windows time each
/// `Server::submit` and sample the queue depth; the latencies come from
/// the plain windows.
pub fn trace(seed: u64, seconds: f64, workers: usize, out: &mut Outcome) {
    let inputs = Inputs::generate(seed);
    let oracle = inputs.oracle();
    let (srv, _) = setup(&inputs, workers);
    let (mut light, mut busy, mut traced) = (vec![], vec![], vec![]);
    let mut wall = 0.0;
    let window_s = seconds / (3 * ROUNDS) as f64;
    for w in 0..ROUNDS as u64 {
        for (rate, stream, trace, phases) in [
            (LIGHT_RATE, 100 + w, false, &mut light),
            (BUSY_RATE, 200 + w, false, &mut busy),
            (BUSY_RATE, 300 + w, true, &mut traced),
        ] {
            let arrivals = inputs.schedule(stream, rate, window_s);
            let mut phase = open_loop(&srv, &inputs, &arrivals, trace);
            account(out, &mut phase, &arrivals, &oracle);
            wall += phase.wall_s;
            phases.push(phase);
        }
    }
    let st = srv.stats();
    let pool = |phases: &[Phase], f: fn(&Phase) -> &Vec<f64>| {
        phases.iter().flat_map(f).copied().collect::<Vec<f64>>()
    };
    for (label, phases) in [("light", &light), ("busy", &busy)] {
        let l = Latency::of(&pool(phases, |p| &p.latency_ms), TAIL_PCT);
        eprintln!("{}", l.describe(&format!("serve {label}")));
        out.put(&format!("serve.latency_ms_p50.{label}"), l.p50, "ms");
        out.put(&format!("serve.latency_ms_tail.{label}"), l.tail, "ms");
    }
    let submit = pool(&traced, |p| &p.submit_us);
    out.put("serve.submit_us_p50", median(&submit), "us");
    out.put("serve.server_latency_ms_p50", st.latency.p50_us / 1e3, "ms");
    out.put(
        "serve.server_latency_ms_tail",
        st.latency.p99_us / 1e3,
        "ms",
    );
    out.put("serve.mean_batch_requests", st.mean_batch_requests, "count");
    out.put("serve.batches_per_s", st.batches as f64 / wall, "1/s");
    out.put(
        "serve.degraded_share",
        st.degraded_batches as f64 / st.batches.max(1) as f64,
        "frac",
    );
    let depth = traced.iter().map(|p| p.queue_depth_max).max().unwrap_or(0);
    out.put("serve.queue_depth_max", depth as f64, "count");
    let lags: Vec<f64> = [&light, &busy, &traced]
        .into_iter()
        .flat_map(|phases| pool(phases, |p| &p.lag_ms))
        .collect();
    out.put(
        "bench.gen_lag_ms_tail",
        Latency::of(&lags, TAIL_PCT).tail,
        "ms",
    );

    // The engine's prepared SpMM on Pubmed at one and 64 columns.
    let graph = srv.registry().get(GRAPH).expect("registered");
    let engine = srv.registry().engine();
    let mut rng = util::rng(seed, 3);
    for (width, reps, name) in [(1, 200, "core.spmm_us.w1"), (64, 50, "core.spmm_us.w64")] {
        let b = util::features(&mut rng, graph.nodes(), width, 1.0);
        let t = util::median_ms(reps, || {
            let (y, _) = engine
                .execute_prepared(graph.prep(), graph.adjacency(), &b)
                .expect("SpMM shapes");
            engine.recycle(y);
        });
        out.put(name, t * 1e3, "us");
    }
    drop(graph);
    srv.shutdown();
}
