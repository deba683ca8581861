//! The repository's benchmark: one workload per process, end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. The
//! last line of standard output is the result as one JSON object.
//!
//! ```text
//! perfbench --workload <fullgraph|sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```

mod fullgraph;
mod molecular;
mod serve_open;
mod sharded;
mod util;

use util::{Host, Outcome};

const WORKLOADS: [&str; 2] = ["fullgraph", "sharded"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The traced run measures every layer, whichever workload is named,
/// including the serving probes that are not end-to-end workloads; the
/// probes share `--seconds`. The named workload's plain-vs-traced
/// comparison gives the tracing overhead.
fn trace(args: &Args, workers: usize, stream_gbps: f64) -> Outcome {
    const REPS: usize = 8;
    let mut out = Outcome::default();
    out.put("host.stream_gbps", stream_gbps, "GB/s");
    let inputs = fullgraph::Inputs::generate(args.seed);
    let full = fullgraph::trace(&inputs, workers, REPS, stream_gbps, &mut out);
    let shard = sharded::trace(&inputs, workers, REPS, &mut out);
    drop(inputs);
    serve_open::trace(args.seed, args.seconds / 2.0, workers, &mut out);
    molecular::trace(args.seed, args.seconds / 4.0, workers, &mut out);
    let overhead = if args.workload == "sharded" {
        shard
    } else {
        full
    };
    out.put("bench.trace_overhead_frac", overhead, "frac");
    out
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    // Each engine gets at most `nproc` workers in total.
    let workers = host.nproc;
    let (out, stream_gbps) = if args.trace {
        let stream = host.stream_gbps();
        (trace(&args, workers, stream), stream)
    } else {
        let out = if args.workload == "sharded" {
            sharded::run(args.seed, args.seconds, workers)
        } else {
            fullgraph::run(args.seed, args.seconds, workers)
        };
        // After the workload, so the calibration array is not in its
        // peak RSS.
        (out, host.stream_gbps())
    };
    println!("{}", host.describe(stream_gbps));
    println!("{}", out.json());
}
