//! SIMD data-path benchmark — vectorized vs scalar engine paths.
//!
//! For the same Table II spread as `bench_engine`, times the scalar
//! oracle path ([`DataPath::Scalar`]) against the vectorized,
//! cache-blocked path ([`DataPath::Vector`]) on identical prepared plans,
//! single-core, at dimensions 16 and 32. Both sides run through
//! [`ExecEngine::execute_prepared`], so the comparison isolates the inner
//! data path: wide-lane streaming kernels, panel blocking, packed u32
//! column indices, and the degree-adaptive gather/stream dispatcher.
//!
//! When `BENCH_engine.json` (written by `bench_engine`, whose timed loop
//! re-classifies the plan per call via `execute`) is present, the harness
//! also reports the end-to-end improvement of the vectorized prepared
//! path over that stored baseline. Writes `BENCH_simd.json` with one
//! record per (dataset, kernel, dim):
//! `{dataset, kernel, dim, ns_per_nnz, vs_scalar, vs_baseline}`.

use mpspmm_bench::{
    banner, full_size_requested, geomean, load, parse_bench_records, time_ns, BenchRecord,
};
use mpspmm_core::{
    DataPath, ExecEngine, MergePathSpmm, NnzSplitSpmm, PreparedPlan, RowSplitSpmm, SpmmKernel,
    GATHER_MAX_NNZ,
};
use mpspmm_sparse::DenseMatrix;

const DATASETS: [&str; 6] = [
    "Cora",
    "Citeseer",
    "Pubmed",
    "Wiki-Vote",
    "PPI",
    "PROTEINS_full",
];

fn main() {
    let full = full_size_requested();
    banner(
        "BENCH simd",
        "scalar vs vectorized data path, single-core, dims {16, 32}",
        full,
    );

    let baseline: Vec<BenchRecord> = std::fs::read_to_string("BENCH_engine.json")
        .map(|s| parse_bench_records(&s))
        .unwrap_or_default();
    if baseline.is_empty() {
        println!(
            "note: no BENCH_engine.json found; run bench_engine first for vs-baseline numbers"
        );
    }

    let kernels: Vec<Box<dyn SpmmKernel>> = vec![
        Box::new(MergePathSpmm::new()),
        Box::new(NnzSplitSpmm::new()),
        Box::new(RowSplitSpmm::default()),
    ];
    let scalar = ExecEngine::with_data_path(1, DataPath::Scalar);
    let vector = ExecEngine::with_data_path(1, DataPath::Vector);

    println!(
        "\n{:<16} {:<16} {:>4} {:>11} {:>11} {:>9} {:>9}",
        "Graph", "Kernel", "dim", "scalar/nnz", "simd/nnz", "vs scalar", "vs engine"
    );
    let mut records = Vec::new();
    let mut vs_scalar_all = Vec::new();
    let mut vs_baseline_all = Vec::new();
    for name in DATASETS {
        let spec = find(name);
        let (used, a) = load(spec, full);
        for kernel in &kernels {
            for dim in [16usize, 32] {
                let b = DenseMatrix::from_fn(a.cols(), dim, |r, c| {
                    ((r * 31 + c * 7) % 17) as f32 * 0.125 - 1.0
                });
                // One preparation (classification + u32 packing), shared by
                // both paths — the GNN setting where the graph is fixed
                // across inferences and preparation is amortized away.
                let prep = PreparedPlan::for_matrix(kernel.plan(&a, dim), &a);
                let scalar_ns = time_ns(2, 7, || {
                    let _ = scalar.execute_prepared(&prep, &a, &b).unwrap();
                });
                let simd_ns = time_ns(2, 7, || {
                    let _ = vector.execute_prepared(&prep, &a, &b).unwrap();
                });
                let ns_per_nnz = simd_ns / a.nnz() as f64;
                let vs_scalar = scalar_ns / simd_ns;
                let vs_base = baseline
                    .iter()
                    .find(|r| r.dataset == used.name && r.kernel == kernel.name() && r.dim == dim)
                    .map(|r| r.ns_per_nnz / ns_per_nnz);
                println!(
                    "{:<16} {:<16} {:>4} {:>11.2} {:>11.2} {:>8.2}x {:>9}",
                    used.name,
                    kernel.name(),
                    dim,
                    scalar_ns / a.nnz() as f64,
                    ns_per_nnz,
                    vs_scalar,
                    vs_base.map_or_else(|| "-".into(), |v| format!("{v:.2}x")),
                );
                vs_scalar_all.push(vs_scalar);
                if let Some(v) = vs_base {
                    vs_baseline_all.push(v);
                }
                records.push(format!(
                    "    {{\"dataset\": \"{}\", \"kernel\": \"{}\", \"dim\": {}, \"ns_per_nnz\": {:.3}, \"vs_scalar\": {:.3}, \"vs_baseline\": {}}}",
                    used.name,
                    kernel.name(),
                    dim,
                    ns_per_nnz,
                    vs_scalar,
                    vs_base.map_or_else(|| "null".into(), |v| format!("{v:.3}")),
                ));
            }
        }
    }
    let g_scalar = geomean(&vs_scalar_all);
    let g_base = geomean(&vs_baseline_all);
    println!("\ngeomean vs scalar path (same prepared plan): {g_scalar:.2}x");
    if vs_baseline_all.is_empty() {
        println!("geomean vs BENCH_engine.json baseline: n/a (no baseline records matched)");
    } else {
        println!(
            "geomean vs BENCH_engine.json baseline ({} records): {g_base:.2}x",
            vs_baseline_all.len()
        );
    }

    // Dispatcher demography on one power-law graph: how much of the
    // merge-path schedule lands in the gather regime vs streaming.
    let (used, a) = load(find("Pubmed"), full);
    let kernel = MergePathSpmm::new();
    let schedule = kernel.schedule(&a, 16);
    let gather_frac = schedule.gather_bound_fraction(a.row_ptr(), GATHER_MAX_NNZ);
    let b = DenseMatrix::from_fn(a.cols(), 16, |r, c| ((r + c) % 7) as f32);
    vector.clear_cache();
    let prep = PreparedPlan::for_matrix(kernel.plan(&a, 16), &a);
    let _ = vector.execute_prepared(&prep, &a, &b).unwrap();
    let stats = vector.stats();
    println!(
        "\ndispatch on {} (dim 16): {:.0}% of threads gather-bound; \
         {} gather / {} stream segments this run",
        used.name,
        gather_frac * 100.0,
        stats.gather_segments,
        stats.stream_segments
    );

    let json = format!(
        "{{\n  \"baseline\": \"scalar oracle data path, same engine and prepared plan\",\n  \"speedup\": {:.3},\n  \"results\": [\n{}\n  ],\n  \"geomean_vs_scalar\": {:.3},\n  \"geomean_vs_baseline\": {},\n  \"gather_bound_fraction_pubmed\": {:.3}\n}}\n",
        g_scalar,
        records.join(",\n"),
        g_scalar,
        if vs_baseline_all.is_empty() {
            "null".into()
        } else {
            format!("{g_base:.3}")
        },
        gather_frac
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("wrote BENCH_simd.json");
}

fn find(name: &str) -> &'static mpspmm_graphs::DatasetSpec {
    mpspmm_graphs::find_dataset(name).expect("Table II dataset")
}
