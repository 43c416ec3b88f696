//! The system benchmark: four closed-loop workloads from one process, each
//! answer checked, every end-to-end metric printed with its unit and sample
//! count; `--trace 1` gives the per-layer figures from a separate traced
//! replay instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ann_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! The process exits non-zero when any output check fails.

mod check;
mod http;
mod report;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{json_num, json_str, Outcome};
use workloads::RunCfg;

/// End-to-end metrics in the result line of an untraced run: those every
/// workload has and that repeat between runs on a shared 2-core host. The
/// report above the result line prints the rest (throughput, p99 and
/// filtered latency, insert throughput and latency, WAL bytes, failed
/// share).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "search_p50_us",
    "recall_at_10",
    "mem_bytes_per_row",
    "peak_rss_mb",
];

/// Per-layer metrics in the result line of a traced run; every workload
/// reports all of them.
const PER_LAYER: [&str; 14] = [
    "trace.entry_us",
    "trace.entry_self_us",
    "trace.coverage_frac",
    "trace.overhead_frac",
    "segment.fanout",
    "segment.search_us",
    "segment.merge_results_us",
    "kernel.rows_per_query",
    "kernel.l2_ns_per_row",
    "index.build_ms",
    "wal.append_us",
    "lsm.flush_ms",
    "lsm.memtable_flushes",
    "lsm.store_put_bytes_per_row",
];

type Workload = fn(&RunCfg) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("ann_search", workloads::ann::run),
    ("rest_search", workloads::rest::run),
    ("ingest_search", workloads::ingest::run),
    ("cluster_search", workloads::cluster::run),
];

struct Args {
    workloads: Vec<(&'static str, Workload)>,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut names = "all".to_string();
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => names = value()?,
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workloads = if names == "all" {
        WORKLOADS.to_vec()
    } else {
        names
            .split(',')
            .map(|n| {
                WORKLOADS
                    .iter()
                    .find(|(w, _)| *w == n)
                    .copied()
                    .ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                        format!("unknown workload {n}; known: {}", known.join(", "))
                    })
            })
            .collect::<Result<_, _>>()?
    };
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let out_dir = PathBuf::from(target).join("perfbench-out");
    Ok(Args {
        workloads,
        cfg: RunCfg {
            seed,
            seconds,
            trace,
            out_dir,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let wanted: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    for (name, run) in &args.workloads {
        println!(
            "record {{\"commit\":{},\"nproc\":{},\"simd\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
            json_str(&report::commit()),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json_str(&format!("{:?}", milvus_index::simd::active_level())),
            json_str(name),
            cfg.seed,
            cfg.seconds,
            cfg.trace
        );
        let mut out = run(cfg);
        for m in wanted {
            if out.get(m).is_none_or(|v| !v.is_finite()) {
                out.violation(format!("metric {m} was not measured"));
            }
        }
        out.print();
        if let Some(tr) = &out.tracer {
            let path = cfg
                .out_dir
                .join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
            let written = std::fs::File::create(&path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tr.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
            match written {
                Ok(()) => println!(
                    "  spans: {} written to {}",
                    tr.spans().len(),
                    path.display()
                ),
                Err(e) => println!("  spans: not written ({e})"),
            }
        }
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.violations == 0;
        for m in &out.metrics {
            if wanted.contains(&m.name.as_str()) {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{name}/{}", m.name)
                };
                metrics.push(format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&key),
                    json_num(m.value),
                    json_str(m.unit)
                ));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
