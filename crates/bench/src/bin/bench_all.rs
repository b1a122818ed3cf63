//! Emits the standing `BENCH_<workload>.json` perf trajectory.
//!
//! ```text
//! bench_all [--smoke] [--out DIR] [WORKLOAD ...]
//! ```
//!
//! With no workload arguments every canonical workload runs. `--smoke`
//! caps run lengths for CI; `--out` picks the output directory
//! (default: current directory). Registers the counting global
//! allocator so `allocs_per_sample` is real. Exits 1 when a workload
//! is unknown, a report cannot be written, or *any* thread panicked —
//! a loader contains worker panics, so without the count a broken run
//! would still exit 0.

#[global_allocator]
static ALLOC: minato_bench::alloc_counter::CountingAlloc =
    minato_bench::alloc_counter::CountingAlloc;

use minato_bench::bench_all::{run_workload, WORKLOADS};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static PANICS: AtomicUsize = AtomicUsize::new(0);

fn main() {
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::Relaxed);
        report_panic(info);
    }));
    let mut smoke = false;
    let mut out_dir = PathBuf::from(".");
    let mut picked: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                };
                out_dir = PathBuf::from(dir);
            }
            "--help" | "-h" => {
                println!("usage: bench_all [--smoke] [--out DIR] [WORKLOAD ...]");
                println!("workloads: {}", WORKLOADS.join(", "));
                return;
            }
            w => picked.push(w.to_string()),
        }
    }
    let names: Vec<String> = if picked.is_empty() {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        picked
    };
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let mut failed = false;
    for name in &names {
        let Some(report) = run_workload(name, smoke) else {
            eprintln!(
                "unknown workload {name:?} (known: {})",
                WORKLOADS.join(", ")
            );
            failed = true;
            continue;
        };
        let path = out_dir.join(report.filename());
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            failed = true;
            continue;
        }
        println!(
            "{:<18} {:>6} samples  {:>8.0} samples/s  p50 {:>7.2} ms  p99 {:>7.2} ms  \
             locks/sample {:>5.2}  allocs/sample {:>6.1}  -> {}",
            report.workload,
            report.samples,
            report.throughput_sps,
            report.delivery_p50_ms,
            report.delivery_p99_ms,
            report.locks_per_sample,
            report.allocs_per_sample,
            path.display()
        );
    }
    let panics = PANICS.load(Ordering::Relaxed);
    if panics > 0 {
        eprintln!("{panics} thread panic(s) during the run");
    }
    if failed || panics > 0 {
        std::process::exit(1);
    }
}
