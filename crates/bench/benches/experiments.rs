//! `cargo bench` target that regenerates every paper table and figure.
//!
//! Not a criterion benchmark: the artifacts here are deterministic
//! simulator outputs, so a single run per experiment is exact. Set
//! `MINATO_FULL=1` for paper-length runs.

use minato_bench::*;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    let ablations: Experiment = ("ablations", "Ablations", ablations::all_ablations);
    for (_, title, run) in EXPERIMENTS.iter().chain([&ablations]) {
        let t0 = Instant::now();
        let out = run(scale);
        println!("==== {title} (regenerated in {:.2?}) ====", t0.elapsed());
        println!("{out}");
    }
}
