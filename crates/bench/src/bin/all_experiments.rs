//! Runs the experiment battery (every table and figure, then the
//! design-choice ablations) and prints the results; set MINATO_FULL=1
//! for paper-length runs.
//!
//! ```text
//! all_experiments [NAME ...]
//! ```
//!
//! With no arguments every experiment runs, in paper order; with names
//! (`all_experiments fig07 fig12`) only those, in the order given. An
//! unknown name prints the list and exits 2.
use minato_bench::{Scale, EXPERIMENTS};

fn main() {
    let scale = Scale::from_env();
    let picked: Vec<String> = std::env::args().skip(1).collect();
    let mut runs: Vec<fn(Scale) -> String> = Vec::new();
    for name in &picked {
        match EXPERIMENTS.iter().find(|(n, _, _)| n == name) {
            Some((_, _, run)) => runs.push(*run),
            None => {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _, _)| *n).collect();
                eprintln!("unknown experiment {name:?} (known: {})", known.join(", "));
                std::process::exit(2);
            }
        }
    }
    if picked.is_empty() {
        runs.extend(EXPERIMENTS.iter().map(|(_, _, run)| *run));
    }
    for run in runs {
        println!("{}", run(scale));
    }
}
