//! Simulator-backed experiment harnesses reproducing every table and
//! figure of the paper's evaluation, plus the design-choice ablations.
//!
//! Each `fig*`/`tab*` function regenerates one artifact and returns the
//! rendered result (aligned table plus sparkline traces). [`EXPERIMENTS`]
//! lists them; the `all_experiments` binary, the crate's one entry
//! point, prints all or a named subset. `Scale::Full` reproduces
//! paper-length runs (Table 3 training lengths); `Scale::Quick` caps
//! batch counts so the whole battery finishes in seconds (shapes are
//! preserved — the simulator is deterministic). Only Figure 11a runs
//! the real threaded loaders, to compare accuracy under reordering;
//! measuring the real loader's performance is `benchmark/`'s job.

pub mod ablations;
pub mod alloc_counter;
pub mod experiments;
pub mod fig11_accuracy;

pub use experiments::*;

/// One table/figure generator: short name (the `all_experiments`
/// argument), title, generator.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> String);

/// Every table/figure generator, in paper order, then the ablations.
pub const EXPERIMENTS: [Experiment; 14] = [
    ("tab02", "Table 2", |_| tab02_preprocessing_stats()),
    ("fig02", "Figure 2", |_| fig02_variability()),
    ("fig01", "Figure 1b", fig01_pytorch_usage),
    ("fig03", "Figure 3", fig03_heuristics),
    ("fig04", "Figure 4", fig04_prefetch),
    ("fig07", "Figure 7", fig07_throughput),
    ("fig08", "Figure 8", fig08_usage),
    ("fig09", "Figure 9", fig09_scalability),
    ("fig10", "Figure 10", fig10_memory),
    ("fig11bc", "Figure 11b/c", fig11_batch_composition),
    ("fig11a", "Figure 11a", |s| {
        fig11_accuracy::fig11_accuracy(s == Scale::Quick)
    }),
    ("fig12", "Figure 12", fig12_slow_fraction),
    ("artifact_e1", "Artifact E1/E2", artifact_e1_e2),
    (
        "ablations",
        "Design-choice ablations",
        ablations::all_ablations,
    ),
];

/// Run length for the simulation harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-length runs (Table 3: 50 epochs / 1000 iterations).
    Full,
    /// Capped runs for CI.
    Quick,
}

impl Scale {
    /// Reads `MINATO_FULL=1` from the environment, defaulting to quick.
    pub fn from_env() -> Scale {
        if std::env::var_os("MINATO_FULL").is_some() {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Batch cap for this scale (0 = uncapped).
    pub fn cap(self, quick_cap: usize) -> usize {
        match self {
            Scale::Full => 0,
            Scale::Quick => quick_cap,
        }
    }
}
