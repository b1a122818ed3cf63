//! The repo's gating benchmark. Drives the real `MinatoLoader` and the
//! real layer APIs from outside; see `README.md` for the protocol and the
//! metric dictionary.
//!
//! ```text
//! minato-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! minato-benchmark [--seed <n>]                   every workload, untraced and traced
//! minato-benchmark --selfcheck [--seed <n>]       the untraced protocol twice, compared
//! minato-benchmark --probes                       the layer probes only
//! ```
//!
//! A run measures a frozen amount of work (`Shape::reps` repetitions),
//! sized to take `run_seconds` of `BENCHMARK.json` on the commit that froze
//! it. `--seconds` is the driver's statement of that length: it is
//! recorded with the result and selects nothing.

mod harness;
mod metrics;
mod probes;
mod protocol;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use protocol::Outcome;
use std::process::ExitCode;
use workloads::{AudioCacheEpochs, ImgsegKernels, Noop, SpeechHol, Workload};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

enum Action {
    Run,
    Selfcheck,
    Probes,
}

pub struct Args {
    action: Action,
    workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        action: Action::Run,
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selfcheck" => args.action = Action::Selfcheck,
            "--probes" => args.action = Action::Probes,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn measure<W: Workload>(w: W, args: &Args) -> Outcome {
    if args.trace {
        let file = report::out_dir().join(format!("trace_{}.json", w.shape().name));
        protocol::per_layer(&w, &file)
    } else {
        protocol::end_to_end(&w)
    }
}

/// One workload in this process; prints the result the driver reads.
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed;
    let outcome = match name {
        ImgsegKernels::NAME => measure(ImgsegKernels::new(seed), args),
        SpeechHol::NAME => measure(SpeechHol::new(seed), args),
        Noop::TAX => measure(Noop::tax(seed), args),
        Noop::ORDERED => measure(Noop::ordered(seed), args),
        AudioCacheEpochs::NAME => measure(AudioCacheEpochs::new(seed), args),
        other => return Err(format!("unknown workload {other}")),
    };
    report::print(&outcome, args);
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("minato-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match (&args.action, &args.workload) {
        (Action::Probes, _) => {
            report::print_probes(&ImgsegKernels::new(args.seed));
            Ok(ExitCode::SUCCESS)
        }
        (Action::Selfcheck, _) => report::selfcheck(&args),
        (Action::Run, Some(name)) => run_one(name, &args),
        (Action::Run, None) => report::run_all(&args),
    };
    done.unwrap_or_else(|e| {
        eprintln!("minato-benchmark: {e}");
        ExitCode::from(2)
    })
}
