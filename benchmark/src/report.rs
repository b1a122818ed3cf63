//! Printing results, and the modes that run every workload: each in its
//! own child process, so `VmHWM` is per workload.

use crate::metrics::{END_TO_END, UNGATED, WORKLOADS};
use crate::probes;
use crate::protocol::Outcome;
use crate::sys::{self, Fingerprint};
use crate::workloads::Workload;
use crate::Args;
use minato_trace::json::{self, JsonValue};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Where result and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    sys::package_dir().join("out")
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; a value that is not finite (a ratio over nothing
/// measured) is reported as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn fingerprint_json(f: &Fingerprint) -> String {
    format!(
        "{{\"nproc\":{},\"cpu_model\":\"{}\",\"kernel\":\"{}\",\"rustc\":\"{}\",\
         \"git_sha\":\"{}\",\"queue_core\":\"{}\"}}",
        f.nproc,
        esc(&f.cpu_model),
        esc(&f.kernel),
        esc(&f.rustc),
        esc(&f.git_sha),
        esc(&f.queue_core)
    )
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
fn contract_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .defs()
        .iter()
        .map(|d| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                d.name,
                num(o.metric(d.name).value),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// Everything about one outcome, for `out/`: the contract's fields plus
/// quartiles, repetition counts, probe operation counts and where and
/// under what CPU pressure it was measured.
fn detail_json(o: &Outcome, args: &Args, f: &Fingerprint) -> String {
    let metrics: Vec<String> = o
        .defs()
        .iter()
        .map(|d| {
            let m = o.metric(d.name);
            let values: Vec<String> = m.values.iter().map(|v| num(*v)).collect();
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"q1\":{},\"q3\":{},\"n\":{},\
                 \"values\":[{}]}}",
                d.name,
                num(m.value),
                d.unit,
                num(m.q1),
                num(m.q3),
                m.n,
                values.join(",")
            )
        })
        .collect();
    let rep_steal: Vec<String> = o.rep_steal_frac.iter().map(|v| num(*v)).collect();
    let ops: Vec<String> = o
        .probe_ops
        .iter()
        .map(|(name, ops)| format!("\"{name}\":{ops}"))
        .collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"fingerprint\":{},\
         \"cpu_pressure_some_avg10\":{{\"before\":{},\"after\":{}}},\
         \"cpu_steal_frac\":{},\"rep_steal_frac\":[{}],\"correct\":{},\
         \"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"probe_ops_per_round\":{{{}}}}}",
        o.workload,
        args.seed,
        num(args.seconds),
        u8::from(o.traced),
        fingerprint_json(f),
        num(o.cpu_pressure.0),
        num(o.cpu_pressure.1),
        num(o.cpu_steal_frac),
        rep_steal.join(","),
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(","),
        ops.join(",")
    )
}

fn detail_file(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "layers" } else { "end_to_end" };
    out_dir().join(format!("{workload}_{kind}.json"))
}

/// Prints one outcome: a table for people, then the contract's line last.
/// The full detail goes to `out/`.
pub fn print(o: &Outcome, args: &Args) {
    let f = Fingerprint::capture();
    println!(
        "# {} seed {} | {} cores, {}, kernel {}, {}, git {}, queue core {} | \
         cpu pressure some avg10 {} -> {}, stolen {:.1}%",
        o.workload,
        args.seed,
        f.nproc,
        f.cpu_model,
        f.kernel,
        f.rustc,
        f.git_sha,
        f.queue_core,
        o.cpu_pressure.0,
        o.cpu_pressure.1,
        o.cpu_steal_frac * 100.0
    );
    println!(
        "{:<40} {:>14} {:<6} {:<6} {:>14} {:>14} {:>3}",
        "metric", "median", "unit", "better", "q1", "q3", "n"
    );
    for d in o.defs() {
        let m = o.metric(d.name);
        println!(
            "{:<40} {:>14.4} {:<6} {:<6} {:>14.4} {:>14.4} {:>3}",
            d.name,
            m.value,
            d.unit,
            d.better.as_str(),
            m.q1,
            m.q3,
            m.n
        );
    }
    println!("operations: {} attempted, {} failed", o.attempted, o.failed);
    if !o.traced {
        println!(
            "repetitions: {} run, {} of them used (see `n`)",
            o.rep_steal_frac.len(),
            o.metric("throughput_sps").n
        );
    }
    let path = detail_file(o.workload, o.traced);
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, detail_json(o, args, &f) + "\n"));
    if let Err(e) = written {
        eprintln!("minato-benchmark: cannot write {}: {e}", path.display());
    }
    println!("{}", contract_line(o));
}

/// `--probes`: the layer probes alone, with their operation counts.
pub fn print_probes<W: Workload>(w: &W) {
    let mut all = probes::transform(w);
    all.extend(probes::layers());
    println!("{:<40} {:>14} {:>10}", "probe", "median", "ops/round");
    for p in all {
        println!("{:<40} {:>14.3} {:>10}", p.name, p.value, p.ops);
    }
}

/// Runs this program again for one workload and returns the detail record
/// it wrote to `out/`. The child's table goes to this process's stdout;
/// its last line, the driver's, is dropped.
fn child(workload: &str, args: &Args, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stdout = stdout.trim_end();
    println!(
        "{}",
        stdout.rsplit_once('\n').map_or("", |(table, _)| table)
    );
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let path = detail_file(workload, traced);
    let detail = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(detail.trim_end().to_string())
}

/// No `--workload`: every workload, gated or not, untraced then traced,
/// and one `out/report.json` holding all ten detail records.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut records = Vec::new();
    for (workload, _) in WORKLOADS.iter().chain(UNGATED) {
        for traced in [false, true] {
            records.push(child(workload, args, traced)?);
        }
    }
    let report = out_dir().join("report.json");
    std::fs::write(&report, format!("[\n{}\n]\n", records.join(",\n")))
        .map_err(|e| format!("cannot write {}: {e}", report.display()))?;
    println!("wrote {}", report.display());
    Ok(ExitCode::SUCCESS)
}

/// `--selfcheck`: the untraced protocol of every gated workload twice back
/// to back on the same build. Fails when an end-to-end metric's two
/// medians differ, in either direction, by more than the metric's own
/// bound — which is how the bounds and repetition sizes were validated. A
/// pair in which the host stole more than `CONTENDED_STEAL` per cent of the
/// CPU from either run says nothing about the benchmark and is run again,
/// at most twice; each row shows what was stolen from the pair it reports.
pub fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    const CONTENDED_STEAL: f64 = 2.0;
    let mut flapped = 0;
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let run =
            || json::parse(&child(workload, args, false)?).map_err(|e| format!("{workload}: {e}"));
        let stolen = |detail: &JsonValue| {
            detail
                .get("cpu_steal_frac")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                * 100.0
        };
        let (mut first, mut second) = (run()?, run()?);
        for _ in 0..2 {
            if stolen(&first).max(stolen(&second)) <= CONTENDED_STEAL {
                break;
            }
            println!("{workload}: the host stole CPU from that pair; again");
            (first, second) = (run()?, run()?);
        }
        for def in END_TO_END {
            let read = |detail: &JsonValue| {
                detail
                    .get("metrics")
                    .and_then(|m| m.get(def.name)?.get("value")?.as_f64())
                    .ok_or(format!("{workload}: no {} in result", def.name))
            };
            let (a, b) = (read(&first)?, read(&second)?);
            let apart = (a - b).abs() / a.abs().min(b.abs());
            let bound = def.bound.unwrap_or(0.0);
            let ok = apart <= bound;
            flapped += usize::from(!ok);
            rows.push(format!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>7.1}% {:>6.1}% {:>5.1}% {:>5.1}% {}",
                workload,
                def.name,
                a,
                b,
                apart * 100.0,
                bound * 100.0,
                stolen(&first),
                stolen(&second),
                if ok { "ok" } else { "FLAPS" }
            ));
        }
    }
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>7} {:>13}",
        "workload", "metric", "first", "second", "apart", "bound", "CPU stolen"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if flapped == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{flapped} metric(s) moved by more than their bound between identical runs");
        ExitCode::FAILURE
    })
}
