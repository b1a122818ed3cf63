//! The run protocol for one workload in one process: reference outputs,
//! one discarded warm-up repetition, then the workload's frozen number of
//! repetitions with a fresh loader each. Every metric but the peak memory
//! (read once, after the warm-up) is computed per repetition and reported
//! as the median across repetitions (`setup_s`: the mean of their middle
//! half).

use crate::harness::{self, Mode, Reference, Rep};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Digest;
use crate::stats::{median, midmean, quartiles, spread};
use crate::sys;
use crate::workloads::Workload;
use minato_core::stats::LoaderStats;
use std::path::Path;

/// One metric as reported: the median across `n` repetitions (or rounds)
/// with its quartiles, and the per-repetition values behind them.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    pub values: Vec<f64>,
}

impl Measured {
    fn over(name: &'static str, values: Vec<f64>) -> Measured {
        let (q1, q3) = quartiles(&values);
        Measured {
            name,
            value: median(&values),
            q1,
            q3,
            n: values.len(),
            values,
        }
    }

    /// As [`Measured::over`], with the middle half's mean as the value.
    fn midmean_over(name: &'static str, values: Vec<f64>) -> Measured {
        Measured {
            value: midmean(&values),
            ..Measured::over(name, values)
        }
    }

    fn single(name: &'static str, value: f64) -> Measured {
        Measured::over(name, vec![value])
    }
}

/// What one process measured on one workload.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// `/proc/pressure/cpu` `some avg10` before and after the workload.
    pub cpu_pressure: (f64, f64),
    /// Share of all CPUs' time the host stole while the workload ran.
    pub cpu_steal_frac: f64,
    /// The same share within each measured repetition, in the order run;
    /// an untraced run's metrics leave out those above `QUIET_STEAL`.
    pub rep_steal_frac: Vec<f64>,
    /// Per probe: operations timed in each round.
    pub probe_ops: Vec<(&'static str, u64)>,
}

impl Outcome {
    /// The dictionary rows this outcome fills, in dictionary order.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The value reported for `name`. Every dictionary row has one: a
    /// missing metric is a bug in this file, not a property of a run.
    pub fn metric(&self, name: &str) -> &Measured {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }
}

/// Repetitions `1..=count`; the warm-up is repetition 0.
fn repeat(count: usize, rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    (1..=count).map(rep).collect()
}

/// `f` of every repetition.
fn column<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.into_iter().map(f).collect()
}

/// A repetition from which the host stole more than this share of all CPU
/// time says how busy the host was, not what the loader does: on
/// `noop_tax`, repetitions above 5 % read 130–220 k samples/s where the
/// others of the same run read 250–260 k.
const QUIET_STEAL: f64 = 0.02;

/// With fewer quiet repetitions than this, every repetition counts.
const MIN_QUIET: usize = 5;

/// The repetitions the end-to-end metrics are taken over: the quiet ones,
/// when there are enough of them. The host steals in bursts of a minute or
/// two, so most runs it touches still have quiet repetitions; without
/// this, three touched runs in ten are enough to put a metric's spread
/// past any bound.
fn quiet(reps: &[Rep]) -> Vec<&Rep> {
    let quiet: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.steal_frac <= QUIET_STEAL)
        .collect();
    if quiet.len() >= MIN_QUIET {
        quiet
    } else {
        reps.iter().collect()
    }
}

/// `f` of every repetition's final loader counters.
fn counters(reps: &[Rep], f: impl Fn(&LoaderStats) -> f64) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.stats.as_ref())
        .map(f)
        .collect()
}

/// `f` of every repetition's counters, per delivered sample.
fn per_sample(reps: &[Rep], f: impl Fn(&LoaderStats) -> f64) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| Some(f(r.stats.as_ref()?) / r.delivered.max(1) as f64))
        .collect()
}

/// `f` of every traced repetition's span digest.
fn digests(reps: &[Rep], f: impl Fn(&Digest) -> f64) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.digest.as_ref())
        .map(f)
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reference outputs and the warm-up repetition (pages in the code, sizes
/// the allocator's arenas). The warm-up is discarded for the timings, but
/// its outputs are checked like any other's, and the process's peak RSS
/// when it ends is `peak_rss_mb`: what a process that runs one loader
/// from start to exhaustion peaks at. Later repetitions add what dropped
/// loaders leave behind and what the allocator happens to retain.
fn start<W: Workload>(w: &W) -> (Reference, Rep, f64) {
    let reference = harness::reference(w);
    let warmup = harness::run_minato(w, &reference, Mode::Untraced, 0, None);
    (reference, warmup, sys::peak_rss_mb())
}

/// Operations attempted and failed over every repetition of a process.
fn tally<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> (u64, u64) {
    reps.into_iter().fold((0, 0), |(attempted, failed), r| {
        (attempted + r.attempted as u64, failed + r.failed)
    })
}

/// The untraced protocol: the four end-to-end metrics.
pub fn end_to_end<W: Workload>(w: &W) -> Outcome {
    let pressure_before = sys::cpu_pressure_avg10();
    let ticks_before = sys::cpu_ticks();
    let (reference, warmup, peak_rss_mb) = start(w);
    let reps = repeat(w.shape().reps, |i| {
        harness::run_minato(w, &reference, Mode::Untraced, i, None)
    });
    let kept = || quiet(&reps).into_iter();
    let metrics = vec![
        Measured::over("throughput_sps", column(kept(), |r| r.throughput_sps)),
        Measured::over("batch_wait_p95_ms", column(kept(), |r| r.wait_p95_ms)),
        Measured::single("peak_rss_mb", peak_rss_mb),
        // The first batch takes one of a few lengths (how many heavy
        // samples it holds), so a median would jump between them.
        Measured::midmean_over(
            "setup_s",
            column(kept(), |r| r.build_s + r.first_batch_ms / 1e3),
        ),
    ];
    let (attempted, failed) = tally(reps.iter().chain([&warmup]));
    Outcome {
        workload: w.shape().name,
        traced: false,
        attempted,
        failed,
        metrics,
        cpu_pressure: (pressure_before, sys::cpu_pressure_avg10()),
        cpu_steal_frac: sys::steal_frac(ticks_before, sys::cpu_ticks()),
        rep_steal_frac: column(&reps, |r| r.steal_frac),
        probe_ops: Vec::new(),
    }
}

/// The T rows: what the harness's spans say, over the wrapped repetitions.
fn span_metrics(wrapped: &[Rep]) -> Vec<Measured> {
    let row = |name, f: fn(&Digest) -> f64| Measured::over(name, digests(wrapped, f));
    vec![
        row("data.load_us_per_sample", |d| d.load_us_per_sample),
        row("transform.busy_us_per_sample", |d| d.busy_us_per_sample),
        row("transform.wasted_us_per_sample", |d| d.wasted_us_per_sample),
        row("transform.useful_frac", |d| d.useful_frac),
        row("transform.calls_per_sample", |d| d.calls_per_sample),
        row("balancer.interrupts_per_sample", |d| {
            d.interrupts_per_sample
        }),
        row("loader.residency_p50_ms", |d| d.residency_p50_ms),
        row("loader.wait_p50_ms", |d| d.wait_p50_ms),
    ]
}

/// The C rows: public counters and the harness's clock, over the untraced
/// repetitions of the traced run.
fn counter_metrics(plain: &[Rep]) -> Vec<Measured> {
    const MB: f64 = (1u64 << 20) as f64;
    let timeout_ms = |s: &LoaderStats| s.timeout.map_or(0.0, |t| t.as_secs_f64() * 1e3);
    vec![
        Measured::over("balancer.slow_frac", column(plain, |r| r.slow_frac)),
        Measured::over("balancer.timeout_ms", counters(plain, timeout_ms)),
        Measured::over(
            "queue.locks_per_sample",
            per_sample(plain, |s| s.queue_lock_acquisitions as f64),
        ),
        Measured::over(
            "queue.cas_retries_per_sample",
            per_sample(plain, |s| s.queue_cas_retries as f64),
        ),
        Measured::over("batch.fill_frac", column(plain, |r| r.fill_frac)),
        Measured::over(
            "batch.slow_per_batch_p95",
            column(plain, |r| r.slow_per_batch_p95),
        ),
        Measured::over("scheduler.workers_mean", column(plain, |r| r.workers_mean)),
        Measured::over(
            "exec.switches_per_ksample",
            per_sample(plain, |s| {
                s.exec.as_ref().map_or(0.0, |e| e.role_switches as f64) * 1e3
            }),
        ),
        Measured::over(
            "exec.steals_per_ksample",
            per_sample(plain, |s| {
                s.exec.as_ref().map_or(0.0, |e| e.steals as f64) * 1e3
            }),
        ),
        Measured::over(
            "cache.hit_rate",
            counters(plain, |s| s.cache.map_or(0.0, |c| c.hit_rate())),
        ),
        Measured::over(
            "cache.evictions_per_sample",
            per_sample(plain, |s| s.cache.map_or(0.0, |c| c.evictions as f64)),
        ),
        Measured::over(
            "cache.resident_mb",
            counters(plain, |s| s.cache.map_or(0.0, |c| c.bytes as f64 / MB)),
        ),
        Measured::over("cache.fill_epoch_sps", column(plain, |r| r.fill_epoch_sps)),
        Measured::over(
            "cache.steady_epoch_sps",
            column(plain, |r| r.steady_epoch_sps),
        ),
        Measured::over(
            "pool.hit_rate",
            counters(plain, |s| s.pool.map_or(0.0, |p| p.combined().hit_rate())),
        ),
        Measured::over(
            "pool.resident_mb",
            counters(plain, |s| {
                s.pool.map_or(0.0, |p| p.combined().bytes as f64 / MB)
            }),
        ),
        Measured::over(
            "loader.batch_wait_mean_ms",
            column(plain, |r| r.wait_mean_ms),
        ),
        Measured::over("loader.batch_wait_p50_ms", column(plain, |r| r.wait_p50_ms)),
        Measured::over(
            "loader.cpu_ms_per_ksample",
            column(plain, |r| r.cpu_ms_per_ksample),
        ),
        Measured::over("loader.build_ms", column(plain, |r| r.build_s * 1e3)),
        Measured::over("loader.first_batch_ms", column(plain, |r| r.first_batch_ms)),
        Measured::over("loader.shutdown_ms", column(plain, |r| r.shutdown_ms)),
        Measured::over(
            "loader.allocs_per_sample",
            column(plain, |r| r.allocs_per_sample),
        ),
        Measured::over(
            "loader.alloc_kb_per_sample",
            column(plain, |r| r.alloc_kb_per_sample),
        ),
        Measured::over("loader.threads", column(plain, |r| r.threads as f64)),
        Measured::over(
            "loader.delivery_p50_ms",
            counters(plain, |s| s.delivery_ms.median),
        ),
        Measured::over(
            "loader.delivery_p99_ms",
            counters(plain, |s| s.delivery_ms.p99),
        ),
        Measured::single(
            "loader.rep_spread_frac",
            spread(&column(plain, |r| r.throughput_sps)),
        ),
    ]
}

/// ROADMAP 1(c)'s reconciliation row, from a repetition that has both
/// views of one run: how much of a sample's median residency is covered
/// by neither the stages' medians (harness spans) nor the medians of the
/// queue waits on the path the median sample takes, fast queue then
/// batch queue (built-in tracer).
fn unexplained_frac(rep: &Rep) -> Option<f64> {
    let digest = rep.digest.as_ref()?;
    let latency = rep.stats.as_ref()?.latency.as_ref()?;
    let queue_wait_ms: f64 = latency
        .stages
        .iter()
        .filter(|s| s.stage == "fast_q_wait" || s.stage.starts_with("batch_q"))
        .map(|s| s.p50_ms)
        .sum();
    Some(ratio(
        digest.residency_p50_ms - digest.stage_p50_sum_ms - queue_wait_ms,
        digest.residency_p50_ms,
    ))
}

/// What tracing costs, what it drops and what it leaves unexplained.
fn trace_metrics(plain: &[Rep], wrapped: &[Rep], builtin: &[Rep]) -> Vec<Measured> {
    let sps = |reps: &[Rep]| median(&column(reps, |r| r.throughput_sps));
    let dropped = builtin
        .iter()
        .filter_map(|r| r.stats.as_ref()?.trace.as_ref())
        .map(|t| {
            let lost = t.total_dropped() as f64;
            ratio(lost, t.recorded as f64 + lost)
        })
        .collect();
    vec![
        Measured::single(
            "trace.harness_overhead_frac",
            1.0 - ratio(sps(wrapped), sps(plain)),
        ),
        Measured::single(
            "trace.builtin_overhead_frac",
            1.0 - ratio(sps(builtin), sps(wrapped)),
        ),
        Measured::over("trace.dropped_frac", dropped),
        Measured::over(
            "loader.unexplained_frac",
            builtin.iter().filter_map(unexplained_frac).collect(),
        ),
    ]
}

/// The traced protocol: every per-layer metric. Untraced repetitions
/// first (loader counters and the baseline for the overheads), then
/// repetitions with the harness's span wrappers, then with the wrappers
/// plus the loader's built-in tracer, one repetition of the torch
/// baseline, and the layer probes.
pub fn per_layer<W: Workload>(w: &W, trace_file: &Path) -> Outcome {
    let pressure_before = sys::cpu_pressure_avg10();
    let ticks_before = sys::cpu_ticks();
    let (reference, warmup, rss_one_loader) = start(w);
    let count = w.shape().traced_reps;
    let plain = repeat(count, |i| {
        harness::run_minato(w, &reference, Mode::Untraced, i, None)
    });
    let rss_growth = (sys::peak_rss_mb() - rss_one_loader) / count as f64;
    // The first wrapped repetition's spans are the ones written out.
    let mut file = Some(trace_file);
    let wrapped = repeat(count, |i| {
        harness::run_minato(w, &reference, Mode::Wrapped, i, file.take())
    });
    let builtin = repeat(count, |i| {
        harness::run_minato(w, &reference, Mode::WrappedBuiltin, i, None)
    });
    let torch = harness::run_torch(w, &reference, 1);
    let mut probes = probes::transform(w);
    probes.extend(probes::layers());

    let mut metrics = span_metrics(&wrapped);
    metrics.extend(counter_metrics(&plain));
    metrics.push(Measured::single("loader.rss_growth_mb_per_rep", rss_growth));
    metrics.extend(trace_metrics(&plain, &wrapped, &builtin));
    metrics.push(Measured::single(
        "baselines.torch_sps",
        torch.throughput_sps,
    ));
    metrics.push(Measured::single(
        "baselines.torch_batch_wait_p95_ms",
        torch.wait_p95_ms,
    ));
    metrics.push(Measured::single(
        "baselines.minato_over_torch",
        ratio(
            median(&column(&plain, |r| r.throughput_sps)),
            torch.throughput_sps,
        ),
    ));
    let probe_ops = probes.iter().map(|p| (p.name, p.ops)).collect();
    metrics.extend(probes.into_iter().map(|p| Measured {
        n: p.rounds,
        ..Measured::single(p.name, p.value)
    }));

    let every_rep = [&plain[..], &wrapped[..], &builtin[..]];
    let (attempted, failed) = tally(every_rep.into_iter().flatten().chain([&warmup, &torch]));
    Outcome {
        workload: w.shape().name,
        traced: true,
        attempted,
        failed,
        metrics,
        cpu_pressure: (pressure_before, sys::cpu_pressure_avg10()),
        cpu_steal_frac: sys::steal_frac(ticks_before, sys::cpu_ticks()),
        rep_steal_frac: column(&plain, |r| r.steal_frac),
        probe_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(steal: &[f64]) -> Vec<Rep> {
        let rep = |&steal_frac| Rep {
            steal_frac,
            ..Rep::default()
        };
        steal.iter().map(rep).collect()
    }

    #[test]
    fn stolen_repetitions_are_left_out_while_enough_quiet_ones_remain() {
        let mixed = reps(&[0.0, 0.3, 0.01, 0.02, 0.05, 0.0, 0.0]);
        let kept: Vec<f64> = column(quiet(&mixed), |r| r.steal_frac);
        assert_eq!(kept, [0.0, 0.01, 0.02, 0.0, 0.0]);
        let noisy = reps(&[0.0, 0.3, 0.01, 0.2, 0.05, 0.0, 0.1]);
        assert_eq!(quiet(&noisy).len(), noisy.len());
    }
}
