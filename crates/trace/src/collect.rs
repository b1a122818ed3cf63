//! Folding raw events into per-stage latency histograms.
//!
//! The collector is the single consumer of every worker ring. It runs
//! off the hot path (the loader's consumer, once per refresh interval,
//! or `stats()` / `export` calls) and is free to allocate. It folds events into
//! [`LogHistogram`]s:
//!
//! * pipeline step runtimes, from `StageEnd` durations, one histogram
//!   per step index,
//! * queue-wait times, by pairing each `QueuePut` with its `QueuePop`
//!   on `(queue id, seq)`,
//! * slow-path resume runtimes, from `SlowResume` durations,
//! * end-to-end ticket→delivery latency, from `Delivered` durations,
//!
//! and optionally retains a bounded window of raw events for the
//! Perfetto exporter.

use crate::event::{Event, EventKind, KIND_COUNT};
use crate::tracer::Tracer;
use minato_metrics::LogHistogram;
use std::collections::HashMap;

/// Latency distribution of one named stage, in milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct StageLatency {
    /// Stage label (pipeline step name, `<queue>_wait`, `slow_resume`,
    /// or `ticket_to_delivery`).
    pub stage: String,
    /// Observations folded into this stage.
    pub count: u64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// Where a sample's time goes: per-stage quantiles plus the end-to-end
/// ticket→delivery distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// One row per pipeline step, queue wait, and the slow-resume stage
    /// (stages that saw no events are omitted).
    pub stages: Vec<StageLatency>,
    /// Ticket issue → consumer pop, when any sample was delivered.
    pub end_to_end: Option<StageLatency>,
}

impl LatencyBreakdown {
    /// Looks up a stage row by label.
    pub fn stage(&self, name: &str) -> Option<&StageLatency> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

fn stage_row(name: &str, h: &LogHistogram) -> StageLatency {
    const MS: f64 = 1e6;
    StageLatency {
        stage: name.to_string(),
        count: h.count(),
        p50_ms: h.quantile(0.50).unwrap_or(0.0) / MS,
        p95_ms: h.quantile(0.95).unwrap_or(0.0) / MS,
        p99_ms: h.quantile(0.99).unwrap_or(0.0) / MS,
    }
}

/// Bound on outstanding put→pop pairings; beyond it new puts are
/// counted in [`Collector::unpaired`] instead of growing without limit.
const PENDING_CAP: usize = 1 << 16;

/// Single-consumer event folder. See the [module docs](self).
#[derive(Debug)]
pub struct Collector {
    stage_names: Vec<String>,
    queue_names: Vec<String>,
    stage_hist: Vec<LogHistogram>,
    queue_hist: Vec<LogHistogram>,
    resume_hist: LogHistogram,
    e2e_hist: LogHistogram,
    pending: HashMap<(u32, u64), u64>,
    unpaired: u64,
    kind_counts: [u64; KIND_COUNT],
    events_folded: u64,
    export: Vec<Event>,
    export_cap: usize,
    export_dropped: u64,
}

impl Collector {
    /// Creates a collector. `stage_names` label pipeline step indices,
    /// `queue_names` label queue ids; unknown indices get generated
    /// labels. `export_cap` bounds the raw events retained for the
    /// Perfetto exporter (0 disables retention).
    pub fn new(stage_names: Vec<String>, queue_names: Vec<String>, export_cap: usize) -> Collector {
        Collector {
            stage_names,
            queue_names,
            stage_hist: Vec::new(),
            queue_hist: Vec::new(),
            resume_hist: LogHistogram::new(),
            e2e_hist: LogHistogram::new(),
            pending: HashMap::new(),
            unpaired: 0,
            kind_counts: [0; KIND_COUNT],
            events_folded: 0,
            export: Vec::new(),
            export_cap,
            export_dropped: 0,
        }
    }

    /// Label for pipeline step `idx`.
    pub fn stage_name(&self, idx: usize) -> String {
        self.stage_names
            .get(idx)
            .cloned()
            .unwrap_or_else(|| format!("step{idx}"))
    }

    /// Label for queue id `idx`.
    pub fn queue_name(&self, idx: usize) -> String {
        self.queue_names
            .get(idx)
            .cloned()
            .unwrap_or_else(|| format!("queue{idx}"))
    }

    /// Folds one event into the histograms (and the export window).
    pub fn fold(&mut self, ev: Event) {
        self.events_folded += 1;
        self.kind_counts[ev.kind as usize] += 1;
        if self.export_cap > 0 {
            if self.export.len() < self.export_cap {
                self.export.push(ev);
            } else {
                self.export_dropped += 1;
            }
        }
        match ev.kind {
            EventKind::StageEnd => {
                let idx = ev.arg as usize;
                if idx >= self.stage_hist.len() {
                    self.stage_hist.resize(idx + 1, LogHistogram::new());
                }
                self.stage_hist[idx].record(ev.dur_ns);
            }
            EventKind::SlowResume => self.resume_hist.record(ev.dur_ns),
            EventKind::Delivered => self.e2e_hist.record(ev.dur_ns),
            EventKind::QueuePut => {
                if self.pending.len() < PENDING_CAP {
                    self.pending.insert((ev.arg, ev.seq), ev.ts_ns);
                } else {
                    self.unpaired += 1;
                }
            }
            EventKind::QueuePop => match self.pending.remove(&(ev.arg, ev.seq)) {
                Some(put_ts) => {
                    let idx = ev.arg as usize;
                    if idx >= self.queue_hist.len() {
                        self.queue_hist.resize(idx + 1, LogHistogram::new());
                    }
                    self.queue_hist[idx].record(ev.ts_ns.saturating_sub(put_ts));
                }
                None => self.unpaired += 1,
            },
            _ => {}
        }
    }

    /// Drains every ring of `tracer` into the histograms. Returns how
    /// many events were folded by this call.
    pub fn drain(&mut self, tracer: &Tracer) -> u64 {
        let before = self.events_folded;
        for ring in tracer.rings() {
            while let Some(words) = ring.pop() {
                if let Some(ev) = Event::unpack(words) {
                    self.fold(ev);
                }
            }
        }
        self.events_folded - before
    }

    /// Builds the per-stage latency breakdown from everything folded so
    /// far.
    pub fn breakdown(&self) -> LatencyBreakdown {
        let mut stages = Vec::new();
        for (i, h) in self.stage_hist.iter().enumerate() {
            if !h.is_empty() {
                stages.push(stage_row(&self.stage_name(i), h));
            }
        }
        for (i, h) in self.queue_hist.iter().enumerate() {
            if !h.is_empty() {
                stages.push(stage_row(&format!("{}_wait", self.queue_name(i)), h));
            }
        }
        if !self.resume_hist.is_empty() {
            stages.push(stage_row("slow_resume", &self.resume_hist));
        }
        let end_to_end =
            (!self.e2e_hist.is_empty()).then(|| stage_row("ticket_to_delivery", &self.e2e_hist));
        LatencyBreakdown { stages, end_to_end }
    }

    /// Per-kind event counts folded so far (indexed by
    /// [`EventKind`] discriminant).
    pub fn kind_counts(&self) -> &[u64; KIND_COUNT] {
        &self.kind_counts
    }

    /// Total events folded.
    pub fn events_folded(&self) -> u64 {
        self.events_folded
    }

    /// `QueuePut`s that never found space in the pairing map plus
    /// `QueuePop`s whose put was lost (e.g. ring overflow).
    pub fn unpaired(&self) -> u64 {
        self.unpaired
    }

    /// The retained raw events (bounded by `export_cap`).
    pub fn events(&self) -> &[Event] {
        &self.export
    }

    /// Events that did not fit the export window.
    pub fn export_dropped(&self) -> u64 {
        self.export_dropped
    }

    /// Renders the retained events as a Chrome/Perfetto `trace.json`
    /// string.
    pub fn export_chrome_trace(&self) -> String {
        crate::export::chrome_trace(&self.export, &self.stage_names, &self.queue_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, ts: u64, seq: u64, arg: u32, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            kind,
            worker: 0,
            epoch: 0,
            arg,
            seq,
            dur_ns: dur,
        }
    }

    fn collector() -> Collector {
        Collector::new(
            vec!["decode".into(), "augment".into()],
            vec!["temp_q".into(), "batch_q[0]".into()],
            1024,
        )
    }

    #[test]
    fn stage_ends_feed_per_step_histograms() {
        let mut c = collector();
        for i in 0..10 {
            c.fold(ev(EventKind::StageEnd, i * 100, i, 0, 1_000_000));
            c.fold(ev(EventKind::StageEnd, i * 100, i, 1, 4_000_000));
        }
        let b = c.breakdown();
        let decode = b.stage("decode").expect("decode row");
        let augment = b.stage("augment").expect("augment row");
        assert_eq!(decode.count, 10);
        assert!((0.5..2.1).contains(&decode.p50_ms), "{}", decode.p50_ms);
        assert!(augment.p50_ms > decode.p50_ms);
    }

    #[test]
    fn queue_waits_pair_put_with_pop() {
        let mut c = collector();
        c.fold(ev(EventKind::QueuePut, 1_000, 7, 0, 0));
        c.fold(ev(EventKind::QueuePop, 2_001_000, 7, 0, 0));
        let b = c.breakdown();
        let wait = b.stage("temp_q_wait").expect("temp_q_wait row");
        assert_eq!(wait.count, 1);
        assert!((1.0..4.1).contains(&wait.p50_ms), "{}", wait.p50_ms);
        assert_eq!(c.unpaired(), 0);
    }

    #[test]
    fn orphan_pop_counts_unpaired() {
        let mut c = collector();
        c.fold(ev(EventKind::QueuePop, 500, 9, 0, 0));
        assert_eq!(c.unpaired(), 1);
        assert!(c.breakdown().stage("temp_q_wait").is_none());
    }

    #[test]
    fn delivered_builds_end_to_end_row() {
        let mut c = collector();
        assert!(c.breakdown().end_to_end.is_none());
        for seq in 0..5 {
            c.fold(ev(EventKind::Delivered, 1_000_000, seq, 0, 8_000_000));
        }
        let e2e = c.breakdown().end_to_end.expect("e2e row");
        assert_eq!(e2e.stage, "ticket_to_delivery");
        assert_eq!(e2e.count, 5);
        assert!((4.0..16.1).contains(&e2e.p99_ms), "{}", e2e.p99_ms);
    }

    #[test]
    fn export_window_is_bounded() {
        let mut c = Collector::new(Vec::new(), Vec::new(), 4);
        for i in 0..10 {
            c.fold(ev(EventKind::CacheHit, i, i, 0, 0));
        }
        assert_eq!(c.events().len(), 4);
        assert_eq!(c.export_dropped(), 6);
        assert_eq!(c.kind_counts()[EventKind::CacheHit as usize], 10);
        assert_eq!(c.events_folded(), 10);
    }

    #[test]
    fn unknown_indices_get_generated_labels() {
        let mut c = Collector::new(Vec::new(), Vec::new(), 0);
        c.fold(ev(EventKind::StageEnd, 0, 0, 3, 100));
        c.fold(ev(EventKind::QueuePut, 0, 1, 2, 0));
        c.fold(ev(EventKind::QueuePop, 10, 1, 2, 0));
        let b = c.breakdown();
        assert!(b.stage("step3").is_some());
        assert!(b.stage("queue2_wait").is_some());
    }
}
