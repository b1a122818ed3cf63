//! # minato-trace
//!
//! Per-sample lifecycle tracing for the MinatoLoader runtime.
//!
//! `LoaderStats` can say *how fast* the loader runs; this crate answers
//! *where a sample's time went*. Every instrumented thread records
//! typed [`Event`]s — ticket claim, per-pipeline-step start/end, cache
//! and pool hit/miss, queue put/pop, slow-path defer/resume, batch
//! emit, delivery, executor role switches, fault hits — into its own
//! bounded lock-free SPSC [`EventRing`]. Recording is allocation-free
//! and never blocks: a full ring drops the event and counts the drop
//! (surfaced via [`TraceStats`], so loss is never silent).
//!
//! On the consuming side, a [`Collector`] folds events into
//! log-bucketed latency histograms per stage and produces a
//! [`LatencyBreakdown`] (p50/p95/p99 per pipeline step, per queue wait,
//! and end-to-end ticket→delivery), plus a Chrome/Perfetto
//! `trace.json` export ([`Collector::export_chrome_trace`]) that can be
//! opened at <https://ui.perfetto.dev>.
//!
//! The loader integrates all of this behind a single
//! `builder.trace(TraceConfig)` knob; the default configuration is
//! disabled and byte-identical to an untraced build.

pub mod collect;
pub mod event;
pub mod export;
pub mod json;
pub mod ring;
pub mod tracer;

pub use collect::{Collector, LatencyBreakdown, StageLatency};
pub use event::{Event, EventKind, KIND_COUNT};
pub use export::chrome_trace;
pub use ring::EventRing;
pub use tracer::{TraceStats, Tracer, WorkerTrace};

/// Events the loader's tracer buffers per worker ring before overflow
/// drops begin. The loader sizes the ring count from its own threads
/// (workers + consumers + slack).
pub const RING_CAPACITY: usize = 1 << 14;

/// Tracing knob for the loader builder.
///
/// The default is **disabled**: no tracer is constructed and every
/// record site compiles down to a skipped `Option` check, so behavior
/// is byte-identical to an untraced loader.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch; `false` means no tracer exists at all.
    pub enabled: bool,
    /// Raw events retained by the collector for the Perfetto export;
    /// 0 keeps histograms only.
    pub export_events: usize,
}

impl TraceConfig {
    /// Tracing on with a 64Ki-event export window — enough to open a
    /// short run in Perfetto.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            export_events: 1 << 16,
        }
    }

    /// Tracing on, histograms only (no raw-event retention): the
    /// cheapest always-on production setting.
    pub fn histograms_only() -> TraceConfig {
        TraceConfig {
            enabled: true,
            export_events: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert!(TraceConfig::on().enabled);
        assert!(TraceConfig::on().export_events > 0);
        assert_eq!(TraceConfig::histograms_only().export_events, 0);
    }
}
