//! Chrome/Perfetto `trace.json` export.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev): a JSON object with a
//! `traceEvents` array of complete (`"ph":"X"`) events. Every span
//! carries `pid`/`tid`/`ts`/`dur`/`name`; duration-bearing events
//! (`stage`, `slow_resume`, `delivered`) become real spans anchored at
//! their start (`ts = end - dur`), instants become zero-duration spans.
//! Timestamps are microseconds, as the format requires.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{Event, EventKind};

/// Escapes a string for embedding inside a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xF;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

fn label(ev: &Event, stage_names: &[String], queue_names: &[String], out: &mut String) {
    let base = ev.kind.name();
    match ev.kind {
        EventKind::StageStart | EventKind::StageEnd => {
            escape_into(out, base);
            out.push(':');
            match stage_names.get(ev.arg as usize) {
                Some(n) => escape_into(out, n),
                None => {
                    out.push_str("step");
                    out.push_str(&ev.arg.to_string());
                }
            }
        }
        EventKind::QueuePut | EventKind::QueuePop => {
            escape_into(out, base);
            out.push(':');
            match queue_names.get(ev.arg as usize) {
                Some(n) => escape_into(out, n),
                None => {
                    out.push_str("queue");
                    out.push_str(&ev.arg.to_string());
                }
            }
        }
        _ => escape_into(out, base),
    }
}

/// Renders `events` as a Chrome/Perfetto trace JSON string.
///
/// `stage_names` and `queue_names` label the `arg` indices of stage and
/// queue events; missing labels fall back to `stepN`/`queueN`.
pub fn chrome_trace(events: &[Event], stage_names: &[String], queue_names: &[String]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur_us = ev.dur_ns as f64 / 1_000.0;
        // Anchor duration-bearing events at their start so they render
        // as spans covering the time they actually took.
        let ts_us = ev.ts_ns.saturating_sub(ev.dur_ns) as f64 / 1_000.0;
        out.push_str("{\"pid\":1,\"tid\":");
        out.push_str(&u32::from(ev.worker).to_string());
        out.push_str(",\"ph\":\"X\",\"ts\":");
        out.push_str(&format!("{ts_us:.3}"));
        out.push_str(",\"dur\":");
        out.push_str(&format!("{dur_us:.3}"));
        out.push_str(",\"name\":\"");
        label(ev, stage_names, queue_names, &mut out);
        out.push_str("\",\"args\":{\"seq\":");
        out.push_str(&ev.seq.to_string());
        out.push_str(",\"epoch\":");
        out.push_str(&ev.epoch.to_string());
        out.push_str(",\"arg\":");
        out.push_str(&ev.arg.to_string());
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn ev(kind: EventKind, ts: u64, dur: u64, arg: u32) -> Event {
        Event {
            ts_ns: ts,
            kind,
            worker: 2,
            epoch: 1,
            arg,
            seq: 42,
            dur_ns: dur,
        }
    }

    #[test]
    fn export_is_valid_json_with_required_span_fields() {
        let events = vec![
            ev(EventKind::TicketClaimed, 1_000, 0, 0),
            ev(EventKind::StageEnd, 900_000, 800_000, 0),
            ev(EventKind::QueuePut, 1_000_000, 0, 1),
            ev(EventKind::Delivered, 5_000_000, 4_900_000, 0),
        ];
        let json = chrome_trace(
            &events,
            &["decode\"weird\\name".to_string()],
            &["fast_q".to_string(), "slow_q".to_string()],
        );
        let v = parse(&json).expect("exporter must emit valid JSON");
        let spans = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        assert_eq!(spans.len(), 4);
        for span in spans {
            for key in ["pid", "tid", "ts", "dur", "name"] {
                assert!(span.get(key).is_some(), "span missing {key}: {span:?}");
            }
        }
        // Duration-bearing event is anchored at start: ts = end - dur.
        let stage = &spans[1];
        let ts = stage.get("ts").and_then(JsonValue::as_f64).expect("ts");
        let dur = stage.get("dur").and_then(JsonValue::as_f64).expect("dur");
        assert!((ts - 100.0).abs() < 1e-9, "ts={ts}");
        assert!((dur - 800.0).abs() < 1e-9, "dur={dur}");
        let name = stage.get("name").and_then(JsonValue::as_str).expect("name");
        assert_eq!(name, "stage:decode\"weird\\name");
    }

    #[test]
    fn empty_event_list_exports_empty_array() {
        let json = chrome_trace(&[], &[], &[]);
        let v = parse(&json).expect("valid JSON");
        let spans = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        assert!(spans.is_empty());
    }
}
