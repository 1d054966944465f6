//! Chrome trace-event / Perfetto JSON export.
//!
//! Renders a [`SpanSnapshot`] into the Chrome trace-event JSON format that
//! <https://ui.perfetto.dev> and `chrome://tracing` load directly:
//!
//! - every span track (virtual host) becomes a Perfetto *process* row
//!   and every lane (grid process / daemon) a *thread* row under it,
//!   with `"X"` complete events for the spans themselves and `"i"`
//!   instant ticks for marks, each on its own host row;
//! - resolved flow edges become `"s"`/`"f"` flow arrows from the
//!   producing span to the consuming span.
//!
//! The output is hand-rolled (no serde), sharing its string escaper with
//! [`crate::span::SpanSnapshot::write_json_lines`]: identical inputs produce
//! byte-identical strings, which the golden-file test in
//! `tests/perfetto.rs` pins.
//! Timestamps are microseconds (the trace-event unit) formatted as
//! exact `ns/1000` decimals with three fractional digits — no floats.

use std::collections::BTreeMap;

use crate::span::{JsonStr, SpanSnapshot};

/// Nanoseconds rendered as trace-event microseconds (`"12.345"`).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Build the complete Chrome trace-event JSON document.
///
/// The result is a pure function of the snapshot: same snapshot, same
/// bytes.
pub fn export(snap: &SpanSnapshot) -> String {
    // Deterministic pid/tid assignment: tracks sorted by name, lanes
    // sorted within each track, both 1-based.
    let mut tracks: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for s in &snap.spans {
        tracks
            .entry(s.track.as_ref())
            .or_default()
            .insert(s.lane.as_ref(), 0);
    }
    let mut pid_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (p, (track, lanes)) in tracks.iter_mut().enumerate() {
        pid_of.insert(track, p + 1);
        for (t, tid) in lanes.values_mut().enumerate() {
            *tid = t + 1;
        }
    }

    let mut recs: Vec<String> = Vec::new();

    // Metadata: process and thread names.
    for (track, lanes) in &tracks {
        let pid = pid_of[track];
        recs.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            JsonStr(track)
        ));
        for (lane, tid) in lanes {
            recs.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                JsonStr(lane)
            ));
        }
    }
    // Span slices and mark ticks, in record order.
    for s in &snap.spans {
        let Some(end) = s.end else { continue };
        let pid = pid_of[s.track.as_ref()];
        let tid = tracks[s.track.as_ref()][s.lane.as_ref()];
        let args = if s.detail.is_empty() {
            format!("{{\"span\":{}}}", s.id.get())
        } else {
            format!(
                "{{\"span\":{},\"detail\":\"{}\"}}",
                s.id.get(),
                JsonStr(&s.detail)
            )
        };
        if s.mark {
            recs.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                JsonStr(s.name),
                s.cat.name(),
                ts_us(s.begin.as_nanos()),
            ));
            continue;
        }
        recs.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
            JsonStr(s.name),
            s.cat.name(),
            ts_us(s.begin.as_nanos()),
            ts_us(end.as_nanos().saturating_sub(s.begin.as_nanos())),
        ));
    }

    // Flow arrows: anchored at the producer's begin ("s") and bound to
    // the slice enclosing the consumer's end ("f" with bp:"e").
    for (i, f) in snap.flows.iter().enumerate() {
        let (Some(from), Some(to)) = (snap.span(f.from), snap.span(f.to)) else {
            continue;
        };
        let Some(to_end) = to.end else { continue };
        if from.end.is_none() {
            continue;
        }
        let id = i + 1;
        recs.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{},\"pid\":{},\"tid\":{}}}",
            f.class,
            ts_us(from.begin.as_nanos()),
            pid_of[from.track.as_ref()],
            tracks[from.track.as_ref()][from.lane.as_ref()],
        ));
        recs.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{},\"pid\":{},\"tid\":{}}}",
            f.class,
            ts_us(to_end.as_nanos()),
            pid_of[to.track.as_ref()],
            tracks[to.track.as_ref()][to.lane.as_ref()],
        ));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, r) in recs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(r);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::span::SpanStore;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample() -> SpanSnapshot {
        let st = SpanStore::new();
        st.set_enabled(true);
        let a = st.begin(
            t(1_000),
            None,
            Category::Sched,
            "quantum",
            "alpha0",
            "mg.A",
            "cpu",
        );
        st.end(t(11_500), a);
        let b = st.begin(
            t(2_000),
            None,
            Category::Vsock,
            "vsock_recv",
            "beta0",
            "mg.B",
            String::new(),
        );
        let c = st.begin(
            t(11_500),
            Some(a),
            Category::Vsock,
            "vsock_send",
            "alpha0",
            "mg.A",
            "beta0:19",
        );
        st.flow_out("msg", "alpha0", "beta0:19", c);
        st.flow_in("msg", "alpha0", "beta0:19", b);
        st.end(t(14_000), b);
        st.end(t(15_000), c);
        st.snapshot()
    }

    #[test]
    fn export_is_byte_stable_and_shapes_right() {
        let snap = sample();
        let one = export(&snap);
        let two = export(&snap);
        assert_eq!(one, two);
        // pids follow sorted track order: alpha0=1, beta0=2.
        assert!(one.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"alpha0\"}}"
        ));
        assert!(one.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":10.500,\"pid\":1,\"tid\":1"));
        // One flow pair, producer anchored at the send begin.
        assert!(one.contains("\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,\"ts\":11.500,\"pid\":1"));
        assert!(one.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"ts\":14.000,\"pid\":2"));
    }

    #[test]
    fn marks_render_as_instant_ticks_on_their_host_rows() {
        let st = SpanStore::new();
        st.set_enabled(true);
        st.mark(
            t(7_250),
            Category::Mem,
            "mem_deny",
            "beta0",
            "mem",
            "requested=9",
        );
        let out = export(&st.snapshot());
        assert!(out.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"beta0\"}}"
        ));
        assert!(out.contains(
            "{\"name\":\"mem_deny\",\"cat\":\"mem\",\"ph\":\"i\",\"s\":\"t\",\"ts\":7.250,\"pid\":1,\"tid\":1,\
             \"args\":{\"span\":1,\"detail\":\"requested=9\"}}"
        ));
        assert!(!out.contains("\"ph\":\"X\""));
    }
}
