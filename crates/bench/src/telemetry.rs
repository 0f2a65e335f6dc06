//! `--telemetry <path>` wiring for the figure/table binaries.
//!
//! Each sweep point hands its own [`Telemetry`] shards to a
//! [`crate::sweep::ShardSink`] (points share no mutable state, so shards
//! need no locking); the harness merges the shards **in point order**
//! after the sweep joins, wrapping each one in a
//! synthetic `sweep.point` span so the merged JSONL reads as one document.
//! Because the merge order is the point order — never the completion
//! order — the rendered bytes are identical for any `--jobs N` and for
//! either time-advance engine.

use gd_obs::{Telemetry, Trace, Value};
use gd_types::SimTime;
use std::io::Write as _;
use std::path::Path;

/// Writes `shards`, rendered by [`render_shards`], to `path` as one JSONL
/// file. Prints a warning (but does not fail the figure) if the write is
/// impossible.
pub(crate) fn write_shards(path: &Path, shards: &[(String, Option<Telemetry>)]) {
    let payload = render_shards(shards);
    let write = std::fs::File::create(path).and_then(|mut f| f.write_all(payload.as_bytes()));
    match write {
        Ok(()) => println!("[telemetry -> {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Renders labelled shards as one JSONL document, in slice order, each
/// wrapped in a synthetic `sweep.point` span (stamped at sim time zero:
/// the wrapper is structural, not temporal — each shard's own events carry
/// the real sim times).
#[must_use]
pub fn render_shards(shards: &[(String, Option<Telemetry>)]) -> String {
    let mut out = String::new();
    for (label, tele) in shards {
        let Some(tele) = tele else {
            continue;
        };
        let mut wrap = Trace::default();
        wrap.span_open(SimTime::ZERO, "sweep.point");
        wrap.render_jsonl(label, &mut out);
        out.push_str(&tele.render_jsonl(label));
        let mut wrap = Trace::default();
        wrap.span_close(
            SimTime::ZERO,
            "sweep.point",
            &[("events", Value::U64(tele.trace.events().len() as u64))],
        );
        wrap.render_jsonl(label, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_merge_in_slice_order_with_wrappers() {
        let mk = |n: u64| {
            let mut t = Telemetry::new();
            t.registry.counter_add("c", n);
            Some(t)
        };
        let out = render_shards(&[("p1".into(), mk(1)), ("p0".into(), mk(2))]);
        let lines: Vec<&str> = out.lines().collect();
        // p1 before p0: slice order wins, not label order.
        assert!(lines[0].contains("\"point\":\"p1\"") && lines[0].contains("sweep.point"));
        assert!(lines[1].contains("\"counter\"") && lines[1].contains("\"value\":1"));
        assert!(lines[2].contains("\"span_close\""));
        assert!(lines[3].contains("\"point\":\"p0\""));
        // Rendering twice is byte-identical.
        assert_eq!(
            out,
            render_shards(&[("p1".into(), mk(1)), ("p0".into(), mk(2))])
        );
    }

    #[test]
    fn none_shards_are_skipped() {
        let out = render_shards(&[("p0".into(), None), ("p1".into(), None)]);
        assert!(out.is_empty());
    }
}
