//! gd-obs: deterministic telemetry for the GreenDIMM reproduction.
//!
//! Two sinks, one owner:
//!
//! * a metrics [`Registry`] — monotonic counters, point-in-time gauges, and
//!   sim-time-weighted residency histograms (per-rank power-state residency,
//!   per-group deep power-down dwell, errno tallies, …),
//! * a structured [`Trace`] — sim-time-stamped events with span-style
//!   open/close scopes around daemon ticks, hotplug operations, and sweep
//!   points, rendered as JSONL.
//!
//! Both live inside a [`Telemetry`] handle that simulation code carries as
//! an `Option<&mut Telemetry>`: when telemetry is off the option is `None`
//! and the hot path pays a single branch, no allocation. Figures shard one
//! `Telemetry` per sweep point and merge the shards in point-index order,
//! so the rendered output is identical for any `--jobs N`.
//!
//! # Determinism rules (gd-lint-enforced)
//!
//! * No wall clock: every timestamp is a [`SimTime`] from the simulation.
//! * No hash-order: all keyed state is `BTreeMap`; rendering iterates in
//!   key order or append order only.
//! * Float rendering uses Rust's shortest-roundtrip `Display`, which is
//!   platform-independent.
//!
//! # Example
//!
//! ```
//! use gd_obs::{Telemetry, Value};
//! use gd_types::SimTime;
//!
//! let mut tele = Telemetry::new();
//! tele.trace.span_open(SimTime::from_secs(1), "daemon.tick");
//! tele.registry.counter_add("daemon.offline_events", 2);
//! tele.registry
//!     .residency_add("dram.ch0.rank0", "SelfRefresh", 800);
//! tele.trace.span_close(
//!     SimTime::from_secs(1),
//!     "daemon.tick",
//!     &[("offlined", Value::U64(2))],
//! );
//! let out = tele.render_jsonl("point0");
//! assert!(out.lines().count() >= 4);
//! ```

pub mod registry;
pub mod trace;

pub use registry::{Registry, ResidencyHist};
pub use trace::{Trace, TraceEvent, TraceKind, Value};

use gd_types::SimTime;

/// One telemetry sink: a metrics registry plus an event trace.
///
/// Simulation code takes `Option<&mut Telemetry>`; bench harnesses create
/// one shard per sweep point and merge with [`Telemetry::render_jsonl`]
/// in point-index order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// Counters, gauges, and residency histograms.
    pub registry: Registry,
    /// Sim-time-stamped structured events.
    pub trace: Trace,
}

impl Telemetry {
    /// Creates an empty telemetry sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span and returns a guard-free marker: callers close with
    /// [`Trace::span_close`] under the same name. Convenience forwarder.
    pub fn span_open(&mut self, now: SimTime, name: &str) {
        self.trace.span_open(now, name);
    }

    /// Closes a span with attached fields. Convenience forwarder.
    pub fn span_close(&mut self, now: SimTime, name: &str, fields: &[(&str, Value)]) {
        self.trace.span_close(now, name, fields);
    }

    /// Renders the whole sink as JSONL: trace events in append order
    /// (which is sim order, since producers append as simulation
    /// advances), then metrics in sorted key order. Every line carries
    /// `point` so merged shards stay attributable.
    #[must_use]
    pub fn render_jsonl(&self, point: &str) -> String {
        let mut out = String::new();
        self.trace.render_jsonl(point, &mut out);
        self.registry.render_jsonl(point, &mut out);
        out
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_ordered() {
        let build = || {
            let mut t = Telemetry::new();
            t.registry.counter_add("z.last", 1);
            t.registry.counter_add("a.first", 2);
            t.registry.gauge_set("mid.gauge", 0.5);
            t.trace.span_open(SimTime::from_nanos(10), "tick");
            t.trace
                .span_close(SimTime::from_nanos(20), "tick", &[("n", Value::U64(3))]);
            t
        };
        let a = build().render_jsonl("p");
        let b = build().render_jsonl("p");
        assert_eq!(a, b);
        // Trace lines precede metric lines; counters render sorted.
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"span_open\""));
        assert!(lines[1].contains("\"span_close\""));
        let a_pos = a.find("a.first").unwrap();
        let z_pos = a.find("z.last").unwrap();
        assert!(a_pos < z_pos, "counters must render in key order");
    }

    #[test]
    fn escape_json_handles_controls() {
        let mut s = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn empty_sink_renders_empty() {
        assert_eq!(Telemetry::new().render_jsonl("p"), "");
    }
}
