#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
//! Observability tooling over the simulator's causal spans (`fractos-sim`'s
//! [`fractos_sim::SpanRecord`]): latency attribution, Chrome-trace export and
//! machine-readable benchmark telemetry.
//!
//! Everything here is a pure function of recorded data — nothing in this
//! crate touches wall clocks, environment randomness or the simulation RNG,
//! so identical span/metric inputs always produce byte-identical output.
//! JSON is serialized with the in-tree writer in [`json`] (the build
//! environment has no crates.io access, and a hand-rolled writer keeps the
//! byte-level output under our control).

#![warn(missing_docs)]

pub mod chrome;
pub mod critical;
pub mod json;
pub mod snapshot;
pub mod telemetry;

pub use chrome::chrome_trace;
pub use critical::{aggregate, analyze, PhaseBreakdown, PhaseTotals};
pub use json::Json;
pub use snapshot::{HistSummary, MetricsSnapshot};
pub use telemetry::{Series, SeriesKind, TelemetryReport, WindowValue};

/// Destination for trace export, parsed from the `FRACTOS_TRACE`
/// environment variable. Currently one scheme: `chrome:<path>` writes a
/// Chrome Trace Event / Perfetto JSON file to `<path>`.
///
/// Returns `None` when the variable is unset or names an unknown scheme.
pub fn chrome_trace_path() -> Option<String> {
    let v = std::env::var("FRACTOS_TRACE").ok()?;
    v.strip_prefix("chrome:").map(str::to_string)
}
