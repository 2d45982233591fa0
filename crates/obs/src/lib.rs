//! `simpadv-obs`: trace analysis and the performance-regression
//! observatory.
//!
//! Layered on the `simpadv-trace` event schema, this crate turns a flat
//! JSONL trace back into knowledge:
//!
//! * [`reader`] — strict JSONL loading with truncation-aware typed
//!   errors ([`ObsError`]): a torn final line, an empty trace, and
//!   unbalanced span pairs all degrade into diagnosable failures.
//! * [`collector`] — cross-process campaign assembly: stitches the
//!   per-attempt and orchestrator traces a `sweep --trace-dir` campaign
//!   leaves behind into one rooted span tree (remote-parent links,
//!   orphan markers for cells killed before their first flush), plus
//!   the attempt-merging logical projection under which an interrupted
//!   and resumed campaign is byte-identical to an uninterrupted one.
//! * [`tree`] — span-tree reconstruction from `span_open`/`span_close`
//!   nesting, per-span **total** vs **self** cost attribution (wall
//!   microseconds plus the logical clock counters), and the hot-spot
//!   table behind `trace top`.
//! * [`flame`] — inferno-compatible collapsed-stack flamegraph output
//!   (`trace flame`), self-weighted so stack weights telescope to the
//!   tree's totals.
//! * [`diff`] — `trace diff A B`, the executable determinism line:
//!   logical event content must be bitwise identical or the comparison
//!   fails; wall-time drift beyond a threshold is merely annotated.
//! * [`artifact`] — `BENCH_<experiment>.json` schema v2: one
//!   [`Artifact`] type (logical rows, warn-only rows, free-form `meta`)
//!   that every producer emits, one truncation- and duplicate-aware
//!   [`parse_artifact`], and one [`compare`] behind `bench compare` and
//!   the CI perf gates.
//!
//! The crate stays dependency-light by design (trace + the vendored
//! serde shims only) and performs no I/O beyond what callers hand it:
//! the CLI owns files, the bench harness owns artifacts.
//!
//! Wall-clock quarantine: this crate and `crates/trace/src/clock.rs`
//! are the only places lint rule R10 permits direct
//! `std::time::Instant`/`SystemTime` use — analysis code may need raw
//! timestamps, production code must go through the span clock.

pub mod artifact;
pub mod collector;
pub mod diff;
pub mod error;
pub mod flame;
pub mod reader;
pub mod tree;

pub use artifact::{
    compare, logical_digest, parse_artifact, Artifact, CompareReport, Fields, Rows,
    DEFAULT_WALL_THRESHOLD_PCT, SCHEMA_VERSION, WALL_NOTE,
};
pub use collector::{assemble, normalize, Assembly};
pub use diff::{diff, DiffOptions, DiffReport};
pub use error::ObsError;
pub use flame::{collapse, parse_collapsed, prefix_totals, render_collapsed, FlameWeight};
pub use reader::read_events;
/// The value type of artifact fields (the vendored serde data model).
pub use serde::Value;
pub use tree::{
    attribute, build_tree, hot_spots, render_top, CostVector, HotSpot, PathStat, SpanNode,
    SpanTree, TopBy,
};
