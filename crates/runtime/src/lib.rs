//! `idc-runtime`: the online two-time-scale control daemon.
//!
//! Everything below the batch simulator in this workspace answers "what
//! would the controller have done over that window?". This crate answers
//! the operational question instead: it runs the *same* controller as a
//! long-lived process fed by streaming inputs, with the failure modes a
//! real deployment has — late and lost feed samples, process restarts —
//! and the observability one needs (a Prometheus/JSON metrics endpoint).
//!
//! The pieces:
//!
//! * [`feed`] — trace-backed [`idc_core::feed`] adapters with a
//!   deterministic fault-injection schedule (drops, delays, reordering).
//! * [`stepper`] — the event-driven stepper: batch-bit-identical dynamics
//!   over held-last-value feed state, degrading to the policy fallback
//!   when the feeds go stale.
//! * [`snapshot`] — the checkpoint format, written atomically; restore
//!   resumes the run bit-for-bit.
//! * [`lineage`] — per-tenant checkpoint directories with keep-last-K
//!   compaction and startup GC of torn/corrupt files.
//! * [`tenant`] — the multi-tenant manager: N independent control loops
//!   scheduled over a pool of worker threads off a time-ordered
//!   ready queue, with admission control and per-tenant histograms.
//! * [`metrics`] / [`http`] — an embedded metrics registry served over
//!   hand-rolled HTTP/1.1.
//! * [`registry`] — stable string keys for the canned scenarios.
//!
//! Deliberately std-only: threads, `std::sync::mpsc`-style signalling via
//! atomics, and `std::net` — no async runtime.

#![warn(missing_docs)]

pub mod error;
pub mod feed;
pub mod http;
pub mod lineage;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod stepper;
pub mod tenant;

pub use error::Error;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
