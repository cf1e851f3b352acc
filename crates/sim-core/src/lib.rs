//! # sky-sim — deterministic discrete-event simulation engine
//!
//! Foundation crate for the `skyward` workspace, a reproduction of
//! *"Sky Computing for Serverless: Infrastructure Assessment to Support
//! Performance Enhancement"*. Everything above this crate (cloud topology,
//! the FaaS platform simulator, the sampling and routing system) is driven by
//! the primitives defined here:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with microsecond
//!   resolution and calendar helpers (hour-of-day, day index) used by the
//!   diurnal and churn models.
//! * [`EventQueue`] — a stable, deterministic priority queue of timed events,
//!   implemented as a hierarchical timer wheel (see [`events`]).
//! * [`Slab`] — a reusable-slot arena for hot per-request / per-instance
//!   state, so steady-state simulations stop allocating.
//! * [`rng::SimRng`] — a from-scratch SplitMix64/xoshiro256++ PRNG with
//!   hierarchical stream derivation so every component of a simulation gets
//!   an independent, reproducible stream from one root seed.
//! * [`Uuid`] — the `Copy` 128-bit function-instance identity SAAF
//!   reports, drawn from a [`SimRng`] and rendered as a uuid string.
//! * [`stats`] — online statistics (Welford), histograms, percentiles and
//!   exponentially-weighted averages used by the measurement harnesses.
//! * [`series`] — labelled (x, y) series and plain-text table rendering used
//!   by the figure/table regeneration binaries.
//! * [`metrics`] — the deterministic observability layer: a typed registry of
//!   counters/gauges/log-bucketed histograms, per-request span accounting,
//!   and mergeable snapshots with Prometheus-text and JSON exporters.
//!
//! The engine is intentionally free of wall-clock access: given the same
//! seed and inputs, every experiment in the workspace reproduces
//! bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use sky_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! queue.schedule(SimTime::ZERO, "first");
//! let (t0, e0) = queue.pop().unwrap();
//! assert_eq!((t0, e0), (SimTime::ZERO, "first"));
//! assert_eq!(queue.pop().unwrap().1, "second");
//! ```

pub mod events;
pub mod metrics;
pub mod rng;
pub mod series;
pub mod slab;
pub mod stats;
pub mod time;
pub mod uuid;

pub use events::{BinaryHeapQueue, EventQueue};
pub use metrics::{
    LogHistogram, MetricHandle, MetricValue, MetricsRegistry, MetricsSnapshot, SpanTracker,
};
pub use rng::SimRng;
pub use series::{Series, Table};
pub use slab::{Slab, SlotKey};
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
pub use uuid::Uuid;
