//! Fault-injection plans: a deterministic, seeded schedule of platform
//! faults the simulator replays against availability zones.
//!
//! Real FaaS platforms do not fail only by running out of capacity. The
//! variance literature the routing experiments build on documents
//! saturation errors, throttling bursts, cold-start stampedes and — most
//! insidiously — *gray* degradation, where a zone keeps answering but
//! silently runs slow. A [`FaultPlan`] captures each of those as a typed,
//! windowed [`FaultEvent`]; the FaaS engine arms the plan into its event
//! queue so every fault fires exactly once, at its start instant, and
//! expires at the end of its window.
//!
//! Plans are plain data (serde-serializable) and all randomness used to
//! *generate* a plan comes from the workspace's [`SimRng`] streams, so a
//! chaos scenario is reproducible from a single root seed.
//!
//! ```
//! use sky_cloud::faults::{FaultKind, FaultPlan};
//! use sky_sim::{SimDuration, SimTime};
//!
//! let az = "us-east-2a".parse().unwrap();
//! let plan = FaultPlan::new()
//!     .with_event(
//!         az,
//!         SimTime::start_of_day(1),
//!         SimDuration::from_hours(1),
//!         FaultKind::ThrottleStorm { reject_prob: 0.5 },
//!     )
//!     .unwrap();
//! assert_eq!(plan.events().len(), 1);
//! ```

use crate::region::AzId;
use serde::{Deserialize, Serialize};
use sky_sim::{SimDuration, SimRng, SimTime};

/// One class of injectable platform fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Full AZ outage: every *new* FI placement fails for the window
    /// (warm instances keep serving — how zone incidents usually
    /// present).
    Outage,
    /// Partial AZ outage: each new placement independently fails with
    /// probability `severity`.
    PartialOutage {
        /// Probability in `(0, 1]` that a placement fails.
        severity: f64,
    },
    /// Throttling storm: the platform sheds load 429-style, rejecting
    /// each arriving request with probability `reject_prob` before any
    /// placement is attempted.
    ThrottleStorm {
        /// Probability in `(0, 1]` that an arrival is rejected.
        reject_prob: f64,
    },
    /// Latency spike: every dispatch (cold or warm) takes `extra`
    /// additional wall-clock time. Not billed — pure client-visible
    /// latency, like a degraded control plane.
    LatencySpike {
        /// Added dispatch latency.
        extra: SimDuration,
    },
    /// Cold-start storm: the warm pool is purged when the fault fires,
    /// keep-alive is suppressed for the window, and cold-start
    /// initialization takes `init_factor`× its normal duration
    /// (concurrent image pulls contend).
    ColdStartStorm {
        /// Cold-start inflation factor (≥ 1).
        init_factor: f64,
    },
    /// Gray degradation: the zone silently executes workloads
    /// `slowdown`× slower. Requests still succeed — only their billed
    /// duration and latency betray the fault.
    GrayDegradation {
        /// Execution slowdown factor (> 1).
        slowdown: f64,
    },
}

impl FaultKind {
    /// Short stable label used in traces and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::PartialOutage { .. } => "partial-outage",
            FaultKind::ThrottleStorm { .. } => "throttle-storm",
            FaultKind::LatencySpike { .. } => "latency-spike",
            FaultKind::ColdStartStorm { .. } => "cold-start-storm",
            FaultKind::GrayDegradation { .. } => "gray-degradation",
        }
    }

    /// Validate the kind's parameters.
    fn validate(&self) -> Result<(), FaultPlanError> {
        let ok = match *self {
            FaultKind::Outage => true,
            FaultKind::PartialOutage { severity } => {
                severity.is_finite() && severity > 0.0 && severity <= 1.0
            }
            FaultKind::ThrottleStorm { reject_prob } => {
                reject_prob.is_finite() && reject_prob > 0.0 && reject_prob <= 1.0
            }
            FaultKind::LatencySpike { extra } => extra > SimDuration::ZERO,
            FaultKind::ColdStartStorm { init_factor } => {
                init_factor.is_finite() && init_factor >= 1.0
            }
            FaultKind::GrayDegradation { slowdown } => slowdown.is_finite() && slowdown > 1.0,
        };
        if ok {
            Ok(())
        } else {
            Err(FaultPlanError::BadParameters(self.label()))
        }
    }
}

/// A windowed fault against one availability zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The zone the fault hits.
    pub az: AzId,
    /// When the fault begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The instant the fault clears.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Whether the fault window covers `t` (start inclusive, end
    /// exclusive).
    pub fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }
}

/// Why a plan was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A fault kind's parameters are out of range.
    BadParameters(&'static str),
    /// A fault has a zero-length window.
    EmptyWindow,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadParameters(label) => {
                write!(f, "fault {label:?} has out-of-range parameters")
            }
            FaultPlanError::EmptyWindow => write!(f, "fault window must have positive duration"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A validated schedule of fault events, ordered by start time.
///
/// The plan itself is inert data; the FaaS engine arms it
/// (`FaasEngine::set_fault_plan`) by scheduling one discrete event per
/// fault at its start instant, which is what guarantees single-fire
/// semantics — the event queue delivers each scheduled event exactly
/// once.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault, validating its parameters and window.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError`] when parameters are out of range or the window
    /// is empty.
    pub fn with_event(
        mut self,
        az: AzId,
        start: SimTime,
        duration: SimDuration,
        kind: FaultKind,
    ) -> Result<FaultPlan, FaultPlanError> {
        kind.validate()?;
        if duration == SimDuration::ZERO {
            return Err(FaultPlanError::EmptyWindow);
        }
        self.events.push(FaultEvent {
            az,
            start,
            duration,
            kind,
        });
        self.events.sort_by_key(|e| e.start);
        Ok(self)
    }

    /// The schedule, ordered by start time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Faults active at `t` in `az`.
    pub fn active<'a>(
        &'a self,
        az: &'a AzId,
        t: SimTime,
    ) -> impl Iterator<Item = &'a FaultEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.az == *az && e.active_at(t))
    }

    /// The latest fault end, if any.
    pub fn last_end(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.end()).max()
    }

    /// Generate a reproducible random storm: `count` faults drawn from
    /// all fault classes, spread uniformly across `zones` and the
    /// `[start, start + horizon)` window, with durations between 5 and
    /// 45 minutes. Every draw comes from `rng`, so the same stream
    /// yields the same storm.
    ///
    /// # Panics
    ///
    /// Panics if `zones` is empty or `horizon` is zero.
    pub fn random_storm(
        rng: &mut SimRng,
        zones: &[AzId],
        start: SimTime,
        horizon: SimDuration,
        count: usize,
    ) -> FaultPlan {
        assert!(!zones.is_empty(), "storm needs at least one zone");
        assert!(horizon > SimDuration::ZERO, "storm needs a horizon");
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let az = zones[rng.next_below(zones.len() as u64) as usize].clone();
            let offset = SimDuration::from_micros(rng.next_below(horizon.as_micros().max(1)));
            let duration = SimDuration::from_mins(rng.range_inclusive(5, 45));
            let kind = match rng.next_below(6) {
                0 => FaultKind::Outage,
                1 => FaultKind::PartialOutage {
                    severity: rng.range_f64(0.3, 1.0),
                },
                2 => FaultKind::ThrottleStorm {
                    reject_prob: rng.range_f64(0.2, 0.9),
                },
                3 => FaultKind::LatencySpike {
                    extra: SimDuration::from_millis(rng.range_inclusive(200, 5_000)),
                },
                4 => FaultKind::ColdStartStorm {
                    init_factor: rng.range_f64(2.0, 25.0),
                },
                _ => FaultKind::GrayDegradation {
                    slowdown: rng.range_f64(1.5, 4.0),
                },
            };
            plan = plan
                .with_event(az, start + offset, duration, kind)
                .expect("generated parameters are in range");
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn az(s: &str) -> AzId {
        s.parse().unwrap()
    }

    #[test]
    fn plan_orders_events_and_validates() {
        let plan = FaultPlan::new()
            .with_event(
                az("us-east-2a"),
                SimTime::start_of_day(2),
                SimDuration::from_hours(1),
                FaultKind::Outage,
            )
            .unwrap()
            .with_event(
                az("us-west-1a"),
                SimTime::start_of_day(1),
                SimDuration::from_mins(30),
                FaultKind::GrayDegradation { slowdown: 2.0 },
            )
            .unwrap();
        assert_eq!(plan.events().len(), 2);
        assert!(plan.events()[0].start < plan.events()[1].start);
        assert_eq!(
            plan.last_end(),
            Some(SimTime::start_of_day(2) + SimDuration::from_hours(1))
        );
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let mk = |kind| {
            FaultPlan::new().with_event(
                az("us-east-2a"),
                SimTime::ZERO,
                SimDuration::from_mins(5),
                kind,
            )
        };
        assert!(mk(FaultKind::PartialOutage { severity: 0.0 }).is_err());
        assert!(mk(FaultKind::PartialOutage { severity: 1.5 }).is_err());
        assert!(mk(FaultKind::ThrottleStorm {
            reject_prob: f64::NAN
        })
        .is_err());
        assert!(mk(FaultKind::GrayDegradation { slowdown: 1.0 }).is_err());
        assert!(mk(FaultKind::ColdStartStorm { init_factor: 0.5 }).is_err());
        assert!(mk(FaultKind::LatencySpike {
            extra: SimDuration::ZERO
        })
        .is_err());
        assert!(FaultPlan::new()
            .with_event(
                az("us-east-2a"),
                SimTime::ZERO,
                SimDuration::ZERO,
                FaultKind::Outage,
            )
            .is_err());
    }

    #[test]
    fn windows_are_half_open() {
        let e = FaultEvent {
            az: az("us-east-2a"),
            start: SimTime::from_micros(100),
            duration: SimDuration::from_micros(50),
            kind: FaultKind::Outage,
        };
        assert!(!e.active_at(SimTime::from_micros(99)));
        assert!(e.active_at(SimTime::from_micros(100)));
        assert!(e.active_at(SimTime::from_micros(149)));
        assert!(!e.active_at(SimTime::from_micros(150)));
    }

    #[test]
    fn random_storm_is_reproducible() {
        let zones = vec![az("us-east-2a"), az("us-west-1b")];
        let horizon = SimDuration::from_hours(6);
        let mk = || {
            let mut rng = SimRng::seed_from(9).derive("storm");
            FaultPlan::random_storm(&mut rng, &zones, SimTime::ZERO, horizon, 12)
        };
        let a = mk();
        assert_eq!(a, mk());
        assert_eq!(a.events().len(), 12);
        for e in a.events() {
            assert!(e.start < SimTime::ZERO + horizon);
            assert!(zones.contains(&e.az));
            e.kind.validate().expect("generated kinds validate");
        }
    }

    #[test]
    fn active_query_filters_by_zone_and_time() {
        let plan = FaultPlan::new()
            .with_event(
                az("us-east-2a"),
                SimTime::from_micros(10),
                SimDuration::from_micros(10),
                FaultKind::Outage,
            )
            .unwrap();
        assert_eq!(
            plan.active(&az("us-east-2a"), SimTime::from_micros(15))
                .count(),
            1
        );
        assert_eq!(
            plan.active(&az("us-west-1a"), SimTime::from_micros(15))
                .count(),
            0
        );
        assert_eq!(
            plan.active(&az("us-east-2a"), SimTime::from_micros(25))
                .count(),
            0
        );
    }

    #[test]
    fn plan_serializes_round_trip() {
        let plan = FaultPlan::new()
            .with_event(
                az("us-east-2a"),
                SimTime::from_micros(5),
                SimDuration::from_mins(1),
                FaultKind::ThrottleStorm { reject_prob: 0.4 },
            )
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
