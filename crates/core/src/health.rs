//! Sensor-health state machine: graceful degradation under faults.
//!
//! The sanitizer (see [`crate::sanitize`]) classifies individual traces;
//! this module aggregates those per-trace outcomes into a slow-moving
//! judgement about the *sensor channel itself*. A single rejected trace
//! is noise; a sustained rejection rate is a hardware condition the
//! operator must know about — and one that must not silently inflate the
//! Trojan alarm rate.
//!
//! The tracker keeps an exponentially weighted moving average of the
//! rejection indicator and walks a three-state machine:
//!
//! ```text
//!              rate > degrade_above            rate > fault_above
//!   Healthy ─────────────────────▶ Degraded ─────────────────────▶ SensorFault
//!      ▲                              │ ▲                              │
//!      └──────────────────────────────┘ └──────────────────────────────┘
//!              rate < recover_below         rate < degrade_above
//! ```
//!
//! Transitions only ever move to an **adjacent** state, and recovery
//! thresholds sit below their escalation counterparts (hysteresis), so a
//! rate hovering at a boundary cannot flap the state every observation.

use emtrust_telemetry::{self as telemetry, FieldValue};

/// The channel-level health judgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorHealth {
    /// Rejection rate near zero; trust verdicts are fully credible.
    Healthy,
    /// Elevated rejection rate; verdicts still produced but suspect.
    Degraded,
    /// Rejection rate so high the channel is effectively down; trust
    /// evaluation on it should be considered unavailable.
    SensorFault,
}

impl SensorHealth {
    /// Stable snake_case label (telemetry fields, JSON artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            SensorHealth::Healthy => "healthy",
            SensorHealth::Degraded => "degraded",
            SensorHealth::SensorFault => "sensor_fault",
        }
    }

    /// Whether the channel needs operator follow-up: `Degraded` and
    /// `SensorFault` chips carry evidence an overload policy must not
    /// discard (the fleet's shed-newest rule exempts them).
    pub fn needs_followup(&self) -> bool {
        !matches!(self, SensorHealth::Healthy)
    }
}

/// EWMA and hysteresis thresholds for [`HealthTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor in `(0, 1]`; higher reacts faster.
    pub alpha: f64,
    /// Escalate `Healthy → Degraded` above this rejection rate.
    pub degrade_above: f64,
    /// Escalate `Degraded → SensorFault` above this rejection rate.
    pub fault_above: f64,
    /// Recover `Degraded → Healthy` below this rejection rate
    /// (hysteresis: strictly below `degrade_above`).
    pub recover_below: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            degrade_above: 0.35,
            fault_above: 0.75,
            recover_below: 0.1,
        }
    }
}

/// One recorded state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Index of the observation (0-based) that triggered the change.
    pub observation: u64,
    /// State before.
    pub from: SensorHealth,
    /// State after (always adjacent to `from`).
    pub to: SensorHealth,
}

/// Aggregates per-trace rejection outcomes into a [`SensorHealth`]
/// judgement (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthTracker {
    config: HealthConfig,
    rate: f64,
    state: SensorHealth,
    observations: u64,
    consecutive_rejections: u64,
    transitions: Vec<HealthTransition>,
}

impl HealthTracker {
    /// A tracker starting `Healthy` with a zero rejection rate.
    pub fn new(config: HealthConfig) -> Self {
        Self {
            config,
            rate: 0.0,
            state: SensorHealth::Healthy,
            observations: 0,
            consecutive_rejections: 0,
            transitions: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> HealthConfig {
        self.config
    }

    /// Current health state.
    pub fn state(&self) -> SensorHealth {
        self.state
    }

    /// Current smoothed rejection rate in `[0, 1]`.
    pub fn rejection_rate(&self) -> f64 {
        self.rate
    }

    /// Observations fed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Length of the current unbroken run of rejected observations
    /// (reset to zero by any accepted trace). The fleet's per-chip
    /// circuit breaker trips on this — it reacts to a hard failure
    /// burst faster than the smoothed EWMA rate can.
    pub fn consecutive_rejections(&self) -> u64 {
        self.consecutive_rejections
    }

    /// Every state change so far, in order.
    pub fn transitions(&self) -> &[HealthTransition] {
        &self.transitions
    }

    /// The most recent state change, if any occurred yet.
    pub fn last_transition(&self) -> Option<&HealthTransition> {
        self.transitions.last()
    }

    /// Feeds one trace outcome (`rejected` = the sanitizer excluded it)
    /// and returns the possibly-updated state.
    pub fn observe(&mut self, rejected: bool) -> SensorHealth {
        let x = if rejected { 1.0 } else { 0.0 };
        if rejected {
            self.consecutive_rejections += 1;
        } else {
            self.consecutive_rejections = 0;
        }
        self.rate += self.config.alpha * (x - self.rate);
        let next = match self.state {
            SensorHealth::Healthy if self.rate > self.config.degrade_above => {
                SensorHealth::Degraded
            }
            SensorHealth::Degraded if self.rate > self.config.fault_above => {
                SensorHealth::SensorFault
            }
            SensorHealth::Degraded if self.rate < self.config.recover_below => {
                SensorHealth::Healthy
            }
            SensorHealth::SensorFault if self.rate < self.config.degrade_above => {
                SensorHealth::Degraded
            }
            current => current,
        };
        if next != self.state {
            let transition = HealthTransition {
                observation: self.observations,
                from: self.state,
                to: next,
            };
            self.transitions.push(transition);
            telemetry::event(
                "sensor_health",
                &[
                    ("from", FieldValue::from(transition.from.label())),
                    ("to", FieldValue::from(transition.to.label())),
                    ("rejection_rate", FieldValue::F64(self.rate)),
                    ("observation", FieldValue::U64(transition.observation)),
                ],
            );
            self.state = next;
        }
        self.observations += 1;
        self.state
    }
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adjacent(a: SensorHealth, b: SensorHealth) -> bool {
        !matches!(
            (a, b),
            (SensorHealth::Healthy, SensorHealth::SensorFault)
                | (SensorHealth::SensorFault, SensorHealth::Healthy)
        )
    }

    #[test]
    fn starts_healthy_and_stays_healthy_on_clean_stream() {
        let mut t = HealthTracker::default();
        for _ in 0..100 {
            assert_eq!(t.observe(false), SensorHealth::Healthy);
        }
        assert!(t.transitions().is_empty());
        assert_eq!(t.rejection_rate(), 0.0);
    }

    #[test]
    fn sustained_rejections_escalate_through_degraded_to_fault() {
        let mut t = HealthTracker::default();
        let mut seen = vec![t.state()];
        for _ in 0..50 {
            seen.push(t.observe(true));
        }
        assert_eq!(t.state(), SensorHealth::SensorFault);
        assert!(
            seen.contains(&SensorHealth::Degraded),
            "must pass through Degraded"
        );
        for w in seen.windows(2) {
            assert!(
                adjacent(w[0], w[1]),
                "non-adjacent jump {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovery_walks_back_down_with_hysteresis() {
        let mut t = HealthTracker::default();
        for _ in 0..50 {
            t.observe(true);
        }
        assert_eq!(t.state(), SensorHealth::SensorFault);
        for _ in 0..100 {
            t.observe(false);
        }
        assert_eq!(t.state(), SensorHealth::Healthy);
        for w in t.transitions().windows(2) {
            assert!(adjacent(w[0].to, w[1].to));
        }
        // Full round trip: up twice, down twice.
        assert_eq!(t.transitions().len(), 4);
    }

    #[test]
    fn boundary_rate_does_not_flap() {
        // Alternate rejected/clean: EWMA settles near 0.5, which is above
        // degrade_above (0.35) but the recovery bound (0.1) keeps the
        // state pinned at Degraded instead of oscillating.
        let mut t = HealthTracker::default();
        for i in 0..400 {
            t.observe(i % 2 == 0);
        }
        assert_eq!(t.state(), SensorHealth::Degraded);
        assert_eq!(t.transitions().len(), 1);
    }

    #[test]
    fn consecutive_rejections_count_runs_and_reset() {
        let mut t = HealthTracker::default();
        assert_eq!(t.consecutive_rejections(), 0);
        for i in 1..=5 {
            t.observe(true);
            assert_eq!(t.consecutive_rejections(), i);
        }
        t.observe(false);
        assert_eq!(t.consecutive_rejections(), 0);
        t.observe(true);
        assert_eq!(t.consecutive_rejections(), 1);
    }

    #[test]
    fn followup_covers_degraded_and_fault() {
        assert!(!SensorHealth::Healthy.needs_followup());
        assert!(SensorHealth::Degraded.needs_followup());
        assert!(SensorHealth::SensorFault.needs_followup());
    }

    #[test]
    fn labels_and_ordering() {
        assert_eq!(SensorHealth::Healthy.label(), "healthy");
        assert_eq!(SensorHealth::Degraded.label(), "degraded");
        assert_eq!(SensorHealth::SensorFault.label(), "sensor_fault");
        assert!(SensorHealth::Healthy < SensorHealth::Degraded);
        assert!(SensorHealth::Degraded < SensorHealth::SensorFault);
    }
}
