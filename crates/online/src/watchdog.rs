//! Post-promotion watchdogs: the last line of defence after a candidate
//! reaches traffic.
//!
//! The gate (see [`crate::gate`]) is evaluated on data the loop already
//! holds; a candidate can still regress on traffic it has never seen, or
//! destabilise serving (errors, deadline fallbacks). The watchdog compares
//! **live** observations — serve-metrics deltas since promotion and live
//! RMSE measurements — against the armed baseline and demands a rollback
//! when a budget is exceeded. Rollback restores the incumbent
//! bit-identically from the registry's retained handle (see
//! `ModelRegistry::rollback`), so cached predictions and per-worker models
//! keyed under the incumbent's version become valid again instantly — no
//! request is dropped while the fleet converges back.

use stgnn_serve::MetricsSnapshot;

/// Watchdog budgets. All deltas are measured from the snapshot taken at
/// promotion time ([`Watchdog::arm`]).
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Transport/server errors tolerated after promotion (default 0: the
    /// fleet's never-a-5xx discipline means *any* new error indicts the
    /// candidate).
    pub max_new_errors: u64,
    /// Deadline-miss fallbacks tolerated after promotion (the SLO budget —
    /// fallbacks are degraded-but-200 responses).
    pub max_new_fallbacks: u64,
    /// Allowed relative live-RMSE regression vs the incumbent's
    /// measurement over the same slots.
    pub rmse_tolerance: f32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_new_errors: 0,
            max_new_fallbacks: 8,
            rmse_tolerance: 0.10,
        }
    }
}

/// A watchdog's judgement of the promoted candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Budgets hold; the candidate stays.
    Healthy,
    /// A budget was exceeded; the incumbent must be restored. The string
    /// names the violated budget and the observed values.
    RollBack(String),
}

/// Armed at promotion with the pre-swap metrics baseline.
#[derive(Debug, Clone)]
pub struct Watchdog {
    config: WatchdogConfig,
    baseline: MetricsSnapshot,
}

impl Watchdog {
    /// Arms the watchdog: `baseline` is the serve-metrics snapshot taken
    /// immediately before the swap.
    pub fn arm(config: WatchdogConfig, baseline: MetricsSnapshot) -> Self {
        Watchdog { config, baseline }
    }

    /// The error/SLO check: new errors or fallbacks since promotion beyond
    /// budget demand a rollback.
    pub fn check_metrics(&self, now: &MetricsSnapshot) -> Verdict {
        let new_errors = now.errors.saturating_sub(self.baseline.errors);
        if new_errors > self.config.max_new_errors {
            return Verdict::RollBack(format!(
                "error watchdog: {new_errors} new serve errors since promotion (budget {})",
                self.config.max_new_errors
            ));
        }
        let new_fallbacks = now.fallbacks.saturating_sub(self.baseline.fallbacks);
        if new_fallbacks > self.config.max_new_fallbacks {
            return Verdict::RollBack(format!(
                "SLO watchdog: {new_fallbacks} deadline fallbacks since promotion (budget {})",
                self.config.max_new_fallbacks
            ));
        }
        Verdict::Healthy
    }

    /// The live-RMSE check: `live_rmse` is the promoted model's measured
    /// error on post-promotion traffic, `incumbent_rmse` the retained
    /// incumbent's on the same slots.
    pub fn check_rmse(&self, live_rmse: f32, incumbent_rmse: f32) -> Verdict {
        if !live_rmse.is_finite() {
            return Verdict::RollBack(format!("RMSE watchdog: live RMSE is {live_rmse}"));
        }
        let limit = incumbent_rmse * (1.0 + self.config.rmse_tolerance);
        if live_rmse > limit {
            return Verdict::RollBack(format!(
                "RMSE watchdog: live {live_rmse} > incumbent {incumbent_rmse} × (1 + {})",
                self.config.rmse_tolerance
            ));
        }
        Verdict::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(errors: u64, fallbacks: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: 100,
            cache_hits: 0,
            batched: 0,
            forward_passes: 100,
            fallbacks,
            errors,
            swaps: 1,
            shed: 0,
            queue_depth: 0,
            batch_hist: Vec::new(),
            latency_p50_us: 500,
            latency_p99_us: 2000,
            queue_wait_p50_us: 0,
            queue_wait_p99_us: 0,
            forward_p50_us: 0,
            forward_p99_us: 0,
        }
    }

    #[test]
    fn budgets_hold_for_healthy_traffic() {
        let dog = Watchdog::arm(WatchdogConfig::default(), snapshot(2, 5));
        assert_eq!(dog.check_metrics(&snapshot(2, 9)), Verdict::Healthy);
        assert_eq!(dog.check_rmse(1.0, 1.0), Verdict::Healthy);
        assert_eq!(dog.check_rmse(1.05, 1.0), Verdict::Healthy);
    }

    #[test]
    fn any_new_error_rolls_back_by_default() {
        let dog = Watchdog::arm(WatchdogConfig::default(), snapshot(2, 0));
        let Verdict::RollBack(reason) = dog.check_metrics(&snapshot(3, 0)) else {
            panic!("one new error must trip the default budget");
        };
        assert!(reason.contains("error watchdog"), "{reason}");
        // Pre-promotion errors never count against the candidate.
        assert_eq!(dog.check_metrics(&snapshot(2, 0)), Verdict::Healthy);
    }

    #[test]
    fn fallback_budget_is_a_budget_not_a_zero() {
        let dog = Watchdog::arm(WatchdogConfig::default(), snapshot(0, 10));
        assert_eq!(dog.check_metrics(&snapshot(0, 18)), Verdict::Healthy);
        let Verdict::RollBack(reason) = dog.check_metrics(&snapshot(0, 19)) else {
            panic!("9 new fallbacks must exceed the budget of 8");
        };
        assert!(reason.contains("SLO watchdog"), "{reason}");
    }

    #[test]
    fn rmse_regression_and_nan_roll_back() {
        let dog = Watchdog::arm(WatchdogConfig::default(), snapshot(0, 0));
        assert!(matches!(dog.check_rmse(1.2, 1.0), Verdict::RollBack(_)));
        assert!(matches!(
            dog.check_rmse(f32::NAN, 1.0),
            Verdict::RollBack(_)
        ));
    }
}
