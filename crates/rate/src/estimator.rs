//! Loss-based AIMD bandwidth estimation from receiver feedback.

/// Additive increase applied per second of loss-free feedback, bits/second.
const INCREASE_BPS_PER_S: f64 = 250_000.0;
/// Multiplicative decrease applied on a loss signal.
const DECREASE_FACTOR: f64 = 0.7;
/// RR loss fraction (0.0..=1.0) above which a report counts as loss.
const LOSS_THRESHOLD: f64 = 0.02;
/// After a decrease or NACK burst, additive increase is frozen this long
/// (µs) so repairs drain before the rate probes upward again.
const HOLDOFF_US: u64 = 500_000;
/// Minimum spacing between multiplicative decreases (µs): feedback bursts
/// describing one congestion event decrease the rate once.
const DECREASE_INTERVAL_US: u64 = 300_000;
/// A NACK reporting at least this many lost packets is itself a
/// congestion signal (decrease), not just a hold-off.
const NACK_BURST: usize = 8;

/// The rate band of one estimator and the quality controller's lossless
/// threshold. The AIMD step sizes and timers are constants of this crate.
#[derive(Debug, Clone, Copy)]
pub struct RateConfig {
    /// Lowest rate the estimator may report, bits/second. Set by
    /// `LayersConfig::default` (400 kb/s) and the rate proptest
    /// `estimate_always_within_band`.
    pub floor_bps: u64,
    /// Highest rate the estimator may report, bits/second. Set by
    /// `LayersConfig::default`, the `bandwidth_cliff` scenario and the
    /// rate proptest.
    pub ceiling_bps: u64,
    /// Starting estimate, bits/second (clamped into `[floor, ceiling]`).
    /// Set by `LayersConfig::default`, `bandwidth_cliff`,
    /// `tests/rate_adapt.rs`, `tests/wire_golden.rs` and the rate proptest.
    pub initial_bps: u64,
    /// At or above this estimate the quality controller stays lossless.
    /// Set by `bandwidth_cliff`, `tests/rate_adapt.rs`,
    /// `tests/wire_golden.rs` and `exp_rate_adapt`.
    pub lossless_above_bps: u64,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            floor_bps: adshare_obs::ESTIMATOR_FLOOR_BPS,
            ceiling_bps: 50_000_000,
            initial_bps: 2_000_000,
            lossless_above_bps: 1_500_000,
        }
    }
}

impl RateConfig {
    fn clamp(&self, rate: f64) -> f64 {
        let floor = self.floor_bps.min(self.ceiling_bps) as f64;
        rate.clamp(floor, self.ceiling_bps as f64)
    }
}

/// Loss-based additive-increase / multiplicative-decrease estimator.
///
/// Inputs are the receiver's view of the path: RTCP RR loss fractions,
/// NACK bursts, and (for TCP) send-buffer backlog. The estimate grows
/// linearly while feedback is clean, shrinks multiplicatively on loss, and
/// is **always** inside `[floor_bps, ceiling_bps]`.
#[derive(Debug, Clone)]
pub struct BandwidthEstimator {
    cfg: RateConfig,
    rate: f64,
    /// Clock of the last growth accrual; growth is lazy so the estimate
    /// advances no matter which signal arrives next.
    last_growth_us: u64,
    /// Additive increase is frozen until this instant.
    holdoff_until_us: u64,
    last_decrease_us: u64,
    decreases: u64,
}

impl BandwidthEstimator {
    /// New estimator starting at `cfg.initial_bps`.
    pub fn new(cfg: RateConfig) -> Self {
        let rate = cfg.clamp(cfg.initial_bps as f64);
        BandwidthEstimator {
            cfg,
            rate,
            last_growth_us: 0,
            holdoff_until_us: 0,
            last_decrease_us: 0,
            decreases: 0,
        }
    }

    /// The configuration this estimator runs with.
    pub fn config(&self) -> &RateConfig {
        &self.cfg
    }

    /// Accrue lazy additive increase up to `now_us`. Time spent inside the
    /// hold-off window never grows the rate.
    fn advance(&mut self, now_us: u64) {
        let from = self.last_growth_us.max(self.holdoff_until_us);
        if now_us > from {
            let dt_s = (now_us - from) as f64 / 1_000_000.0;
            self.rate = self.cfg.clamp(self.rate + INCREASE_BPS_PER_S * dt_s);
        }
        self.last_growth_us = self.last_growth_us.max(now_us);
    }

    fn decrease(&mut self, now_us: u64) {
        if now_us.saturating_sub(self.last_decrease_us) < DECREASE_INTERVAL_US
            && self.last_decrease_us != 0
        {
            return;
        }
        self.rate = self.cfg.clamp(self.rate * DECREASE_FACTOR);
        self.last_decrease_us = now_us.max(1);
        self.holdoff_until_us = self.holdoff_until_us.max(now_us + HOLDOFF_US);
        self.decreases += 1;
    }

    /// Feed one RTCP receiver-report loss fraction (RFC 3550 fixed point,
    /// lost/256).
    pub fn on_report(&mut self, fraction_lost: u8, now_us: u64) {
        self.advance(now_us);
        if fraction_lost as f64 / 256.0 > LOSS_THRESHOLD {
            self.decrease(now_us);
        }
    }

    /// Feed one Generic NACK covering `lost` sequence numbers. Small NACKs
    /// only freeze growth (random loss is repaired, not a congestion
    /// signal); a burst of `NACK_BURST` (8) or more decreases the rate.
    pub fn on_nack(&mut self, lost: usize, now_us: u64) {
        self.advance(now_us);
        if lost >= NACK_BURST {
            self.decrease(now_us);
        } else {
            self.holdoff_until_us = self.holdoff_until_us.max(now_us + HOLDOFF_US);
        }
    }

    /// Feed a TCP send-buffer occupancy sample (§7's backlog signal):
    /// any backlog freezes growth, more than half the buffer decreases.
    pub fn on_backlog(&mut self, backlog_bytes: usize, capacity_bytes: usize, now_us: u64) {
        self.advance(now_us);
        if backlog_bytes == 0 {
            return;
        }
        if backlog_bytes * 2 > capacity_bytes.max(1) {
            self.decrease(now_us);
        } else {
            self.holdoff_until_us = self.holdoff_until_us.max(now_us + HOLDOFF_US);
        }
    }

    /// The current estimate in bits/second, after accruing growth up to
    /// `now_us`. Guaranteed inside `[floor_bps, ceiling_bps]`.
    pub fn rate_bps(&mut self, now_us: u64) -> u64 {
        self.advance(now_us);
        self.cfg.clamp(self.rate) as u64
    }

    /// Number of multiplicative decreases applied so far.
    pub fn decreases(&self) -> u64 {
        self.decreases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> BandwidthEstimator {
        BandwidthEstimator::new(RateConfig::default())
    }

    #[test]
    fn starts_at_initial() {
        let mut e = est();
        assert_eq!(e.rate_bps(0), 2_000_000);
    }

    #[test]
    fn clean_reports_grow_additively() {
        let mut e = est();
        e.on_report(0, 1_000_000);
        assert_eq!(e.rate_bps(1_000_000), 2_250_000);
        assert_eq!(e.rate_bps(3_000_000), 2_750_000);
    }

    #[test]
    fn loss_decreases_multiplicatively_and_holds_off() {
        let mut e = est();
        e.on_report(26, 1_000_000); // ~10% loss
        let after = e.rate_bps(1_000_000);
        assert_eq!(after, (2_250_000.0 * 0.7) as u64);
        // Growth frozen inside the hold-off window...
        assert_eq!(e.rate_bps(1_400_000), after);
        // ...and resumes after it.
        assert!(e.rate_bps(2_500_000) > after);
    }

    #[test]
    fn decreases_are_rate_limited() {
        let mut e = est();
        e.on_report(255, 1_000_000);
        let one = e.rate_bps(1_000_000);
        e.on_report(255, 1_100_000); // same congestion event
        assert_eq!(e.rate_bps(1_100_000), one);
        e.on_report(255, 1_000_000 + 400_000);
        assert!(e.rate_bps(1_400_000) < one);
    }

    #[test]
    fn never_leaves_configured_band() {
        let cfg = RateConfig {
            floor_bps: 100_000,
            ceiling_bps: 1_000_000,
            initial_bps: 500_000,
            ..RateConfig::default()
        };
        let mut e = BandwidthEstimator::new(cfg);
        for i in 0..100 {
            e.on_report(255, i * 400_000);
        }
        assert_eq!(e.rate_bps(100 * 400_000), 100_000);
        for i in 100..400 {
            e.on_report(0, i * 1_000_000);
        }
        assert_eq!(e.rate_bps(400 * 1_000_000), 1_000_000);
    }

    #[test]
    fn small_nack_freezes_large_nack_decreases() {
        let mut e = est();
        let base = e.rate_bps(1_000_000);
        e.on_nack(2, 1_000_000);
        assert_eq!(e.rate_bps(1_200_000), base, "growth frozen, no decrease");
        e.on_nack(20, 1_600_000);
        assert!(e.rate_bps(1_600_000) < base);
    }

    #[test]
    fn backlog_signal() {
        let mut e = est();
        let base = e.rate_bps(1_000_000);
        e.on_backlog(1000, 64 * 1024, 1_000_000);
        assert_eq!(e.rate_bps(1_300_000), base, "light backlog freezes");
        e.on_backlog(60 * 1024, 64 * 1024, 1_600_000);
        assert!(e.rate_bps(1_600_000) < base, "deep backlog decreases");
    }
}
