//! The per-participant bundle the session layer drives.

use adshare_obs::Registry;

use crate::estimator::{BandwidthEstimator, RateConfig};
use crate::pacer::TokenBucket;
use crate::quality::{QualityController, QualityTier};

/// Congestion controller + pacer + quality controller for one receiver
/// (a unicast participant or a whole multicast session).
///
/// Two modes share this type so the session layer has a single send path:
///
/// * **fixed** ([`RateController::new_fixed`]) — no estimator; the token
///   bucket runs at the statically configured link rate (or unpaced), the
///   tier is pinned lossless, and refreshes are never throttled. This
///   reproduces the legacy behaviour exactly.
/// * **adaptive** ([`RateController::new_adaptive`]) — a
///   [`BandwidthEstimator`] retargets the bucket every flush, a
///   [`QualityController`] picks the codec tier, and PLI-triggered full
///   refreshes are rate-limited.
#[derive(Debug, Clone)]
pub struct RateController {
    estimator: Option<BandwidthEstimator>,
    /// Static link rate: the pacer rate in fixed mode, a hard cap on the
    /// estimate in adaptive mode.
    cap_bps: Option<u64>,
    bucket: TokenBucket,
    quality: QualityController,
    /// Inert until adopted into a registry.
    metrics: Metrics,
}

adshare_obs::metric_set! {
    /// What a controller exports (see [`RateController::register_metrics`]).
    struct Metrics {
        /// Current pacing rate, bits/second.
        rate_bps: gauge "rate_bps",
        /// Every pacing rate the estimator settled on.
        rate_bps_hist: histogram "rate_bps_hist",
        /// Active quality tier (0 = lossless).
        tier: gauge "tier",
        /// Queued updates dropped because fresher damage superseded them.
        superseded: counter "superseded",
        /// Send-queue occupancy, messages.
        queue_depth: gauge "queue_depth",
        /// Send-queue occupancy, bytes.
        queue_bytes: gauge "queue_bytes",
        /// Full refreshes refused by the PLI rate limit.
        refresh_throttled: counter "refresh_throttled",
    }
}

/// Token-bucket burst window of every controller, fixed or adaptive: the
/// pacer may burst up to `rate × 250 ms` bytes (the legacy allowance cap
/// of the session layer).
const BURST_WINDOW_US: u64 = 250_000;

impl RateController {
    fn build(
        estimator: Option<BandwidthEstimator>,
        cap_bps: Option<u64>,
        mtu: usize,
        cfg: &RateConfig,
    ) -> Self {
        let initial = match &estimator {
            Some(_) => {
                let est = cfg
                    .initial_bps
                    .clamp(cfg.floor_bps.min(cfg.ceiling_bps), cfg.ceiling_bps);
                Some(cap_bps.map_or(est, |cap| est.min(cap)))
            }
            None => cap_bps,
        };
        RateController {
            estimator,
            cap_bps,
            bucket: TokenBucket::new(initial, BURST_WINDOW_US, 2 * mtu as u64),
            quality: QualityController::new(cfg),
            metrics: Metrics::default(),
        }
    }

    /// Legacy fixed-rate mode: pace at `rate_bps` (`None` = unpaced),
    /// never adapt quality, never throttle refreshes.
    pub fn new_fixed(rate_bps: Option<u64>, mtu: usize) -> Self {
        RateController::build(None, rate_bps, mtu, &RateConfig::default())
    }

    /// Adaptive mode: AIMD estimation clamped to `cfg`'s band and capped
    /// at the static link rate `cap_bps` when one is configured.
    pub fn new_adaptive(cfg: RateConfig, cap_bps: Option<u64>, mtu: usize) -> Self {
        RateController::build(Some(BandwidthEstimator::new(cfg)), cap_bps, mtu, &cfg)
    }

    /// Whether the controller runs the adaptive loop.
    pub fn is_adaptive(&self) -> bool {
        self.estimator.is_some()
    }

    /// Feed one RTCP receiver-report loss fraction (lost/256).
    pub fn on_report(&mut self, fraction_lost: u8, now_us: u64) {
        if let Some(e) = &mut self.estimator {
            e.on_report(fraction_lost, now_us);
        }
    }

    /// Feed one Generic NACK covering `lost` sequence numbers.
    pub fn on_nack(&mut self, lost: usize, now_us: u64) {
        if let Some(e) = &mut self.estimator {
            e.on_nack(lost, now_us);
        }
    }

    /// Feed a TCP send-buffer occupancy sample.
    pub fn on_backlog(&mut self, backlog_bytes: usize, capacity_bytes: usize, now_us: u64) {
        if let Some(e) = &mut self.estimator {
            e.on_backlog(backlog_bytes, capacity_bytes, now_us);
        }
    }

    /// The effective send rate right now, bits/second (`None` = unpaced,
    /// only possible in fixed mode with no configured link rate).
    pub fn rate_bps(&mut self, now_us: u64) -> Option<u64> {
        match &mut self.estimator {
            Some(e) => {
                let est = e.rate_bps(now_us);
                Some(self.cap_bps.map_or(est, |cap| est.min(cap)))
            }
            None => self.cap_bps,
        }
    }

    /// Start a flush: retarget the bucket at the current estimate, accrue
    /// tokens, record the decision, and return the byte budget
    /// (`None` = unlimited).
    pub fn flush_budget(&mut self, now_us: u64) -> Option<u64> {
        let rate = self.rate_bps(now_us);
        if self.is_adaptive() {
            self.bucket.set_rate(rate);
            if let Some(r) = rate {
                self.metrics.rate_bps.set(r as i64);
                self.metrics.rate_bps_hist.record(r);
            }
            let tier = self.quality.tier_for(rate.unwrap_or(u64::MAX));
            self.metrics.tier.set(tier.as_gauge());
        }
        self.bucket.refill(now_us);
        self.bucket.budget()
    }

    /// Account for bytes actually emitted against the last budget.
    pub fn consume(&mut self, bytes: u64) {
        self.bucket.consume(bytes);
    }

    /// The quality tier to encode at (pinned lossless in fixed mode).
    pub fn tier(&self) -> QualityTier {
        if self.is_adaptive() {
            self.quality.tier()
        } else {
            QualityTier::Lossless
        }
    }

    /// Damage-coalescing interval for the current tier (zero in fixed
    /// mode).
    pub fn coalesce_us(&self) -> u64 {
        if self.is_adaptive() {
            self.quality.coalesce_us()
        } else {
            0
        }
    }

    /// Whether a PLI-triggered full refresh may run now (always, in fixed
    /// mode).
    pub fn allow_refresh(&mut self, now_us: u64) -> bool {
        if !self.is_adaptive() {
            return true;
        }
        let ok = self.quality.allow_refresh(now_us);
        if !ok {
            self.metrics.refresh_throttled.inc();
        }
        ok
    }

    /// Record that `n` queued updates were superseded by fresher damage.
    pub fn note_superseded(&self, n: usize) {
        self.metrics.superseded.add(n as u64);
    }

    /// Record the send queue's current occupancy.
    pub fn note_queue(&self, depth: usize, bytes: u64) {
        self.metrics.queue_depth.set(depth as i64);
        self.metrics.queue_bytes.set(bytes as i64);
    }

    /// Number of multiplicative decreases the estimator applied so far.
    pub fn decreases(&self) -> u64 {
        self.estimator
            .as_ref()
            .map_or(0, BandwidthEstimator::decreases)
    }

    /// Adopt this controller's metrics into `registry` under `prefix`
    /// (e.g. `ah.rate.p0` → `ah.rate.p0.rate_bps`, `.tier`, …).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.metrics.register(registry, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_matches_legacy_allowance_math() {
        // 8 Mb/s, MTU 1400: after 10 ms the legacy allowance is 10 kB.
        let mut rc = RateController::new_fixed(Some(8_000_000), 1400);
        assert!(!rc.is_adaptive());
        assert_eq!(rc.flush_budget(10_000), Some(10_000));
        rc.consume(10_000);
        assert_eq!(rc.flush_budget(10_000), Some(0));
        assert_eq!(rc.tier(), QualityTier::Lossless);
        assert!(rc.allow_refresh(0) && rc.allow_refresh(1));
    }

    #[test]
    fn fixed_unpaced_is_unlimited() {
        let mut rc = RateController::new_fixed(None, 1400);
        assert_eq!(rc.flush_budget(1_000_000), None);
        assert_eq!(rc.rate_bps(1_000_000), None);
    }

    #[test]
    fn adaptive_tracks_estimator_and_caps_at_link_rate() {
        let cfg = RateConfig {
            initial_bps: 4_000_000,
            ..RateConfig::default()
        };
        let mut rc = RateController::new_adaptive(cfg, Some(3_000_000), 1400);
        assert!(rc.is_adaptive());
        assert_eq!(rc.rate_bps(0), Some(3_000_000), "estimate capped at link");
        // Heavy loss halves the estimate below the cap.
        rc.on_report(255, 1_000_000);
        let r = rc.rate_bps(1_000_000).unwrap();
        assert!(r < 3_000_000);
        assert_eq!(rc.decreases(), 1);
    }

    #[test]
    fn adaptive_budget_follows_current_estimate() {
        let cfg = RateConfig {
            initial_bps: 8_000_000,
            ceiling_bps: 8_000_000,
            ..RateConfig::default()
        };
        let mut rc = RateController::new_adaptive(cfg, None, 1400);
        // 8 Mb/s for 10 ms = 10 kB.
        assert_eq!(rc.flush_budget(10_000), Some(10_000));
        assert_eq!(rc.tier(), QualityTier::Lossless);
    }

    #[test]
    fn adaptive_refresh_throttles() {
        let mut rc = RateController::new_adaptive(RateConfig::default(), None, 1400);
        assert!(rc.allow_refresh(0));
        assert!(!rc.allow_refresh(1000));
        assert!(rc.allow_refresh(600_000));
    }
}
