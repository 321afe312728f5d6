//! Mapping the bandwidth estimate to codec quality, damage coalescing,
//! and full-refresh throttling.

use crate::estimator::RateConfig;

/// Encoding quality tiers the adaptive controller switches between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QualityTier {
    /// Plenty of bandwidth: configured lossless codec, tight coalescing.
    Lossless,
    /// Constrained: lossy DCT at moderate quality.
    Balanced,
    /// Starved: coarse DCT and stretched coalescing intervals.
    Economy,
}

impl QualityTier {
    /// Stable small integer for gauges (0 = lossless … 2 = economy).
    pub fn as_gauge(self) -> i64 {
        match self {
            QualityTier::Lossless => 0,
            QualityTier::Balanced => 1,
            QualityTier::Economy => 2,
        }
    }

    /// Lossy tiers leave pixels that must eventually be repaired
    /// losslessly for the session to converge pixel-identical.
    pub fn is_lossy(self) -> bool {
        self != QualityTier::Lossless
    }

    /// DCT quality knob for this tier (`None` = use the lossless codec).
    pub fn dct_quality(self) -> Option<u8> {
        match self {
            QualityTier::Lossless => None,
            QualityTier::Balanced => Some(70),
            QualityTier::Economy => Some(35),
        }
    }
}

/// Picks a [`QualityTier`] from the rate estimate, with hysteresis so the
/// codec does not flap across a threshold, and throttles PLI-triggered
/// full refreshes.
#[derive(Debug, Clone)]
pub struct QualityController {
    lossless_above_bps: u64,
    tier: QualityTier,
    last_refresh_us: Option<u64>,
    refreshes_throttled: u64,
}

/// Hysteresis margin: once in a tier, the rate must cross the threshold by
/// this factor in the other direction to leave it.
const HYSTERESIS: f64 = 1.15;

/// Below this estimate the controller drops to the economy tier (coarsest
/// quality, longest coalescing), bits/second.
const ECONOMY_BELOW_BPS: u64 = 500_000;

/// Minimum spacing between PLI-served full refreshes (µs).
const REFRESH_MIN_INTERVAL_US: u64 = 500_000;

/// Damage-coalescing interval (µs) per tier, indexed by
/// [`QualityTier::as_gauge`]: none at lossless, stretched to 2 and 4 µs
/// under pressure, which holds back a second encode at the same instant.
const COALESCE_US: [u64; 3] = [0, 2, 4];

impl QualityController {
    /// A controller using the thresholds from `cfg`, starting lossless.
    pub fn new(cfg: &RateConfig) -> Self {
        QualityController {
            lossless_above_bps: cfg.lossless_above_bps,
            tier: QualityTier::Lossless,
            last_refresh_us: None,
            refreshes_throttled: 0,
        }
    }

    /// The tier for `rate_bps`, updating the hysteresis state.
    pub fn tier_for(&mut self, rate_bps: u64) -> QualityTier {
        let rate = rate_bps as f64;
        let up = |threshold: u64| rate >= threshold as f64 * HYSTERESIS;
        let down = |threshold: u64| rate < threshold as f64;
        self.tier = match self.tier {
            QualityTier::Lossless => {
                if down(ECONOMY_BELOW_BPS) {
                    QualityTier::Economy
                } else if down(self.lossless_above_bps) {
                    QualityTier::Balanced
                } else {
                    QualityTier::Lossless
                }
            }
            QualityTier::Balanced => {
                if up(self.lossless_above_bps) {
                    QualityTier::Lossless
                } else if down(ECONOMY_BELOW_BPS) {
                    QualityTier::Economy
                } else {
                    QualityTier::Balanced
                }
            }
            QualityTier::Economy => {
                if up(self.lossless_above_bps) {
                    QualityTier::Lossless
                } else if up(ECONOMY_BELOW_BPS) {
                    QualityTier::Balanced
                } else {
                    QualityTier::Economy
                }
            }
        };
        self.tier
    }

    /// The most recently computed tier (no state change).
    pub fn tier(&self) -> QualityTier {
        self.tier
    }

    /// Damage-coalescing interval for the current tier, longer the lower
    /// the tier so fewer, larger updates go out when bandwidth is short.
    pub fn coalesce_us(&self) -> u64 {
        COALESCE_US[self.tier.as_gauge() as usize]
    }

    /// Whether a PLI-triggered full refresh may run now. The first request
    /// is always served (late joiners need state); later ones are spaced
    /// at least `REFRESH_MIN_INTERVAL_US` (500 ms) apart — a denied
    /// requester will re-ask via its resync timer.
    pub fn allow_refresh(&mut self, now_us: u64) -> bool {
        match self.last_refresh_us {
            Some(last) if now_us.saturating_sub(last) < REFRESH_MIN_INTERVAL_US => {
                self.refreshes_throttled += 1;
                false
            }
            _ => {
                self.last_refresh_us = Some(now_us);
                true
            }
        }
    }

    /// Full refreshes denied by the throttle so far.
    pub fn refreshes_throttled(&self) -> u64 {
        self.refreshes_throttled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qc() -> QualityController {
        // Defaults: lossless ≥ 1.5 Mb/s, economy < 500 kb/s.
        QualityController::new(&RateConfig::default())
    }

    #[test]
    fn tier_thresholds() {
        let mut q = qc();
        assert_eq!(q.tier_for(2_000_000), QualityTier::Lossless);
        assert_eq!(q.tier_for(1_000_000), QualityTier::Balanced);
        assert_eq!(q.tier_for(400_000), QualityTier::Economy);
    }

    #[test]
    fn hysteresis_resists_flapping() {
        let mut q = qc();
        assert_eq!(q.tier_for(1_000_000), QualityTier::Balanced);
        // Just above the lossless threshold is not enough to climb back...
        assert_eq!(q.tier_for(1_550_000), QualityTier::Balanced);
        // ...15% above is.
        assert_eq!(q.tier_for(1_800_000), QualityTier::Lossless);
    }

    #[test]
    fn coalescing_stretches_under_pressure() {
        let mut q = qc();
        q.tier_for(2_000_000);
        assert_eq!(q.coalesce_us(), COALESCE_US[0]);
        q.tier_for(1_000_000);
        assert_eq!(q.coalesce_us(), COALESCE_US[1]);
        q.tier_for(100_000);
        assert_eq!(q.coalesce_us(), COALESCE_US[2]);
        assert!(COALESCE_US[0] < COALESCE_US[1] && COALESCE_US[1] < COALESCE_US[2]);
    }

    #[test]
    fn refresh_throttle() {
        let mut q = qc();
        assert!(q.allow_refresh(0), "first refresh always allowed");
        assert!(!q.allow_refresh(100_000));
        assert!(!q.allow_refresh(REFRESH_MIN_INTERVAL_US - 1));
        assert_eq!(q.refreshes_throttled(), 2);
        assert!(q.allow_refresh(REFRESH_MIN_INTERVAL_US));
    }

    #[test]
    fn tier_quality_knobs() {
        assert_eq!(QualityTier::Lossless.dct_quality(), None);
        assert!(!QualityTier::Lossless.is_lossy());
        assert_eq!(QualityTier::Balanced.dct_quality(), Some(70));
        assert_eq!(QualityTier::Economy.dct_quality(), Some(35));
        assert!(QualityTier::Economy.is_lossy());
    }
}
