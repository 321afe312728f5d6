//! Frame-boundary tier switching with dwell.
//!
//! The AIMD estimator's tier signal ([`adshare_rate::QualityController`])
//! already has rate hysteresis, but a relay must additionally never change
//! the wire format mid-unit (a participant would decode half a region at
//! one quality and half at another), and must not flap back up the moment
//! one clean report arrives. [`TierSelector`] latches the raw signal:
//! the owner calls [`TierSelector::observe`] only at unit boundaries,
//! downgrades take effect immediately (congestion relief cannot wait), and
//! upgrades require a minimum dwell in the current tier.

use adshare_rate::QualityTier;

/// Minimum time (µs) in the current tier before an **upgrade** (toward
/// lossless) is honoured. Downgrades are immediate. A relay's upstream
/// subscription dwells as long before it asks for a lossier tier.
pub const MIN_DWELL_US: u64 = 500_000;

/// One committed tier change, reported so the owner can emit events and
/// trigger the lossless repair pass on upgrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSwitch {
    /// Tier before the switch.
    pub from: QualityTier,
    /// Tier now active.
    pub to: QualityTier,
    /// Virtual time of the switch.
    pub at_us: u64,
}

impl TierSwitch {
    /// Whether this switch moves toward lossless (and therefore owes the
    /// subtree a lossless repair pass to converge pixel-identical).
    pub fn is_upgrade(self) -> bool {
        self.to < self.from
    }
}

/// Latches the estimator's tier signal onto unit boundaries.
///
/// Deterministic: the active tier is a pure function of the
/// `(want, now_us)` sequence passed to [`TierSelector::observe`].
#[derive(Debug, Clone)]
pub struct TierSelector {
    active: QualityTier,
    last_switch_us: u64,
    switches: u64,
    downgrades: u64,
}

/// A new selector is active at lossless.
impl Default for TierSelector {
    fn default() -> Self {
        TierSelector {
            active: QualityTier::Lossless,
            last_switch_us: 0,
            switches: 0,
            downgrades: 0,
        }
    }
}

impl TierSelector {
    /// The tier currently on the wire.
    pub fn active(&self) -> QualityTier {
        self.active
    }

    /// Offer the estimator's current want at a unit boundary. Returns the
    /// committed switch, if any.
    pub fn observe(&mut self, want: QualityTier, now_us: u64) -> Option<TierSwitch> {
        if want == self.active {
            return None;
        }
        let upgrade = want < self.active;
        if upgrade && now_us.saturating_sub(self.last_switch_us) < MIN_DWELL_US {
            return None;
        }
        let sw = TierSwitch {
            from: self.active,
            to: want,
            at_us: now_us,
        };
        self.active = want;
        self.last_switch_us = now_us;
        self.switches += 1;
        if !upgrade {
            self.downgrades += 1;
        }
        Some(sw)
    }

    /// Committed switches since creation.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Committed downgrades (toward economy) since creation.
    pub fn downgrades(&self) -> u64 {
        self.downgrades
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downgrade_is_immediate_upgrade_dwells() {
        let mut s = TierSelector::default();
        let sw = s.observe(QualityTier::Balanced, 10).expect("downgrade");
        assert_eq!(sw.from, QualityTier::Lossless);
        assert_eq!(sw.to, QualityTier::Balanced);
        assert!(!sw.is_upgrade());

        // Upgrade denied until dwell expires.
        assert_eq!(
            s.observe(QualityTier::Lossless, 10 + MIN_DWELL_US / 2),
            None
        );
        assert_eq!(s.observe(QualityTier::Lossless, 9 + MIN_DWELL_US), None);
        assert_eq!(s.active(), QualityTier::Balanced);
        let sw = s
            .observe(QualityTier::Lossless, 10 + MIN_DWELL_US)
            .expect("upgrade after dwell");
        assert!(sw.is_upgrade());
        assert_eq!(s.active(), QualityTier::Lossless);
        assert_eq!(s.switches(), 2);
        assert_eq!(s.downgrades(), 1);
    }

    #[test]
    fn deeper_downgrade_never_waits() {
        let mut s = TierSelector::default();
        assert!(s.observe(QualityTier::Balanced, 5).is_some());
        // Still inside the dwell window, but lossier: applies at once.
        assert!(s.observe(QualityTier::Economy, 6).is_some());
        assert_eq!(s.active(), QualityTier::Economy);
        assert_eq!(s.downgrades(), 2);
    }

    #[test]
    fn stable_want_is_silent() {
        let mut s = TierSelector::default();
        for t in 0..100u64 {
            assert_eq!(s.observe(QualityTier::Lossless, t * 1000), None);
        }
        assert_eq!(s.switches(), 0);
    }
}
