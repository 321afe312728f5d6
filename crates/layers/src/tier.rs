//! The published tier set and its SDP representation.

use adshare_rate::QualityTier;

/// Session-level SDP attribute advertising the published tiers, e.g.
/// `a=adshare-layers:0,1,2` (gauge values per [`QualityTier::as_gauge`]:
/// 0 = lossless, 1 = balanced, 2 = economy). Follows the
/// `adshare-relay-hops` session-attribute pattern.
pub const SDP_ATTR: &str = "adshare-layers";

/// Map a wire gauge value (0/1/2) back to a tier.
pub fn tier_from_gauge(g: u8) -> Option<QualityTier> {
    match g {
        0 => Some(QualityTier::Lossless),
        1 => Some(QualityTier::Balanced),
        2 => Some(QualityTier::Economy),
        _ => None,
    }
}

/// The ordered set of tiers a sender publishes. Always contains
/// [`QualityTier::Lossless`] — the lossless layer is the stream itself;
/// lossy tiers are alternates of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierSet {
    tiers: Vec<QualityTier>,
}

impl TierSet {
    /// All three tiers (the default publication).
    pub fn all() -> Self {
        TierSet {
            tiers: vec![
                QualityTier::Lossless,
                QualityTier::Balanced,
                QualityTier::Economy,
            ],
        }
    }

    /// Lossless only — semantically "layers off" for negotiation.
    pub fn lossless_only() -> Self {
        TierSet {
            tiers: vec![QualityTier::Lossless],
        }
    }

    /// Build from an explicit list. Lossless is inserted if absent;
    /// duplicates are dropped; order is normalized lossless-first.
    pub fn new(tiers: &[QualityTier]) -> Self {
        let mut all = vec![
            QualityTier::Lossless,
            QualityTier::Balanced,
            QualityTier::Economy,
        ];
        all.retain(|t| *t == QualityTier::Lossless || tiers.contains(t));
        TierSet { tiers: all }
    }

    /// The tiers, lossless first.
    pub fn tiers(&self) -> &[QualityTier] {
        &self.tiers
    }

    /// Whether `tier` is published.
    pub fn contains(&self, tier: QualityTier) -> bool {
        self.tiers.contains(&tier)
    }

    /// SDP attribute value, e.g. `"0,1,2"`.
    pub fn to_attr(&self) -> String {
        let parts: Vec<String> = self
            .tiers
            .iter()
            .map(|t| t.as_gauge().to_string())
            .collect();
        parts.join(",")
    }

    /// Parse an SDP attribute value. Unknown gauges are skipped; an empty
    /// or unparsable value yields the lossless-only set.
    pub fn from_attr(value: &str) -> Self {
        let tiers: Vec<QualityTier> = value
            .split(',')
            .filter_map(|p| p.trim().parse::<u8>().ok())
            .filter_map(tier_from_gauge)
            .collect();
        TierSet::new(&tiers)
    }
}

impl Default for TierSet {
    fn default() -> Self {
        TierSet::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_round_trip() {
        let set = TierSet::all();
        assert_eq!(set.to_attr(), "0,1,2");
        assert_eq!(TierSet::from_attr("0,1,2"), set);
        assert_eq!(TierSet::from_attr("2,1,0"), set, "order normalized");
    }

    #[test]
    fn lossless_always_present() {
        let set = TierSet::new(&[QualityTier::Economy]);
        assert!(set.contains(QualityTier::Lossless));
        assert!(!set.contains(QualityTier::Balanced));
        assert_eq!(set.to_attr(), "0,2");
        assert_eq!(TierSet::from_attr(""), TierSet::lossless_only());
        assert_eq!(TierSet::from_attr("garbage"), TierSet::lossless_only());
    }

    #[test]
    fn gauge_round_trip() {
        for t in [
            QualityTier::Lossless,
            QualityTier::Balanced,
            QualityTier::Economy,
        ] {
            assert_eq!(tier_from_gauge(t.as_gauge() as u8), Some(t));
        }
        assert_eq!(tier_from_gauge(3), None);
    }
}
