//! Sender-side retransmission cache.
//!
//! "AHs MAY support retransmissions" (draft §4.5.1). When it does, the AH
//! keeps recently sent remoting packets so that a Generic NACK (§5.3.2) can
//! be answered with the original packet. The cache is bounded both by packet
//! count and by total byte size; eviction is oldest-first, matching how NACK
//! usefulness decays.

use std::collections::VecDeque;

use adshare_obs::Registry;

use crate::packet::RtpPacket;
use crate::seq::seq_delta;

/// A bounded history of sent packets keyed by sequence number.
#[derive(Debug)]
pub struct RetransmitHistory {
    entries: VecDeque<RtpPacket>,
    max_packets: usize,
    max_bytes: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    /// Inert until adopted into a registry.
    occupancy: Occupancy,
}

adshare_obs::metric_set! {
    /// How full the history is, against its static caps.
    struct Occupancy {
        /// Packets currently cached.
        packets: gauge "packets",
        /// Bytes currently cached (wire size).
        bytes: gauge "bytes",
    }
}

impl RetransmitHistory {
    /// Create a history bounded by `max_packets` packets and `max_bytes`
    /// total bytes on the wire — headers included, each packet counting its
    /// [`RtpPacket::wire_len`] — whichever is hit first.
    pub fn new(max_packets: usize, max_bytes: usize) -> Self {
        RetransmitHistory {
            entries: VecDeque::new(),
            max_packets: max_packets.max(1),
            max_bytes: max_bytes.max(1),
            bytes: 0,
            hits: 0,
            misses: 0,
            occupancy: Occupancy::default(),
        }
    }

    /// Record a packet that was just sent, evicting oldest-first until both
    /// caps hold. Room is made *before* the push, so the ring never holds
    /// more than `max_packets` entries and its buffer never grows past that
    /// (pushing first would double it the moment the cap is first reached).
    pub fn record(&mut self, pkt: RtpPacket) {
        let len = pkt.wire_len();
        while !self.entries.is_empty()
            && (self.entries.len() >= self.max_packets || self.bytes + len > self.max_bytes)
        {
            self.evict_oldest();
        }
        self.bytes += len;
        self.entries.push_back(pkt);
        if self.bytes > self.max_bytes {
            // Larger than the whole byte budget on its own: not kept.
            self.evict_oldest();
        }
        self.occupancy.packets.set(self.entries.len() as i64);
        self.occupancy.bytes.set(self.bytes as i64);
    }

    fn evict_oldest(&mut self) {
        if let Some(evicted) = self.entries.pop_front() {
            self.bytes -= evicted.wire_len();
        }
    }

    /// Look up a packet by sequence number (binary search: the deque is in
    /// send order, hence in wrapping sequence order).
    pub fn lookup(&mut self, seq: u16) -> Option<&RtpPacket> {
        let base = self.entries.front()?.header.sequence;
        let idx = self
            .entries
            .binary_search_by_key(&seq_delta(seq, base), |p| {
                seq_delta(p.header.sequence, base)
            })
            .ok();
        match idx {
            Some(i) => {
                self.hits += 1;
                self.entries.get(i)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Whether `seq` is currently cached, *without* counting toward the
    /// hit/miss stats. Lets suppression-window probes (relay §6
    /// generalization) check availability before committing to a lookup.
    pub fn contains(&self, seq: u16) -> bool {
        let Some(front) = self.entries.front() else {
            return false;
        };
        let base = front.header.sequence;
        self.entries
            .binary_search_by_key(&seq_delta(seq, base), |p| {
                seq_delta(p.header.sequence, base)
            })
            .is_ok()
    }

    /// Number of packets currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total cached bytes (wire size).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// (lookup hits, lookup misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Adopt occupancy gauges into `registry` under `prefix`: current
    /// `{prefix}.packets` / `{prefix}.bytes` against the static caps
    /// `{prefix}.max_packets` / `{prefix}.max_bytes`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.occupancy.register(registry, prefix);
        registry
            .gauge(&format!("{prefix}.max_packets"))
            .set(self.max_packets as i64);
        registry
            .gauge(&format!("{prefix}.max_bytes"))
            .set(self.max_bytes as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RtpHeader;

    fn pkt(seq: u16, size: usize) -> RtpPacket {
        RtpPacket::new(RtpHeader::new(99, seq, 0, 1), vec![0u8; size])
    }

    #[test]
    fn lookup_hit_and_miss() {
        let mut h = RetransmitHistory::new(100, 1 << 20);
        for s in 0..10 {
            h.record(pkt(s, 10));
        }
        assert_eq!(h.lookup(5).unwrap().header.sequence, 5);
        assert!(h.lookup(99).is_none());
        assert_eq!(h.stats(), (1, 1));
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut h = RetransmitHistory::new(100, 1 << 20);
        for s in 0..10 {
            h.record(pkt(s, 10));
        }
        assert!(h.contains(5));
        assert!(!h.contains(99));
        assert_eq!(h.stats(), (0, 0), "contains() is a silent probe");
    }

    #[test]
    fn packet_count_bound() {
        let mut h = RetransmitHistory::new(4, 1 << 20);
        for s in 0..10 {
            h.record(pkt(s, 10));
        }
        assert_eq!(h.len(), 4);
        assert!(h.lookup(5).is_none(), "old packet evicted");
        assert!(h.lookup(9).is_some());
    }

    #[test]
    fn byte_bound() {
        let mut h = RetransmitHistory::new(1000, 100);
        for s in 0..10 {
            h.record(pkt(s, 30)); // wire_len = 42 each
        }
        assert!(h.bytes() <= 100);
        assert!(h.len() <= 2);
    }

    #[test]
    fn ring_never_outgrows_the_packet_cap() {
        let mut h = RetransmitHistory::new(64, 1 << 20);
        for s in 0..1000u16 {
            h.record(pkt(s, 10));
            assert!(h.len() <= 64);
        }
        assert!(h.entries.capacity() <= 64, "evict before push");
        assert!(h.lookup(936).is_some() && h.lookup(935).is_none());
    }

    #[test]
    fn oversize_packet_is_not_kept() {
        let mut h = RetransmitHistory::new(10, 100);
        h.record(pkt(1, 20));
        h.record(pkt(2, 200));
        assert!(h.is_empty());
        assert_eq!(h.bytes(), 0);
    }

    #[test]
    fn occupancy_gauges_track_contents_and_caps() {
        use adshare_obs::{MetricSnapshot, Registry};
        let mut h = RetransmitHistory::new(4, 1 << 20);
        let registry = Registry::new();
        h.register_metrics(&registry, "ah.retx_history");
        for s in 0..10 {
            h.record(pkt(s, 10));
        }
        let snap = registry.snapshot();
        let gauge = |name: &str| match snap.get(name) {
            Some(MetricSnapshot::Gauge(v)) => *v,
            other => panic!("{name}: expected gauge, got {other:?}"),
        };
        assert_eq!(gauge("ah.retx_history.packets"), 4);
        assert_eq!(gauge("ah.retx_history.bytes"), h.bytes() as i64);
        assert_eq!(gauge("ah.retx_history.max_packets"), 4);
        assert_eq!(gauge("ah.retx_history.max_bytes"), 1 << 20);
    }

    #[test]
    fn lookup_across_wraparound() {
        let mut h = RetransmitHistory::new(10, 1 << 20);
        for s in [65533u16, 65534, 65535, 0, 1, 2] {
            h.record(pkt(s, 5));
        }
        assert_eq!(h.lookup(65535).unwrap().header.sequence, 65535);
        assert_eq!(h.lookup(1).unwrap().header.sequence, 1);
    }
}
