//! Receiver-side reordering buffer.
//!
//! UDP participants receive remoting packets out of order. The draft relies
//! on RTP sequence numbers to "re-order the packets \[and\] recognize missing
//! packets" (§4.2). This buffer releases packets in sequence order, holds a
//! bounded window of out-of-order arrivals, and reports gaps so the session
//! layer can emit Generic NACKs (§5.3.2).

use std::collections::BTreeMap;

use crate::packet::RtpPacket;
use crate::seq::seq_delta;

/// Outcome of feeding one packet into the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ingest {
    /// Packet accepted (possibly buffered); call `pop_ready` to drain.
    Accepted,
    /// Duplicate of a packet already delivered or buffered; dropped.
    Duplicate,
    /// Packet older than the delivery cursor; dropped.
    TooOld,
    /// Accepted, but the buffer overflowed: the cursor jumped to the oldest
    /// held packet, abandoning the gap before it for good.
    Jumped,
}

/// A bounded reordering buffer keyed by 16-bit sequence numbers.
#[derive(Debug)]
pub struct ReorderBuffer {
    /// Next sequence number to deliver, once known.
    next: Option<u16>,
    /// Held packets, keyed by signed distance from `next` (always > 0 for
    /// buffered entries except the one equal to `next`).
    held: BTreeMap<u16, RtpPacket>,
    /// Maximum number of packets held before we skip ahead.
    capacity: usize,
    /// Sequence numbers detected missing since the last `take_missing` call.
    missing: Vec<u16>,
    /// Count of packets dropped as duplicates or too-old.
    dropped: u64,
}

impl ReorderBuffer {
    /// Create a buffer holding at most `capacity` out-of-order packets.
    pub fn new(capacity: usize) -> Self {
        ReorderBuffer {
            next: None,
            held: BTreeMap::new(),
            capacity: capacity.max(1),
            missing: Vec::new(),
            dropped: 0,
        }
    }

    /// Feed an arriving packet.
    pub fn ingest(&mut self, pkt: RtpPacket) -> Ingest {
        let seq = pkt.header.sequence;
        let next = match self.next {
            None => {
                // First packet fixes the delivery cursor.
                self.next = Some(seq);
                seq
            }
            Some(n) => n,
        };
        let delta = seq_delta(seq, next);
        if delta < 0 {
            self.dropped += 1;
            return Ingest::TooOld;
        }
        if self.held.contains_key(&seq) {
            self.dropped += 1;
            return Ingest::Duplicate;
        }
        // Record newly-visible gaps: sequence numbers between the highest we
        // knew about and this arrival. Only a packet that *extends* the
        // highest sequence can reveal a new gap — an arrival that merely
        // fills in behind it must not walk (it would wrap the whole space).
        if delta > 0 {
            let start = self.highest_known();
            if seq_delta(seq, start) > 0 {
                let mut s = start.wrapping_add(1);
                while s != seq {
                    if !self.held.contains_key(&s) {
                        self.missing.push(s);
                    }
                    s = s.wrapping_add(1);
                }
            }
        }
        self.held.insert(seq, pkt);
        // Overflow policy: if we hold too much, advance the cursor to the
        // oldest held packet, abandoning the gap, and say so: the session
        // layer must drop the message the gap cut and ask for a refresh.
        match self.oldest_held() {
            Some(oldest) if self.held.len() > self.capacity && self.next != Some(oldest) => {
                self.next = Some(oldest);
                Ingest::Jumped
            }
            _ => Ingest::Accepted,
        }
    }

    /// Pop the next in-order packet, if available.
    pub fn pop_ready(&mut self) -> Option<RtpPacket> {
        let next = self.next?;
        if let Some(pkt) = self.held.remove(&next) {
            self.next = Some(next.wrapping_add(1));
            Some(pkt)
        } else {
            None
        }
    }

    /// Force delivery past a gap: jump the cursor to the oldest held packet.
    /// Used when the session layer times out waiting for a retransmission.
    pub fn skip_gap(&mut self) -> bool {
        match (self.next, self.oldest_held()) {
            (Some(n), Some(oldest)) if oldest != n => {
                self.next = Some(oldest);
                true
            }
            _ => false,
        }
    }

    /// Drain the list of sequence numbers newly detected as missing.
    pub fn take_missing(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.missing)
    }

    /// Sequence numbers currently blocking in-order delivery: every gap
    /// between the delivery cursor and the highest held packet. Unlike
    /// [`take_missing`](Self::take_missing) (which reports each gap once,
    /// on detection) this is a live view, so the session layer can re-NACK
    /// a gap whose first repair was itself lost. Returns at most `limit`
    /// sequences; empty when nothing is held (a tail loss blocks nothing
    /// and is repaired via receiver reports instead).
    pub fn missing_now(&self, limit: usize) -> Vec<u16> {
        let Some(next) = self.next else {
            return Vec::new();
        };
        if self.held.is_empty() {
            return Vec::new();
        }
        let highest = self.highest_known();
        let mut out = Vec::new();
        let mut s = next;
        // The walk is bounded by the held span, which the capacity-overflow
        // policy keeps short; the explicit cap guards pathological spans.
        for _ in 0..4096 {
            if s == highest.wrapping_add(1) {
                break;
            }
            if !self.held.contains_key(&s) {
                out.push(s);
                if out.len() >= limit {
                    break;
                }
            }
            s = s.wrapping_add(1);
        }
        out
    }

    /// Number of packets currently buffered out of order.
    pub fn held_len(&self) -> usize {
        self.held.len()
    }

    /// Packets dropped as duplicate/too-old since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn highest_known(&self) -> u16 {
        // Highest (in wrapping order) of held keys and next-1.
        let base = self.next.unwrap_or(0).wrapping_sub(1);
        self.held
            .keys()
            .copied()
            .fold(base, |acc, k| if seq_delta(k, acc) > 0 { k } else { acc })
    }

    fn oldest_held(&self) -> Option<u16> {
        self.held
            .keys()
            .copied()
            .reduce(|acc, k| if seq_delta(k, acc) < 0 { k } else { acc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::RtpHeader;

    fn pkt(seq: u16) -> RtpPacket {
        RtpPacket::new(RtpHeader::new(99, seq, 0, 1), vec![seq as u8])
    }

    fn drain(buf: &mut ReorderBuffer) -> Vec<u16> {
        let mut out = Vec::new();
        while let Some(p) = buf.pop_ready() {
            out.push(p.header.sequence);
        }
        out
    }

    #[test]
    fn in_order_passthrough() {
        let mut b = ReorderBuffer::new(16);
        for s in 10..15 {
            assert_eq!(b.ingest(pkt(s)), Ingest::Accepted);
        }
        assert_eq!(drain(&mut b), vec![10, 11, 12, 13, 14]);
        assert!(b.take_missing().is_empty());
    }

    #[test]
    fn reorders_swapped_pair() {
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(0));
        b.ingest(pkt(2));
        assert_eq!(drain(&mut b), vec![0]); // 1 missing, 2 held
        assert_eq!(b.take_missing(), vec![1]);
        b.ingest(pkt(1));
        assert_eq!(drain(&mut b), vec![1, 2]);
    }

    #[test]
    fn duplicate_and_old_dropped() {
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(5));
        assert_eq!(b.ingest(pkt(5)), Ingest::Duplicate);
        assert_eq!(drain(&mut b), vec![5]);
        assert_eq!(b.ingest(pkt(5)), Ingest::TooOld);
        assert_eq!(b.ingest(pkt(4)), Ingest::TooOld);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn gap_detection_across_wrap() {
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(65534));
        b.ingest(pkt(1)); // 65535 and 0 missing
        let mut missing = b.take_missing();
        missing.sort_unstable();
        assert_eq!(missing, vec![0, 65535]);
    }

    #[test]
    fn overflow_skips_ahead() {
        let mut b = ReorderBuffer::new(4);
        b.ingest(pkt(0));
        assert_eq!(drain(&mut b), vec![0]);
        // Packet 1 lost forever; 2..=6 arrive, exceeding capacity 4.
        for s in 2..=5 {
            assert_eq!(b.ingest(pkt(s)), Ingest::Accepted);
        }
        assert_eq!(b.ingest(pkt(6)), Ingest::Jumped, "the jump is reported");
        // Cursor jumped to 2; everything held drains in order.
        assert_eq!(drain(&mut b), vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn backfill_arrival_does_not_wrap_gap_walk() {
        // Regression: with 3 held (next=0 missing, 1..=3 held), a late
        // arrival of 1's *duplicate partner* 2 — newer than the cursor but
        // older than the highest-seen — must not report ~65k missing seqs.
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(0));
        assert_eq!(drain(&mut b), vec![0]);
        b.ingest(pkt(5)); // gap: 1..=4 missing
        let mut miss = b.take_missing();
        miss.sort_unstable();
        assert_eq!(miss, vec![1, 2, 3, 4]);
        // Backfill 2 (behind highest 5): reveals nothing new.
        b.ingest(pkt(2));
        assert!(
            b.take_missing().is_empty(),
            "backfill must not re-report gaps"
        );
        b.ingest(pkt(3));
        assert!(b.take_missing().is_empty());
        // Extending the highest reveals exactly the fresh gap.
        b.ingest(pkt(7));
        assert_eq!(b.take_missing(), vec![6]);
    }

    #[test]
    fn missing_now_is_a_live_view_of_blocking_gaps() {
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(0));
        assert_eq!(drain(&mut b), vec![0]);
        b.ingest(pkt(4)); // 1..=3 missing, 4 held
        b.take_missing();
        // take_missing is one-shot, but the gap still blocks delivery.
        assert!(b.take_missing().is_empty());
        assert_eq!(b.missing_now(16), vec![1, 2, 3]);
        b.ingest(pkt(2));
        assert_eq!(b.missing_now(16), vec![1, 3]);
        assert_eq!(b.missing_now(1), vec![1]);
        b.ingest(pkt(1));
        b.ingest(pkt(3));
        assert_eq!(drain(&mut b), vec![1, 2, 3, 4]);
        assert!(b.missing_now(16).is_empty(), "nothing held, nothing blocks");
    }

    #[test]
    fn skip_gap_on_timeout() {
        let mut b = ReorderBuffer::new(16);
        b.ingest(pkt(0));
        b.ingest(pkt(3));
        assert_eq!(drain(&mut b), vec![0]);
        assert!(b.skip_gap());
        assert_eq!(drain(&mut b), vec![3]);
        assert!(!b.skip_gap());
    }
}
