//! Simulated unidirectional UDP channel: seeded loss, reordering,
//! duplication, propagation delay with jitter, and an optional rate limit
//! (the draft's AH "controls the transmission rate for participants using
//! UDP", §4.3).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use adshare_obs::Registry;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Channel impairment parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Probability a datagram is dropped, 0.0..=1.0.
    pub loss: f64,
    /// Probability a delivered datagram is duplicated.
    pub duplicate: f64,
    /// Base one-way propagation delay, µs.
    pub delay_us: u64,
    /// Uniform jitter added to the delay, µs (0..=jitter_us).
    pub jitter_us: u64,
    /// Link rate in bits/second; `None` = infinite.
    pub rate_bps: Option<u64>,
    /// Maximum datagram size; larger sends are dropped (no IP
    /// fragmentation modelled).
    pub mtu: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            loss: 0.0,
            duplicate: 0.0,
            delay_us: 20_000, // 20 ms
            jitter_us: 0,
            rate_bps: None,
            mtu: 65_535,
        }
    }
}

/// One step of a time-varying link profile: from `at_us` on, the channel
/// behaves per `cfg`.
#[derive(Debug, Clone, Copy)]
pub struct LinkStep {
    /// Simulation time the new parameters take effect, µs.
    pub at_us: u64,
    /// The parameters in force from `at_us` until the next step.
    pub cfg: LinkConfig,
}

adshare_obs::metric_set! {
    /// Live counter handles behind [`UdpStats`].
    struct UdpCounters {}
    /// Delivery statistics (a point-in-time copy of the channel's counters).
    ///
    /// Accounting is byte-exact: every offered datagram ends up delivered,
    /// dropped, or still in flight, and duplication is tracked separately, so
    /// once the channel is drained
    ///
    /// ```text
    /// sent + duplicated == delivered + dropped
    /// bytes_sent + bytes_duplicated == bytes_delivered + bytes_dropped
    /// ```
    pub struct UdpStats {
        /// Datagrams offered to the channel.
        sent: counter "tx_datagrams",
        /// Payload bytes offered.
        bytes_sent: counter "tx_bytes",
        /// Datagrams delivered (includes duplicates).
        delivered: counter "rx_datagrams",
        /// Payload bytes delivered (includes duplicate copies).
        bytes_delivered: counter "rx_bytes",
        /// Datagrams dropped by loss, MTU, or rate policing.
        dropped: counter "dropped_datagrams",
        /// Payload bytes dropped by loss, MTU, or rate policing.
        bytes_dropped: counter "dropped_bytes",
        /// Extra datagram copies injected by duplication.
        duplicated: counter "dup_datagrams",
        /// Payload bytes added by duplicate copies.
        bytes_duplicated: counter "dup_bytes",
    }
}

#[derive(Debug, PartialEq, Eq)]
struct InFlight {
    deliver_at: u64,
    /// Tie-break so equal-time packets keep send order.
    seq: u64,
    /// A handle on the sender's buffer: a duplicated delivery and every
    /// multicast member share the one allocation.
    payload: Bytes,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A unidirectional datagram channel.
#[derive(Debug)]
pub struct UdpChannel {
    cfg: LinkConfig,
    rng: StdRng,
    queue: BinaryHeap<Reverse<InFlight>>,
    next_seq: u64,
    /// Time the serializer is busy until (rate limiting).
    tx_free_at: u64,
    /// Pending profile steps, sorted by time, consumed front-first.
    schedule: Vec<LinkStep>,
    /// Deterministic drop: the next `drop_pending` sends are discarded
    /// regardless of the loss probability (test hook).
    drop_pending: u32,
    counters: UdpCounters,
}

impl UdpChannel {
    /// New channel with deterministic behaviour derived from `seed`.
    pub fn new(cfg: LinkConfig, seed: u64) -> Self {
        UdpChannel {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            queue: BinaryHeap::new(),
            next_seq: 0,
            tx_free_at: 0,
            schedule: Vec::new(),
            drop_pending: 0,
            counters: UdpCounters::default(),
        }
    }

    /// The configured impairments (as of the last applied schedule step).
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Install a time-varying profile: each [`LinkStep`] replaces the
    /// channel parameters once the clock reaches its `at_us` (applied on
    /// the next `send`). Bandwidth step changes, loss episodes, and
    /// duplicate storms are all just steps. Replaces any prior schedule;
    /// packets already in flight are unaffected.
    pub fn set_schedule(&mut self, mut steps: Vec<LinkStep>) {
        steps.sort_by_key(|s| s.at_us);
        self.schedule = steps;
    }

    fn apply_schedule(&mut self, now_us: u64) {
        let due = self
            .schedule
            .iter()
            .take_while(|s| s.at_us <= now_us)
            .count();
        for step in self.schedule.drain(..due) {
            self.cfg = step.cfg;
        }
    }

    /// Deterministically drop the next `n` offered datagrams, independent
    /// of the probabilistic loss model. Lets tests lose a *specific* packet
    /// (e.g. the same sequence on two fan-out legs) without seed hunting.
    pub fn drop_next(&mut self, n: u32) {
        self.drop_pending += n;
    }

    /// Offer a borrowed datagram at time `now_us`; the channel copies it
    /// once if it survives to be queued. Same channel behaviour as
    /// [`UdpChannel::send_bytes`], for a caller without a [`Bytes`] in hand.
    pub fn send(&mut self, now_us: u64, payload: &[u8]) {
        self.offer(now_us, payload.len(), || Bytes::copy_from_slice(payload));
    }

    /// Offer a datagram the sender already holds as a shared buffer: the
    /// channel queues a clone of the handle, never a copy of the bytes.
    pub fn send_bytes(&mut self, now_us: u64, payload: &Bytes) {
        self.offer(now_us, payload.len(), || payload.clone());
    }

    /// The channel model. `handle` is only called for a datagram that gets
    /// past MTU, rate policing and loss.
    fn offer(&mut self, now_us: u64, len: usize, handle: impl FnOnce() -> Bytes) {
        self.apply_schedule(now_us);
        self.counters.sent.inc();
        self.counters.bytes_sent.add(len as u64);
        if self.drop_pending > 0 {
            self.drop_pending -= 1;
            self.drop(len);
            return;
        }
        if len > self.cfg.mtu {
            self.drop(len);
            return;
        }
        // Serialisation delay under the rate limit. The channel models a
        // short router queue: if the serializer is more than 100 ms behind,
        // the queue is full and the datagram is tail-dropped.
        let ser_start = self.tx_free_at.max(now_us);
        if let Some(rate) = self.cfg.rate_bps {
            if ser_start > now_us + 100_000 {
                self.drop(len);
                return;
            }
            let ser_us = (len as u64 * 8).saturating_mul(1_000_000) / rate.max(1);
            self.tx_free_at = ser_start + ser_us;
        }
        if self.rng.gen_bool(self.cfg.loss.clamp(0.0, 1.0)) {
            self.drop(len);
            return;
        }
        let base = if self.cfg.rate_bps.is_some() {
            self.tx_free_at
        } else {
            now_us
        };
        let jitter = if self.cfg.jitter_us > 0 {
            self.rng.gen_range(0..=self.cfg.jitter_us)
        } else {
            0
        };
        let deliver_at = base + self.cfg.delay_us + jitter;
        let payload = handle();
        self.queue.push(Reverse(InFlight {
            deliver_at,
            seq: self.next_seq,
            payload: payload.clone(),
        }));
        self.next_seq += 1;
        if self.rng.gen_bool(self.cfg.duplicate.clamp(0.0, 1.0)) {
            self.counters.duplicated.inc();
            self.counters.bytes_duplicated.add(len as u64);
            let dup_at = deliver_at + self.rng.gen_range(0..=self.cfg.jitter_us.max(1000));
            self.queue.push(Reverse(InFlight {
                deliver_at: dup_at,
                seq: self.next_seq,
                payload,
            }));
            self.next_seq += 1;
        }
    }

    fn drop(&mut self, len: usize) {
        self.counters.dropped.inc();
        self.counters.bytes_dropped.add(len as u64);
    }

    /// Collect all datagrams due by `now_us`, in delivery-time order.
    pub fn poll(&mut self, now_us: u64) -> Vec<Bytes> {
        let mut out = Vec::new();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.deliver_at > now_us {
                break;
            }
            let Reverse(pkt) = self.queue.pop().expect("peeked");
            self.counters.delivered.inc();
            self.counters.bytes_delivered.add(pkt.payload.len() as u64);
            out.push(pkt.payload);
        }
        out
    }

    /// Earliest pending delivery time, if any (for event-driven stepping).
    pub fn next_delivery_us(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(p)| p.deliver_at)
    }

    /// Datagrams currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> UdpStats {
        self.counters.stats()
    }

    /// Adopt this channel's counters into `registry` under `prefix`
    /// (e.g. `participant.0.udp` → `participant.0.udp.tx_bytes`, ...).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.counters.register(registry, prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossless(delay_us: u64) -> UdpChannel {
        UdpChannel::new(
            LinkConfig {
                delay_us,
                ..Default::default()
            },
            1,
        )
    }

    #[test]
    fn delivers_after_delay_in_order() {
        let mut ch = lossless(10_000);
        ch.send(0, b"one");
        ch.send(100, b"two");
        assert!(ch.poll(9_999).is_empty());
        let got = ch.poll(10_050);
        assert_eq!(got, vec![b"one".to_vec()]);
        let got = ch.poll(10_200);
        assert_eq!(got, vec![b"two".to_vec()]);
        assert_eq!(ch.stats().delivered, 2);
    }

    #[test]
    fn loss_rate_approximately_respected() {
        let cfg = LinkConfig {
            loss: 0.3,
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 42);
        for i in 0..10_000u64 {
            ch.send(i, b"x");
        }
        let delivered = ch.poll(1_000_000).len();
        assert!(
            (6_300..=7_700).contains(&delivered),
            "delivered {delivered} of 10000 at 30% loss"
        );
        assert_eq!(ch.stats().dropped as usize + delivered, 10_000);
    }

    #[test]
    fn jitter_reorders_but_poll_is_time_ordered() {
        let cfg = LinkConfig {
            delay_us: 1_000,
            jitter_us: 50_000,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 7);
        for i in 0..100u8 {
            ch.send(0, &[i]);
        }
        let got = ch.poll(1_000_000);
        assert_eq!(got.len(), 100);
        // With 50 ms of jitter on simultaneous sends, order must differ
        // somewhere from send order.
        let in_order: Vec<u8> = (0..100).collect();
        let received: Vec<u8> = got.iter().map(|p| p[0]).collect();
        assert_ne!(received, in_order, "jitter should reorder");
    }

    #[test]
    fn duplication() {
        let cfg = LinkConfig {
            duplicate: 1.0,
            delay_us: 0,
            jitter_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 9);
        ch.send(0, b"dup");
        let got = ch.poll(1_000_000);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn owned_sends_are_queued_by_handle() {
        let cfg = LinkConfig {
            duplicate: 1.0,
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 9);
        let datagram = Bytes::copy_from_slice(b"one buffer");
        ch.send_bytes(0, &datagram);
        let got = ch.poll(1_000_000);
        assert_eq!(got.len(), 2, "delivered and duplicated");
        for delivered in &got {
            assert!(
                std::ptr::eq(delivered.as_ptr(), datagram.as_ptr()),
                "the receiver gets the sender's buffer, not a copy"
            );
        }
        // The borrowed spelling is the same channel: same draws, same stats.
        let mut borrowed = UdpChannel::new(cfg, 9);
        borrowed.send(0, b"one buffer");
        assert_eq!(borrowed.poll(1_000_000), got);
        assert_eq!(borrowed.stats().bytes_delivered, ch.stats().bytes_delivered);
    }

    #[test]
    fn mtu_enforced() {
        let cfg = LinkConfig {
            mtu: 100,
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 3);
        ch.send(0, &[0u8; 101]);
        ch.send(0, &[0u8; 100]);
        assert_eq!(ch.poll(1_000).len(), 1);
        assert_eq!(ch.stats().dropped, 1);
    }

    #[test]
    fn rate_limit_spaces_deliveries() {
        // 1 Mbit/s: a 1250-byte packet takes 10 ms to serialize.
        let cfg = LinkConfig {
            rate_bps: Some(1_000_000),
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 4);
        for _ in 0..5 {
            ch.send(0, &[0u8; 1250]);
        }
        assert_eq!(ch.poll(10_000).len(), 1);
        assert_eq!(ch.poll(30_000).len(), 2);
        assert_eq!(ch.poll(50_000).len(), 2);
    }

    #[test]
    fn rate_limit_queue_overflow_drops() {
        // Tiny rate: the 100 ms queue bound forces tail drops.
        let cfg = LinkConfig {
            rate_bps: Some(8_000),
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(cfg, 5);
        for _ in 0..100 {
            ch.send(0, &[0u8; 125]); // each takes 125ms to serialize
        }
        assert!(
            ch.stats().dropped > 90,
            "most must tail-drop, got {}",
            ch.stats().dropped
        );
    }

    #[test]
    fn determinism_per_seed() {
        let cfg = LinkConfig {
            loss: 0.5,
            jitter_us: 10_000,
            ..Default::default()
        };
        let run = |seed| {
            let mut ch = UdpChannel::new(cfg, seed);
            for i in 0..100u8 {
                ch.send(i as u64 * 10, &[i]);
            }
            ch.poll(10_000_000)
                .iter()
                .map(|p| p[0])
                .collect::<Vec<u8>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn byte_accounting_conserves_after_drain() {
        // Every impairment at once: loss, duplication, jitter, rate limit,
        // MTU violations. After a full drain, every offered byte must be
        // accounted for as delivered, dropped, or duplicated.
        let cfg = LinkConfig {
            loss: 0.2,
            duplicate: 0.1,
            delay_us: 5_000,
            jitter_us: 20_000,
            rate_bps: Some(2_000_000),
            mtu: 1200,
        };
        let mut ch = UdpChannel::new(cfg, 77);
        for i in 0..2_000u64 {
            let len = 100 + (i as usize * 37) % 1400; // some exceed the MTU
            ch.send(i * 200, &vec![0u8; len]);
        }
        let _ = ch.poll(u64::MAX);
        assert_eq!(ch.in_flight(), 0);
        let s = ch.stats();
        assert!(s.dropped > 0 && s.duplicated > 0, "impairments exercised");
        assert_eq!(s.sent + s.duplicated, s.delivered + s.dropped);
        assert_eq!(
            s.bytes_sent + s.bytes_duplicated,
            s.bytes_delivered + s.bytes_dropped
        );
    }

    #[test]
    fn counters_adoptable_into_registry() {
        let mut ch = lossless(0);
        let registry = Registry::new();
        ch.register_metrics(&registry, "udp");
        ch.register_metrics(&registry, "udp"); // idempotent re-adoption
        ch.send(0, b"hello");
        ch.poll(1_000);
        assert_eq!(registry.counter_value("udp.tx_bytes"), Some(5));
        assert_eq!(registry.counter_value("udp.rx_bytes"), Some(5));
        assert_eq!(registry.counter_value("udp.dropped_datagrams"), Some(0));
    }

    #[test]
    fn schedule_steps_apply_in_time_order() {
        // Start at 8 Mb/s, halve to 4 Mb/s at t=1 s, add duplication at
        // t=2 s. Serialisation spacing and stats must reflect each regime.
        let base = LinkConfig {
            rate_bps: Some(8_000_000),
            delay_us: 0,
            ..Default::default()
        };
        let mut ch = UdpChannel::new(base, 6);
        ch.set_schedule(vec![
            // Deliberately unsorted: set_schedule orders by time.
            LinkStep {
                at_us: 2_000_000,
                cfg: LinkConfig {
                    rate_bps: Some(4_000_000),
                    duplicate: 1.0,
                    delay_us: 0,
                    ..Default::default()
                },
            },
            LinkStep {
                at_us: 1_000_000,
                cfg: LinkConfig {
                    rate_bps: Some(4_000_000),
                    delay_us: 0,
                    ..Default::default()
                },
            },
        ]);
        // 1000-byte packet: 1 ms at 8 Mb/s, 2 ms at 4 Mb/s.
        ch.send(0, &[0u8; 1000]);
        assert_eq!(ch.next_delivery_us(), Some(1_000), "full-rate regime");
        ch.send(1_000_000, &[0u8; 1000]);
        assert_eq!(ch.next_delivery_us(), Some(1_000), "in-flight unaffected");
        let _ = ch.poll(1_000_000);
        assert_eq!(ch.next_delivery_us(), Some(1_002_000), "halved regime");
        assert_eq!(ch.stats().duplicated, 0);
        ch.send(2_000_000, &[0u8; 100]);
        assert_eq!(ch.stats().duplicated, 1, "duplicate regime");
        assert!(ch.config().duplicate == 1.0);
    }

    #[test]
    fn drop_next_discards_exactly_n_sends() {
        let mut ch = lossless(0);
        ch.drop_next(2);
        ch.send(0, b"a");
        ch.send(0, b"b");
        ch.send(0, b"c");
        let got = ch.poll(1_000);
        assert_eq!(got, vec![b"c".to_vec()]);
        assert_eq!(ch.stats().dropped, 2);
    }

    #[test]
    fn next_delivery_supports_event_stepping() {
        let mut ch = lossless(5_000);
        assert_eq!(ch.next_delivery_us(), None);
        ch.send(100, b"x");
        assert_eq!(ch.next_delivery_us(), Some(5_100));
        ch.poll(5_100);
        assert_eq!(ch.next_delivery_us(), None);
    }
}
