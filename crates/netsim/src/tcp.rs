//! Simulated unidirectional TCP stream: reliable, ordered bytes over a
//! bandwidth-limited link with a **bounded, observable send buffer** —
//! the mechanism behind the draft's §7 guidance that AHs "should monitor
//! the state of their TCP transmission buffers (through mechanisms such as
//! the select() command) and only send the most recent screen data when
//! there is no backlog".

use adshare_obs::Registry;

/// TCP link parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Link rate, bits/second.
    pub rate_bps: u64,
    /// One-way propagation delay, µs.
    pub delay_us: u64,
    /// Send-buffer capacity in bytes (SO_SNDBUF).
    pub send_buf: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            rate_bps: 10_000_000,
            delay_us: 20_000,
            send_buf: 64 * 1024,
        }
    }
}

adshare_obs::metric_set! {
    /// Live handles behind [`TcpStats`], plus the backlog gauge.
    struct TcpCounters {
        /// Current send-buffer occupancy — the §7 backlog signal as a gauge.
        backlog: gauge "backlog_bytes",
    }
    /// Stream statistics (a point-in-time copy of the link's counters).
    ///
    /// The stream is reliable, so once the link is drained every accepted
    /// byte is delivered: `bytes_accepted == bytes_delivered`.
    pub struct TcpStats {
        /// Bytes accepted into the send buffer.
        bytes_accepted: counter "tx_bytes",
        /// Bytes the sender offered but the buffer could not take.
        bytes_refused: counter "refused_bytes",
        /// Bytes delivered to the receiver.
        bytes_delivered: counter "rx_bytes",
    }
}

/// A unidirectional reliable byte stream over one byte queue (DESIGN §5.1).
#[derive(Debug)]
pub struct TcpLink {
    cfg: TcpConfig,
    /// Accepted, undelivered bytes: the segments on the wire first, then
    /// the sender's socket buffer. `send` copies in, `recv` copies out.
    bytes: std::collections::VecDeque<u8>,
    /// Segments on the wire, oldest first: (arrival time, length).
    in_flight: std::collections::VecDeque<(u64, usize)>,
    /// Bytes at the front of `bytes` that are on the wire.
    on_wire: usize,
    /// When the serializer frees up.
    tx_free_at: u64,
    counters: TcpCounters,
    last_pump_us: u64,
}

impl TcpLink {
    /// New link.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpLink {
            cfg,
            bytes: std::collections::VecDeque::new(),
            in_flight: std::collections::VecDeque::new(),
            on_wire: 0,
            tx_free_at: 0,
            counters: TcpCounters::default(),
            last_pump_us: 0,
        }
    }

    /// The link parameters.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Offer bytes at `now_us`. Returns how many were accepted — like a
    /// non-blocking `write(2)`, the rest must be retried (or, per §7,
    /// superseded by fresher data).
    pub fn send(&mut self, now_us: u64, data: &[u8]) -> usize {
        self.pump(now_us);
        if self.queued() == 0 {
            // An idle serializer cannot have started before this data arrived.
            self.tx_free_at = self.tx_free_at.max(now_us);
        }
        let space = self.cfg.send_buf.saturating_sub(self.queued());
        let take = space.min(data.len());
        self.bytes.extend(&data[..take]);
        self.counters.bytes_accepted.add(take as u64);
        self.counters.bytes_refused.add((data.len() - take) as u64);
        self.pump(now_us);
        take
    }

    /// Bytes currently queued in the send buffer — the §7 backlog signal.
    pub fn backlog(&mut self, now_us: u64) -> usize {
        self.pump(now_us);
        self.queued()
    }

    /// Whether `n` bytes would be accepted right now without refusal.
    pub fn can_accept(&mut self, now_us: u64, n: usize) -> bool {
        self.pump(now_us);
        self.cfg.send_buf - self.queued() >= n
    }

    /// Read everything that has arrived by `now_us`.
    pub fn recv(&mut self, now_us: u64) -> Vec<u8> {
        self.pump(now_us);
        let mut n = 0;
        while let Some(&(_, len)) = self.in_flight.front().filter(|(t, _)| *t <= now_us) {
            self.in_flight.pop_front();
            n += len;
        }
        self.on_wire -= n;
        self.counters.bytes_delivered.add(n as u64);
        let (front, back) = self.bytes.as_slices();
        let mut out = Vec::with_capacity(n);
        out.extend_from_slice(&front[..n.min(front.len())]);
        out.extend_from_slice(&back[..n.saturating_sub(front.len())]);
        self.bytes.drain(..n);
        out
    }

    /// Earliest pending event (serializer free or next arrival), for
    /// event-driven stepping.
    pub fn next_event_us(&self) -> Option<u64> {
        let arrival = self.in_flight.front().map(|(t, _)| *t);
        let tx = (self.queued() > 0).then_some(self.tx_free_at);
        match (arrival, tx) {
            (Some(a), Some(t)) => Some(a.min(t)),
            (a, t) => a.or(t),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TcpStats {
        self.counters.stats()
    }

    /// Adopt this link's counters into `registry` under `prefix`
    /// (e.g. `participant.2.tcp` → `participant.2.tcp.tx_bytes`, ...).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.counters.register(registry, prefix);
    }

    /// Send-buffer occupancy: accepted bytes not yet on the wire.
    fn queued(&self) -> usize {
        self.bytes.len() - self.on_wire
    }

    /// Move the send buffer onto the wire as the serializer frees up. Each
    /// segment starts exactly at `tx_free_at`: `send` bumps it to the arrival
    /// time when the buffer was empty, and the serializer stays busy until it
    /// empties again. What cannot start yet is the backlog. No byte moves.
    fn pump(&mut self, now_us: u64) {
        debug_assert!(now_us >= self.last_pump_us, "time must be monotonic");
        self.last_pump_us = self.last_pump_us.max(now_us);
        while self.queued() > 0 && self.tx_free_at <= now_us {
            let seg_len = self.queued().min(1460);
            let ser_us = (seg_len as u64 * 8).saturating_mul(1_000_000) / self.cfg.rate_bps.max(1);
            self.tx_free_at += ser_us;
            self.in_flight
                .push_back((self.tx_free_at + self.cfg.delay_us, seg_len));
            self.on_wire += seg_len;
        }
        self.counters.backlog.set(self.queued() as i64);
    }
}

#[cfg(test)]
mod model {
    use std::collections::VecDeque;

    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time link [`TcpLink`] replaced, kept as its model: every
    /// segment is collected into its own `Vec`, and `recv` moves the arrived
    /// chunks through a receive buffer.
    #[derive(Debug)]
    struct ReferenceLink {
        cfg: TcpConfig,
        send_buf: VecDeque<u8>,
        in_flight: VecDeque<(u64, Vec<u8>)>,
        tx_free_at: u64,
        rx_buf: VecDeque<u8>,
        counters: TcpCounters,
    }

    impl ReferenceLink {
        fn new(cfg: TcpConfig) -> Self {
            ReferenceLink {
                cfg,
                send_buf: VecDeque::new(),
                in_flight: VecDeque::new(),
                tx_free_at: 0,
                rx_buf: VecDeque::new(),
                counters: TcpCounters::default(),
            }
        }

        fn send(&mut self, now_us: u64, data: &[u8]) -> usize {
            self.pump(now_us);
            if self.send_buf.is_empty() {
                self.tx_free_at = self.tx_free_at.max(now_us);
            }
            let space = self.cfg.send_buf.saturating_sub(self.send_buf.len());
            let take = space.min(data.len());
            self.send_buf.extend(&data[..take]);
            self.counters.bytes_accepted.add(take as u64);
            self.counters.bytes_refused.add((data.len() - take) as u64);
            self.pump(now_us);
            take
        }

        fn backlog(&mut self, now_us: u64) -> usize {
            self.pump(now_us);
            self.send_buf.len()
        }

        fn can_accept(&mut self, now_us: u64, n: usize) -> bool {
            self.pump(now_us);
            self.cfg.send_buf - self.send_buf.len() >= n
        }

        fn recv(&mut self, now_us: u64) -> Vec<u8> {
            self.pump(now_us);
            while let Some((arrives, _)) = self.in_flight.front() {
                if *arrives > now_us {
                    break;
                }
                let (_, chunk) = self.in_flight.pop_front().expect("peeked");
                self.counters.bytes_delivered.add(chunk.len() as u64);
                self.rx_buf.extend(chunk);
            }
            self.rx_buf.drain(..).collect()
        }

        fn next_event_us(&self) -> Option<u64> {
            let arrival = self.in_flight.front().map(|(t, _)| *t);
            let tx = if self.send_buf.is_empty() {
                None
            } else {
                Some(self.tx_free_at)
            };
            match (arrival, tx) {
                (Some(a), Some(t)) => Some(a.min(t)),
                (a, t) => a.or(t),
            }
        }

        fn pump(&mut self, now_us: u64) {
            while !self.send_buf.is_empty() && self.tx_free_at <= now_us {
                let begin = self.tx_free_at;
                let seg_len = self.send_buf.len().min(1460);
                let ser_us =
                    (seg_len as u64 * 8).saturating_mul(1_000_000) / self.cfg.rate_bps.max(1);
                let finish = begin + ser_us;
                let chunk: Vec<u8> = self.send_buf.drain(..seg_len).collect();
                self.in_flight
                    .push_back((finish + self.cfg.delay_us, chunk));
                self.tx_free_at = finish;
            }
            self.counters.backlog.set(self.send_buf.len() as i64);
        }
    }

    /// One call, made on both links.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Send(usize),
        Backlog,
        CanAccept(usize),
        Recv,
        NextEvent,
    }

    fn op() -> impl Strategy<Value = (Op, u64)> {
        // (which call, its length, how far the clock moves first)
        (0u8..6, 0usize..24_000, 0u8..4, 0u64..50_000).prop_map(|(kind, len, scale, dt)| {
            let op = match kind {
                0 => Op::Send(len),
                1 => Op::Send(len % 16),
                2 => Op::Backlog,
                3 => Op::CanAccept(len),
                4 => Op::Recv,
                _ => Op::NextEvent,
            };
            let dt = match scale {
                0 => 0,
                1 => dt % 1_000,
                2 => dt,
                _ => dt * 1_000,
            };
            (op, dt)
        })
    }

    fn config() -> impl Strategy<Value = TcpConfig> {
        (
            0u8..5,
            1u64..2_000_000_000,
            0u64..60_000,
            0u8..3,
            0usize..20_000,
        )
            .prop_map(|(rate_kind, rate, delay_us, buf_kind, buf)| TcpConfig {
                rate_bps: match rate_kind {
                    0 => rate % 100,
                    1 => rate % 100_000,
                    2 => 20_000_000_000,
                    _ => rate,
                },
                delay_us,
                send_buf: match buf_kind {
                    0 => buf % 4,
                    1 => buf % 2_000,
                    _ => buf,
                },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every call returns what the byte-at-a-time reference returns,
        /// and the counters and the backlog gauge agree after each one.
        #[test]
        fn queue_link_matches_reference(
            cfg in config(),
            ops in proptest::collection::vec(op(), 0..160),
        ) {
            let mut link = TcpLink::new(cfg);
            let mut reference = ReferenceLink::new(cfg);
            let mut now = 0u64;
            let mut sent = 0u8;
            for (i, (op, dt)) in ops.into_iter().enumerate() {
                now += dt;
                match op {
                    Op::Send(len) => {
                        // Numbered bytes, so a misordered copy shows.
                        let data: Vec<u8> = (0..len).map(|k| sent.wrapping_add(k as u8)).collect();
                        let a = link.send(now, &data);
                        prop_assert_eq!(a, reference.send(now, &data), "op {}", i);
                        sent = sent.wrapping_add(a as u8);
                    }
                    Op::Backlog => {
                        prop_assert_eq!(link.backlog(now), reference.backlog(now), "op {}", i)
                    }
                    Op::CanAccept(n) => prop_assert_eq!(
                        link.can_accept(now, n),
                        reference.can_accept(now, n),
                        "op {}",
                        i
                    ),
                    Op::Recv => prop_assert_eq!(link.recv(now), reference.recv(now), "op {}", i),
                    Op::NextEvent => prop_assert_eq!(
                        link.next_event_us(),
                        reference.next_event_us(),
                        "op {}",
                        i
                    ),
                }
                let (s, r) = (link.stats(), reference.counters.stats());
                prop_assert_eq!(
                    (s.bytes_accepted, s.bytes_refused, s.bytes_delivered),
                    (r.bytes_accepted, r.bytes_refused, r.bytes_delivered),
                    "op {}",
                    i
                );
                prop_assert_eq!(
                    link.counters.backlog.get(),
                    reference.counters.backlog.get(),
                    "op {}",
                    i
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_in_order_delivery() {
        let mut link = TcpLink::new(TcpConfig::default());
        assert_eq!(link.send(0, b"hello "), 6);
        assert_eq!(link.send(0, b"world"), 5);
        let got = link.recv(1_000_000);
        assert_eq!(got, b"hello world");
        assert_eq!(link.stats().bytes_delivered, 11);
    }

    #[test]
    fn nothing_before_propagation_delay() {
        let cfg = TcpConfig {
            delay_us: 50_000,
            rate_bps: 1_000_000_000,
            send_buf: 1 << 20,
        };
        let mut link = TcpLink::new(cfg);
        link.send(0, b"x");
        assert!(link.recv(49_000).is_empty());
        assert_eq!(link.recv(51_000), b"x");
    }

    #[test]
    fn bandwidth_limits_throughput() {
        // 1 Mbit/s for 1 second ≈ 125 kB.
        let cfg = TcpConfig {
            delay_us: 0,
            rate_bps: 1_000_000,
            send_buf: 1 << 20,
        };
        let mut link = TcpLink::new(cfg);
        let data = vec![0u8; 1 << 20];
        let mut offered = 0;
        let mut received = 0usize;
        for ms in 0..1000u64 {
            let now = ms * 1000;
            if offered < data.len() {
                offered += link.send(now, &data[offered..]);
            }
            received += link.recv(now).len();
        }
        let total = received + link.recv(1_000_000).len();
        assert!(
            (115_000..=135_000).contains(&total),
            "~125kB over 1s at 1Mbit/s, got {total}"
        );
    }

    #[test]
    fn send_buffer_backpressure_observable() {
        // Slow link, small buffer: writes start being refused and backlog
        // reads non-zero — exactly the §7 signal.
        let cfg = TcpConfig {
            delay_us: 0,
            rate_bps: 100_000,
            send_buf: 10_000,
        };
        let mut link = TcpLink::new(cfg);
        let accepted = link.send(0, &vec![0u8; 50_000]);
        assert!(
            accepted <= 10_000 + 1460,
            "buffer bounds acceptance, got {accepted}"
        );
        assert!(link.backlog(0) > 0);
        assert!(!link.can_accept(0, 50_000));
        assert!(link.stats().bytes_refused > 0);
        // After enough time the backlog drains.
        assert_eq!(link.backlog(10_000_000), 0);
        assert!(link.can_accept(10_000_000, 10_000));
    }

    #[test]
    fn backlog_drains_progressively() {
        let cfg = TcpConfig {
            delay_us: 0,
            rate_bps: 1_000_000,
            send_buf: 100_000,
        };
        let mut link = TcpLink::new(cfg);
        link.send(0, &vec![0u8; 50_000]);
        let b0 = link.backlog(0);
        let b1 = link.backlog(100_000); // 100ms → 12.5kB drained
        let b2 = link.backlog(300_000);
        assert!(b0 > b1 && b1 > b2, "backlog must shrink: {b0} {b1} {b2}");
    }

    #[test]
    fn next_event_supports_event_stepping() {
        let cfg = TcpConfig {
            delay_us: 10_000,
            rate_bps: 1_000_000,
            send_buf: 1 << 20,
        };
        let mut link = TcpLink::new(cfg);
        assert_eq!(link.next_event_us(), None);
        link.send(0, &[0u8; 125]); // 1ms serialize
        let e = link.next_event_us().unwrap();
        assert!(e <= 11_000);
        link.recv(e);
        // After delivery nothing is pending.
        let _ = link.recv(1_000_000);
        assert_eq!(link.next_event_us(), None);
    }

    #[test]
    fn byte_accounting_conserves_after_drain() {
        let cfg = TcpConfig {
            delay_us: 3_000,
            rate_bps: 500_000,
            send_buf: 8_000,
        };
        let mut link = TcpLink::new(cfg);
        let registry = Registry::new();
        link.register_metrics(&registry, "tcp");
        for i in 0..200u64 {
            link.send(i * 1_000, &[0u8; 700]); // overruns the buffer at times
        }
        let _ = link.recv(10_000_000);
        let s = link.stats();
        assert!(s.bytes_refused > 0, "backpressure exercised");
        assert_eq!(s.bytes_accepted + s.bytes_refused, 200 * 700);
        assert_eq!(s.bytes_accepted, s.bytes_delivered, "reliable stream");
        assert_eq!(
            registry.counter_value("tcp.tx_bytes"),
            Some(s.bytes_accepted)
        );
        assert_eq!(
            registry.counter_value("tcp.rx_bytes"),
            Some(s.bytes_delivered)
        );
    }

    #[test]
    fn backlog_gauge_tracks_send_buffer() {
        let cfg = TcpConfig {
            delay_us: 0,
            rate_bps: 100_000,
            send_buf: 50_000,
        };
        let mut link = TcpLink::new(cfg);
        let registry = Registry::new();
        link.register_metrics(&registry, "tcp");
        link.send(0, &[0u8; 40_000]);
        let snap = registry.snapshot();
        let early = match snap.get("tcp.backlog_bytes") {
            Some(adshare_obs::MetricSnapshot::Gauge(v)) => *v,
            other => panic!("expected gauge, got {other:?}"),
        };
        assert!(early > 0, "queued bytes show as backlog, got {early}");
        link.backlog(10_000_000);
        let snap = registry.snapshot();
        let drained = match snap.get("tcp.backlog_bytes") {
            Some(adshare_obs::MetricSnapshot::Gauge(v)) => *v,
            other => panic!("expected gauge, got {other:?}"),
        };
        assert_eq!(drained, 0, "gauge returns to zero after drain");
    }

    #[test]
    fn interleaved_send_recv_preserves_stream_order() {
        let cfg = TcpConfig {
            delay_us: 5_000,
            rate_bps: 10_000_000,
            send_buf: 1 << 16,
        };
        let mut link = TcpLink::new(cfg);
        let mut expected = Vec::new();
        let mut received = Vec::new();
        for i in 0..100u64 {
            let byte = (i % 251) as u8;
            let n = link.send(i * 1_000, &[byte; 100]);
            expected.extend(std::iter::repeat_n(byte, n));
            received.extend(link.recv(i * 1_000));
        }
        received.extend(link.recv(10_000_000));
        assert_eq!(received, expected);
    }
}
