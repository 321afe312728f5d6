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

/// A unidirectional reliable byte stream.
#[derive(Debug)]
pub struct TcpLink {
    cfg: TcpConfig,
    /// Bytes waiting in the sender's socket buffer.
    send_buf: std::collections::VecDeque<u8>,
    /// Bytes on the wire: (arrival time, chunk).
    in_flight: std::collections::VecDeque<(u64, Vec<u8>)>,
    /// When the serializer frees up.
    tx_free_at: u64,
    /// Received, not yet read.
    rx_buf: std::collections::VecDeque<u8>,
    counters: TcpCounters,
    last_pump_us: u64,
}

impl TcpLink {
    /// New link.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpLink {
            cfg,
            send_buf: std::collections::VecDeque::new(),
            in_flight: std::collections::VecDeque::new(),
            tx_free_at: 0,
            rx_buf: std::collections::VecDeque::new(),
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
        if self.send_buf.is_empty() {
            // Serializer was idle: it cannot have started before this data
            // arrived.
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

    /// Bytes currently queued in the send buffer — the §7 backlog signal.
    pub fn backlog(&mut self, now_us: u64) -> usize {
        self.pump(now_us);
        self.send_buf.len()
    }

    /// Whether `n` bytes would be accepted right now without refusal.
    pub fn can_accept(&mut self, now_us: u64, n: usize) -> bool {
        self.pump(now_us);
        self.cfg.send_buf - self.send_buf.len() >= n
    }

    /// Read everything that has arrived by `now_us`.
    pub fn recv(&mut self, now_us: u64) -> Vec<u8> {
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

    /// Earliest pending event (serializer free or next arrival), for
    /// event-driven stepping.
    pub fn next_event_us(&self) -> Option<u64> {
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

    /// Cumulative statistics.
    pub fn stats(&self) -> TcpStats {
        self.counters.stats()
    }

    /// Adopt this link's counters into `registry` under `prefix`
    /// (e.g. `participant.2.tcp` → `participant.2.tcp.tx_bytes`, ...).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.counters.register(registry, prefix);
    }

    /// Drain the send buffer onto the wire as the serializer frees up.
    ///
    /// Invariant: whenever `send_buf` is non-empty, the serializer has been
    /// continuously busy since the data arrived (send() bumps `tx_free_at`
    /// to the arrival time when the buffer was empty), so each segment
    /// starts exactly at `tx_free_at`. Segments whose start time is still
    /// in the future stay in the buffer — that occupancy is the backlog.
    fn pump(&mut self, now_us: u64) {
        debug_assert!(now_us >= self.last_pump_us, "time must be monotonic");
        self.last_pump_us = self.last_pump_us.max(now_us);
        while !self.send_buf.is_empty() && self.tx_free_at <= now_us {
            let begin = self.tx_free_at;
            let seg_len = self.send_buf.len().min(1460);
            let ser_us = (seg_len as u64 * 8).saturating_mul(1_000_000) / self.cfg.rate_bps.max(1);
            let finish = begin + ser_us;
            let chunk: Vec<u8> = self.send_buf.drain(..seg_len).collect();
            self.in_flight
                .push_back((finish + self.cfg.delay_us, chunk));
            self.tx_free_at = finish;
        }
        self.counters.backlog.set(self.send_buf.len() as i64);
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
