//! The capture sink: where every tap writes.
//!
//! A [`CaptureHandle`] is a cheap cloneable handle (an `Arc<Mutex<_>>`)
//! held by the AH, every participant delivery point, and any relay the
//! session routes through, so one arm call captures the whole session.
//! Arming **requires consent** — [`CaptureHandle::arm`] refuses without
//! the flag, and the flag is persisted in the file header so a reader can
//! tell a consented capture from a hand-assembled one.
//!
//! [`CaptureMode::Ring`] keeps only the most recent `window_us` of
//! traffic (the CRITICAL auto-arm mode: always-on, bounded cost). When
//! the ring overwrites, truncation is reported **explicitly**: counters in
//! the stats/manifest, a [`EventKind::CaptureTruncated`] flight-recorder
//! event per prune batch, and a one-shot log line — a capture that
//! silently lost its head is worse than no capture.

use adshare_obs::{Event, EventKind, Obs};

use crate::format::{
    encode_header, encode_record_parts, word_fold, CaptureError, CaptureHeader, Direction,
    StreamKind, Transport, FNV_OFFSET,
};

/// How much a capture retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureMode {
    /// Keep every record until finalize (regression captures, tests).
    Full,
    /// Keep only records within `window_us` of the newest one — the
    /// bounded black-box mode the health engine auto-arms.
    Ring {
        /// Retention window in virtual microseconds.
        window_us: u64,
    },
}

/// Arm-time configuration.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Explicit consent to record wire content. Arming fails without it.
    pub consent: bool,
    /// Retention mode.
    pub mode: CaptureMode,
    /// Session/tenant id stamped into the header and manifest.
    pub session_id: u64,
    /// Virtual time at arm (stamped into the header).
    pub start_us: u64,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            consent: false,
            mode: CaptureMode::Full,
            session_id: 0,
            start_us: 0,
        }
    }
}

/// Per-stream record/byte counts (indexed by kind × direction in
/// [`CaptureStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCount {
    /// Records currently retained.
    pub records: u64,
    /// Payload bytes currently retained.
    pub bytes: u64,
}

/// Aggregate sink counters (retained + truncated).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaptureStats {
    /// Records currently retained.
    pub records: u64,
    /// Payload bytes currently retained.
    pub payload_bytes: u64,
    /// Records the ring dropped to hold its window.
    pub truncated_records: u64,
    /// Payload bytes those dropped records carried.
    pub truncated_bytes: u64,
    /// Timestamp of the oldest retained record (0 when empty).
    pub first_ts_us: u64,
    /// Timestamp of the newest retained record (0 when empty).
    pub last_ts_us: u64,
    /// Retained counts by `[StreamKind as usize][Direction as usize]`
    /// (kind index 0 is unused — kinds start at 1).
    pub streams: [[StreamCount; 4]; 7],
}

impl CaptureStats {
    /// Whether the ring ever overwrote.
    pub fn truncated(&self) -> bool {
        self.truncated_records > 0
    }

    /// Retained duration (newest − oldest timestamp).
    pub fn duration_us(&self) -> u64 {
        self.last_ts_us.saturating_sub(self.first_ts_us)
    }
}

#[derive(Debug)]
struct Stored {
    kind: StreamKind,
    dir: Direction,
    ts_us: u64,
    payload_len: u64,
    /// The record's full wire form (length prefix + body + checksum), so
    /// serializing the file is a concatenation.
    encoded: Vec<u8>,
}

/// Incremental disk stream for Full-mode captures: records leave memory
/// the moment they are taped, with aggregate counters and the wire digest
/// maintained on the way out so `stats()`/`wire_digest()` stay exact.
struct StreamOut {
    writer: std::io::BufWriter<std::fs::File>,
    path: std::path::PathBuf,
    records: u64,
    payload_bytes: u64,
    first_ts_us: Option<u64>,
    last_ts_us: u64,
    streams: [[StreamCount; 4]; 7],
    digest: u64,
}

impl StreamOut {
    /// Account one record into the running aggregates (the equivalents of
    /// what `stats()`/`wire_digest()` derive from retained records).
    fn account(&mut self, kind: StreamKind, dir: Direction, ts_us: u64, payload: &[u8]) {
        self.records += 1;
        self.payload_bytes += payload.len() as u64;
        self.first_ts_us.get_or_insert(ts_us);
        self.last_ts_us = ts_us;
        let slot = &mut self.streams[kind as usize][dir as usize];
        slot.records += 1;
        slot.bytes += payload.len() as u64;
        if dir == Direction::Tx && matches!(kind, StreamKind::Rtp | StreamKind::Rtcp) {
            self.digest = word_fold(self.digest, payload);
        }
    }
}

struct SinkState {
    header: CaptureHeader,
    mode: CaptureMode,
    records: std::collections::VecDeque<Stored>,
    payload_bytes: u64,
    truncated_records: u64,
    truncated_bytes: u64,
    reported_truncation: bool,
    obs: Option<Obs>,
    finalized: bool,
    stream: Option<StreamOut>,
}

impl SinkState {
    fn prune(&mut self, now_us: u64) {
        let CaptureMode::Ring { window_us } = self.mode else {
            return;
        };
        let floor = now_us.saturating_sub(window_us);
        let mut dropped = 0u64;
        let mut dropped_bytes = 0u64;
        while self
            .records
            .front()
            .is_some_and(|r| r.ts_us < floor && r.kind != StreamKind::GapRecover)
        {
            let r = self.records.pop_front().expect("front checked");
            dropped += 1;
            dropped_bytes += r.payload_len;
            self.payload_bytes -= r.payload_len;
        }
        if dropped == 0 {
            return;
        }
        self.truncated_records += dropped;
        self.truncated_bytes += dropped_bytes;
        // Explicit truncation reporting: a flight-recorder event per prune
        // batch (running totals in the payload words) and one log line the
        // first time the ring overwrites.
        if let Some(obs) = &self.obs {
            obs.event(
                now_us,
                adshare_obs::ACTOR_AH,
                EventKind::CaptureTruncated,
                self.truncated_records,
                self.truncated_bytes,
            );
        }
        if !self.reported_truncation {
            self.reported_truncation = true;
            eprintln!(
                "adshare-capture: ring overwrote {dropped} record(s) ({dropped_bytes} bytes) \
                 older than {window_us} µs — capture is truncated",
                window_us = window_us,
            );
        }
    }

    /// Encode-and-store straight from the record's fields: the payload is
    /// copied exactly once, into its final wire form.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        dir: Direction,
        kind: StreamKind,
        transport: Transport,
        actor: u16,
        ts_us: u64,
        payload: &[u8],
    ) {
        let mut encoded = Vec::with_capacity(payload.len() + 32);
        encode_record_parts(dir, kind, transport, actor, ts_us, payload, &mut encoded);
        if let Some(st) = &mut self.stream {
            // Streaming Full mode: the record goes straight to the file
            // and never accumulates in memory. A write error is recorded
            // once via the truncation counters rather than panicking a
            // media path.
            use std::io::Write;
            if st.writer.write_all(&encoded).is_ok() {
                st.account(kind, dir, ts_us, payload);
            } else {
                self.truncated_records += 1;
                self.truncated_bytes += payload.len() as u64;
            }
            return;
        }
        self.payload_bytes += payload.len() as u64;
        self.records.push_back(Stored {
            kind,
            dir,
            ts_us,
            payload_len: payload.len() as u64,
            encoded,
        });
        self.prune(ts_us);
    }
}

/// Cloneable handle to one armed capture.
#[derive(Clone)]
pub struct CaptureHandle {
    state: std::sync::Arc<std::sync::Mutex<SinkState>>,
}

impl std::fmt::Debug for CaptureHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("capture sink poisoned");
        f.debug_struct("CaptureHandle")
            .field("records", &s.records.len())
            .field("mode", &s.mode)
            .finish()
    }
}

impl CaptureHandle {
    /// Arm a capture. Fails with [`CaptureError::ConsentRequired`] unless
    /// `cfg.consent` is set — recording wire content is consent-gated, not
    /// a debug default.
    pub fn arm(cfg: CaptureConfig) -> Result<CaptureHandle, CaptureError> {
        if !cfg.consent {
            return Err(CaptureError::ConsentRequired);
        }
        Ok(CaptureHandle {
            state: std::sync::Arc::new(std::sync::Mutex::new(SinkState {
                header: CaptureHeader {
                    consent: true,
                    ring: matches!(cfg.mode, CaptureMode::Ring { .. }),
                    session_id: cfg.session_id,
                    start_us: cfg.start_us,
                },
                mode: cfg.mode,
                records: std::collections::VecDeque::new(),
                payload_bytes: 0,
                truncated_records: 0,
                truncated_bytes: 0,
                reported_truncation: false,
                obs: None,
                finalized: false,
                stream: None,
            })),
        })
    }

    /// Stream this Full-mode capture to `path` incrementally: the header
    /// goes out immediately, anything already retained is drained to the
    /// file, and every subsequent record is appended as it is taped. A
    /// video-heavy session taping ~16 MiB/s never accumulates in memory,
    /// and the flush at finalize is a buffer drain, not a session-sized
    /// write burst. Ring mode refuses — a ring prunes its head, which an
    /// append-only file cannot.
    pub fn stream_to(&self, path: &std::path::Path) -> Result<(), CaptureError> {
        let mut s = self.state.lock().expect("capture sink poisoned");
        if !matches!(s.mode, CaptureMode::Full) {
            return Err(CaptureError::Unsupported(
                "only Full-mode captures can stream to disk (a ring prunes its head)".to_owned(),
            ));
        }
        if s.finalized {
            return Err(CaptureError::Unsupported(
                "capture already finalized".to_owned(),
            ));
        }
        if s.stream.is_some() {
            return Err(CaptureError::Unsupported(
                "capture already streaming".to_owned(),
            ));
        }
        use std::io::Write;
        let file = std::fs::File::create(path).map_err(|e| CaptureError::Io(e.to_string()))?;
        let mut writer = std::io::BufWriter::with_capacity(256 * 1024, file);
        writer
            .write_all(&encode_header(&s.header))
            .map_err(|e| CaptureError::Io(e.to_string()))?;
        let mut st = StreamOut {
            writer,
            path: path.to_path_buf(),
            records: 0,
            payload_bytes: 0,
            first_ts_us: None,
            last_ts_us: 0,
            streams: Default::default(),
            digest: FNV_OFFSET,
        };
        // Drain anything taped before streaming was enabled, in order, so
        // the file is a complete capture and memory drops to zero.
        for r in std::mem::take(&mut s.records) {
            st.writer
                .write_all(&r.encoded)
                .map_err(|e| CaptureError::Io(e.to_string()))?;
            let payload = &r.encoded[20..r.encoded.len() - 8];
            st.account(r.kind, r.dir, r.ts_us, payload);
        }
        s.payload_bytes = 0;
        s.stream = Some(st);
        Ok(())
    }

    /// Whether the sink is streaming to disk.
    pub fn streaming(&self) -> bool {
        self.state
            .lock()
            .expect("capture sink poisoned")
            .stream
            .is_some()
    }

    /// Attach an observability bundle so ring truncation surfaces as
    /// [`EventKind::CaptureTruncated`] events. The sink records with the
    /// caller-supplied virtual timestamps — the same clock the flight
    /// recorder stamps — so merged timelines never show negative spans.
    pub fn attach_obs(&self, obs: Obs) {
        self.state.lock().expect("capture sink poisoned").obs = Some(obs);
    }

    /// Record one datagram. `ts_us` must come from the caller's virtual
    /// clock (the one its flight-recorder events use).
    pub fn record(
        &self,
        dir: Direction,
        kind: StreamKind,
        transport: Transport,
        actor: u16,
        ts_us: u64,
        payload: &[u8],
    ) {
        let mut s = self.state.lock().expect("capture sink poisoned");
        if s.finalized {
            return;
        }
        s.push(dir, kind, transport, actor, ts_us, payload);
    }

    /// Record a gap-recovery control marker for `actor` (the session
    /// skipped an unrecoverable hole; replay must do the same).
    pub fn record_gap_recover(&self, actor: u16, ts_us: u64) {
        self.record(
            Direction::Internal,
            StreamKind::GapRecover,
            Transport::None,
            actor,
            ts_us,
            &[],
        );
    }

    /// Embed a flight-recorder snapshot as [`StreamKind::FlightEvent`]
    /// records and stop accepting traffic. Called once when the capture is
    /// flushed to disk; the embedded events make historical Perfetto
    /// export possible from the capture file alone.
    pub fn finalize(&self, events: &[Event]) {
        let mut s = self.state.lock().expect("capture sink poisoned");
        if s.finalized {
            return;
        }
        for e in events {
            let mut payload = Vec::with_capacity(25);
            payload.extend_from_slice(&e.seq.to_le_bytes());
            payload.push(e.kind as u8);
            payload.extend_from_slice(&e.a.to_le_bytes());
            payload.extend_from_slice(&e.b.to_le_bytes());
            s.push(
                Direction::Internal,
                StreamKind::FlightEvent,
                Transport::None,
                e.actor,
                e.ts_us,
                &payload,
            );
        }
        if let Some(st) = &mut s.stream {
            use std::io::Write;
            let _ = st.writer.flush();
        }
        s.finalized = true;
    }

    /// Whether [`CaptureHandle::finalize`] has run.
    pub fn finalized(&self) -> bool {
        self.state.lock().expect("capture sink poisoned").finalized
    }

    /// The header the file will carry.
    pub fn header(&self) -> CaptureHeader {
        self.state.lock().expect("capture sink poisoned").header
    }

    /// The retention mode the sink was armed with.
    pub fn mode(&self) -> CaptureMode {
        self.state.lock().expect("capture sink poisoned").mode
    }

    /// Aggregate counters over the retained records.
    pub fn stats(&self) -> CaptureStats {
        let s = self.state.lock().expect("capture sink poisoned");
        if let Some(st) = &s.stream {
            // Streaming: nothing is retained; the running aggregates are
            // the whole picture.
            return CaptureStats {
                records: st.records,
                payload_bytes: st.payload_bytes,
                truncated_records: s.truncated_records,
                truncated_bytes: s.truncated_bytes,
                first_ts_us: st.first_ts_us.unwrap_or(0),
                last_ts_us: st.last_ts_us,
                streams: st.streams,
            };
        }
        let mut stats = CaptureStats {
            records: s.records.len() as u64,
            payload_bytes: s.payload_bytes,
            truncated_records: s.truncated_records,
            truncated_bytes: s.truncated_bytes,
            first_ts_us: s.records.front().map_or(0, |r| r.ts_us),
            last_ts_us: s.records.back().map_or(0, |r| r.ts_us),
            ..Default::default()
        };
        for r in &s.records {
            let slot = &mut stats.streams[r.kind as usize][r.dir as usize];
            slot.records += 1;
            slot.bytes += r.payload_len;
        }
        stats
    }

    /// Word-fold the retained egress (Tx) RTP/RTCP payloads in record
    /// order — bit-identical to the session's `wire_digest` when nothing
    /// was truncated, and the self-consistency anchor of a ring capture
    /// otherwise.
    pub fn wire_digest(&self) -> u64 {
        let s = self.state.lock().expect("capture sink poisoned");
        if let Some(st) = &s.stream {
            return st.digest;
        }
        let mut digest = FNV_OFFSET;
        for r in &s.records {
            if r.dir == Direction::Tx && matches!(r.kind, StreamKind::Rtp | StreamKind::Rtcp) {
                // Fold the payload slice out of the encoded form: it sits
                // between the 4+16-byte framing and the 8-byte checksum.
                let payload = &r.encoded[20..r.encoded.len() - 8];
                digest = word_fold(digest, payload);
            }
        }
        digest
    }

    /// Serialize header + records as an `adshare-capture/v1` byte stream.
    /// A streaming capture reads its own file back (after a flush), so the
    /// result is identical either way.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut s = self.state.lock().expect("capture sink poisoned");
        if let Some(st) = &mut s.stream {
            use std::io::Write;
            let _ = st.writer.flush();
            return std::fs::read(&st.path).unwrap_or_default();
        }
        let total: usize = s.records.iter().map(|r| r.encoded.len()).sum();
        let mut out = Vec::with_capacity(64 + total);
        out.extend_from_slice(&encode_header(&s.header));
        for r in &s.records {
            out.extend_from_slice(&r.encoded);
        }
        out
    }

    /// Write the capture to `path`. For a streaming capture this is a
    /// flush (plus a file copy when `path` differs from the stream path);
    /// otherwise the retained records are serialized in one write.
    pub fn write_to(&self, path: &std::path::Path) -> Result<(), CaptureError> {
        {
            let mut s = self.state.lock().expect("capture sink poisoned");
            if let Some(st) = &mut s.stream {
                use std::io::Write;
                st.writer
                    .flush()
                    .map_err(|e| CaptureError::Io(e.to_string()))?;
                if st.path != path {
                    std::fs::copy(&st.path, path).map_err(|e| CaptureError::Io(e.to_string()))?;
                }
                return Ok(());
            }
        }
        std::fs::write(path, self.to_bytes()).map_err(|e| CaptureError::Io(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(mode: CaptureMode) -> CaptureHandle {
        CaptureHandle::arm(CaptureConfig {
            consent: true,
            mode,
            session_id: 7,
            start_us: 0,
        })
        .expect("consented")
    }

    #[test]
    fn streaming_full_capture_matches_buffered_byte_for_byte() {
        let dir = std::env::temp_dir().join("adshare-capture-stream");
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let path = dir.join("stream.bin");
        let buffered = armed(CaptureMode::Full);
        let streamed = armed(CaptureMode::Full);
        // A couple of records land before streaming starts: they must be
        // drained into the file so it is a complete capture.
        for c in [&buffered, &streamed] {
            c.record(Direction::Tx, StreamKind::Rtp, Transport::Udp, 0, 1, b"pre");
        }
        streamed.stream_to(&path).expect("full mode streams");
        assert!(streamed.streaming());
        for i in 2..600u64 {
            let payload = vec![i as u8; 1024];
            for c in [&buffered, &streamed] {
                c.record(
                    Direction::Tx,
                    StreamKind::Rtp,
                    Transport::Udp,
                    0,
                    i,
                    &payload,
                );
            }
        }
        // Incremental: well past the writer's buffer, bytes are already
        // on disk before any finalize/flush.
        let on_disk = std::fs::metadata(&path).expect("file exists").len();
        assert!(on_disk > 256 * 1024, "stream should spill early: {on_disk}");

        assert_eq!(streamed.wire_digest(), buffered.wire_digest());
        let (ss, bs) = (streamed.stats(), buffered.stats());
        assert_eq!(ss.records, bs.records);
        assert_eq!(ss.payload_bytes, bs.payload_bytes);
        assert_eq!(ss.streams, bs.streams);
        assert_eq!(ss.first_ts_us, bs.first_ts_us);
        assert_eq!(ss.last_ts_us, bs.last_ts_us);

        let ev = Event {
            seq: 1,
            ts_us: 600,
            actor: 0,
            kind: EventKind::NackSent,
            a: 0,
            b: 0,
        };
        buffered.finalize(&[ev]);
        streamed.finalize(&[ev]);
        assert_eq!(
            streamed.to_bytes(),
            buffered.to_bytes(),
            "streamed file must be the exact serialization a buffered capture produces"
        );
        let parsed = crate::reader::parse_capture(&std::fs::read(&path).unwrap()).expect("parses");
        assert_eq!(parsed.records.len() as u64, streamed.stats().records);
    }

    #[test]
    fn ring_mode_refuses_streaming() {
        let c = armed(CaptureMode::Ring {
            window_us: 1_000_000,
        });
        let err = c
            .stream_to(&std::env::temp_dir().join("adshare-ring-refused.bin"))
            .expect_err("ring cannot stream");
        assert!(matches!(err, CaptureError::Unsupported(_)), "{err}");
        assert!(!c.streaming());
    }

    #[test]
    fn arming_without_consent_fails() {
        let err = CaptureHandle::arm(CaptureConfig::default()).unwrap_err();
        assert_eq!(err, CaptureError::ConsentRequired);
    }

    #[test]
    fn full_mode_retains_everything() {
        let c = armed(CaptureMode::Full);
        for i in 0..100u64 {
            c.record(
                Direction::Tx,
                StreamKind::Rtp,
                Transport::Udp,
                0,
                i * 1_000_000,
                &[i as u8; 8],
            );
        }
        let stats = c.stats();
        assert_eq!(stats.records, 100);
        assert_eq!(stats.payload_bytes, 800);
        assert!(!stats.truncated());
        assert_eq!(stats.streams[StreamKind::Rtp as usize][0].records, 100);
    }

    #[test]
    fn ring_mode_truncates_and_counts() {
        let c = armed(CaptureMode::Ring {
            window_us: 1_000_000,
        });
        for i in 0..10u64 {
            c.record(
                Direction::Tx,
                StreamKind::Rtp,
                Transport::Udp,
                0,
                i * 500_000,
                &[0u8; 16],
            );
        }
        let stats = c.stats();
        assert!(stats.truncated());
        assert!(stats.records < 10);
        assert_eq!(stats.records + stats.truncated_records, 10);
        assert_eq!(stats.payload_bytes + stats.truncated_bytes, 160);
        // Everything retained is within the window of the newest record.
        assert!(stats.last_ts_us - stats.first_ts_us <= 1_000_000);
    }

    #[test]
    fn truncation_records_obs_event() {
        let obs = Obs::new();
        let c = armed(CaptureMode::Ring { window_us: 100 });
        c.attach_obs(obs.clone());
        c.record(Direction::Tx, StreamKind::Rtp, Transport::Udp, 0, 0, &[1]);
        c.record(
            Direction::Tx,
            StreamKind::Rtp,
            Transport::Udp,
            0,
            10_000,
            &[2],
        );
        let events = obs.recorder.snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::CaptureTruncated && e.a == 1));
    }

    #[test]
    fn wire_digest_folds_tx_rtp_rtcp_only() {
        let c = armed(CaptureMode::Full);
        c.record(Direction::Tx, StreamKind::Rtp, Transport::Udp, 0, 1, b"aa");
        c.record(Direction::Rx, StreamKind::Rtp, Transport::Udp, 0, 2, b"zz");
        c.record(Direction::Up, StreamKind::Hip, Transport::Udp, 0, 3, b"qq");
        c.record(Direction::Tx, StreamKind::Rtcp, Transport::Udp, 0, 4, b"bb");
        let expected = word_fold(word_fold(FNV_OFFSET, b"aa"), b"bb");
        assert_eq!(c.wire_digest(), expected);
    }

    #[test]
    fn finalize_embeds_events_and_freezes() {
        let c = armed(CaptureMode::Full);
        c.record(Direction::Tx, StreamKind::Rtp, Transport::Udp, 0, 1, b"x");
        let ev = Event {
            seq: 9,
            ts_us: 5,
            actor: 2,
            kind: EventKind::NackSent,
            a: 3,
            b: 4,
        };
        c.finalize(&[ev]);
        assert!(c.finalized());
        c.record(Direction::Tx, StreamKind::Rtp, Transport::Udp, 0, 2, b"y");
        let stats = c.stats();
        assert_eq!(stats.records, 2, "post-finalize records dropped");
        assert_eq!(
            stats.streams[StreamKind::FlightEvent as usize][Direction::Internal as usize].records,
            1
        );
        // And the serialized form parses back.
        let parsed = crate::reader::parse_capture(&c.to_bytes()).expect("parses");
        assert_eq!(parsed.records.len(), 2);
        let events = crate::reader::flight_events(&parsed.records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0], ev);
    }
}
