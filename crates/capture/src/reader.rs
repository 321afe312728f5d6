//! Parse and validate `adshare-capture/v1` byte streams.
//!
//! Every record carries its own FNV checksum, so [`parse_capture`] detects
//! any bit flip; [`wire_digest_of`] recomputes the egress digest a replay
//! must match; [`flight_events`] recovers the flight-recorder events the
//! sink embedded at finalize time (for historical Perfetto export).

use adshare_obs::{Event, EventKind};

use crate::format::{
    decode_header, decode_record, word_fold, CaptureError, CaptureHeader, CaptureRecord, Direction,
    StreamKind, FNV_OFFSET,
};

/// A fully parsed capture file.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The versioned file header.
    pub header: CaptureHeader,
    /// Every record, in capture order.
    pub records: Vec<CaptureRecord>,
}

/// Parse a complete capture byte stream, verifying the magic and every
/// per-record checksum. Trailing garbage is an error.
pub fn parse_capture(bytes: &[u8]) -> Result<Capture, CaptureError> {
    let (header, mut pos) = decode_header(bytes)?;
    let mut records = Vec::new();
    while pos < bytes.len() {
        let (record, used) = decode_record(&bytes[pos..]).map_err(|e| {
            CaptureError::Corrupt(format!("record {} at byte {pos}: {e}", records.len()))
        })?;
        pos += used;
        records.push(record);
    }
    Ok(Capture { header, records })
}

/// Fold the egress (Tx) RTP/RTCP payloads of `records` in order — the
/// digest `SimSession::wire_digest` reports for the same traffic.
pub fn wire_digest_of(records: &[CaptureRecord]) -> u64 {
    let mut digest = FNV_OFFSET;
    for r in records {
        if r.dir == Direction::Tx && matches!(r.kind, StreamKind::Rtp | StreamKind::Rtcp) {
            digest = word_fold(digest, &r.payload);
        }
    }
    digest
}

/// Recover the flight-recorder events embedded at finalize time.
/// Records with malformed payloads or unknown event kinds are skipped —
/// a capture from a newer writer should still replay on an older reader.
pub fn flight_events(records: &[CaptureRecord]) -> Vec<Event> {
    let mut events = Vec::new();
    for r in records {
        if r.kind != StreamKind::FlightEvent || r.payload.len() != 25 {
            continue;
        }
        let seq = u64::from_le_bytes(r.payload[0..8].try_into().expect("len checked"));
        let Some(kind) = EventKind::from_u8(r.payload[8]) else {
            continue;
        };
        let a = u64::from_le_bytes(r.payload[9..17].try_into().expect("len checked"));
        let b = u64::from_le_bytes(r.payload[17..25].try_into().expect("len checked"));
        events.push(Event {
            seq,
            ts_us: r.ts_us,
            actor: r.actor,
            kind,
            a,
            b,
        });
    }
    events
}

/// Read and parse a capture file from disk.
pub fn read_capture(path: &std::path::Path) -> Result<Capture, CaptureError> {
    let bytes = std::fs::read(path).map_err(|e| CaptureError::Io(e.to_string()))?;
    parse_capture(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Transport;
    use crate::sink::{CaptureConfig, CaptureHandle, CaptureMode};

    fn armed() -> CaptureHandle {
        CaptureHandle::arm(CaptureConfig {
            consent: true,
            mode: CaptureMode::Full,
            session_id: 3,
            start_us: 100,
        })
        .expect("consented")
    }

    #[test]
    fn sink_round_trips_through_reader() {
        let c = armed();
        c.record(
            Direction::Tx,
            StreamKind::Rtp,
            Transport::Udp,
            0,
            10,
            b"one",
        );
        c.record(
            Direction::Rx,
            StreamKind::Rtcp,
            Transport::Udp,
            1,
            20,
            b"two",
        );
        c.record(
            Direction::Up,
            StreamKind::Hip,
            Transport::Tcp,
            2,
            30,
            b"three",
        );
        let parsed = parse_capture(&c.to_bytes()).expect("parses");
        assert_eq!(parsed.header.session_id, 3);
        assert_eq!(parsed.header.start_us, 100);
        assert!(parsed.header.consent);
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.records[2].payload, b"three");
        assert_eq!(parsed.records[2].transport, Transport::Tcp);
        assert_eq!(wire_digest_of(&parsed.records), c.wire_digest());
    }

    #[test]
    fn corrupt_record_is_rejected_with_position() {
        let c = armed();
        c.record(
            Direction::Tx,
            StreamKind::Rtp,
            Transport::Udp,
            0,
            10,
            b"data",
        );
        let mut bytes = c.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = parse_capture(&bytes).expect_err("must reject");
        assert!(matches!(err, CaptureError::Corrupt(_)));
    }

    #[test]
    fn truncated_tail_is_rejected() {
        let c = armed();
        c.record(
            Direction::Tx,
            StreamKind::Rtp,
            Transport::Udp,
            0,
            10,
            b"data",
        );
        let bytes = c.to_bytes();
        let err = parse_capture(&bytes[..bytes.len() - 3]).expect_err("must reject");
        assert!(matches!(err, CaptureError::Corrupt(_)));
    }

    #[test]
    fn flight_events_skips_foreign_payloads() {
        let c = armed();
        // A malformed (wrong length) flight-event record…
        c.record(
            Direction::Internal,
            StreamKind::FlightEvent,
            Transport::None,
            0,
            5,
            &[0u8; 10],
        );
        c.finalize(&[Event {
            seq: 1,
            ts_us: 9,
            actor: 4,
            kind: EventKind::NackSent,
            a: 7,
            b: 8,
        }]);
        let parsed = parse_capture(&c.to_bytes()).expect("parses");
        let events = flight_events(&parsed.records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts_us, 9);
        assert_eq!(events[0].actor, 4);
    }
}
