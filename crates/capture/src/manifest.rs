//! The `adshare-capture-manifest/v1` JSON sidecar.
//!
//! A capture file carries the bytes; the manifest carries the claims that
//! make it **self-verifying**: per-stream record/byte counts, the consent
//! flag, an explicit truncation marker for ring captures, and the wire /
//! decoded-surface digests a replay must reproduce. `obs_schema_check`
//! validates emitted manifests against
//! `schemas/capture_manifest.schema.json`.
//!
//! Digests are serialized as `0x`-prefixed 16-digit hex **strings**, not
//! JSON numbers — a u64 digest routinely exceeds the 2^53 integer range
//! JSON readers preserve.

use adshare_obs::json::{self, Json};

use crate::format::{Direction, StreamKind};
use crate::sink::{CaptureHandle, CaptureMode};

/// Schema marker carried in the manifest's `schema` field.
pub const CAPTURE_MANIFEST_SCHEMA: &str = "adshare-capture-manifest/v1";

/// One per-stream count line (only non-empty streams are emitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamLine {
    /// Stream kind.
    pub kind: StreamKind,
    /// Direction.
    pub dir: Direction,
    /// Records of this (kind, direction) retained.
    pub records: u64,
    /// Payload bytes of this (kind, direction) retained.
    pub bytes: u64,
}

/// Everything the manifest asserts about a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Session/tenant id from the capture header.
    pub session_id: u64,
    /// Consent flag from the capture header.
    pub consent: bool,
    /// Whether the sink ran in ring mode.
    pub ring: bool,
    /// Ring retention window in µs (0 for full captures).
    pub window_us: u64,
    /// Records retained.
    pub records: u64,
    /// Payload bytes retained.
    pub bytes: u64,
    /// Whether the ring ever overwrote (always false for full captures).
    pub truncated: bool,
    /// Records the ring dropped.
    pub truncated_records: u64,
    /// Payload bytes the ring dropped.
    pub truncated_bytes: u64,
    /// Virtual-time span of the retained records.
    pub duration_us: u64,
    /// [`word_fold`](crate::format::word_fold) over retained Tx RTP/RTCP
    /// payloads — what `SimSession::wire_digest` must equal after a replay.
    pub wire_digest: u64,
    /// Per-participant decoded-surface digests `(actor, digest)`.
    pub surface_digests: Vec<(u16, u64)>,
    /// Non-empty per-stream count lines.
    pub streams: Vec<StreamLine>,
}

impl ManifestSummary {
    /// Summarize an armed sink plus the replay targets the caller
    /// measured (`surface_digests` from the live participants).
    pub fn from_handle(handle: &CaptureHandle, surface_digests: Vec<(u16, u64)>) -> Self {
        let header = handle.header();
        let stats = handle.stats();
        let mut streams = Vec::new();
        for kind in StreamKind::ALL {
            for (d, dir) in [
                Direction::Tx,
                Direction::Rx,
                Direction::Up,
                Direction::Internal,
            ]
            .into_iter()
            .enumerate()
            {
                let slot = stats.streams[kind as usize][d];
                if slot.records > 0 {
                    streams.push(StreamLine {
                        kind,
                        dir,
                        records: slot.records,
                        bytes: slot.bytes,
                    });
                }
            }
        }
        ManifestSummary {
            session_id: header.session_id,
            consent: header.consent,
            ring: header.ring,
            window_us: match handle.mode() {
                CaptureMode::Full => 0,
                CaptureMode::Ring { window_us } => window_us,
            },
            records: stats.records,
            bytes: stats.payload_bytes,
            truncated: stats.truncated(),
            truncated_records: stats.truncated_records,
            truncated_bytes: stats.truncated_bytes,
            duration_us: stats.duration_us(),
            wire_digest: handle.wire_digest(),
            surface_digests,
            streams,
        }
    }
}

fn hex(digest: u64) -> String {
    format!("0x{digest:016x}")
}

fn parse_hex(s: &str) -> Result<u64, String> {
    let body = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("digest {s:?} missing 0x prefix"))?;
    u64::from_str_radix(body, 16).map_err(|e| format!("digest {s:?}: {e}"))
}

/// Serialize a [`ManifestSummary`] as the manifest JSON document.
pub fn manifest_json(m: &ManifestSummary) -> String {
    json::object(|o| {
        o.str("schema", CAPTURE_MANIFEST_SCHEMA)
            .u64("session_id", m.session_id)
            .bool("consent", m.consent)
            .str("mode", if m.ring { "ring" } else { "full" })
            .u64("window_us", m.window_us)
            .u64("records", m.records)
            .u64("bytes", m.bytes)
            .bool("truncated", m.truncated)
            .u64("truncated_records", m.truncated_records)
            .u64("truncated_bytes", m.truncated_bytes)
            .u64("duration_us", m.duration_us)
            .str("wire_digest", &hex(m.wire_digest))
            .array("surface_digests", |items| {
                for (actor, digest) in &m.surface_digests {
                    items.object(|o| {
                        o.u64("actor", u64::from(*actor))
                            .str("digest", &hex(*digest));
                    });
                }
            })
            .array("streams", |items| {
                for s in &m.streams {
                    items.object(|o| {
                        o.str("kind", s.kind.name())
                            .str("dir", s.dir.name())
                            .u64("records", s.records)
                            .u64("bytes", s.bytes);
                    });
                }
            });
    })
}

fn kind_by_name(name: &str) -> Result<StreamKind, String> {
    StreamKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown stream kind {name:?}"))
}

fn dir_by_name(name: &str) -> Result<Direction, String> {
    [
        Direction::Tx,
        Direction::Rx,
        Direction::Up,
        Direction::Internal,
    ]
    .into_iter()
    .find(|d| d.name() == name)
    .ok_or_else(|| format!("unknown direction {name:?}"))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("manifest missing integer field {key:?}"))
}

fn req_bool(doc: &Json, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("manifest missing boolean field {key:?}")),
    }
}

/// Parse a manifest JSON document back into a [`ManifestSummary`].
pub fn parse_manifest(text: &str) -> Result<ManifestSummary, String> {
    let doc = json::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("manifest missing schema marker")?;
    if schema != CAPTURE_MANIFEST_SCHEMA {
        return Err(format!("unexpected schema marker {schema:?}"));
    }
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("manifest missing mode")?;
    let ring = match mode {
        "ring" => true,
        "full" => false,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let wire_digest = parse_hex(
        doc.get("wire_digest")
            .and_then(Json::as_str)
            .ok_or("manifest missing wire_digest")?,
    )?;
    let mut surface_digests = Vec::new();
    for entry in doc
        .get("surface_digests")
        .and_then(Json::as_array)
        .ok_or("manifest missing surface_digests")?
    {
        let actor = req_u64(entry, "actor")?;
        let digest = parse_hex(
            entry
                .get("digest")
                .and_then(Json::as_str)
                .ok_or("surface digest entry missing digest")?,
        )?;
        surface_digests.push((
            u16::try_from(actor).map_err(|_| format!("actor {actor} out of range"))?,
            digest,
        ));
    }
    let mut streams = Vec::new();
    for entry in doc
        .get("streams")
        .and_then(Json::as_array)
        .ok_or("manifest missing streams")?
    {
        streams.push(StreamLine {
            kind: kind_by_name(
                entry
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or("stream entry missing kind")?,
            )?,
            dir: dir_by_name(
                entry
                    .get("dir")
                    .and_then(Json::as_str)
                    .ok_or("stream entry missing dir")?,
            )?,
            records: req_u64(entry, "records")?,
            bytes: req_u64(entry, "bytes")?,
        });
    }
    Ok(ManifestSummary {
        session_id: req_u64(&doc, "session_id")?,
        consent: req_bool(&doc, "consent")?,
        ring,
        window_us: req_u64(&doc, "window_us")?,
        records: req_u64(&doc, "records")?,
        bytes: req_u64(&doc, "bytes")?,
        truncated: req_bool(&doc, "truncated")?,
        truncated_records: req_u64(&doc, "truncated_records")?,
        truncated_bytes: req_u64(&doc, "truncated_bytes")?,
        duration_us: req_u64(&doc, "duration_us")?,
        wire_digest,
        surface_digests,
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Transport;
    use crate::sink::{CaptureConfig, CaptureMode};

    fn sample() -> ManifestSummary {
        ManifestSummary {
            session_id: 42,
            consent: true,
            ring: true,
            window_us: 2_000_000,
            records: 7,
            bytes: 910,
            truncated: true,
            truncated_records: 3,
            truncated_bytes: 400,
            duration_us: 1_900_000,
            wire_digest: 0xdead_beef_cafe_f00d,
            surface_digests: vec![(0, 0x1111_2222_3333_4444), (1, u64::MAX)],
            streams: vec![StreamLine {
                kind: StreamKind::Rtp,
                dir: Direction::Tx,
                records: 7,
                bytes: 910,
            }],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let text = manifest_json(&m);
        let back = parse_manifest(&text).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn digests_survive_u64_range() {
        let m = sample();
        let back = parse_manifest(&manifest_json(&m)).expect("parses");
        assert_eq!(back.surface_digests[1].1, u64::MAX);
    }

    #[test]
    fn from_handle_summarizes_sink() {
        let c = CaptureHandle::arm(CaptureConfig {
            consent: true,
            mode: CaptureMode::Full,
            session_id: 9,
            start_us: 0,
        })
        .expect("consented");
        c.record(
            Direction::Tx,
            StreamKind::Rtp,
            Transport::Udp,
            0,
            10,
            b"abc",
        );
        c.record(Direction::Rx, StreamKind::Hip, Transport::Udp, 1, 20, b"de");
        let m = ManifestSummary::from_handle(&c, vec![(0, 5)]);
        assert_eq!(m.session_id, 9);
        assert!(m.consent);
        assert!(!m.ring);
        assert_eq!(m.records, 2);
        assert_eq!(m.bytes, 5);
        assert!(!m.truncated);
        assert_eq!(m.streams.len(), 2);
        assert_eq!(m.wire_digest, c.wire_digest());
    }

    #[test]
    fn rejects_wrong_schema_marker() {
        let text = manifest_json(&sample()).replace("adshare-capture-manifest/v1", "nope/v1");
        assert!(parse_manifest(&text).is_err());
    }
}
