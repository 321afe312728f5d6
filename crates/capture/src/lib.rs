//! # adshare-capture — consent-gated wire capture + deterministic replay
//!
//! The flight recorder (adshare-obs) snapshots *derived* state; the actual
//! remoting/HIP/RTP/RTCP byte streams vanish the moment they are consumed,
//! which makes field bugs unreproducible. This crate records them:
//!
//! - [`mod@format`]: the `adshare-capture/v1` on-disk format — a versioned
//!   magic header followed by length-prefixed, per-record FNV-checksummed
//!   records carrying direction, stream kind, transport, actor, and a
//!   virtual timestamp next to the verbatim datagram bytes.
//! - [`sink`]: the capture sink the session taps feed. Arming **requires a
//!   consent flag** ([`CaptureError::ConsentRequired`] otherwise —
//!   recording is a first-class consent-gated feature, not a debug switch).
//!   Two modes: [`CaptureMode::Full`] keeps everything;
//!   [`CaptureMode::Ring`] keeps a bounded window of the most recent
//!   traffic and reports truncation explicitly (counters, flight-recorder
//!   events, and a one-shot log line).
//! - [`manifest`]: the `adshare-capture-manifest/v1` JSON sidecar — stream
//!   counts, byte totals, consent flag, truncation marker, and the wire /
//!   decoded-surface digests that make a capture self-verifying.
//! - [`reader`]: parse + validate a capture, recompute its wire digest,
//!   and recover the flight-recorder events embedded at finalize time.
//! - [`cachewarm`]: encode-cache persistence — serialize hot cache entries
//!   keyed by `(content_hash, dims, tier)` so a re-share of the same
//!   window starts warm.
//!
//! The replay engine itself lives in `adshare-session` (it drives a real
//! `Participant`); this crate stays below the session layer so the AH,
//! participants, relays, and the multi-tenant host can all hold a
//! [`CaptureHandle`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cachewarm;
pub mod format;
pub mod manifest;
pub mod reader;
pub mod sink;

pub use cachewarm::{decode_entries, encode_entries, WarmEntry, CACHEWARM_MAGIC};
pub use format::{
    fnv1a_fold, word_fold, CaptureError, CaptureHeader, CaptureRecord, Direction, StreamKind,
    Transport, CAPTURE_MAGIC, FNV_OFFSET,
};
pub use manifest::{manifest_json, parse_manifest, ManifestSummary, CAPTURE_MANIFEST_SCHEMA};
pub use reader::{flight_events, parse_capture, read_capture, wire_digest_of, Capture};
pub use sink::{CaptureConfig, CaptureHandle, CaptureMode, CaptureStats, StreamCount};
