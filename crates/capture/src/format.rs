//! The `adshare-capture/v1` binary format.
//!
//! A capture file is the magic header followed by zero or more
//! length-prefixed records:
//!
//! ```text
//! header:  magic "adshare-capture/v1\n" (19 bytes)
//!          consent u8 | ring u8 | reserved u16 | reserved u32
//!          session_id u64 LE | start_us u64 LE
//! record:  len u32 LE            (bytes that follow, incl. checksum)
//!          dir u8 | kind u8 | transport u8 | reserved u8
//!          actor u16 LE | reserved u16
//!          ts_us u64 LE
//!          payload (len - 16 - 8 bytes)
//!          checksum u64 LE       (word_fold over dir..payload:
//!                                 length-seeded, 8-byte LE words,
//!                                 zero-padded tail)
//! ```
//!
//! Every record carries its own checksum, so a truncated or bit-flipped
//! file fails loudly at the damaged record instead of replaying garbage.
//! The same fold ([`word_fold`]) is the senders' wire digest, so
//! re-folding a capture's AH-egress records reproduces
//! `SimSession::wire_digest` bit-exactly — the property replay asserts.

/// Magic prefix of every capture file; doubles as the format version.
pub const CAPTURE_MAGIC: &[u8] = b"adshare-capture/v1\n";

/// FNV-1a offset basis (same constant as the session wire digest).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into a running FNV-1a digest, one byte per multiply.
///
/// The published FNV-1a; kept for the cache-warm file checksum and the
/// digests nothing sends through (surfaces, events). Egress uses
/// [`word_fold`].
pub fn fnv1a_fold(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// Fold `bytes` into a running digest one 8-byte little-endian word per
/// multiply: the length first, then each word, the tail zero-padded.
///
/// This is the wire digest every sender keeps over every datagram it
/// sends, and the per-record checksum ([`record_checksum`]). One multiply
/// per word instead of one per byte cuts the multiply latency chain that
/// bounds the fold to an eighth, which matters because it runs on every
/// byte the AH and every relay leg send. Because the length is folded in,
/// splitting the same bytes into datagrams differently changes the
/// digest.
pub fn word_fold(digest: u64, bytes: &[u8]) -> u64 {
    let mut digest = (digest ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        digest ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        digest ^= u64::from_le_bytes(tail);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// The per-record checksum: [`word_fold`] from the FNV offset basis.
pub fn record_checksum(bytes: &[u8]) -> u64 {
    word_fold(FNV_OFFSET, bytes)
}

/// Errors arming, encoding, or decoding a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// Arming was attempted without the consent flag set. Wire capture
    /// records user content; it is never switched on implicitly.
    ConsentRequired,
    /// A file or buffer failed structural validation (bad magic, bad
    /// checksum, truncated record, unknown enum value).
    Corrupt(String),
    /// An I/O error surfaced while reading or writing a capture file.
    Io(String),
    /// The requested operation does not apply to this capture's mode
    /// (e.g. streaming a ring capture to an append-only file).
    Unsupported(String),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::ConsentRequired => {
                write!(f, "capture requires consent at arm time")
            }
            CaptureError::Corrupt(detail) => write!(f, "corrupt capture: {detail}"),
            CaptureError::Io(detail) => write!(f, "capture i/o: {detail}"),
            CaptureError::Unsupported(detail) => write!(f, "capture: {detail}"),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Which hop of the pipeline a record was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Direction {
    /// AH (or relay) egress: the datagram as it left the sender. Folding
    /// these records (RTP/RTCP kinds) in order reproduces the wire digest.
    Tx = 0,
    /// Participant ingress: the datagram as delivered (after simulated
    /// loss/reorder/delay). Replay feeds exactly these to a fresh
    /// participant.
    Rx = 1,
    /// AH ingress: upstream feedback (RTCP/HIP/BFCP) from participants.
    Up = 2,
    /// Not wire traffic: flight-recorder events and control markers
    /// embedded in the capture.
    Internal = 3,
}

impl Direction {
    /// Stable snake_case name for manifests and timelines.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Tx => "tx",
            Direction::Rx => "rx",
            Direction::Up => "up",
            Direction::Internal => "internal",
        }
    }

    /// Reverse of the `repr(u8)` discriminant.
    pub fn from_u8(v: u8) -> Option<Direction> {
        match v {
            0 => Some(Direction::Tx),
            1 => Some(Direction::Rx),
            2 => Some(Direction::Up),
            3 => Some(Direction::Internal),
            _ => None,
        }
    }
}

/// What kind of bytes a record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum StreamKind {
    /// An RTP datagram (remoting media).
    Rtp = 1,
    /// An RTCP compound (sender/receiver reports, NACK, PLI).
    Rtcp = 2,
    /// A Host Interaction Protocol message (participant input).
    Hip = 3,
    /// A BFCP floor-control message.
    Bfcp = 4,
    /// One flight-recorder event, embedded at finalize time so historical
    /// Perfetto export needs only the capture file.
    FlightEvent = 5,
    /// Control marker: the session skipped an unrecoverable gap for this
    /// participant (`recover_from_gap`). Replay must do the same to stay
    /// bit-exact.
    GapRecover = 6,
}

impl StreamKind {
    /// Stable snake_case name for manifests and timelines.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Rtp => "rtp",
            StreamKind::Rtcp => "rtcp",
            StreamKind::Hip => "hip",
            StreamKind::Bfcp => "bfcp",
            StreamKind::FlightEvent => "flight_event",
            StreamKind::GapRecover => "gap_recover",
        }
    }

    /// Reverse of the `repr(u8)` discriminant.
    pub fn from_u8(v: u8) -> Option<StreamKind> {
        match v {
            1 => Some(StreamKind::Rtp),
            2 => Some(StreamKind::Rtcp),
            3 => Some(StreamKind::Hip),
            4 => Some(StreamKind::Bfcp),
            5 => Some(StreamKind::FlightEvent),
            6 => Some(StreamKind::GapRecover),
            _ => None,
        }
    }

    /// Every wire-carrying kind, in discriminant order (drives manifest
    /// stream tables).
    pub const ALL: [StreamKind; 6] = [
        StreamKind::Rtp,
        StreamKind::Rtcp,
        StreamKind::Hip,
        StreamKind::Bfcp,
        StreamKind::FlightEvent,
        StreamKind::GapRecover,
    ];
}

/// Which transport carried the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Transport {
    /// Simulated or real UDP.
    Udp = 0,
    /// RFC 4571-framed TCP (the payload is the unframed datagram).
    Tcp = 1,
    /// Multicast UDP.
    Multicast = 2,
    /// Not a transport (flight events, control markers).
    None = 3,
}

impl Transport {
    /// Stable snake_case name for manifests and timelines.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
            Transport::Multicast => "multicast",
            Transport::None => "none",
        }
    }

    /// Reverse of the `repr(u8)` discriminant.
    pub fn from_u8(v: u8) -> Option<Transport> {
        match v {
            0 => Some(Transport::Udp),
            1 => Some(Transport::Tcp),
            2 => Some(Transport::Multicast),
            3 => Some(Transport::None),
            _ => None,
        }
    }
}

/// The fixed header at the front of every capture file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureHeader {
    /// The consent flag that was presented at arm time. Always `true` in a
    /// well-formed file (arming without consent fails), but carried so a
    /// reader can reject a hand-built file that skipped the gate.
    pub consent: bool,
    /// Whether the capture was a bounded ring (older records may have been
    /// truncated) rather than a full recording.
    pub ring: bool,
    /// Session/tenant id the capture belongs to.
    pub session_id: u64,
    /// Virtual time when the capture was armed.
    pub start_us: u64,
}

/// One captured record: a verbatim datagram (or embedded event) plus its
/// capture metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Which hop the record was taken at.
    pub dir: Direction,
    /// What the payload is.
    pub kind: StreamKind,
    /// Which transport carried it.
    pub transport: Transport,
    /// Participant index, relay leg, or `0xFFFF` for the AH.
    pub actor: u16,
    /// Virtual timestamp — the same clock the flight recorder stamps, so
    /// merged timelines never show negative spans.
    pub ts_us: u64,
    /// The verbatim bytes.
    pub payload: Vec<u8>,
}

/// Bytes of record framing before the payload (after the length prefix).
const RECORD_META: usize = 16;
/// Bytes of the trailing checksum.
const RECORD_CHK: usize = 8;
/// Header length: magic + flags/reserved (8) + session_id + start_us.
const HEADER_LEN: usize = CAPTURE_MAGIC.len() + 8 + 8 + 8;

/// Serialize the file header.
pub fn encode_header(h: &CaptureHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(CAPTURE_MAGIC);
    out.push(u8::from(h.consent));
    out.push(u8::from(h.ring));
    out.extend_from_slice(&[0u8; 6]); // reserved
    out.extend_from_slice(&h.session_id.to_le_bytes());
    out.extend_from_slice(&h.start_us.to_le_bytes());
    out
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Parse the file header; returns it plus the number of bytes consumed.
pub fn decode_header(buf: &[u8]) -> Result<(CaptureHeader, usize), CaptureError> {
    if buf.len() < HEADER_LEN {
        return Err(CaptureError::Corrupt(format!(
            "header needs {HEADER_LEN} bytes, have {}",
            buf.len()
        )));
    }
    if &buf[..CAPTURE_MAGIC.len()] != CAPTURE_MAGIC {
        return Err(CaptureError::Corrupt(
            "bad magic (not an adshare-capture/v1 file)".into(),
        ));
    }
    let at = CAPTURE_MAGIC.len();
    let header = CaptureHeader {
        consent: buf[at] != 0,
        ring: buf[at + 1] != 0,
        session_id: read_u64(buf, at + 8),
        start_us: read_u64(buf, at + 16),
    };
    Ok((header, HEADER_LEN))
}

/// Append one record's wire form to `out`, straight from its fields —
/// the sink uses this to encode without an intermediate payload clone.
#[allow(clippy::too_many_arguments)]
pub fn encode_record_parts(
    dir: Direction,
    kind: StreamKind,
    transport: Transport,
    actor: u16,
    ts_us: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let body_len = RECORD_META + payload.len() + RECORD_CHK;
    out.reserve(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = out.len();
    out.push(dir as u8);
    out.push(kind as u8);
    out.push(transport as u8);
    out.push(0); // reserved
    out.extend_from_slice(&actor.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]); // reserved
    out.extend_from_slice(&ts_us.to_le_bytes());
    out.extend_from_slice(payload);
    let chk = record_checksum(&out[body_start..]);
    out.extend_from_slice(&chk.to_le_bytes());
}

/// Append one record's wire form to `out`.
pub fn encode_record(rec: &CaptureRecord, out: &mut Vec<u8>) {
    encode_record_parts(
        rec.dir,
        rec.kind,
        rec.transport,
        rec.actor,
        rec.ts_us,
        &rec.payload,
        out,
    );
}

/// Parse one record from the front of `buf`; returns it plus the number of
/// bytes consumed. Validates the length prefix and the checksum.
pub fn decode_record(buf: &[u8]) -> Result<(CaptureRecord, usize), CaptureError> {
    if buf.len() < 4 {
        return Err(CaptureError::Corrupt("truncated length prefix".into()));
    }
    let mut w = [0u8; 4];
    w.copy_from_slice(&buf[..4]);
    let body_len = u32::from_le_bytes(w) as usize;
    if body_len < RECORD_META + RECORD_CHK {
        return Err(CaptureError::Corrupt(format!(
            "record body {body_len} shorter than framing"
        )));
    }
    if buf.len() < 4 + body_len {
        return Err(CaptureError::Corrupt(format!(
            "record needs {} bytes, have {}",
            4 + body_len,
            buf.len()
        )));
    }
    let body = &buf[4..4 + body_len];
    let (data, chk_bytes) = body.split_at(body_len - RECORD_CHK);
    let stored = read_u64(chk_bytes, 0);
    let computed = record_checksum(data);
    if stored != computed {
        return Err(CaptureError::Corrupt(format!(
            "record checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
        )));
    }
    let dir = Direction::from_u8(data[0])
        .ok_or_else(|| CaptureError::Corrupt(format!("unknown direction {}", data[0])))?;
    let kind = StreamKind::from_u8(data[1])
        .ok_or_else(|| CaptureError::Corrupt(format!("unknown stream kind {}", data[1])))?;
    let transport = Transport::from_u8(data[2])
        .ok_or_else(|| CaptureError::Corrupt(format!("unknown transport {}", data[2])))?;
    let actor = u16::from_le_bytes([data[4], data[5]]);
    let ts_us = read_u64(data, 8);
    let payload = data[RECORD_META..].to_vec();
    Ok((
        CaptureRecord {
            dir,
            kind,
            transport,
            actor,
            ts_us,
            payload,
        },
        4 + body_len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts: u64, payload: &[u8]) -> CaptureRecord {
        CaptureRecord {
            dir: Direction::Tx,
            kind: StreamKind::Rtp,
            transport: Transport::Udp,
            actor: 3,
            ts_us: ts,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn header_round_trips() {
        let h = CaptureHeader {
            consent: true,
            ring: false,
            session_id: 0xDEAD_BEEF,
            start_us: 123_456,
        };
        let bytes = encode_header(&h);
        let (back, used) = decode_header(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn record_round_trips() {
        let rec = record(42, b"hello wire");
        let mut out = Vec::new();
        encode_record(&rec, &mut out);
        let (back, used) = decode_record(&out).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, out.len());
    }

    #[test]
    fn empty_payload_round_trips() {
        let rec = CaptureRecord {
            dir: Direction::Internal,
            kind: StreamKind::GapRecover,
            transport: Transport::None,
            actor: 0,
            ts_us: 0,
            payload: Vec::new(),
        };
        let mut out = Vec::new();
        encode_record(&rec, &mut out);
        assert_eq!(decode_record(&out).unwrap().0, rec);
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut out = Vec::new();
        encode_record(&record(1, b"payload"), &mut out);
        let mid = out.len() / 2;
        out[mid] ^= 0x40;
        assert!(matches!(decode_record(&out), Err(CaptureError::Corrupt(_))));
    }

    #[test]
    fn truncated_record_is_rejected() {
        let mut out = Vec::new();
        encode_record(&record(1, b"payload"), &mut out);
        out.truncate(out.len() - 3);
        assert!(decode_record(&out).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_header(&CaptureHeader {
            consent: true,
            ring: false,
            session_id: 0,
            start_us: 0,
        });
        bytes[0] = b'X';
        assert!(decode_header(&bytes).is_err());
    }

    #[test]
    fn fnv_fold_matches_reference() {
        // FNV-1a of "a" from the published test vectors.
        assert_eq!(fnv1a_fold(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn record_checksums_are_pinned() {
        // Values of the capture/v1 record checksum before it was expressed
        // through `word_fold`: existing files must keep verifying.
        assert_eq!(record_checksum(b""), 0xaf63_bd4c_8601_b7df);
        assert_eq!(record_checksum(b"a"), 0x082f_4307_b4e8_c4d7);
        assert_eq!(record_checksum(CAPTURE_MAGIC), 0x59e0_931d_647a_3e08);
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(record_checksum(&data), 0xc2fb_ad4f_8053_dd44);
    }

    #[test]
    fn word_fold_tells_datagram_boundaries_apart() {
        // The byte-serial fold sees one byte stream; the word fold seeds
        // each datagram with its length.
        let split = |parts: &[&[u8]], fold: fn(u64, &[u8]) -> u64| {
            parts.iter().fold(FNV_OFFSET, |d, p| fold(d, p))
        };
        let (a, b): (&[&[u8]], &[&[u8]]) = (&[b"ab", b"c"], &[b"a", b"bc"]);
        assert_eq!(split(a, fnv1a_fold), split(b, fnv1a_fold));
        assert_ne!(split(a, word_fold), split(b, word_fold));
    }
}

#[cfg(test)]
mod fold_properties {
    use super::*;
    use proptest::prelude::*;

    /// The capture/v1 record checksum exactly as it was written before
    /// `word_fold` existed: the oracle for "record checksums unchanged".
    fn v1_record_checksum(bytes: &[u8]) -> u64 {
        let mut digest = (FNV_OFFSET ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            digest ^= u64::from_le_bytes(c.try_into().unwrap());
            digest = digest.wrapping_mul(FNV_PRIME);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            digest ^= u64::from_le_bytes(tail);
            digest = digest.wrapping_mul(FNV_PRIME);
        }
        digest
    }

    fn chained(datagrams: &[Vec<u8>]) -> u64 {
        datagrams.iter().fold(FNV_OFFSET, |d, g| word_fold(d, g))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Capture/v1 record checksums are unchanged.
        #[test]
        fn record_checksum_is_word_fold_from_offset(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            prop_assert_eq!(record_checksum(&bytes), word_fold(FNV_OFFSET, &bytes));
            prop_assert_eq!(record_checksum(&bytes), v1_record_checksum(&bytes));
        }

        /// Any one changed byte of any datagram changes the chained digest
        /// (each step is a bijection of the running state).
        #[test]
        fn one_flipped_byte_changes_the_chain(
            datagrams in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..64), 1..8),
            pick in any::<u64>(),
            flip in 1u8..=255,
        ) {
            let whole = chained(&datagrams);
            let mut bad = datagrams.clone();
            let g = (pick % bad.len() as u64) as usize;
            let at = ((pick >> 32) % bad[g].len() as u64) as usize;
            bad[g][at] ^= flip;
            prop_assert_ne!(chained(&bad), whole);
        }

        /// The same bytes split into datagrams differently fold differently.
        #[test]
        fn resplitting_the_same_bytes_changes_the_chain(
            bytes in proptest::collection::vec(any::<u8>(), 2..200),
            cuts_a in proptest::collection::vec(any::<u16>(), 0..6),
            cuts_b in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let split = |cuts: &[u16]| {
                let mut at: Vec<usize> =
                    cuts.iter().map(|&c| 1 + c as usize % (bytes.len() - 1)).collect();
                at.sort_unstable();
                at.dedup();
                let mut parts = Vec::new();
                let mut from = 0;
                for &to in at.iter().chain(std::iter::once(&bytes.len())) {
                    parts.push(bytes[from..to].to_vec());
                    from = to;
                }
                parts
            };
            let (a, b) = (split(&cuts_a), split(&cuts_b));
            if a != b {
                prop_assert_ne!(chained(&a), chained(&b));
            }
        }
    }
}
