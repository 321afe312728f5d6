//! Deterministic replay of `adshare-capture/v1` files.
//!
//! A participant's decode state is a pure function of the byte stream it
//! is fed: layout, NACK policy, and RNG seed only shape *outbound*
//! feedback and local window placement, never how a datagram decodes. So
//! replay builds one fresh [`Participant`] per ingress actor, feeds it the
//! capture's `Rx` records at their recorded virtual cadence (and honours
//! [`StreamKind::GapRecover`] markers, skipping the same unrecoverable
//! holes the live session skipped), and then compares two digests against
//! the manifest:
//!
//! - the **wire digest** — FNV fold over the capture's egress records,
//!   which must equal what `SimSession::wire_digest` reported live;
//! - a per-actor **decoded-surface digest** — a fold over every window's
//!   id, dimensions, and pixels in z-order, which must be bit-identical
//!   to the live participant's surface at capture time.
//!
//! [`historical_chrome_trace`] renders the same capture as a Perfetto
//! timeline: the flight-recorder events embedded at finalize time plus
//! one instant per captured packet, all on the single virtual clock the
//! sink and recorder shared.

use std::collections::BTreeMap;

use adshare_capture::{
    flight_events, fnv1a_fold, wire_digest_of, Capture, CaptureRecord, Direction, ManifestSummary,
    StreamKind, Transport, FNV_OFFSET,
};
use adshare_netsim::time::us_to_ticks;
use adshare_obs::{chrome_trace_json_with_packets, PacketSample};

use crate::config::Layout;
use crate::participant::Participant;

/// Digest of a participant's decoded surface: every shared window's id,
/// dimensions, and raw pixels, folded in z-order. Layout-independent, so
/// a replay participant with a default layout still reproduces it.
pub fn participant_surface_digest(p: &Participant) -> u64 {
    let mut digest = FNV_OFFSET;
    for &id in p.z_order() {
        digest = fnv1a_fold(digest, &id.to_le_bytes());
        if let Some(img) = p.window_content(id) {
            digest = fnv1a_fold(digest, &img.width().to_le_bytes());
            digest = fnv1a_fold(digest, &img.height().to_le_bytes());
            for y in 0..img.height() {
                digest = fnv1a_fold(digest, img.row(y));
            }
        }
    }
    digest
}

/// One actor's surface comparison after replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurfaceCheck {
    /// Ingress actor (participant index in the recording session).
    pub actor: u16,
    /// Surface digest of the replayed participant.
    pub replayed: u64,
    /// The manifest's recorded digest for this actor, when present.
    pub recorded: Option<u64>,
}

impl SurfaceCheck {
    /// Whether the replayed surface matches the recorded one (vacuously
    /// true when the manifest carried no digest for this actor).
    pub fn matches(&self) -> bool {
        self.recorded.is_none_or(|r| r == self.replayed)
    }
}

/// Everything a replay run asserts.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// FNV fold over the capture's egress (Tx RTP/RTCP) records.
    pub wire_digest: u64,
    /// The manifest's claimed wire digest, when a manifest was supplied.
    pub recorded_wire_digest: Option<u64>,
    /// Per-actor surface comparisons, ascending by actor.
    pub surfaces: Vec<SurfaceCheck>,
    /// Ingress records fed to replay participants.
    pub records_fed: u64,
    /// Gap-recovery markers honoured during the replay.
    pub gaps_skipped: u64,
}

impl ReplayReport {
    /// Whether the capture's egress digest matches the manifest's claim
    /// (vacuously true without a manifest).
    pub fn wire_matches(&self) -> bool {
        self.recorded_wire_digest
            .is_none_or(|r| r == self.wire_digest)
    }

    /// The acceptance criterion: wire digest and every surface digest
    /// match the manifest.
    pub fn bit_exact(&self) -> bool {
        self.wire_matches() && self.surfaces.iter().all(SurfaceCheck::matches)
    }
}

/// Replay a parsed capture through fresh participants and report the
/// digest comparisons. With `manifest = None` the digests are computed
/// but nothing is asserted against ([`ReplayReport::bit_exact`] is then
/// vacuously true).
pub fn replay(capture: &Capture, manifest: Option<&ManifestSummary>) -> ReplayReport {
    // Which actors received downstream traffic, and whether any of it ran
    // over TCP (stream-framed) rather than datagrams.
    let mut tcp_actor: BTreeMap<u16, bool> = BTreeMap::new();
    for r in &capture.records {
        if r.dir == Direction::Rx {
            *tcp_actor.entry(r.actor).or_insert(false) |= r.transport == Transport::Tcp;
        }
    }
    let mut participants: BTreeMap<u16, Participant> = tcp_actor
        .keys()
        .map(|&actor| {
            // user_id mirrors SimSession's idx→id mapping; the seed is
            // arbitrary because decode never consults the RNG.
            let p = Participant::new(actor + 1, Layout::Original, false, 0x5eed ^ actor as u64);
            (actor, p)
        })
        .collect();
    let mut records_fed = 0u64;
    let mut gaps_skipped = 0u64;
    for r in &capture.records {
        match (r.dir, r.kind) {
            (Direction::Rx, _) => {
                let Some(p) = participants.get_mut(&r.actor) else {
                    continue;
                };
                let ticks = us_to_ticks(r.ts_us);
                if r.transport == Transport::Tcp {
                    p.handle_stream(&r.payload, ticks);
                } else {
                    p.handle_datagram(&r.payload, ticks);
                }
                records_fed += 1;
            }
            (Direction::Internal, StreamKind::GapRecover) => {
                if let Some(p) = participants.get_mut(&r.actor) {
                    p.recover_from_gap();
                    gaps_skipped += 1;
                }
            }
            _ => {}
        }
    }
    let recorded: BTreeMap<u16, u64> = manifest
        .map(|m| m.surface_digests.iter().copied().collect())
        .unwrap_or_default();
    let surfaces = participants
        .iter()
        .map(|(&actor, p)| SurfaceCheck {
            actor,
            replayed: participant_surface_digest(p),
            recorded: recorded.get(&actor).copied(),
        })
        .collect();
    ReplayReport {
        wire_digest: wire_digest_of(&capture.records),
        recorded_wire_digest: manifest.map(|m| m.wire_digest),
        surfaces,
        records_fed,
        gaps_skipped,
    }
}

/// Convert capture records to Perfetto packet instants: one lane per
/// direction (`capture.tx`, `capture.rx`, `capture.up`,
/// `capture.internal`), named by stream kind, carrying payload size and
/// actor as args.
pub fn packet_samples(records: &[CaptureRecord]) -> Vec<PacketSample> {
    records
        .iter()
        .map(|r| PacketSample {
            track: format!("capture.{}", r.dir.name()),
            lane: r.dir as u64,
            name: r.kind.name().to_string(),
            ts_us: r.ts_us,
            bytes: r.payload.len() as u64,
            actor: r.actor,
        })
        .collect()
}

/// Historical Perfetto export from a capture file alone: the embedded
/// flight-recorder events plus one instant per captured packet. Both
/// streams were stamped by the same virtual clock, so the merged timeline
/// is monotone — no negative spans.
pub fn historical_chrome_trace(capture: &Capture) -> String {
    let events = flight_events(&capture.records);
    let packets = packet_samples(&capture.records);
    chrome_trace_json_with_packets(&[], &events, &packets)
}
