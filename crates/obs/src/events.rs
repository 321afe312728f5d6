//! The flight recorder: a fixed-capacity, lock-free ring buffer of compact
//! structured events — the black box every session carries.
//!
//! Metrics (PR 1) answer *how much*; traces answer *how long*; the recorder
//! answers *what happened, in what order* — the question a NACK storm or a
//! rate collapse poses after the fact. Recording is always-on: a write is
//! one `fetch_add` plus six relaxed atomic stores, cheap enough for bench
//! runs and per-packet call sites.
//!
//! ## Lock freedom without `unsafe`
//!
//! The crate forbids `unsafe`, so the classic reserve-then-memcpy ring is
//! out. Instead every slot is six `AtomicU64` words, the write cursor is a
//! global `fetch_add` (reserving a unique sequence number → slot per lap),
//! and the last word is a **checksum** of the other five mixed with a
//! constant. A reader validates the checksum before accepting a slot; a
//! torn slot — two writers a full lap apart interleaving, or a read racing
//! a write — fails validation and is skipped rather than surfaced as a
//! garbage event. [`FlightRecorder::snapshot`] returns the survivors in
//! sequence order, so consumers always see a monotonic, untorn event log.

use std::sync::atomic::{AtomicU64, Ordering};

/// Actor id for the application host itself (participants use their index).
pub const ACTOR_AH: u16 = 0xFFFF;

/// Actor id for a relay node (its downstream legs use their leg index).
pub const ACTOR_RELAY: u16 = 0xFFFE;

/// Relay downstream legs record events under `ACTOR_LEG_BASE | leg_index`
/// so they never collide with AH participant indices in a shared registry.
pub const ACTOR_LEG_BASE: u16 = 0x8000;

/// Schema marker for the JSON event-log export.
pub const EVENTS_SCHEMA: &str = "adshare-obs-events/v1";

/// Cause code for a rate decrease driven by an RTCP receiver-report loss
/// fraction above the threshold.
pub const RATE_CAUSE_LOSS_REPORT: u64 = 1;
/// Cause code for a rate decrease driven by a NACK burst.
pub const RATE_CAUSE_NACK_BURST: u64 = 2;
/// Cause code for a rate decrease driven by TCP send-backlog pressure.
pub const RATE_CAUSE_BACKLOG: u64 = 3;

/// What happened. Each variant documents the meaning of the event's `a`/`b`
/// payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A region update hit the wire. `a` = RTP sequence of the marker
    /// fragment, `b` = (fragments << 32) | payload bytes.
    RtpTx = 1,
    /// A participant received an RTP datagram. `a` = RTP sequence,
    /// `b` = payload bytes.
    RtpRx = 2,
    /// A partial reassembly was abandoned (lost end fragment or gap
    /// recovery). `a` = total partials dropped so far.
    FragmentDrop = 3,
    /// A multi-fragment message finished reassembly. `a` = RTP sequence of
    /// the marker fragment, `b` = reassembled body bytes.
    Reassembled = 4,
    /// A participant sent a NACK. `a` = missing sequence count, `b` = first
    /// missing sequence.
    NackSent = 5,
    /// The AH received a NACK. `a` = missing sequence count, `b` = first
    /// missing sequence.
    NackReceived = 6,
    /// A participant requested a full refresh (PLI). `a` = PLIs sent so far.
    PliSent = 7,
    /// The AH received a PLI. `a` = 1 if the refresh was served, 0 if
    /// throttled by the rate controller.
    PliReceived = 8,
    /// A retransmit was served from history. `a` = RTP sequence, `b` = bytes.
    RetxServed = 9,
    /// A NACKed sequence had already left the history. `a` = RTP sequence.
    RetxExpired = 10,
    /// A multicast retransmit was suppressed (served within the dedup
    /// window). `a` = RTP sequence.
    RetxSuppressed = 11,
    /// The estimator's additive increase raised the pacing rate. `a` = new
    /// rate in bit/s, `b` = previous rate in bit/s.
    RateUp = 12,
    /// The estimator cut the pacing rate. `a` = new rate in bit/s, `b` =
    /// cause ([`RATE_CAUSE_LOSS_REPORT`], [`RATE_CAUSE_NACK_BURST`],
    /// [`RATE_CAUSE_BACKLOG`]).
    RateDown = 13,
    /// The pacer's fresh queue superseded stale updates with fresher
    /// coverage. `a` = updates dropped.
    PacerSupersede = 14,
    /// Encode-cache hits in one batch (cross-frame + intra-batch dedup).
    /// `a` = hits, `b` = tiles in the batch.
    CacheHit = 15,
    /// Encode-cache misses (fresh encodes) in one batch. `a` = misses,
    /// `b` = tiles in the batch.
    CacheMiss = 16,
    /// Encode-cache evictions to hold the byte budget. `a` = entries
    /// evicted.
    CacheEvict = 17,
    /// A TCP send was skipped because the link still had backlog (the §7
    /// freshest-frame policy). `a` = backlogged messages.
    BacklogSkip = 18,
    /// Reassembly copy accounting for one completed message. `a` = heap
    /// allocations, `b` = bytes copied (0/0 for the zero-copy single-slice
    /// path).
    ReassemblyCopy = 19,
    /// The BFCP chair granted the floor. `a` = user id.
    FloorGrant = 20,
    /// The BFCP chair revoked the floor. `a` = user id.
    FloorRevoke = 21,
    /// The health engine's overall status changed. `a` = new status
    /// (0 = OK, 1 = DEGRADED, 2 = CRITICAL), `b` = previous status.
    HealthTransition = 22,
    /// A relay forwarded one reassembled upstream message downstream.
    /// Actor = downstream leg index. `a` = upstream sequence of the last
    /// packet, `b` = (packets << 32) | wire bytes.
    RelayForward = 23,
    /// A relay retransmit-cache probe found the NACKed packet. `a` = the
    /// upstream sequence, `b` = cached wire bytes.
    RelayCacheHit = 24,
    /// A relay retransmit-cache probe missed (already evicted or never
    /// seen). `a` = the upstream sequence.
    RelayCacheMiss = 25,
    /// A downstream NACK was answered entirely from the relay cache.
    /// Actor = downstream leg index. `a` = sequences served, `b` = first
    /// sequence.
    RelayNackAbsorbed = 26,
    /// Cache misses forced the relay to NACK upstream. `a` = sequences
    /// escalated, `b` = first sequence.
    RelayNackEscalated = 27,
    /// A downstream PLI was handled at the relay. `a` = 1 if an upstream
    /// PLI was sent, 0 if coalesced into the refresh interval, `b` = leg.
    RelayPliCoalesced = 28,
    /// A late joiner was served a synthesized catch-up burst. Actor = the
    /// joining leg index. `a` = packets in the burst, `b` = burst bytes.
    RelayCatchupServed = 29,
    /// A participant delivered (decoded and applied) one traced frame.
    /// `a` = virtual-time staleness in µs (damage observed → delivered,
    /// excluding wall-clock encode/decode costs, so the value is
    /// deterministic under a seeded simulation), `b` = marker RTP sequence.
    FrameDelivered = 30,
    /// A wire capture was armed (consent granted). `a` = 1 for ring mode
    /// (0 = full), `b` = ring window in µs (0 for full captures).
    CaptureArmed = 31,
    /// A ring capture overwrote old records to hold its window. `a` =
    /// total records truncated so far, `b` = total payload bytes truncated.
    CaptureTruncated = 32,
    /// A capture was finalized and flushed. `a` = records retained, `b` =
    /// payload bytes retained.
    CaptureFlushed = 33,
    /// A layered-quality sender committed a tier switch at a unit
    /// boundary. Actor = the leg (or AH participant) switching. `a` = new
    /// tier gauge (0 = lossless … 2 = economy), `b` = previous tier gauge.
    TierSwitch = 34,
    /// A tier subscription changed hands: a relay asked its upstream for a
    /// different tier, or a sender accepted one. `a` = requested tier
    /// gauge, `b` = 1 when sent upstream, 0 when received/applied.
    TierRequest = 35,
}

/// Every kind, in discriminant order (drives schema docs and name lookup).
pub const EVENT_KINDS: [EventKind; 35] = [
    EventKind::RtpTx,
    EventKind::RtpRx,
    EventKind::FragmentDrop,
    EventKind::Reassembled,
    EventKind::NackSent,
    EventKind::NackReceived,
    EventKind::PliSent,
    EventKind::PliReceived,
    EventKind::RetxServed,
    EventKind::RetxExpired,
    EventKind::RetxSuppressed,
    EventKind::RateUp,
    EventKind::RateDown,
    EventKind::PacerSupersede,
    EventKind::CacheHit,
    EventKind::CacheMiss,
    EventKind::CacheEvict,
    EventKind::BacklogSkip,
    EventKind::ReassemblyCopy,
    EventKind::FloorGrant,
    EventKind::FloorRevoke,
    EventKind::HealthTransition,
    EventKind::RelayForward,
    EventKind::RelayCacheHit,
    EventKind::RelayCacheMiss,
    EventKind::RelayNackAbsorbed,
    EventKind::RelayNackEscalated,
    EventKind::RelayPliCoalesced,
    EventKind::RelayCatchupServed,
    EventKind::FrameDelivered,
    EventKind::CaptureArmed,
    EventKind::CaptureTruncated,
    EventKind::CaptureFlushed,
    EventKind::TierSwitch,
    EventKind::TierRequest,
];

impl EventKind {
    /// Stable snake_case name (used in JSON export and timeline tracks).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RtpTx => "rtp_tx",
            EventKind::RtpRx => "rtp_rx",
            EventKind::FragmentDrop => "fragment_drop",
            EventKind::Reassembled => "reassembled",
            EventKind::NackSent => "nack_sent",
            EventKind::NackReceived => "nack_received",
            EventKind::PliSent => "pli_sent",
            EventKind::PliReceived => "pli_received",
            EventKind::RetxServed => "retx_served",
            EventKind::RetxExpired => "retx_expired",
            EventKind::RetxSuppressed => "retx_suppressed",
            EventKind::RateUp => "rate_up",
            EventKind::RateDown => "rate_down",
            EventKind::PacerSupersede => "pacer_supersede",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::CacheEvict => "cache_evict",
            EventKind::BacklogSkip => "backlog_skip",
            EventKind::ReassemblyCopy => "reassembly_copy",
            EventKind::FloorGrant => "floor_grant",
            EventKind::FloorRevoke => "floor_revoke",
            EventKind::HealthTransition => "health_transition",
            EventKind::RelayForward => "relay_forward",
            EventKind::RelayCacheHit => "relay_cache_hit",
            EventKind::RelayCacheMiss => "relay_cache_miss",
            EventKind::RelayNackAbsorbed => "relay_nack_absorbed",
            EventKind::RelayNackEscalated => "relay_nack_escalated",
            EventKind::RelayPliCoalesced => "relay_pli_coalesced",
            EventKind::RelayCatchupServed => "relay_catchup_served",
            EventKind::FrameDelivered => "frame_delivered",
            EventKind::CaptureArmed => "capture_armed",
            EventKind::CaptureTruncated => "capture_truncated",
            EventKind::CaptureFlushed => "capture_flushed",
            EventKind::TierSwitch => "tier_switch",
            EventKind::TierRequest => "tier_request",
        }
    }

    /// Reverse of the `repr(u8)` discriminant; `None` for unknown values
    /// (a torn slot that survived the checksum, or a future version).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        EVENT_KINDS.get(v.wrapping_sub(1) as usize).copied()
    }
}

/// One decoded recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (monotonic across the whole session).
    pub seq: u64,
    /// Virtual-time microseconds when the event was recorded.
    pub ts_us: u64,
    /// Who: a participant index, or [`ACTOR_AH`] for the host.
    pub actor: u16,
    /// What.
    pub kind: EventKind,
    /// First payload word (meaning per [`EventKind`]).
    pub a: u64,
    /// Second payload word (meaning per [`EventKind`]).
    pub b: u64,
}

/// One ring slot: five data words plus the validating checksum.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    ts: AtomicU64,
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    chk: AtomicU64,
}

/// Mixed into every checksum so an all-zero slot never validates.
const CHK_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

fn checksum(seq: u64, ts: u64, meta: u64, a: u64, b: u64) -> u64 {
    // xor alone would let two swapped words cancel; rotate between terms.
    let mut h = CHK_SEED ^ seq;
    for w in [ts, meta, a, b] {
        h = h.rotate_left(17) ^ w;
    }
    h
}

/// The per-session black box: a power-of-two ring of slots written
/// lock-free and read (rarely) by snapshot, dump, and timeline export.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    cursor: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(8192)
    }
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap).map(|_| Slot::default()).collect::<Vec<_>>();
        FlightRecorder {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            cursor: AtomicU64::new(0),
        }
    }

    /// Slot count (events retained once the ring has wrapped).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ retained once wrapped).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free; safe from any thread.
    pub fn record(&self, ts_us: u64, actor: u16, kind: EventKind, a: u64, b: u64) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let meta = ((actor as u64) << 8) | kind as u64;
        slot.seq.store(seq, Ordering::Relaxed);
        slot.ts.store(ts_us, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.chk
            .store(checksum(seq, ts_us, meta, a, b), Ordering::Release);
    }

    /// Decode the ring: every slot whose checksum validates, in sequence
    /// order. Torn slots (a read racing a write, or a lapped stalled
    /// writer) are silently skipped — the log is always consistent, merely
    /// occasionally one event short at the churn frontier.
    pub fn snapshot(&self) -> Vec<Event> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(self.slots.len().min(cursor as usize));
        for (idx, slot) in self.slots.iter().enumerate() {
            let chk = slot.chk.load(Ordering::Acquire);
            let seq = slot.seq.load(Ordering::Relaxed);
            let ts = slot.ts.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if chk != checksum(seq, ts, meta, a, b) {
                continue; // torn or never written
            }
            if seq & self.mask != idx as u64 || seq >= cursor {
                continue; // slot content belongs to a different lap
            }
            let Some(kind) = EventKind::from_u8((meta & 0xff) as u8) else {
                continue;
            };
            out.push(Event {
                seq,
                ts_us: ts,
                actor: (meta >> 8) as u16,
                kind,
                a,
                b,
            });
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events with `ts_us >= since_us`, in sequence order.
    pub fn snapshot_since(&self, since_us: u64) -> Vec<Event> {
        let mut v = self.snapshot();
        v.retain(|e| e.ts_us >= since_us);
        v
    }

    /// Serialize the current ring contents as an `adshare-obs-events/v1`
    /// JSON document (see `schemas/obs_events.schema.json`).
    pub fn to_json(&self) -> String {
        events_to_json(&self.snapshot(), self.capacity(), self.recorded())
    }
}

/// Serialize an event list as an `adshare-obs-events/v1` document. Split
/// from [`FlightRecorder::to_json`] so black-box dumps can serialize a
/// snapshot taken earlier.
pub fn events_to_json(events: &[Event], capacity: usize, recorded: u64) -> String {
    crate::json::object(|o| {
        o.str("schema", EVENTS_SCHEMA)
            .u64("capacity", capacity as u64)
            .u64("recorded", recorded)
            .array("events", |items| {
                for e in events {
                    items.object(|o| {
                        o.u64("seq", e.seq)
                            .u64("ts_us", e.ts_us)
                            .u64("actor", u64::from(e.actor))
                            .str("kind", e.kind.name())
                            .u64("a", e.a)
                            .u64("b", e.b);
                    });
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_in_order() {
        let r = FlightRecorder::new(16);
        r.record(10, 0, EventKind::RtpRx, 1, 100);
        r.record(20, ACTOR_AH, EventKind::RtpTx, 2, 200);
        r.record(30, 1, EventKind::NackSent, 3, 300);
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::RtpRx);
        assert_eq!(events[1].actor, ACTOR_AH);
        assert_eq!(events[2].a, 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_keeps_newest() {
        let r = FlightRecorder::new(8);
        for i in 0..20u64 {
            r.record(i, 0, EventKind::RtpTx, i, 0);
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().a, 12);
        assert_eq!(events.last().unwrap().a, 19);
        assert_eq!(r.recorded(), 20);
    }

    #[test]
    fn kind_name_round_trip() {
        for kind in EVENT_KINDS {
            assert_eq!(EventKind::from_u8(kind as u8), Some(kind), "{kind:?}");
        }
        assert_eq!(EventKind::from_u8(0), None);
        assert_eq!(EventKind::from_u8(200), None);
    }

    #[test]
    fn concurrent_writers_produce_untorn_monotonic_log() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let threads: Vec<_> = (0..4u16)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        r.record(i, t, EventKind::RtpRx, i, u64::from(t));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = r.snapshot();
        assert!(!events.is_empty());
        assert!(events.len() <= 64);
        for e in &events {
            // Payload invariant each writer maintained: b is the writer id
            // and matches the actor. A torn slot would almost surely break
            // either this or the checksum.
            assert_eq!(e.b, u64::from(e.actor));
        }
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
