//! The wire boundary and the downstream half: where a datagram leaves a
//! sender, where an RTP sequence is issued, remembered and looked up for
//! repair ([`Downstream`]), and where a leg reads its feedback ([`Feedback`]).
//!
//! Everything the AH and the relay put on a transport goes through
//! [`Wire::send`], which folds the sender's wire digest, taps the capture,
//! frames for TCP (RFC 4571) and touches the transport — in that order, in
//! one function. A packet is therefore *tapped iff folded iff sent* by
//! construction: a capture refolds to the digest of the leg it was taken
//! from. A stream never drops a frame: what its send buffer refuses waits
//! in order behind it. Around the [`Downstream`] and its [`Feedback`] half
//! sits the one [`Leg`] every AH and relay leg holds.
//!
//! A datagram arrives here as the sender's one [`Bytes`] buffer. The digest
//! and the framer read it by reference; a datagram link (UDP channel, every
//! member of a multicast group, the raw queue) queues a clone of the handle,
//! and the same handle is what [`Wire::poll`] gives the receiver. Only an
//! armed capture and the TCP framing buffer copy the bytes.
//!
//! The digest and the capture sink live in a [`Tap`] the caller passes in,
//! because the two senders scope them differently: the AH folds every leg
//! into one order-sensitive session digest, a relay keeps one per leg.

use std::collections::{HashMap, VecDeque};

use adshare_capture::{
    word_fold, CaptureHandle, Direction, StreamKind, Transport as CapTransport, FNV_OFFSET,
};
use adshare_codec::codec::{AnyCodec, EncodeOptions};
use adshare_codec::{classify, Codec, CodecKind, CodecRegistry, ContentClass, Image};
use adshare_netsim::multicast::MulticastGroup;
use adshare_netsim::tcp::{TcpConfig, TcpLink};
use adshare_netsim::udp::{LinkConfig, UdpChannel};
use adshare_obs::Registry;
use adshare_rate::QualityTier;
use adshare_remoting::fragment::for_each_fragment;
use adshare_remoting::message::RemotingMessage;
use adshare_rtp::framing::{frame_into, MAX_FRAME_LEN};
use adshare_rtp::{RtpHeader, RtpPacket};
use bytes::Bytes;

mod feedback;
mod ledger;
mod leg;
pub use feedback::{Congestion, Feedback, Tail};
pub use ledger::{Ledger, MEMO_MAX};
pub use leg::{Leg, Owed};

/// Running egress digest plus the capture sink recording the same bytes.
#[derive(Debug)]
pub struct Tap {
    digest: u64,
    capture: Option<CaptureHandle>,
}

impl Default for Tap {
    fn default() -> Self {
        Tap {
            digest: FNV_OFFSET,
            capture: None,
        }
    }
}

impl Tap {
    /// Order-sensitive digest of every datagram sent through this tap
    /// (pre-framing): [`word_fold`] over each in turn, so it covers every
    /// byte and every datagram boundary. Equal digests mean byte-identical
    /// wire output in identical order; an armed capture's Tx records refold
    /// to it with `adshare_capture::wire_digest_of`.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Arm the capture: from now on every send is recorded at its fold.
    pub fn attach_capture(&mut self, capture: CaptureHandle) {
        self.capture = Some(capture);
    }

    /// The armed capture sink, if any.
    pub fn capture(&self) -> Option<&CaptureHandle> {
        self.capture.as_ref()
    }

    fn note(
        &mut self,
        kind: StreamKind,
        transport: CapTransport,
        actor: u16,
        now_us: u64,
        datagram: &[u8],
    ) {
        self.digest = word_fold(self.digest, datagram);
        if let Some(cap) = &self.capture {
            cap.record(Direction::Tx, kind, transport, actor, now_us, datagram);
        }
    }
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one link per leg; not worth boxing
enum Link {
    Udp(UdpChannel),
    /// RFC 4571-framed reliable stream. `outq[head..]` holds framed bytes
    /// the send buffer refused, in order. Pushing advances `head` instead
    /// of shifting the rest to the front.
    Tcp {
        link: TcpLink,
        outq: Vec<u8>,
        head: usize,
    },
    Multicast(MulticastGroup),
    /// Datagrams pile up for the caller to ship over real sockets.
    Raw(VecDeque<Bytes>),
}

/// One downstream transport and the only code that writes to it.
#[derive(Debug)]
pub struct Wire {
    link: Link,
    /// Reused RFC 4571 framing buffer (no allocation per TCP packet).
    framed: Vec<u8>,
}

impl Wire {
    fn new(link: Link) -> Self {
        Wire {
            link,
            framed: Vec::new(),
        }
    }

    /// A simulated unicast UDP path.
    pub fn udp(link: LinkConfig, seed: u64) -> Self {
        Self::new(Link::Udp(UdpChannel::new(link, seed)))
    }

    /// A simulated TCP connection carrying RFC 4571 frames.
    pub fn tcp(link: TcpConfig) -> Self {
        Self::new(Link::Tcp {
            link: TcpLink::new(link),
            outq: Vec::new(),
            head: 0,
        })
    }

    /// An (initially empty) multicast group; see [`Wire::join`].
    pub fn multicast() -> Self {
        Self::new(Link::Multicast(MulticastGroup::new()))
    }

    /// A raw queue drained by [`Wire::poll`] for the caller to ship.
    pub fn raw() -> Self {
        Self::new(Link::Raw(VecDeque::new()))
    }

    /// Add a receiver to a multicast group; returns its member index
    /// (`None` on a unicast wire).
    pub fn join(&mut self, link: LinkConfig, seed: u64) -> Option<usize> {
        match &mut self.link {
            Link::Multicast(group) => Some(group.join(link, seed)),
            _ => None,
        }
    }

    /// Whether this wire fans out to a group ([`Wire::multicast`]).
    pub fn is_group(&self) -> bool {
        matches!(self.link, Link::Multicast(_))
    }

    /// Whether anyone can receive: false only for a memberless group.
    pub fn has_receivers(&self) -> bool {
        !matches!(&self.link, Link::Multicast(group) if group.is_empty())
    }

    /// Whether this is a reliable in-order byte stream (no NACK, no RR
    /// tail repair; congestion shows as send-buffer backlog instead).
    pub fn is_stream(&self) -> bool {
        matches!(self.link, Link::Tcp { .. })
    }

    fn cap_transport(&self) -> CapTransport {
        match self.link {
            Link::Udp(_) => CapTransport::Udp,
            Link::Tcp { .. } => CapTransport::Tcp,
            Link::Multicast(_) => CapTransport::Multicast,
            Link::Raw(_) => CapTransport::None,
        }
    }

    /// Send one RTP/RTCP datagram, keeping a stream ordered: what a TCP
    /// send buffer refuses spills to a queue that [`Wire::stream_backlog`]
    /// pushes first, so nothing is ever dropped. Returns the bytes put on
    /// the transport (the framed length on TCP).
    pub fn send(
        &mut self,
        tap: &mut Tap,
        kind: StreamKind,
        actor: u16,
        now_us: u64,
        datagram: &Bytes,
    ) -> usize {
        if self.is_stream() && datagram.len() > MAX_FRAME_LEN {
            return 0;
        }
        tap.note(kind, self.cap_transport(), actor, now_us, datagram);
        match &mut self.link {
            Link::Udp(channel) => channel.send_bytes(now_us, datagram),
            Link::Multicast(group) => group.send_bytes(now_us, datagram),
            Link::Raw(queue) => queue.push_back(datagram.clone()),
            Link::Tcp { link, outq, .. } => {
                self.framed.clear();
                let _ = frame_into(&mut self.framed, datagram);
                // Stream bytes must stay ordered: once anything is queued,
                // everything after it queues behind it.
                let accepted = if outq.is_empty() {
                    link.send(now_us, &self.framed)
                } else {
                    0
                };
                outq.extend_from_slice(&self.framed[accepted..]);
                return self.framed.len();
            }
        }
        datagram.len()
    }

    /// For a stream: push the spill queue, then report `(backlog bytes,
    /// send-buffer capacity)` — the §7 signal. `None` on datagram wires.
    pub fn stream_backlog(&mut self, now_us: u64) -> Option<(usize, usize)> {
        let Link::Tcp { link, outq, head } = &mut self.link else {
            return None;
        };
        if !outq.is_empty() {
            *head += link.send(now_us, &outq[*head..]);
            if *head == outq.len() {
                outq.clear();
                *head = 0;
            } else if *head > outq.len() / 2 {
                // Reclaim the sent front once it outweighs what is left, so
                // each byte moves at most once on average.
                outq.drain(..*head);
                *head = 0;
            }
        }
        Some((
            link.backlog(now_us) + outq.len() - *head,
            link.config().send_buf,
        ))
    }

    /// Framed bytes still waiting behind a full send buffer.
    pub fn unsent(&self) -> usize {
        match &self.link {
            Link::Tcp { outq, head, .. } => outq.len() - head,
            _ => 0,
        }
    }

    /// The datagrams that have arrived at the receiver by `now_us` (UDP;
    /// one multicast `member`; everything queued on a raw wire), each the
    /// buffer its sender queued. Empty on a stream — see
    /// [`Wire::poll_stream`].
    pub fn poll(&mut self, member: usize, now_us: u64) -> Vec<Bytes> {
        match &mut self.link {
            Link::Udp(channel) => channel.poll(now_us),
            Link::Multicast(group) => group.poll(member, now_us),
            Link::Raw(queue) => queue.drain(..).collect(),
            Link::Tcp { .. } => Vec::new(),
        }
    }

    /// The next in-order chunk of a stream's bytes to have arrived by
    /// `now_us` (empty when nothing has, and on a datagram wire).
    pub fn poll_stream(&mut self, now_us: u64) -> Vec<u8> {
        match &mut self.link {
            Link::Tcp { link, .. } => link.recv(now_us),
            _ => Vec::new(),
        }
    }

    /// Earliest pending delivery or serializer event, in µs.
    pub fn next_event_us(&self) -> Option<u64> {
        match &self.link {
            Link::Udp(channel) => channel.next_delivery_us(),
            Link::Tcp { link, .. } => link.next_event_us(),
            Link::Multicast(group) => group.next_delivery_us(),
            Link::Raw(_) => None,
        }
    }

    /// Bytes the sender has put on this transport (a group counts once,
    /// independent of its size; a raw queue keeps no count).
    pub fn bytes_sent(&self) -> u64 {
        match &self.link {
            Link::Udp(channel) => channel.stats().bytes_sent,
            Link::Tcp { link, .. } => link.stats().bytes_accepted,
            Link::Multicast(group) => group.egress().1,
            Link::Raw(_) => 0,
        }
    }

    /// Adopt the transport's counters into `registry`: `{prefix}.udp.*`,
    /// `{prefix}.tcp.*`, or — for a group — `{prefix}.tx_*` plus
    /// `{prefix}.member.{i}.*` for every current member.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        match &self.link {
            Link::Udp(channel) => channel.register_metrics(registry, &format!("{prefix}.udp")),
            Link::Tcp { link, .. } => link.register_metrics(registry, &format!("{prefix}.tcp")),
            Link::Multicast(group) => group.register_metrics(registry, prefix),
            Link::Raw(_) => {}
        }
    }

    /// The UDP channel behind this wire, when it has one.
    pub fn udp_link(&self) -> Option<&UdpChannel> {
        match &self.link {
            Link::Udp(channel) => Some(channel),
            _ => None,
        }
    }

    /// Mutable access to the UDP channel (link schedules, injected loss).
    pub fn udp_link_mut(&mut self) -> Option<&mut UdpChannel> {
        match &mut self.link {
            Link::Udp(channel) => Some(channel),
            _ => None,
        }
    }
}

/// How a leg's tiles are encoded at `tier` (§4.2): coarse DCT at a lossy
/// tier (the payload type tells the decoder), else DCT for photographic
/// pixels when `adaptive`, else `codec`. A pure function of the pixels that
/// owns what it uses, so the encode pool may run it and the encode cache
/// may key its output by content (the tier is part of the key).
pub fn tile_codec(
    registry: &CodecRegistry,
    tier: QualityTier,
    codec: CodecKind,
    adaptive: bool,
) -> impl Fn(&Image) -> (u8, Vec<u8>) + Send + Sync + 'static {
    let pick = |kind| {
        let pt = registry.pt_for(kind).expect("codec registered");
        (pt, *registry.get(pt).expect("registered"))
    };
    let (dct, configured) = (pick(CodecKind::Dct), pick(codec));
    let lossy = tier.dct_quality().map(|quality| {
        let options = EncodeOptions {
            quality,
            ..EncodeOptions::default()
        };
        AnyCodec::with_options(CodecKind::Dct, options)
    });
    move |img: &Image| {
        if let Some(lossy) = lossy {
            return (dct.0, lossy.encode(img));
        }
        let photographic = adaptive && classify(img).class == ContentClass::Photographic;
        let (pt, codec) = if photographic { dct } else { configured };
        (pt, codec.encode(img))
    }
}

/// A repair repeated within this window answers a loss already answered:
/// a group leg sends nothing more, and a relay serves another leg from the
/// copy it fetched and escalates a miss upstream once.
pub const REPEAT_WINDOW_US: u64 = 100_000;

/// How many sends ([`Downstream::send_message`] / [`Downstream::forward`]
/// calls) the send-time ring remembers. A receiver report is about one
/// round trip old when it arrives; a ring that no longer reaches back that
/// far answers `None`, which only defers tail repair to the NACKs the
/// later sends provoke.
pub const SEND_TIMES: usize = 64;

/// The payload type, timestamp and SSRC a [`Downstream`] stamps on the
/// packets it numbers.
#[derive(Debug, Clone, Copy, Default)]
#[allow(missing_docs)]
pub struct StreamId {
    pub pt: u8,
    pub ts: u32,
    pub ssrc: u32,
}

/// What a sequence carried.
enum Carried {
    /// A packet numbered here, resent as it was.
    Kept(Bytes),
    /// A forwarded packet's upstream sequence.
    Upstream(u16),
}

/// What a NACK for one sequence gets ([`Downstream::answer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The datagram the sequence carried, resent.
    Resend(Bytes),
    /// A forwarded packet: fetch this upstream sequence and
    /// [`Downstream::resend_as`] it.
    Upstream(u16),
    /// Resent within [`REPEAT_WINDOW_US`] already (group wires only).
    Repeated,
    /// Sent, but no longer remembered: only a refresh repairs it.
    Forgotten,
    /// At or ahead of the next sequence, or behind the first: never sent.
    NeverSent,
}

/// What a run of sends put on a [`Downstream`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Burst {
    /// RTP packets.
    pub packets: u64,
    /// Bytes offered to the transport ([`Downstream::send`]).
    pub bytes: u64,
    /// The last sequence used.
    pub last_seq: u16,
    /// The last sequence that carried the marker bit.
    pub marker_seq: Option<u16>,
}

adshare_obs::metric_set! {
    /// How full the record is, against its caps.
    struct Occupancy {
        /// Packets kept.
        packets: gauge "packets",
        /// Bytes kept (wire size).
        bytes: gauge "bytes",
    }
}

/// The send half of one RTP stream on one [`Wire`] (DESIGN §5.1): the
/// sequence space, a bounded record of what each recent sequence carried
/// and when, the NACK lookup over it and the packetizer for whole
/// messages. Every sequence is issued here in turn and recorded under its
/// issue number, so a NACKed sequence maps to the newest issue of it — one
/// reused after a wrap finds its newest use or nothing.
#[derive(Debug)]
pub struct Downstream {
    /// The transport.
    pub wire: Wire,
    actor: u16,
    /// `None` until the first send pins it (a relay leg keeps its first
    /// forwarded packet's upstream number).
    next_seq: Option<u16>,
    /// (packets, payload octets) issued — what a sender report counts.
    sent: (u64, u64),
    /// The record, oldest first, each entry under the low 32 bits of its
    /// issue number: kept datagrams, and forwarded packets' upstream
    /// sequences (a `u16` each, so forwarding copies no packet).
    kept: VecDeque<(u32, Bytes)>,
    forwarded: VecDeque<(u32, u16)>,
    /// `(packets, bytes)` caps on the record; `None` keeps nothing.
    keep: Option<(usize, usize)>,
    kept_bytes: usize,
    /// Sequences resent within the repeat window, on a group wire.
    repaired: HashMap<u16, u64>,
    /// `(µs, last sequence)` of the latest [`SEND_TIMES`] sends, oldest
    /// first; allocated once, here, and never grown.
    send_times: VecDeque<(u64, u16)>,
    scratch: Vec<u8>,
    occupancy: Occupancy,
}

impl Downstream {
    /// A stream on `wire` sending as `actor`, numbering from `first_seq`
    /// and remembering up to `keep = (packets, bytes)`.
    pub fn new(
        wire: Wire,
        actor: u16,
        first_seq: Option<u16>,
        keep: Option<(usize, usize)>,
    ) -> Self {
        Downstream {
            wire,
            actor,
            next_seq: first_seq,
            sent: (0, 0),
            kept: VecDeque::new(),
            forwarded: VecDeque::new(),
            keep: keep.map(|(packets, bytes)| (packets.max(1), bytes.max(1))),
            kept_bytes: 0,
            repaired: HashMap::new(),
            send_times: VecDeque::with_capacity(SEND_TIMES),
            scratch: Vec::new(),
            occupancy: Occupancy::default(),
        }
    }

    /// Actor of this stream's sends.
    pub fn actor(&self) -> u16 {
        self.actor
    }

    /// Whether the record keeps anything to answer NACKs from.
    pub fn keeps(&self) -> bool {
        self.keep.is_some()
    }

    /// The last sequence issued, if any.
    pub fn last_sent(&self) -> Option<u16> {
        Some(self.next_seq.filter(|_| self.sent.0 > 0)?.wrapping_sub(1))
    }

    /// The last sequence issued by a send at or before `t_us`: `None` when
    /// nothing was, or when the ring no longer reaches back to `t_us`.
    pub fn last_sent_before(&self, t_us: u64) -> Option<u16> {
        let after = self.send_times.partition_point(|&(at, _)| at <= t_us);
        Some(self.send_times.get(after.checked_sub(1)?)?.1)
    }

    /// Note that the send at `now_us` that just ended issued sequences.
    fn note_send_time(&mut self, now_us: u64) {
        let Some(last) = self.last_sent() else { return };
        if self.send_times.len() == SEND_TIMES {
            self.send_times.pop_front();
        }
        self.send_times.push_back((now_us, last));
    }

    /// (packets, payload octets) issued so far.
    pub fn sent_counts(&self) -> (u64, u64) {
        self.sent
    }

    /// Adopt the record's `{prefix}.packets` / `.bytes` gauges and its
    /// caps as `.max_packets` / `.max_bytes` (nothing if it keeps nothing).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        if let Some((packets, bytes)) = self.keep {
            self.occupancy.register(registry, prefix);
            let cap =
                |name: &str, n: usize| registry.gauge(&format!("{prefix}.{name}")).set(n as i64);
            cap("max_packets", packets);
            cap("max_bytes", bytes);
        }
    }

    /// Send one datagram as this stream's actor; returns the bytes put on
    /// the transport (framed on a stream).
    pub fn send(&mut self, tap: &mut Tap, kind: StreamKind, now_us: u64, datagram: &Bytes) -> u64 {
        self.wire.send(tap, kind, self.actor, now_us, datagram) as u64
    }

    /// Issue the next sequence (`first` unless pinned) to a packet of
    /// `payload` octets.
    fn issue(&mut self, first: u16, payload: usize) -> u16 {
        let seq = self.next_seq.unwrap_or(first);
        self.next_seq = Some(seq.wrapping_add(1));
        self.sent = (self.sent.0 + 1, self.sent.1 + payload as u64);
        seq
    }

    /// Record what the sequence just issued carried, dropping what was
    /// issued more than the packet cap ago and kept datagrams oldest-first
    /// past the byte cap (one larger than the cap on its own is not kept).
    fn remember(&mut self, carried: Carried) {
        let Some((max_packets, max_bytes)) = self.keep else {
            return;
        };
        let issued = self.sent.0 as u32;
        let stale = |at: u32| issued.wrapping_sub(at) as usize > max_packets;
        while self.kept.front().is_some_and(|(at, _)| stale(*at)) {
            self.evict_kept();
        }
        while self.forwarded.front().is_some_and(|(at, _)| stale(*at)) {
            self.forwarded.pop_front();
        }
        let at = issued.wrapping_sub(1);
        match carried {
            Carried::Kept(datagram) => {
                let len = datagram.len();
                while !self.kept.is_empty() && self.kept_bytes + len > max_bytes {
                    self.evict_kept();
                }
                self.kept_bytes += len;
                self.kept.push_back((at, datagram));
                if self.kept_bytes > max_bytes {
                    self.evict_kept();
                }
            }
            Carried::Upstream(up) => self.forwarded.push_back((at, up)),
        }
        let packets = self.kept.len() + self.forwarded.len();
        self.occupancy.packets.set(packets as i64);
        self.occupancy.bytes.set(self.kept_bytes as i64);
    }

    fn evict_kept(&mut self) {
        if let Some((_, datagram)) = self.kept.pop_front() {
            self.kept_bytes -= datagram.len();
        }
    }

    /// Packetize one message under `id` (§5.1.1) and send and keep each
    /// packet — serialised once, into the one buffer the wire folds, taps
    /// and queues and the record keeps — adding them to `burst`. A message
    /// that does not fit `mtu` sends nothing: every error comes before the
    /// first fragment.
    pub fn send_message(
        &mut self,
        tap: &mut Tap,
        now_us: u64,
        msg: &RemotingMessage,
        mtu: usize,
        id: StreamId,
        burst: &mut Burst,
    ) -> adshare_remoting::Result<()> {
        let sent = for_each_fragment(msg, mtu, |marker, head, chunk| {
            let seq = self.issue(0, head.len() + chunk.len());
            let mut header = RtpHeader::new(id.pt, seq, id.ts, id.ssrc);
            header.marker = marker;
            let pkt = RtpPacket::assemble(header, &[head, chunk], &mut self.scratch);
            let datagram = pkt.datagram(&mut self.scratch);
            self.remember(Carried::Kept(datagram.clone()));
            burst.packets += 1;
            burst.bytes += self.send(tap, StreamKind::Rtp, now_us, &datagram);
            burst.last_seq = seq;
            burst.marker_seq = if marker { Some(seq) } else { burst.marker_seq };
        });
        if sent.is_ok() {
            self.note_send_time(now_us);
        }
        sent
    }

    /// Forward upstream packets under this stream's sequence space,
    /// remembering only each one's upstream sequence.
    pub fn forward(&mut self, tap: &mut Tap, now_us: u64, pkts: &[RtpPacket], burst: &mut Burst) {
        for pkt in pkts {
            let up = pkt.header.sequence;
            let seq = self.issue(up, pkt.payload.len());
            self.remember(Carried::Upstream(up));
            burst.packets += 1;
            burst.bytes += self.resend_as(tap, now_us, pkt, seq);
            burst.last_seq = seq;
        }
        if !pkts.is_empty() {
            self.note_send_time(now_us);
        }
    }

    /// (Re)send an upstream `pkt` as this stream's `seq`, on a clone: a
    /// packet whose number does not change goes out as the buffer it
    /// arrived in. Returns the bytes offered.
    pub fn resend_as(&mut self, tap: &mut Tap, now_us: u64, pkt: &RtpPacket, seq: u16) -> u64 {
        let mut out = pkt.clone();
        out.header.sequence = seq;
        let datagram = out.datagram(&mut self.scratch);
        self.send(tap, StreamKind::Rtp, now_us, &datagram)
    }

    /// Answer a NACK for `seq` at `now_us`: a kept packet is resent here
    /// (the verdict hands back the datagram that went out); every other
    /// verdict is the caller's to act on.
    pub fn answer(&mut self, tap: &mut Tap, seq: u16, now_us: u64) -> Verdict {
        let fresh = |at: &u64| now_us.saturating_sub(*at) < REPEAT_WINDOW_US;
        if self.repaired.get(&seq).is_some_and(fresh) {
            return Verdict::Repeated;
        }
        let back = self.next_seq.map_or(0, |next| next.wrapping_sub(seq));
        if back == 0 || back >= 0x8000 || u64::from(back) > self.sent.0 {
            return Verdict::NeverSent;
        }
        let at = (self.sent.0 - u64::from(back)) as u32;
        if let Some(datagram) = find(&self.kept, at).cloned() {
            self.send(tap, StreamKind::Rtp, now_us, &datagram);
            if self.wire.is_group() {
                self.repaired.retain(|_, at| fresh(at));
                self.repaired.insert(seq, now_us);
            }
            return Verdict::Resend(datagram);
        }
        find(&self.forwarded, at).map_or(Verdict::Forgotten, |up| Verdict::Upstream(*up))
    }

    /// Let go of every kept packet (a relay's catch-up burst obsoletes the
    /// ones it minted before): their sequences become forgotten.
    pub fn forget_kept(&mut self) {
        self.kept.clear();
        self.kept_bytes = 0;
    }

    /// Forget everything sent (the receiver left).
    pub fn close(&mut self) {
        self.forget_kept();
        self.forwarded.clear();
    }
}

/// The entry recorded under issue number `at` (the record is in issue
/// order, and spans less than half the 32-bit issue space).
fn find<T>(record: &VecDeque<(u32, T)>, at: u32) -> Option<&T> {
    let first = record.front()?.0;
    let key = |entry: &(u32, T)| entry.0.wrapping_sub(first);
    let i = record
        .binary_search_by_key(&at.wrapping_sub(first), key)
        .ok()?;
    Some(&record[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_capture::{CaptureConfig, CaptureMode};

    fn armed_tap() -> Tap {
        let mut tap = Tap::default();
        tap.attach_capture(
            CaptureHandle::arm(CaptureConfig {
                consent: true,
                mode: CaptureMode::Full,
                session_id: 1,
                start_us: 0,
            })
            .expect("consented"),
        );
        tap
    }

    fn tight_tcp() -> Wire {
        Wire::tcp(TcpConfig {
            rate_bps: 100_000,
            delay_us: 1_000,
            send_buf: 64,
        })
    }

    #[test]
    fn ordered_send_spills_and_delivers_every_byte_in_order() {
        let mut tap = armed_tap();
        let mut wire = tight_tcp();
        let mut expect = Vec::new();
        for i in 0..10u8 {
            let datagram = Bytes::copy_from_slice(&[i; 40]);
            assert_eq!(wire.send(&mut tap, StreamKind::Rtp, 7, 0, &datagram), 42);
            expect.extend_from_slice(&[0, 40]);
            expect.extend_from_slice(&datagram);
        }
        assert!(wire.unsent() > 0, "64-byte buffer must spill");
        let mut got = Vec::new();
        let mut now = 0;
        while got.len() < expect.len() && now < 10_000_000 {
            now += 1_000;
            wire.stream_backlog(now);
            got.extend(wire.poll_stream(now));
        }
        assert_eq!(got, expect);
        assert_eq!(tap.capture().unwrap().wire_digest(), tap.digest());
    }

    #[test]
    fn datagram_wires_deliver_the_senders_buffer() {
        let mut tap = Tap::default();
        let datagram = Bytes::copy_from_slice(&[7; 40]);
        let mut group = Wire::multicast();
        group.join(LinkConfig::default(), 1);
        group.join(LinkConfig::default(), 2);
        for (mut wire, receivers) in [
            (Wire::udp(LinkConfig::default(), 1), 1),
            (group, 2),
            (Wire::raw(), 1),
        ] {
            assert_eq!(wire.send(&mut tap, StreamKind::Rtp, 7, 0, &datagram), 40);
            for member in 0..receivers {
                let got = wire.poll(member, 1_000_000);
                assert_eq!(got.len(), 1);
                assert!(std::ptr::eq(got[0].as_ptr(), datagram.as_ptr()));
            }
            assert!(wire.poll_stream(1_000_000).is_empty());
        }
    }

    #[test]
    fn memberless_group_has_no_receivers() {
        let mut wire = Wire::multicast();
        assert!(!wire.has_receivers());
        assert_eq!(wire.join(LinkConfig::default(), 1), Some(0));
        assert!(wire.has_receivers());
        assert_eq!(Wire::raw().join(LinkConfig::default(), 1), None);
    }
}
