//! Tile references: a sender that knows a viewer already holds a tile sends
//! the tile's name in place of its pixels (DESIGN §5 "Tile references").
//! Three formats, all the viewer's business and its direct sender's:
//!
//! * **Reference** — a `RegionUpdate` whose payload type is
//!   [`REFERENCE_PT`] and whose payload is an 18-byte [`TileRef`]: the
//!   named payload's type and length, the name, and the tile's size.
//! * **Report** — RTCP APP `ADTN`, subtype 0 ([`NameReport`]): the seed the
//!   viewer names payloads with, and every name it can resolve right now.
//!   Each report replaces the last, so a lost one is simply superseded.
//! * **Miss** — RTCP APP `ADTN`, subtype 1 ([`Miss`]): a reference named a
//!   tile the viewer no longer holds.
//!
//! ```text
//! TileRef:  | PT | 0 | width u16 | height u16 | length u32 | name u64 |
//! report:   | media SSRC u32 | count u16 | moves u16 | seed u64 | count × held |
//! held:     | name u64 | left u32 | top u32 |
//! miss:     | media SSRC u32 | count u16 | 0 u16 | count × name u64 |
//! ```
//!
//! A name is `keyed_hash64(seed, payload)`; the seed is the viewer's own,
//! so which payloads collide stays particular to it. A reported name is
//! [`Held`] somewhere: parked, which resolves a reference anywhere, or
//! shown with its corner at an absolute place, which a sender should only
//! name again for that place — a write to it, in flight when the viewer
//! reported, drops what it showed. `moves` counts the `MoveRectangle` and
//! `WindowManagerInfo` messages the viewer had applied (wrapping): either
//! moves what every window shows, so a sender that has sent more of them
//! since should trust only the parked names.

use adshare_rtp::rtcp::{App, RtcpPacket};

/// The `RegionUpdate` payload type of a [`TileRef`] (the top of the dynamic
/// range, which no codec is registered under).
pub const REFERENCE_PT: u8 = 127;

/// Four-character name of the report and miss APP packets.
pub const APP_NAME: [u8; 4] = *b"ADTN";

/// Most names one report carries and one sender keeps per viewer: the
/// parked store's 64 entries plus the on-screen records of several windows.
pub const REPORT_MAX_NAMES: usize = 256;

const SUBTYPE_REPORT: u8 = 0;
const SUBTYPE_MISS: u8 = 1;

/// Bytes of one [`Held`] entry in a report.
const HELD_LEN: usize = 16;

/// Where a reported name is held. Ordered by name, then place, with
/// [`Held::PARKED`] the last place of a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Held {
    /// The name.
    pub name: u64,
    /// Absolute corner of the tile showing it, or [`Held::PARKED`].
    pub place: (u32, u32),
}

impl Held {
    /// The place of a name held off screen: it resolves anywhere.
    pub const PARKED: (u32, u32) = (u32::MAX, u32::MAX);
}

/// A tile the viewer holds, named instead of sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRef {
    /// Payload type of the payload the name stands for.
    pub payload_type: u8,
    /// That payload's length in bytes.
    pub len: u32,
    /// The viewer's name for that payload.
    pub name: u64,
    /// Width of the tile the payload decodes to.
    pub width: u16,
    /// Height of that tile.
    pub height: u16,
}

impl TileRef {
    /// Bytes of a reference payload.
    pub const LEN: usize = 18;

    /// The reference payload.
    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut out = [0u8; Self::LEN];
        out[0] = self.payload_type;
        out[2..4].copy_from_slice(&self.width.to_be_bytes());
        out[4..6].copy_from_slice(&self.height.to_be_bytes());
        out[6..10].copy_from_slice(&self.len.to_be_bytes());
        out[10..].copy_from_slice(&self.name.to_be_bytes());
        out
    }

    /// Read a reference payload; `None` unless it is exactly one.
    pub fn decode(payload: &[u8]) -> Option<TileRef> {
        let p: &[u8; Self::LEN] = payload.try_into().ok()?;
        Some(TileRef {
            payload_type: p[0],
            width: u16::from_be_bytes([p[2], p[3]]),
            height: u16::from_be_bytes([p[4], p[5]]),
            len: u32::from_be_bytes([p[6], p[7], p[8], p[9]]),
            name: u64::from_be_bytes(p[10..].try_into().ok()?),
        })
    }
}

/// A viewer's report of the names it can resolve, borrowed from the
/// packet it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameReport<'a> {
    /// The viewer's SSRC.
    pub ssrc: u32,
    /// SSRC of the stream whose payloads were named.
    pub media_ssrc: u32,
    /// The seed the viewer names payloads with.
    pub seed: u64,
    /// `MoveRectangle` and `WindowManagerInfo` messages applied, wrapping.
    pub moves: u16,
    names: &'a [u8],
}

impl NameReport<'_> {
    /// The report as one RTCP packet: entries past [`REPORT_MAX_NAMES`]
    /// are left out.
    pub fn packet(ssrc: u32, media_ssrc: u32, seed: u64, moves: u16, held: &[Held]) -> RtcpPacket {
        let held = &held[..held.len().min(REPORT_MAX_NAMES)];
        let mut data = header(media_ssrc, held.len(), moves, HELD_LEN);
        data.extend_from_slice(&seed.to_be_bytes());
        for h in held {
            data.extend_from_slice(&h.name.to_be_bytes());
            data.extend_from_slice(&h.place.0.to_be_bytes());
            data.extend_from_slice(&h.place.1.to_be_bytes());
        }
        app(SUBTYPE_REPORT, ssrc, &data)
    }

    /// How many entries the report carries.
    pub fn len(&self) -> usize {
        self.names.len() / HELD_LEN
    }

    /// Whether it carries none.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The entries, in the order they were sent.
    pub fn held(&self) -> impl Iterator<Item = Held> + '_ {
        let word = |b: &[u8]| u32::from_be_bytes(b.try_into().expect("4 bytes"));
        self.names.chunks_exact(HELD_LEN).map(move |e| Held {
            name: u64::from_be_bytes(e[..8].try_into().expect("8 bytes")),
            place: (word(&e[8..12]), word(&e[12..])),
        })
    }
}

/// "This reference named nothing I hold."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Miss {
    /// The viewer's SSRC.
    pub ssrc: u32,
    /// SSRC of the stream the reference came on.
    pub media_ssrc: u32,
    /// The name it could not resolve.
    pub name: u64,
}

impl Miss {
    /// The miss as one RTCP packet.
    pub fn to_rtcp(&self) -> RtcpPacket {
        let mut data = header(self.media_ssrc, 1, 0, 8);
        data.extend_from_slice(&self.name.to_be_bytes());
        app(SUBTYPE_MISS, self.ssrc, &data)
    }
}

/// What an `ADTN` packet says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Names<'a> {
    /// The names a viewer can resolve.
    Report(NameReport<'a>),
    /// A reference it could not.
    Miss(Miss),
}

impl Names<'_> {
    /// Read one whole APP packet; `None` for anything but a well-formed
    /// `ADTN` report or miss: another name or subtype, a count the packet's
    /// bytes do not carry, or a miss that names nothing.
    pub fn parse(raw: &[u8]) -> Option<Names<'_>> {
        let app = App::parse(raw).filter(|a| a.name == APP_NAME)?;
        let head = app.data.get(..8)?;
        let media_ssrc = u32::from_be_bytes(head[..4].try_into().ok()?);
        let count = usize::from(u16::from_be_bytes([head[4], head[5]]));
        let rest = &app.data[8..];
        match app.subtype {
            SUBTYPE_REPORT => {
                let seed = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some(Names::Report(NameReport {
                    ssrc: app.ssrc,
                    media_ssrc,
                    seed,
                    moves: u16::from_be_bytes([head[6], head[7]]),
                    names: rest[8..].get(..count * HELD_LEN)?,
                }))
            }
            SUBTYPE_MISS if count > 0 => Some(Names::Miss(Miss {
                ssrc: app.ssrc,
                media_ssrc,
                name: u64::from_be_bytes(rest.get(..8)?.try_into().ok()?),
            })),
            _ => None,
        }
    }
}

/// The data of an `ADTN` packet up to its entries, with room for `count`
/// of `entry` bytes each.
fn header(media_ssrc: u32, count: usize, moves: u16, entry: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(16 + entry * count);
    data.extend_from_slice(&media_ssrc.to_be_bytes());
    data.extend_from_slice(&(count as u16).to_be_bytes());
    data.extend_from_slice(&moves.to_be_bytes());
    data
}

fn app(subtype: u8, ssrc: u32, data: &[u8]) -> RtcpPacket {
    App {
        subtype,
        ssrc,
        name: APP_NAME,
        data,
    }
    .to_rtcp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_rtp::rtcp::{decode_compound, encode_compound};

    fn raw(pkt: &RtcpPacket) -> Vec<u8> {
        pkt.encode()
    }

    #[test]
    fn a_reference_round_trips_and_only_exact_payloads_parse() {
        let r = TileRef {
            payload_type: 101,
            len: 23_430,
            name: 0x0123_4567_89ab_cdef,
            width: 128,
            height: 120,
        };
        assert_eq!(TileRef::decode(&r.encode()), Some(r));
        assert_eq!(TileRef::decode(&r.encode()[..17]), None);
        assert_eq!(TileRef::decode(&[0; 19]), None);
    }

    fn held(names: &[u64]) -> Vec<Held> {
        let place = |i: usize| [Held::PARKED, (i as u32, 2 * i as u32)][i % 2];
        let at = |(i, &name)| Held {
            name,
            place: place(i),
        };
        names.iter().enumerate().map(at).collect()
    }

    #[test]
    fn reports_and_misses_round_trip_through_a_compound() {
        let names = held(&[3, 1, 2]);
        let report = NameReport::packet(7, 9, 0xfeed, 3, &names);
        let miss = Miss {
            ssrc: 7,
            media_ssrc: 9,
            name: 2,
        };
        let wire = encode_compound(&[report, miss.to_rtcp()]);
        let back = decode_compound(&wire).unwrap();
        let first = raw(&back[0]);
        let Some(Names::Report(r)) = Names::parse(&first) else {
            panic!("a report");
        };
        assert_eq!(
            (r.ssrc, r.media_ssrc, r.seed, r.moves, r.len()),
            (7, 9, 0xfeed, 3, 3)
        );
        assert_eq!(r.held().collect::<Vec<_>>(), names);
        assert_eq!(Names::parse(&raw(&back[1])), Some(Names::Miss(miss)));
        // An empty report is a report: it empties the sender's ledger.
        let empty = raw(&NameReport::packet(7, 9, 1, 0, &[]));
        assert!(matches!(Names::parse(&empty), Some(Names::Report(r)) if r.is_empty()));
        // Too many names: the packet stops at the ceiling.
        let many = held(&(0..1_000).collect::<Vec<u64>>());
        let capped = raw(&NameReport::packet(7, 9, 1, 0, &many));
        let Some(Names::Report(r)) = Names::parse(&capped) else {
            panic!("a report");
        };
        assert_eq!(r.len(), REPORT_MAX_NAMES);
    }

    #[test]
    fn counts_the_bytes_do_not_carry_and_empty_misses_are_refused() {
        let mut report = raw(&NameReport::packet(7, 9, 1, 0, &held(&[5, 6])));
        // Claim a third name the packet does not hold.
        report[16..18].copy_from_slice(&3u16.to_be_bytes());
        assert_eq!(Names::parse(&report), None);
        report[16..18].copy_from_slice(&u16::MAX.to_be_bytes());
        assert_eq!(Names::parse(&report), None);
        let mut miss = raw(&Miss {
            ssrc: 7,
            media_ssrc: 9,
            name: 5,
        }
        .to_rtcp());
        miss[16..18].copy_from_slice(&0u16.to_be_bytes());
        assert_eq!(Names::parse(&miss), None, "a miss that names nothing");
        // Truncated anywhere, or another APP name: nothing.
        let whole = raw(&NameReport::packet(7, 9, 1, 0, &held(&[5, 6])));
        for cut in 0..whole.len() {
            assert_eq!(Names::parse(&whole[..cut]), None, "cut at {cut}");
        }
        let mut other = whole.clone();
        other[8..12].copy_from_slice(b"ADTR");
        assert_eq!(Names::parse(&other), None);
    }
}
