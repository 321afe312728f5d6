//! The names a leg's viewer reported holding (DESIGN §5.2 "Tile
//! references"), and the one place a sender names a payload with a
//! viewer's seed and builds the reference that stands in for it.

use adshare_codec::checksum::keyed_hash64;
use adshare_remoting::reference::{Held, NameReport, TileRef, REPORT_MAX_NAMES};
use bytes::Bytes;

/// Payloads a leg remembers having named, so that a tile sent again and
/// again is hashed once.
pub const MEMO_MAX: usize = 64;

/// One payload named for this leg's viewer.
#[derive(Debug)]
struct Named {
    /// The payload itself: held, so that its address names this payload
    /// and no other for as long as the entry lives.
    payload: Bytes,
    name: u64,
    /// The reference payload, built the first time it is sent.
    reference: Option<Bytes>,
}

/// What one viewer said it can resolve, at most [`REPORT_MAX_NAMES`]
/// names, and the payloads already named for it, at most [`MEMO_MAX`].
#[derive(Debug, Default)]
pub struct Ledger {
    /// The viewer's SSRC and seed, from the latest report.
    from: Option<(u32, u64)>,
    /// Sorted, no repeats.
    names: Vec<Held>,
    /// Least recently used first.
    memo: Vec<Named>,
    /// `MoveRectangle` and WindowManagerInfo messages the leg sent
    /// (wrapping), and how many the viewer had applied when it reported:
    /// while they differ, a shown name may no longer be shown.
    moves: (u16, u16),
}

impl Ledger {
    /// Take a report from the viewer of the stream `media_ssrc`: its names
    /// replace the ledger's (the first [`REPORT_MAX_NAMES`] of them). A
    /// report about another stream empties the ledger; one signed by
    /// another SSRC or naming with another seed starts it afresh.
    pub fn on_report(&mut self, report: &NameReport<'_>, media_ssrc: u32) {
        if report.media_ssrc != media_ssrc {
            self.clear();
            return;
        }
        let from = Some((report.ssrc, report.seed));
        if self.from != from {
            self.clear();
            self.from = from;
        }
        self.moves.1 = report.moves;
        if self.names.capacity() == 0 {
            self.names.reserve_exact(REPORT_MAX_NAMES);
        }
        self.names.clear();
        self.names.extend(report.held().take(REPORT_MAX_NAMES));
        self.names.sort_unstable();
        self.names.dedup();
    }

    /// Forget everything: after a PLI or a miss, nothing is sent by name
    /// until the viewer reports again.
    pub fn clear(&mut self) {
        self.from = None;
        self.names.clear();
        self.memo.clear();
    }

    /// Count a `MoveRectangle` or WindowManagerInfo queued for the viewer,
    /// before the messages behind it are named: either may change what any
    /// rectangle shows, so shown names wait for a report that has seen it.
    pub fn note_move(&mut self) {
        self.moves.0 = self.moves.0.wrapping_add(1);
    }

    /// How many names the ledger holds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether it holds none.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The reference to send in place of `payload`, a `payload_type` tile
    /// of `width`×`height` with its corner at absolute `place`, if the
    /// viewer said it holds that payload parked, or shown right there.
    /// Asked only of payloads the encode cache served, so a leg whose tiles
    /// always miss, or whose viewer reported nothing, hashes nothing.
    pub fn reference(
        &mut self,
        payload_type: u8,
        payload: &Bytes,
        place: (u32, u32),
        (width, height): (u32, u32),
    ) -> Option<Bytes> {
        let (_, seed) = self.from.filter(|_| !self.names.is_empty())?;
        let same =
            |n: &Named| n.payload.as_ptr() == payload.as_ptr() && n.payload.len() == payload.len();
        let named = match self.memo.iter().position(same) {
            Some(at) => self.memo.remove(at),
            None => {
                if self.memo.capacity() == 0 {
                    self.memo.reserve_exact(MEMO_MAX);
                }
                if self.memo.len() >= MEMO_MAX {
                    self.memo.remove(0);
                }
                Named {
                    payload: payload.clone(),
                    name: keyed_hash64(seed, payload),
                    reference: None,
                }
            }
        };
        self.memo.push(named);
        let named = self.memo.last_mut().expect("just pushed");
        let find = |place| {
            self.names.binary_search(&Held {
                name: named.name,
                place,
            })
        };
        let shown = self.moves.0 == self.moves.1 && find(place).is_ok();
        if !shown {
            // A parked tile the viewer puts on the screen leaves its store:
            // from now on it is held where this reference puts it.
            let parked = find(Held::PARKED).ok()?;
            self.names.remove(parked);
            let held = Held {
                name: named.name,
                place,
            };
            if let Err(at) = self.names.binary_search(&held) {
                self.names.insert(at, held);
            }
        }
        if named.reference.is_none() {
            let tile = TileRef {
                payload_type,
                len: u32::try_from(payload.len()).ok()?,
                name: named.name,
                width: u16::try_from(width).ok()?,
                height: u16::try_from(height).ok()?,
            };
            named.reference = Some(Bytes::copy_from_slice(&tile.encode()));
        }
        named.reference.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adshare_remoting::reference::Names;

    const AT: (u32, u32) = (48, 96);

    fn parked(name: u64) -> Held {
        Held {
            name,
            place: Held::PARKED,
        }
    }

    fn report(ssrc: u32, media: u32, seed: u64, moves: u16, held: &[Held]) -> Vec<u8> {
        NameReport::packet(ssrc, media, seed, moves, held).encode()
    }

    fn take(ledger: &mut Ledger, raw: &[u8], media: u32) {
        let Some(Names::Report(r)) = Names::parse(raw) else {
            panic!("a report");
        };
        ledger.on_report(&r, media);
    }

    #[test]
    fn a_reported_payload_goes_by_name_and_is_hashed_once() {
        let payload = Bytes::from(vec![7u8; 1_000]);
        let name = keyed_hash64(42, &payload);
        let mut ledger = Ledger::default();
        assert_eq!(
            ledger.reference(101, &payload, AT, (16, 8)),
            None,
            "no report"
        );
        let shown = Held { name, place: AT };
        take(
            &mut ledger,
            &report(5, 9, 42, 0, &[shown, parked(1), shown]),
            9,
        );
        assert_eq!(ledger.len(), 2, "repeats are kept once");
        let r = ledger
            .reference(101, &payload, AT, (16, 8))
            .expect("reported");
        let tile = TileRef::decode(&r).unwrap();
        assert_eq!(
            (tile.name, tile.len, tile.width, tile.height),
            (name, 1_000, 16, 8)
        );
        // The same handle again: the memo answers, with the same buffer.
        let again = ledger.reference(101, &payload, AT, (16, 8)).unwrap();
        assert_eq!(again.as_ptr(), r.as_ptr());
        assert_eq!(ledger.memo.len(), 1);
        // Shown names are named only where they show.
        assert_eq!(ledger.reference(101, &payload, (0, 0), (16, 8)), None);
        // An equal payload in another buffer is hashed for itself.
        let copy = Bytes::from(payload.to_vec());
        assert!(ledger.reference(101, &copy, AT, (16, 8)).is_some());
        assert_eq!(ledger.memo.len(), 2);
        // A name the viewer did not report, or a size no reference carries.
        assert_eq!(
            ledger.reference(101, &Bytes::from(vec![1u8; 8]), AT, (16, 8)),
            None
        );
        let wide = Bytes::from(vec![2u8; 8]);
        take(
            &mut ledger,
            &report(5, 9, 42, 0, &[parked(keyed_hash64(42, &wide))]),
            9,
        );
        assert_eq!(ledger.reference(101, &wide, AT, (70_000, 8)), None);
    }

    #[test]
    fn a_parked_name_once_sent_is_held_where_it_went_and_moves_untrust_places() {
        let payload = Bytes::from(vec![3u8; 64]);
        let name = keyed_hash64(42, &payload);
        let mut ledger = Ledger::default();
        take(&mut ledger, &report(5, 9, 42, 0, &[parked(name)]), 9);
        assert!(ledger.reference(101, &payload, AT, (4, 4)).is_some());
        // Taken out of the store: held at AT now, nowhere else.
        assert_eq!(ledger.reference(101, &payload, (0, 0), (4, 4)), None);
        assert!(ledger.reference(101, &payload, AT, (4, 4)).is_some());
        // A move the viewer has not reported seeing: shown names wait.
        ledger.note_move();
        assert_eq!(ledger.reference(101, &payload, AT, (4, 4)), None);
        let shown = Held { name, place: AT };
        take(&mut ledger, &report(5, 9, 42, 0, &[shown]), 9);
        assert_eq!(
            ledger.reference(101, &payload, AT, (4, 4)),
            None,
            "report predates it"
        );
        take(&mut ledger, &report(5, 9, 42, 1, &[shown]), 9);
        assert!(ledger.reference(101, &payload, AT, (4, 4)).is_some());
        // Parked names stay good across moves.
        ledger.note_move();
        take(&mut ledger, &report(5, 9, 42, 1, &[parked(name)]), 9);
        assert!(ledger.reference(101, &payload, (0, 0), (4, 4)).is_some());
    }

    #[test]
    fn another_stream_viewer_or_seed_and_a_clear_start_afresh() {
        let payload = Bytes::from(vec![3u8; 64]);
        let name = keyed_hash64(42, &payload);
        let mut ledger = Ledger::default();
        let held = [parked(name)];
        take(&mut ledger, &report(5, 9, 42, 0, &held), 9);
        assert!(ledger.reference(101, &payload, AT, (4, 4)).is_some());
        // A report about another stream is not about this leg.
        take(&mut ledger, &report(5, 8, 42, 0, &held), 9);
        assert!(ledger.is_empty());
        assert!(ledger.memo.is_empty());
        // Another SSRC with another seed (the viewer restarted): afresh.
        take(&mut ledger, &report(5, 9, 42, 0, &held), 9);
        ledger.reference(101, &payload, AT, (4, 4));
        take(&mut ledger, &report(6, 9, 43, 0, &held), 9);
        assert!(ledger.memo.is_empty(), "names keyed with the old seed");
        assert_eq!(
            ledger.reference(101, &payload, AT, (4, 4)),
            None,
            "another seed"
        );
        take(&mut ledger, &report(6, 9, 42, 0, &held), 9);
        assert!(ledger.reference(101, &payload, (1, 1), (4, 4)).is_some());
        ledger.clear();
        assert_eq!((ledger.len(), ledger.memo.len()), (0, 0));
        assert_eq!(ledger.reference(101, &payload, AT, (4, 4)), None);
    }

    #[test]
    fn ceilings_hold_under_a_flood() {
        let mut ledger = Ledger::default();
        let many: Vec<Held> = (0..10_000).map(parked).collect();
        // A report past the ceiling carries the first names only.
        take(&mut ledger, &report(5, 9, 1, 0, &many), 9);
        assert_eq!(ledger.len(), REPORT_MAX_NAMES);
        assert_eq!(ledger.names.capacity(), REPORT_MAX_NAMES);
        for i in 0..1_000u32 {
            ledger.reference(101, &Bytes::from(i.to_le_bytes().to_vec()), AT, (1, 1));
            assert!(ledger.memo.len() <= MEMO_MAX);
            assert!(ledger.len() <= REPORT_MAX_NAMES);
        }
        assert_eq!(ledger.memo.capacity(), MEMO_MAX);
    }
}
