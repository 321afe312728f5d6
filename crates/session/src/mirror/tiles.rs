//! Parked tiles: the pixels a window stopped showing, kept by the name of
//! the payload that drew them, so a payload that comes back is put on the
//! screen again without being decoded again (DESIGN §9.1 "Viewer side").
//!
//! Three bounded tables, none of which holds pixels the screen shows:
//! the [`TileStore`]'s parked images (a byte ceiling, oldest out first),
//! its doorkeeper of recent sights (a fixed array), and each window's
//! [`OnScreen`] list of which name is visible at which rectangle.

use adshare_codec::checksum::keyed_hash64;
use adshare_codec::{Image, Rect};
use adshare_remoting::reference::{Held, REPORT_MAX_NAMES};

/// Most bytes of parked pixels one mirror keeps.
pub const PARKED_CEILING_BYTES: usize = 512 << 10;

/// Most parked images one mirror keeps, however small: a lookup walks
/// them all.
const PARKED_MAX: usize = 64;

/// Doorkeeper slots (one `u64` each), in sets of [`DOORKEEPER_WAYS`]
/// picked by the sight's top bits.
const DOORKEEPER_SLOTS: usize = 256;

/// Sights one doorkeeper set remembers, most recent first: two sights that
/// keep coming back and share a set are both kept, where one slot each
/// would have them push each other out for ever.
const DOORKEEPER_WAYS: usize = 4;

/// Most rectangles one window remembers the name of.
const SHOWN_MAX: usize = 32;

/// The name of a tile: what its payload was, not where it was drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct TileKey {
    /// Seeded hash of the payload bytes.
    hash: u64,
    len: u32,
    payload_type: u8,
}

/// Pixels the screen no longer shows, under the name of their payload.
#[derive(Debug)]
struct Parked {
    key: TileKey,
    pixels: Image,
}

/// One mirror's parked tiles and its memory of what was seen once.
#[derive(Debug)]
pub(super) struct TileStore {
    /// Mixed into every name, so that which payloads collide is particular
    /// to this mirror (`fast_hash64` is not collision-resistant
    /// against input chosen by the sender).
    seed: u64,
    /// Oldest first. Putting an entry back on screen removes it, so age
    /// since parking is also time since last use.
    parked: Vec<Parked>,
    bytes: usize,
    evictions: u64,
    /// The latest (name, place) sights per set, each mixed into one word
    /// and most recent first; 0 = none yet.
    doorkeeper: [u64; DOORKEEPER_SLOTS],
    /// The names last reported to the sender, sorted: it may send any of
    /// them by name, so a window that stops showing one parks it.
    pinned: Vec<u64>,
    /// Names that became held so far, parked or recorded on a screen: the
    /// set of names can have grown only when this moved.
    gained: u64,
}

impl TileStore {
    pub(super) fn new(seed: u64) -> Self {
        TileStore {
            seed,
            parked: Vec::new(),
            bytes: 0,
            evictions: 0,
            doorkeeper: [0; DOORKEEPER_SLOTS],
            pinned: Vec::new(),
            gained: 0,
        }
    }

    /// The name of `payload` carried as `payload_type`.
    pub(super) fn key(&self, payload_type: u8, payload: &[u8]) -> TileKey {
        // A remoting message is far below 4 GiB; a longer payload only
        // shares its length field with shorter ones.
        let len = payload.len() as u32;
        self.named(payload_type, len, keyed_hash64(self.seed, payload))
    }

    /// The name a reference gives: the hash a sender computed with this
    /// store's seed, of a `len`-byte payload of type `payload_type`.
    pub(super) fn named(&self, payload_type: u8, len: u32, hash: u64) -> TileKey {
        TileKey {
            hash,
            len,
            payload_type,
        }
    }

    /// The seed every name here is keyed with.
    pub(super) fn seed(&self) -> u64 {
        self.seed
    }

    /// The names parked here, held anywhere, with their payloads' lengths.
    pub(super) fn held(&self) -> impl Iterator<Item = (Held, u32)> + '_ {
        let parked = |p: &Parked| {
            let held = Held {
                name: p.key.hash,
                place: Held::PARKED,
            };
            (held, p.key.len)
        };
        self.parked.iter().map(parked)
    }

    /// Remember `reported` as what the sender may name from now on.
    pub(super) fn pin(&mut self, reported: impl Iterator<Item = Held>) {
        if self.pinned.capacity() == 0 {
            self.pinned.reserve_exact(REPORT_MAX_NAMES);
        }
        self.pinned.clear();
        self.pinned
            .extend(reported.take(REPORT_MAX_NAMES).map(|h| h.name));
        self.pinned.sort_unstable();
    }

    /// Count a name a window's screen now reports.
    pub(super) fn note_shown(&mut self) {
        self.gained += 1;
    }

    /// Names that became held so far (parked, or recorded on a screen).
    pub(super) fn gained(&self) -> u64 {
        self.gained
    }

    /// Whether the sender was told this mirror holds `key`.
    pub(super) fn pinned(&self, key: TileKey) -> bool {
        self.pinned.binary_search(&key.hash).is_ok()
    }

    /// Note one sight of `key` drawn with its corner at (`left`, `top`);
    /// whether the doorkeeper already held that. The place counts because
    /// content that comes back comes back where it was, while a background
    /// tile seen once at each of many places has not come back at all. A
    /// set keeps only the latest sights that mapped to it, so one can be
    /// forgotten between two — the tile is then admitted one sight later.
    pub(super) fn seen_before(&mut self, key: TileKey, left: u32, top: u32) -> bool {
        let place = ((left as u64) << 32 | top as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mark = (key.hash ^ place) | 1;
        let set = (mark >> 56) as usize % (DOORKEEPER_SLOTS / DOORKEEPER_WAYS);
        let ways = &mut self.doorkeeper[set * DOORKEEPER_WAYS..][..DOORKEEPER_WAYS];
        let seen = ways.iter().position(|&w| w == mark);
        // The sight moves to the front; a new one pushes out the oldest.
        ways[..=seen.unwrap_or(DOORKEEPER_WAYS - 1)].rotate_right(1);
        ways[0] = mark;
        seen.is_some()
    }

    /// Width and height of the pixels parked under `key`.
    pub(super) fn parked_size(&self, key: TileKey) -> Option<(u32, u32)> {
        self.parked
            .iter()
            .find(|p| p.key == key)
            .map(|p| (p.pixels.width(), p.pixels.height()))
    }

    /// Take the pixels parked under `key` out of the store.
    pub(super) fn take(&mut self, key: TileKey) -> Option<Image> {
        let at = self.parked.iter().position(|p| p.key == key)?;
        let pixels = self.parked.remove(at).pixels;
        self.bytes -= pixels.data().len();
        Some(pixels)
    }

    /// Park `pixels` under `key`, evicting the oldest entries to stay under
    /// the ceilings; whether they were kept. Pixels larger than the
    /// ceiling, or a name already parked, are dropped instead.
    pub(super) fn park(&mut self, key: TileKey, pixels: Image) -> bool {
        let size = pixels.data().len();
        if size > PARKED_CEILING_BYTES || self.parked.iter().any(|p| p.key == key) {
            return false;
        }
        if self.parked.capacity() == 0 {
            self.parked.reserve_exact(PARKED_MAX);
        }
        while self.bytes + size > PARKED_CEILING_BYTES || self.parked.len() >= PARKED_MAX {
            self.bytes -= self.parked.remove(0).pixels.data().len();
            self.evictions += 1;
        }
        self.bytes += size;
        self.parked.push(Parked { key, pixels });
        self.gained += 1;
        true
    }

    /// Bytes of parked pixels right now.
    pub(super) fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries evicted to stay under the ceilings, so far.
    pub(super) fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// "Rectangle `rect` of the window shows the tile named `key`." Recorded
/// from a tile's second sight at a place on, so what never repeats never
/// costs a record or pushes one out.
#[derive(Debug, Clone, Copy)]
pub(super) struct Shown {
    pub(super) rect: Rect,
    pub(super) key: TileKey,
    /// Whether the tile has come back here after something else was shown
    /// (rather than only been sent again while still showing): its pixels
    /// are worth parking when something else is drawn over them.
    pub(super) returned: bool,
    /// Whether it has been sent here more than once, or took its turn with
    /// a name the sender was told of: only such a record is reported.
    pub(super) repeat: bool,
    /// Whether the sender last put it here by name: it names it, so what
    /// replaces it is likely to take turns with it.
    pub(super) named: bool,
}

/// What one window is known to show, least recently drawn or confirmed
/// first. Rectangles never overlap: a write drops what it touches before a
/// new record is made.
#[derive(Debug, Clone)]
pub(super) struct OnScreen {
    shown: Vec<Shown>,
}

impl OnScreen {
    /// An empty table, at its full and final size: made with the window,
    /// so that it lies beside the window's other long-lived memory rather
    /// than in the middle of the heap the decoder's buffers cycle through.
    pub(super) fn new() -> Self {
        OnScreen {
            shown: Vec::with_capacity(SHOWN_MAX),
        }
    }

    /// Forget every record a write to `area` could have changed.
    pub(super) fn invalidate(&mut self, area: &Rect) {
        self.shown.retain(|s| !s.rect.intersects(area));
    }

    /// The record for exactly `rect`, if any.
    pub(super) fn at(&self, rect: &Rect) -> Option<Shown> {
        self.shown.iter().find(|s| s.rect == *rect).copied()
    }

    /// A rectangle of `width`×`height` that shows `key`, if any.
    pub(super) fn find(&self, key: TileKey, (width, height): (u32, u32)) -> Option<Rect> {
        let fits = |s: &&Shown| s.key == key && (s.rect.width, s.rect.height) == (width, height);
        self.shown.iter().find(fits).map(|s| s.rect)
    }

    /// The names shown more than once, each at its corner offset by
    /// `origin`, with their payloads' lengths.
    pub(super) fn held(&self, origin: (u32, u32)) -> impl Iterator<Item = (Held, u32)> + '_ {
        self.shown.iter().filter(|s| s.repeat).map(move |s| {
            let held = Held {
                name: s.key.hash,
                place: (origin.0 + s.rect.left, origin.1 + s.rect.top),
            };
            (held, s.key.len)
        })
    }

    /// The record whose corner is (`left`, `top`), if it shows `key`, as it
    /// was. The same payload again while it is showing is a resend, not the
    /// content coming back, so this does not mark the record `returned` —
    /// but it is a repeat.
    pub(super) fn confirm(
        &mut self,
        key: TileKey,
        (left, top): (u32, u32),
        named: bool,
    ) -> Option<Shown> {
        let at = self
            .shown
            .iter()
            .position(|s| s.key == key && (s.rect.left, s.rect.top) == (left, top))?;
        let seen = self.shown.remove(at);
        self.shown.push(Shown {
            repeat: true,
            named,
            ..seen
        });
        Some(seen)
    }

    /// Record what was just drawn over the whole of `shown.rect` (already
    /// invalidated), forgetting the stalest record if the table is full.
    pub(super) fn record(&mut self, shown: Shown) {
        debug_assert!(self.shown.iter().all(|s| !s.rect.intersects(&shown.rect)));
        if self.shown.len() >= SHOWN_MAX {
            self.shown.remove(0);
        }
        self.shown.push(shown);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(w: u32, h: u32, v: u8) -> Image {
        Image::filled(w, h, [v, v, v, 255]).unwrap()
    }

    #[test]
    fn names_depend_on_type_length_bytes_and_seed() {
        let store = TileStore::new(7);
        let k = store.key(96, b"payload");
        assert_eq!(k, store.key(96, b"payload"));
        assert_ne!(k, store.key(97, b"payload"));
        assert_ne!(k, store.key(96, b"payloae"));
        assert_ne!(k, store.key(96, b"payload\0"));
        assert_ne!(k.hash, TileStore::new(8).key(96, b"payload").hash);
    }

    #[test]
    fn doorkeeper_answers_second_sight_and_stays_fixed() {
        let mut store = TileStore::new(1);
        let k = store.key(96, b"again");
        assert!(!store.seen_before(k, 10, 20));
        assert!(store.seen_before(k, 10, 20));
        assert!(!store.seen_before(k, 20, 10), "another place");
        for i in 0..100_000u32 {
            let other = store.key(96, &i.to_le_bytes());
            store.seen_before(other, i, 0);
        }
        assert_eq!(store.doorkeeper.len(), DOORKEEPER_SLOTS);
        assert_eq!(store.bytes(), 0, "seeing is not parking");
    }

    #[test]
    fn sights_that_share_a_set_keep_coming_back_without_pushing_each_other_out() {
        let mut store = TileStore::new(3);
        // Four names whose sights at one place fall into one set, seen in
        // turn: a one-slot doorkeeper would forget each before it returned.
        let sets = DOORKEEPER_SLOTS / DOORKEEPER_WAYS;
        let set_of = |k: TileKey| {
            let place = (5u64 << 32 | 7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (((k.hash ^ place) | 1) >> 56) as usize % sets
        };
        let first = store.key(96, &0u32.to_le_bytes());
        let same: Vec<TileKey> = (0..100_000u32)
            .map(|i| store.key(96, &i.to_le_bytes()))
            .filter(|&k| set_of(k) == set_of(first))
            .take(DOORKEEPER_WAYS)
            .collect();
        assert_eq!(same.len(), DOORKEEPER_WAYS);
        for &k in &same {
            assert!(!store.seen_before(k, 5, 7));
        }
        for round in 0..3 {
            for &k in &same {
                assert!(store.seen_before(k, 5, 7), "round {round}");
            }
        }
        // One more in the set pushes out the least recent.
        let extra = (100_000..200_000u32)
            .map(|i| store.key(96, &i.to_le_bytes()))
            .find(|&k| set_of(k) == set_of(first))
            .unwrap();
        assert!(!store.seen_before(extra, 5, 7));
        assert!(!store.seen_before(same[0], 5, 7), "the oldest went");
    }

    #[test]
    fn park_take_round_trip_and_duplicate_names_are_dropped() {
        let mut store = TileStore::new(1);
        let k = store.key(96, b"a");
        assert!(store.park(k, tile(4, 2, 9)));
        assert!(!store.park(k, tile(4, 2, 1)));
        assert_eq!(store.bytes(), 32);
        assert_eq!(store.parked_size(k), Some((4, 2)));
        assert_eq!(store.take(k), Some(tile(4, 2, 9)));
        assert_eq!((store.bytes(), store.take(k)), (0, None));
    }

    #[test]
    fn ceilings_hold_oldest_goes_first_and_oversize_is_refused() {
        let mut store = TileStore::new(1);
        // 128 KiB each: the fifth pushes the first out.
        let keys: Vec<TileKey> = (0..5u8).map(|i| store.key(96, &[i])).collect();
        for (i, &k) in keys.iter().enumerate() {
            store.park(k, tile(256, 128, i as u8));
            assert!(store.bytes() <= PARKED_CEILING_BYTES);
        }
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.parked_size(keys[0]), None);
        assert_eq!(store.take(keys[1]), Some(tile(256, 128, 1)));
        // Larger than the ceiling on its own: never admitted, nothing evicted.
        let before = (store.bytes(), store.evictions());
        assert!(!store.park(store.key(96, b"big"), tile(512, 257, 0)));
        assert_eq!((store.bytes(), store.evictions()), before);
        // Many tiny tiles: the entry count is bounded too.
        for i in 0..1_000u32 {
            store.park(store.key(96, &i.to_be_bytes()), tile(1, 1, 0));
            assert!(store.parked.len() <= PARKED_MAX);
            assert!(store.bytes() <= PARKED_CEILING_BYTES);
        }
    }

    #[test]
    fn on_screen_table_is_bounded_and_invalidated_by_overlap() {
        let store = TileStore::new(1);
        let mut screen = OnScreen::new();
        for i in 0..1_000u32 {
            screen.record(Shown {
                rect: Rect::new(i * 2, 0, 1, 1),
                key: store.key(96, &i.to_le_bytes()),
                returned: false,
                repeat: false,
                named: false,
            });
            assert!(screen.shown.len() <= SHOWN_MAX);
            assert_eq!(screen.shown.capacity(), SHOWN_MAX);
        }
        let last = store.key(96, &999u32.to_le_bytes());
        assert!(screen.at(&Rect::new(0, 0, 1, 1)).is_none(), "stalest left");
        assert_eq!(screen.at(&Rect::new(1998, 0, 1, 1)).unwrap().key, last);
        assert!(
            screen.confirm(last, (1996, 0), false).is_none(),
            "another corner"
        );
        assert!(!screen.confirm(last, (1998, 0), false).unwrap().repeat);
        let confirmed = screen.at(&Rect::new(1998, 0, 1, 1)).unwrap();
        assert!(!confirmed.returned && confirmed.repeat);
        // Confirmed means recently used: 31 more records push out the
        // others first.
        for i in 0..31 {
            screen.record(Shown {
                rect: Rect::new(i * 2, 10, 1, 1),
                key: last,
                returned: true,
                repeat: true,
                named: false,
            });
        }
        assert!(screen.at(&Rect::new(1998, 0, 1, 1)).is_some());
        assert!(screen.at(&Rect::new(1996, 0, 1, 1)).is_none());
        // A write next to it leaves it, one touching it drops it.
        screen.invalidate(&Rect::new(1999, 0, 5, 5));
        assert!(screen.at(&Rect::new(1998, 0, 1, 1)).is_some());
        screen.invalidate(&Rect::new(1990, 0, 9, 1));
        assert!(screen.at(&Rect::new(1998, 0, 1, 1)).is_none());
    }
}
