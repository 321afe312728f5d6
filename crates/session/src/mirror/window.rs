//! One shared window as a receiver tracks it: geometry, pixels, and which
//! tile is known to be visible where.

use adshare_codec::{Image, Rect};

use adshare_remoting::reference::Held;

use super::tiles::{OnScreen, Shown, TileKey, TileStore};

/// How a `RegionUpdate` reached the screen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drawn {
    /// The window already showed this payload at this place.
    AlreadyShown,
    /// Parked pixels were exchanged with what the screen showed.
    Reused,
    /// The payload was decoded.
    Decoded {
        /// Whether the replaced pixels went to the parked-tile store.
        parked: bool,
    },
}

/// One shared window as a receiver tracks it.
#[derive(Debug, Clone)]
pub struct PWindow {
    /// Geometry at the AH, from the latest WindowManagerInfo.
    pub(crate) ah_rect: Rect,
    /// Group id from the WMI.
    pub(crate) group: u8,
    /// Local content buffer (window-sized). Written only by
    /// [`PWindow::write`].
    content: Image,
    /// Which tile `content` is known to show where.
    screen: OnScreen,
}

impl PWindow {
    /// A new, black window with the AH geometry `ah_rect`.
    pub(super) fn new(ah_rect: Rect, group: u8) -> Self {
        PWindow {
            ah_rect,
            group,
            content: Self::blank(ah_rect),
            screen: OnScreen::new(),
        }
    }

    fn blank(ah_rect: Rect) -> Image {
        Image::filled(ah_rect.width, ah_rect.height, [0, 0, 0, 255])
            .expect("`Mirror::apply` refuses sizes no image can have")
    }

    /// Geometry at the AH, from the latest WindowManagerInfo.
    pub fn ah_rect(&self) -> Rect {
        self.ah_rect
    }

    /// Group id from the latest WindowManagerInfo.
    pub fn group(&self) -> u8 {
        self.group
    }

    /// The window's pixels.
    pub fn content(&self) -> &Image {
        &self.content
    }

    /// The one way pixels in `content` change: whatever `change` does
    /// inside `area` (window-local), no record of what `area` showed
    /// before outlives it.
    fn write(&mut self, area: Rect, change: impl FnOnce(&mut Image)) {
        self.screen.invalidate(&area);
        change(&mut self.content);
    }

    /// Take the geometry of a new WindowManagerInfo. "The participant MUST
    /// keep the existing window image after a resize and relocation."
    pub(super) fn set_geometry(&mut self, ah_rect: Rect, group: u8) {
        self.ah_rect = ah_rect;
        self.group = group;
        let old = self.content.bounds();
        if (old.width, old.height) != (ah_rect.width, ah_rect.height) {
            self.write(old, |content| {
                let mut resized = Self::blank(ah_rect);
                resized.blit(content, 0, 0);
                *content = resized;
            });
        }
    }

    /// Absolute AH coordinates → window-local ones, which are negative for
    /// a point left of or above the window.
    fn local(&self, left: u32, top: u32) -> (i64, i64) {
        (
            left as i64 - self.ah_rect.left as i64,
            top as i64 - self.ah_rect.top as i64,
        )
    }

    /// The `width`×`height` block whose corner is at window-local `corner`
    /// as a rectangle, when all of it lies inside the window.
    fn inside(&self, corner: (u32, u32), width: u32, height: u32) -> Option<Rect> {
        let rect = Rect::new(corner.0, corner.1, width, height);
        (!rect.is_empty() && self.content.bounds().contains_rect(&rect)).then_some(rect)
    }

    /// Whether a `width`×`height` tile fits inside the window at all.
    pub(super) fn fits(&self, width: u32, height: u32) -> bool {
        width <= self.ah_rect.width && height <= self.ah_rect.height
    }

    /// The window-local rectangle of the `width`×`height` tile whose corner
    /// is at absolute (`left`, `top`), when all of it lies inside.
    pub(super) fn inside_at(
        &self,
        (left, top): (u32, u32),
        width: u32,
        height: u32,
    ) -> Option<Rect> {
        let (x, y) = self.local(left, top);
        let corner = (u32::try_from(x).ok()?, u32::try_from(y).ok()?);
        self.inside(corner, width, height)
    }

    /// Whether [`PWindow::region_update`] finds the pixels named `key` for
    /// `rect` (window-local) without a decode: shown there already, or
    /// parked at that size.
    pub(super) fn finds(&self, tiles: &TileStore, key: TileKey, rect: Rect) -> bool {
        let shown = self.screen.at(&rect).is_some_and(|s| s.key == key);
        shown || tiles.parked_size(key) == Some((rect.width, rect.height))
    }

    /// A copy of what this window shows under `key` at a `size` rectangle.
    pub(super) fn shown_copy(&self, key: TileKey, size: (u32, u32)) -> Option<Image> {
        self.content.crop(self.screen.find(key, size)?).ok()
    }

    /// The names this window shows, at their absolute corners, with their
    /// payloads' lengths.
    pub(super) fn held(&self) -> impl Iterator<Item = (Held, u32)> + '_ {
        self.screen.held((self.ah_rect.left, self.ah_rect.top))
    }

    /// Apply a `RegionUpdate` whose payload is named `key` and whose
    /// upper-left corner is at absolute (`left`, `top`), sent `named` (as a
    /// reference) or as the payload: how it was drawn, and the tile's width
    /// and height. `decode` runs only when neither the screen nor `tiles`
    /// already has the pixels; its error is returned with nothing changed.
    pub(super) fn region_update(
        &mut self,
        tiles: &mut TileStore,
        key: TileKey,
        (left, top): (u32, u32),
        named: bool,
        decode: impl FnOnce() -> adshare_codec::Result<Image>,
    ) -> adshare_codec::Result<(Drawn, (u32, u32))> {
        let at = self.local(left, top);
        // A corner left of or above the window rules out everything but
        // decoding and drawing what is left of the tile.
        let corner = u32::try_from(at.0).ok().zip(u32::try_from(at.1).ok());
        if let Some(shown) = corner.and_then(|c| self.screen.confirm(key, c, named)) {
            if !shown.repeat {
                tiles.note_shown();
            }
            return Ok((Drawn::AlreadyShown, (shown.rect.width, shown.rect.height)));
        }
        let parked_here = corner
            .zip(tiles.parked_size(key))
            .and_then(|(corner, (width, height))| self.inside(corner, width, height));
        if let Some(rect) = parked_here {
            let mut pixels = tiles.take(key).expect("size just read");
            let displaced = self.screen.at(&rect);
            self.exchange(rect, &mut pixels);
            tiles.note_shown();
            self.screen.record(Shown {
                rect,
                key,
                returned: true,
                repeat: true,
                named,
            });
            // The buffer now holds what was on screen: keep it under that
            // name if it has one, else let it go.
            if let Some(old) = displaced {
                tiles.park(old.key, pixels);
            }
            return Ok((Drawn::Reused, (rect.width, rect.height)));
        }
        let mut pixels = decode()?;
        let size = (pixels.width(), pixels.height());
        let whole = corner.and_then(|c| self.inside(c, pixels.width(), pixels.height()));
        let Some(rect) = whole else {
            self.draw_clipped(&pixels, at);
            return Ok((Drawn::Decoded { parked: false }, size));
        };
        // A tile is recorded on the screen at once, so that the same payload
        // sent again while it shows costs nothing, but counts as a repeat —
        // reported to the sender — only from its second sight here on (most
        // content never returns), or when it replaces a tile the sender put
        // here by a name it was told of (the two take turns: a slideshow's
        // slides, never named, do not). It is worth keeping only if that
        // sight found something else on the screen: sent again while still
        // showing, it has not come back.
        let displaced = self.screen.at(&rect);
        let turn = displaced.is_some_and(|old| old.named && tiles.pinned(old.key));
        let seen = tiles.seen_before(key, rect.left, rect.top) || turn;
        let returned = seen && !self.content.region_equals(&pixels, rect.left, rect.top);
        // What `rect` shows is kept if it is known to come back, or if the
        // sender was told it is held here: swapped out into the decoder's
        // own buffer, so parking allocates nothing.
        let parked = match displaced {
            Some(old) if old.returned || tiles.pinned(old.key) => {
                self.exchange(rect, &mut pixels);
                tiles.park(old.key, pixels)
            }
            _ => {
                self.write(rect, |content| content.blit(&pixels, rect.left, rect.top));
                false
            }
        };
        if seen {
            tiles.note_shown();
        }
        self.screen.record(Shown {
            rect,
            key,
            returned,
            repeat: seen,
            named,
        });
        Ok((Drawn::Decoded { parked }, size))
    }

    /// Swap `pixels` with what `rect`, wholly inside the window, shows.
    fn exchange(&mut self, rect: Rect, pixels: &mut Image) {
        self.write(rect, |content| {
            content
                .swap_rect(pixels, rect.left, rect.top)
                .expect("rect is inside the window")
        });
    }

    /// Draw the part of `pixels`, placed at window-local `at`, that falls
    /// inside the window: columns and rows outside it are cropped, never
    /// shifted in.
    fn draw_clipped(&mut self, pixels: &Image, at: (i64, i64)) {
        let Some((from, to)) = clip(at, pixels.bounds(), self.content.bounds()) else {
            return;
        };
        self.write(to, |content| {
            content.blit_from(pixels, from, to.left, to.top)
        });
    }

    /// Apply a `MoveRectangle` given in absolute coordinates: every pixel
    /// whose source and destination both lie inside the window moves, the
    /// rest of the block is cropped. A scroll of the whole window turns
    /// its ring of rows instead of moving pixels ([`Image::scroll_rect`]).
    pub(super) fn move_rectangle(
        &mut self,
        src: (u32, u32),
        dst: (u32, u32),
        width: u32,
        height: u32,
    ) {
        let (src, dst) = (self.local(src.0, src.1), self.local(dst.0, dst.1));
        let block = Rect::new(0, 0, width, height);
        let bounds = self.content.bounds();
        // The part of the block whose source is inside, then the part of
        // that whose destination is inside too.
        let Some((readable, _)) = clip(src, block, bounds) else {
            return;
        };
        let Some((moved, to)) = clip(dst, readable, bounds) else {
            return;
        };
        let from = Rect::new(
            (src.0 + moved.left as i64) as u32,
            (src.1 + moved.top as i64) as u32,
            moved.width,
            moved.height,
        );
        self.write(to, |content| content.scroll_rect(from, to.left, to.top));
    }
}

/// Place `block` (a rectangle in its own coordinates) so that its origin
/// lands at the signed position `at` inside `bounds`: the part of `block`
/// that stays visible, and where in `bounds` it lands.
fn clip(at: (i64, i64), block: Rect, bounds: Rect) -> Option<(Rect, Rect)> {
    let span = |at: i64, start: u32, len: u32, limit: u32| {
        let lo = (at + start as i64).max(0);
        let hi = (at + start as i64 + len as i64).min(limit as i64);
        (lo < hi).then(|| ((lo - at) as u32, lo as u32, (hi - lo) as u32))
    };
    let (bx, x, w) = span(at.0, block.left, block.width, bounds.width)?;
    let (by, y, h) = span(at.1, block.top, block.height, bounds.height)?;
    Some((Rect::new(bx, by, w, h), Rect::new(x, y, w, h)))
}
