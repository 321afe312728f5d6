//! The RGBA framebuffer image type shared across the workspace.

use crate::{Error, Result};

/// Bytes per pixel (always RGBA8 internally).
pub const BYTES_PER_PIXEL: usize = 4;

/// Hard cap on image dimensions; protects decoders from hostile headers.
pub const MAX_DIMENSION: u32 = 16_384;

/// A rectangle in pixel coordinates. Follows the draft's convention (§4.1):
/// origin at the upper-left, units in pixels, fields unsigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge (x of the upper-left corner).
    pub left: u32,
    /// Top edge (y of the upper-left corner).
    pub top: u32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(left: u32, top: u32, width: u32, height: u32) -> Self {
        Rect {
            left,
            top,
            width,
            height,
        }
    }

    /// Right edge (exclusive).
    pub fn right(&self) -> u32 {
        self.left.saturating_add(self.width)
    }

    /// Bottom edge (exclusive).
    pub fn bottom(&self) -> u32 {
        self.top.saturating_add(self.height)
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Whether this rectangle has zero area.
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Whether the point (x, y) lies inside.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.left && x < self.right() && y >= self.top && y < self.bottom()
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.left >= self.left
                && other.top >= self.top
                && other.right() <= self.right()
                && other.bottom() <= self.bottom())
    }

    /// Intersection with another rectangle, if non-empty.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let left = self.left.max(other.left);
        let top = self.top.max(other.top);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if left < right && top < bottom {
            Some(Rect::new(left, top, right - left, bottom - top))
        } else {
            None
        }
    }

    /// Whether the two rectangles overlap.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let left = self.left.min(other.left);
        let top = self.top.min(other.top);
        let right = self.right().max(other.right());
        let bottom = self.bottom().max(other.bottom());
        Rect::new(left, top, right - left, bottom - top)
    }

    /// Translate by a signed offset, saturating at zero.
    pub fn translated(&self, dx: i64, dy: i64) -> Rect {
        let left = (self.left as i64 + dx).max(0) as u32;
        let top = (self.top as i64 + dy).max(0) as u32;
        Rect::new(left, top, self.width, self.height)
    }
}

/// An RGBA8 image, stored a whole row at a time.
///
/// The rows are a ring: row `y` is stored at `(y + row_offset) % height`,
/// and `row_offset` is 0 until [`Image::scroll_rect`] scrolls the whole
/// image, which turns the ring instead of moving pixels. Every reader sees
/// rows in order either way: [`Image::row`], [`Image::pixel`], `==` and
/// the copying methods go through the offset, and [`Image::data`], which
/// lends the storage itself, refuses an image whose rows it has turned.
#[derive(Clone)]
pub struct Image {
    width: u32,
    height: u32,
    /// How many rows the ring has turned: row 0 is stored at this row.
    row_offset: u32,
    data: Vec<u8>,
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("bytes", &self.data.len())
            .finish()
    }
}

/// Equal when the dimensions and every row are, wherever the rows are
/// stored: a viewer's scrolled window equals the AH's unscrolled one.
impl PartialEq for Image {
    fn eq(&self, other: &Image) -> bool {
        (self.width, self.height) == (other.width, other.height)
            && (0..self.height).all(|y| self.row(y) == other.row(y))
    }
}

impl Eq for Image {}

#[cfg(test)]
thread_local! {
    /// Rows this thread's images copied within themselves (moves and
    /// scrolls), so a test can tell a scroll that moved rows from one that
    /// moved pixels.
    static ROWS_COPIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Image {
    /// Create an image filled with opaque black.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Self::filled(width, height, [0, 0, 0, 255])
    }

    /// Create an image filled with `rgba`.
    pub fn filled(width: u32, height: u32, rgba: [u8; 4]) -> Result<Self> {
        check_dims(width, height)?;
        // One exactly-sized allocation, filled by doubling copies.
        let data = rgba.repeat(width as usize * height as usize);
        Ok(Self::stored(width, height, data))
    }

    /// Wrap existing RGBA data (must be exactly `width * height * 4` bytes).
    pub fn from_rgba(width: u32, height: u32, data: Vec<u8>) -> Result<Self> {
        check_dims(width, height)?;
        let expected = width as usize * height as usize * BYTES_PER_PIXEL;
        if data.len() != expected {
            return Err(Error::SizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self::stored(width, height, data))
    }

    /// An image over row-major `data` of the right size.
    fn stored(width: u32, height: u32, data: Vec<u8>) -> Self {
        Image {
            width,
            height,
            row_offset: 0,
            data,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The image's bounds as a rectangle at the origin.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Raw RGBA bytes, row-major.
    ///
    /// # Panics
    ///
    /// On an image whose scrolls ([`Image::scroll_rect`]) left its rows
    /// stored out of order. A receiver's window pixels are scrolled by its
    /// `MoveRectangle`s, so product code reads a window's pixels with
    /// [`Image::row`], never with `data()`. A CI step rejects `data()` in
    /// the product code of `session` and `relay` outside the parked-tile
    /// store, but it is a grep: the tests that scroll windows and then read
    /// them are the guard.
    pub fn data(&self) -> &[u8] {
        assert!(
            self.row_offset == 0,
            "a scrolled image stores its rows out of order: read them with `Image::row`"
        );
        &self.data
    }

    /// Consume into raw RGBA bytes, row-major.
    pub fn into_data(mut self) -> Vec<u8> {
        let stride = self.width as usize * BYTES_PER_PIXEL;
        self.data.rotate_left(self.row_offset as usize * stride);
        self.data
    }

    /// Where the `len` pixels starting at (`x`, `y`) are stored in `data`:
    /// the one place the ring offset is read.
    fn span(&self, x: u32, y: u32, len: u32) -> std::ops::Range<usize> {
        let past_end = self.height - self.row_offset;
        let stored = if y < past_end {
            y + self.row_offset
        } else {
            y - past_end
        };
        let start = (stored as usize * self.width as usize + x as usize) * BYTES_PER_PIXEL;
        start..start + len as usize * BYTES_PER_PIXEL
    }

    /// One row of pixels.
    ///
    /// # Panics
    ///
    /// When `y` is not a row of the image.
    pub fn row(&self, y: u32) -> &[u8] {
        assert!(y < self.height, "row {y} of a {}-row image", self.height);
        &self.data[self.span(0, y, self.width)]
    }

    /// Get a pixel; `None` outside bounds.
    pub fn pixel(&self, x: u32, y: u32) -> Option<[u8; 4]> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let px = &self.data[self.span(x, y, 1)];
        Some([px[0], px[1], px[2], px[3]])
    }

    /// Set a pixel; out-of-bounds writes are ignored.
    pub fn set_pixel(&mut self, x: u32, y: u32, rgba: [u8; 4]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let at = self.span(x, y, 1);
        self.data[at].copy_from_slice(&rgba);
    }

    /// Fill a rectangle (clipped to bounds) with a colour.
    pub fn fill_rect(&mut self, rect: Rect, rgba: [u8; 4]) {
        let Some(r) = rect.intersect(&self.bounds()) else {
            return;
        };
        for y in r.top..r.bottom() {
            let at = self.span(r.left, y, r.width);
            for px in self.data[at].chunks_exact_mut(BYTES_PER_PIXEL) {
                px.copy_from_slice(&rgba);
            }
        }
    }

    /// Extract a sub-image (clipped to bounds; empty intersection yields a
    /// 1×1 transparent image error — callers should check first).
    pub fn crop(&self, rect: Rect) -> Result<Image> {
        let r = rect.intersect(&self.bounds()).ok_or(Error::Invalid {
            what: "crop",
            detail: "rectangle outside image",
        })?;
        let mut data = Vec::with_capacity(r.width as usize * r.height as usize * BYTES_PER_PIXEL);
        for y in r.top..r.bottom() {
            data.extend_from_slice(&self.data[self.span(r.left, y, r.width)]);
        }
        Image::from_rgba(r.width, r.height, data)
    }

    /// Blit `src` so its upper-left corner lands at (`left`, `top`),
    /// clipping to this image's bounds.
    pub fn blit(&mut self, src: &Image, left: u32, top: u32) {
        self.blit_from(src, src.bounds(), left, top);
    }

    /// Blit the part of `src` inside `src_rect` so that part's upper-left
    /// corner lands at (`left`, `top`), clipping to both images' bounds.
    pub fn blit_from(&mut self, src: &Image, src_rect: Rect, left: u32, top: u32) {
        let Some(from) = src_rect.intersect(&src.bounds()) else {
            return;
        };
        let dst_rect = Rect::new(left, top, from.width, from.height);
        let Some(clipped) = dst_rect.intersect(&self.bounds()) else {
            return;
        };
        let src_x0 = from.left + (clipped.left - left);
        let src_y0 = from.top + (clipped.top - top);
        for dy in 0..clipped.height {
            let theirs = src.span(src_x0, src_y0 + dy, clipped.width);
            let ours = self.span(clipped.left, clipped.top + dy, clipped.width);
            self.data[ours].copy_from_slice(&src.data[theirs]);
        }
    }

    /// Whether the `other`-sized region whose upper-left corner is
    /// (`left`, `top`) lies wholly inside this image.
    fn holds(&self, other: &Image, left: u32, top: u32) -> bool {
        let region = Rect::new(left, top, other.width, other.height);
        self.bounds().contains_rect(&region)
    }

    /// Whether the region of this image whose upper-left corner is (`left`,
    /// `top`) holds exactly `other`'s pixels. False when that region does
    /// not lie wholly inside this image.
    pub fn region_equals(&self, other: &Image, left: u32, top: u32) -> bool {
        self.holds(other, left, top)
            && (0..other.height)
                .all(|y| self.data[self.span(left, top + y, other.width)] == *other.row(y))
    }

    /// Exchange `other`'s pixels with the equally sized region of this image
    /// whose upper-left corner is (`left`, `top`), row by row and in place:
    /// afterwards the region shows what `other` held and `other` holds what
    /// the region showed. The region must lie wholly inside this image;
    /// otherwise nothing is exchanged.
    pub fn swap_rect(&mut self, other: &mut Image, left: u32, top: u32) -> Result<()> {
        if !self.holds(other, left, top) {
            return Err(Error::Invalid {
                what: "swap_rect",
                detail: "region outside image",
            });
        }
        for y in 0..other.height {
            let ours = self.span(left, top + y, other.width);
            let theirs = other.span(0, y, other.width);
            self.data[ours].swap_with_slice(&mut other.data[theirs]);
        }
        Ok(())
    }

    /// Move a rectangle within the image to a new position — the operation
    /// behind the draft's `MoveRectangle` message (§5.2.3). "Source and
    /// destination rectangles may overlap", so the copy direction is chosen
    /// to be overlap-safe. Pixels of the source the destination does not
    /// cover keep what they showed.
    pub fn move_rect(&mut self, src: Rect, dst_left: u32, dst_top: u32) {
        if let Some((from, to)) = self.clip_move(src, dst_left, dst_top) {
            self.copy_block(from, to);
        }
    }

    /// [`Image::move_rect`] for a receiver, which ends up showing the same
    /// pixels: the whole image scrolled up or down by k rows, with k less
    /// than the moved block's height, turns the ring of rows by k and
    /// copies only the k rows the move uncovered, which keep what they
    /// showed. Any other move — part width, a band short of the whole
    /// height, k at or past the block's height, sideways — copies pixels as
    /// `move_rect` does. Nothing is allocated either way.
    pub fn scroll_rect(&mut self, src: Rect, dst_left: u32, dst_top: u32) {
        let Some((from, to)) = self.clip_move(src, dst_left, dst_top) else {
            return;
        };
        let k = from.top.abs_diff(to.top);
        if from.width != self.width || from.height + k != self.height || k >= from.height {
            return self.copy_block(from, to);
        }
        let up = to.top < from.top;
        // Row `y` of the source now shows at `y ∓ k`, and the k stored rows
        // the destination overwrote now hold the rows the move uncovered.
        let turn = if up { k } else { self.height - k };
        self.row_offset = (self.row_offset + turn) % self.height;
        let uncovered = if up {
            to.bottom()..self.height
        } else {
            0..to.top
        };
        for y in uncovered {
            let shown_at = if up { y - k } else { y + k };
            self.copy_row((0, shown_at), (0, y), self.width);
        }
    }

    /// The part of a move of `src` to (`dst_left`, `dst_top`) that stays
    /// inside the image: the block read, and where it lands.
    fn clip_move(&self, src: Rect, dst_left: u32, dst_top: u32) -> Option<(Rect, Rect)> {
        let src = src.intersect(&self.bounds())?;
        let to = Rect::new(dst_left, dst_top, src.width, src.height).intersect(&self.bounds())?;
        Some((Rect::new(src.left, src.top, to.width, to.height), to))
    }

    /// Copy the equally sized block `from` onto `to`, row by row in the
    /// order that never reads a row already overwritten.
    fn copy_block(&mut self, from: Rect, to: Rect) {
        let mut copy =
            |i: u32| self.copy_row((from.left, from.top + i), (to.left, to.top + i), from.width);
        if to.top <= from.top {
            (0..from.height).for_each(&mut copy);
        } else {
            (0..from.height).rev().for_each(&mut copy);
        }
    }

    /// Copy `len` pixels of one row to another place (the same row may
    /// overlap itself: the copy is memmove-like).
    fn copy_row(&mut self, (sx, sy): (u32, u32), (dx, dy): (u32, u32), len: u32) {
        let from = self.span(sx, sy, len);
        let to = self.span(dx, dy, len).start;
        self.data.copy_within(from, to);
        #[cfg(test)]
        ROWS_COPIED.with(|n| n.set(n.get() + 1));
    }

    /// Rectangles (as a coarse per-row-band list) where `self` and `other`
    /// differ. Both images must have identical dimensions.
    pub fn diff_rows(&self, other: &Image) -> Vec<Rect> {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let mut out: Vec<Rect> = Vec::new();
        for y in 0..self.height {
            if self.row(y) != other.row(y) {
                // Find the changed span within the row.
                let a = self.row(y);
                let b = other.row(y);
                let first = a
                    .chunks_exact(4)
                    .zip(b.chunks_exact(4))
                    .position(|(p, q)| p != q)
                    .unwrap_or(0) as u32;
                let last = (a.chunks_exact(4).count()
                    - a.chunks_exact(4)
                        .rev()
                        .zip(b.chunks_exact(4).rev())
                        .position(|(p, q)| p != q)
                        .unwrap_or(0)) as u32;
                let row_rect = Rect::new(first, y, last.saturating_sub(first).max(1), 1);
                // Merge with previous band when horizontally equal and
                // vertically adjacent.
                if let Some(prev) = out.last_mut() {
                    if prev.left == row_rect.left
                        && prev.width == row_rect.width
                        && prev.bottom() == y
                    {
                        prev.height += 1;
                        continue;
                    }
                }
                out.push(row_rect);
            }
        }
        out
    }

    /// Serialize as a binary PPM (P6) — the universally readable snapshot
    /// format used by the demo tools to dump what a participant sees.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.width as usize * self.height as usize * 3);
        for y in 0..self.height {
            for px in self.row(y).chunks_exact(4) {
                out.extend_from_slice(&px[..3]);
            }
        }
        out
    }

    /// Nearest-neighbour scale to a new size (participant-side scaling,
    /// draft §4.2: "participant-side scaling can be used to optimize
    /// transmission of data to participants with a small screen").
    pub fn scale_to(&self, width: u32, height: u32) -> Result<Image> {
        check_dims(width, height)?;
        let mut out = Image::new(width, height)?;
        for y in 0..height {
            let sy = (y as u64 * self.height as u64 / height as u64) as u32;
            for x in 0..width {
                let sx = (x as u64 * self.width as u64 / width as u64) as u32;
                out.set_pixel(x, y, self.pixel(sx, sy).expect("source in bounds"));
            }
        }
        Ok(out)
    }

    /// Mean absolute per-channel error vs another image of the same size
    /// (used to validate lossy codecs).
    pub fn mean_abs_error(&self, other: &Image) -> f64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "images of one size"
        );
        let total: u64 = (0..self.height)
            .map(|y| {
                self.row(y)
                    .iter()
                    .zip(other.row(y))
                    .map(|(a, b)| a.abs_diff(*b) as u64)
                    .sum::<u64>()
            })
            .sum();
        total as f64 / self.data.len() as f64
    }
}

/// Whether an image of `width`×`height` may exist: the rule every
/// constructor applies before it allocates.
pub fn check_dims(width: u32, height: u32) -> Result<()> {
    if width == 0 || height == 0 || width > MAX_DIMENSION || height > MAX_DIMENSION {
        return Err(Error::BadDimensions { width, height });
    }
    // Guard total allocation (≤ 16k × 16k × 4 = 1 GiB would be absurd for a
    // screen update; cap at 256 MiB).
    let bytes = width as u64 * height as u64 * BYTES_PER_PIXEL as u64;
    if bytes > 256 * 1024 * 1024 {
        return Err(Error::BadDimensions { width, height });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let r = Rect::new(10, 20, 30, 40);
        assert_eq!(r.right(), 40);
        assert_eq!(r.bottom(), 60);
        assert_eq!(r.area(), 1200);
        assert!(r.contains(10, 20));
        assert!(r.contains(39, 59));
        assert!(!r.contains(40, 20));
        assert!(!r.contains(10, 60));
    }

    #[test]
    fn rect_intersection_and_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Some(Rect::new(5, 5, 5, 5)));
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));
        let c = Rect::new(20, 20, 5, 5);
        assert_eq!(a.intersect(&c), None);
        assert!(!a.intersects(&c));
        // Touching edges do not intersect.
        let d = Rect::new(10, 0, 5, 5);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn rect_contains_rect() {
        let outer = Rect::new(0, 0, 100, 100);
        assert!(outer.contains_rect(&Rect::new(10, 10, 50, 50)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&Rect::new(60, 60, 50, 50)));
        assert!(
            outer.contains_rect(&Rect::new(500, 500, 0, 0)),
            "empty rect always contained"
        );
    }

    #[test]
    fn image_construction_and_pixels() {
        let mut img = Image::filled(4, 3, [1, 2, 3, 4]).unwrap();
        assert_eq!(img.pixel(0, 0), Some([1, 2, 3, 4]));
        assert_eq!(img.pixel(4, 0), None);
        img.set_pixel(2, 1, [9, 9, 9, 9]);
        assert_eq!(img.pixel(2, 1), Some([9, 9, 9, 9]));
        // Out-of-bounds set is a no-op.
        img.set_pixel(100, 100, [0; 4]);
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(Image::new(0, 5).is_err());
        assert!(Image::new(5, 0).is_err());
        assert!(Image::new(MAX_DIMENSION + 1, 1).is_err());
    }

    #[test]
    fn from_rgba_validates_len() {
        assert!(Image::from_rgba(2, 2, vec![0; 16]).is_ok());
        assert!(matches!(
            Image::from_rgba(2, 2, vec![0; 15]),
            Err(Error::SizeMismatch {
                expected: 16,
                actual: 15
            })
        ));
    }

    #[test]
    fn crop_and_blit_round_trip() {
        let mut img = Image::new(10, 10).unwrap();
        img.fill_rect(Rect::new(2, 3, 4, 5), [100, 150, 200, 255]);
        let cropped = img.crop(Rect::new(2, 3, 4, 5)).unwrap();
        assert_eq!(cropped.width(), 4);
        assert_eq!(cropped.height(), 5);
        assert_eq!(cropped.pixel(0, 0), Some([100, 150, 200, 255]));

        let mut dst = Image::new(10, 10).unwrap();
        dst.blit(&cropped, 2, 3);
        assert_eq!(dst.data(), img.data());
    }

    #[test]
    fn blit_clips_at_edges() {
        let mut img = Image::new(4, 4).unwrap();
        let patch = Image::filled(3, 3, [255, 0, 0, 255]).unwrap();
        img.blit(&patch, 2, 2); // only 2x2 lands inside
        assert_eq!(img.pixel(2, 2), Some([255, 0, 0, 255]));
        assert_eq!(img.pixel(3, 3), Some([255, 0, 0, 255]));
        assert_eq!(img.pixel(1, 1), Some([0, 0, 0, 255]));
        // Fully outside: no-op, no panic.
        img.blit(&patch, 100, 100);
    }

    #[test]
    fn blit_from_takes_a_part_of_the_source() {
        let mut src = Image::new(4, 4).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                src.set_pixel(x, y, [x as u8, y as u8, 0, 255]);
            }
        }
        let mut dst = Image::filled(3, 3, [9, 9, 9, 255]).unwrap();
        // The lower-right 3×3 of the source lands at (1, 1); 2×2 fits.
        dst.blit_from(&src, Rect::new(1, 1, 3, 3), 1, 1);
        assert_eq!(dst.pixel(1, 1), Some([1, 1, 0, 255]));
        assert_eq!(dst.pixel(2, 2), Some([2, 2, 0, 255]));
        assert_eq!(dst.pixel(0, 0), Some([9, 9, 9, 255]));
        // A source rectangle reaching past the source is clipped to it.
        dst.blit_from(&src, Rect::new(3, 3, 5, 5), 0, 0);
        assert_eq!(dst.pixel(0, 0), Some([3, 3, 0, 255]));
        assert_eq!(dst.pixel(1, 0), Some([9, 9, 9, 255]));
        dst.blit_from(&src, Rect::new(4, 4, 1, 1), 0, 0);
    }

    #[test]
    fn swap_rect_exchanges_in_place_and_region_equals_tells() {
        let mut screen = Image::new(6, 5).unwrap();
        for y in 0..5 {
            for x in 0..6 {
                screen.set_pixel(x, y, [x as u8, y as u8, 1, 255]);
            }
        }
        let before = screen.clone();
        let mut tile = Image::filled(3, 2, [200, 100, 50, 255]).unwrap();
        assert!(!screen.region_equals(&tile, 2, 1));
        screen.swap_rect(&mut tile, 2, 1).unwrap();
        assert!(!screen.region_equals(&tile, 2, 1));
        assert!(before.region_equals(&tile, 2, 1));
        assert!(!before.region_equals(&tile, 4, 1), "not wholly inside");
        assert_eq!(screen.pixel(2, 1), Some([200, 100, 50, 255]));
        assert_eq!(screen.pixel(4, 2), Some([200, 100, 50, 255]));
        assert_eq!(screen.pixel(5, 2), before.pixel(5, 2));
        assert_eq!(screen.pixel(2, 3), before.pixel(2, 3));
        assert_eq!(tile, before.crop(Rect::new(2, 1, 3, 2)).unwrap());
        screen.swap_rect(&mut tile, 2, 1).unwrap();
        assert_eq!(screen, before);
        // Not wholly inside: refused, both sides untouched.
        assert!(screen.swap_rect(&mut tile, 4, 1).is_err());
        assert!(screen.swap_rect(&mut tile, 0, u32::MAX).is_err());
        assert_eq!(screen, before);
        assert_eq!(tile, Image::filled(3, 2, [200, 100, 50, 255]).unwrap());
    }

    #[test]
    fn move_rect_non_overlapping() {
        let mut img = Image::new(10, 10).unwrap();
        img.fill_rect(Rect::new(0, 0, 2, 2), [7, 7, 7, 255]);
        img.move_rect(Rect::new(0, 0, 2, 2), 5, 5);
        assert_eq!(img.pixel(5, 5), Some([7, 7, 7, 255]));
        assert_eq!(img.pixel(6, 6), Some([7, 7, 7, 255]));
        // Source pixels remain (move_rect copies; clearing is the caller's
        // business, matching how scroll updates work).
        assert_eq!(img.pixel(0, 0), Some([7, 7, 7, 255]));
    }

    #[test]
    fn move_rect_overlapping_down() {
        // A vertical gradient scrolled down by 1 must not smear.
        let mut img = Image::new(1, 5).unwrap();
        for y in 0..5 {
            img.set_pixel(0, y, [y as u8, 0, 0, 255]);
        }
        img.move_rect(Rect::new(0, 0, 1, 4), 0, 1);
        for y in 1..5u32 {
            assert_eq!(img.pixel(0, y), Some([(y - 1) as u8, 0, 0, 255]), "row {y}");
        }
    }

    #[test]
    fn move_rect_overlapping_up() {
        let mut img = Image::new(1, 5).unwrap();
        for y in 0..5 {
            img.set_pixel(0, y, [y as u8, 0, 0, 255]);
        }
        img.move_rect(Rect::new(0, 1, 1, 4), 0, 0);
        for y in 0..4u32 {
            assert_eq!(img.pixel(0, y), Some([(y + 1) as u8, 0, 0, 255]), "row {y}");
        }
    }

    #[test]
    fn move_rect_overlapping_horizontal() {
        let mut img = Image::new(5, 1).unwrap();
        for x in 0..5 {
            img.set_pixel(x, 0, [x as u8, 0, 0, 255]);
        }
        img.move_rect(Rect::new(0, 0, 4, 1), 1, 0);
        for x in 1..5u32 {
            assert_eq!(img.pixel(x, 0), Some([(x - 1) as u8, 0, 0, 255]), "col {x}");
        }
    }

    #[test]
    fn diff_rows_finds_change() {
        let a = Image::new(8, 8).unwrap();
        let mut b = a.clone();
        b.fill_rect(Rect::new(2, 3, 3, 2), [1, 1, 1, 255]);
        let diffs = a.diff_rows(&b);
        assert_eq!(diffs, vec![Rect::new(2, 3, 3, 2)]);
        assert!(a.diff_rows(&a).is_empty());
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::filled(4, 3, [10, 20, 30, 255]).unwrap();
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n4 3\n255\n"));
        assert_eq!(ppm.len(), 11 + 4 * 3 * 3);
        assert_eq!(&ppm[11..14], &[10, 20, 30]);
    }

    #[test]
    fn scale_to_preserves_solid_regions() {
        let mut img = Image::filled(40, 40, [10, 20, 30, 255]).unwrap();
        img.fill_rect(Rect::new(0, 0, 20, 40), [200, 0, 0, 255]);
        let small = img.scale_to(20, 20).unwrap();
        assert_eq!(
            small.pixel(4, 10),
            Some([200, 0, 0, 255]),
            "left half keeps its colour"
        );
        assert_eq!(
            small.pixel(15, 10),
            Some([10, 20, 30, 255]),
            "right half too"
        );
        // Identity scale is exact.
        assert_eq!(img.scale_to(40, 40).unwrap(), img);
        // Upscale keeps dimensions.
        let big = img.scale_to(80, 60).unwrap();
        assert_eq!((big.width(), big.height()), (80, 60));
        assert!(img.scale_to(0, 10).is_err());
    }

    #[test]
    fn mean_abs_error_zero_for_identical() {
        let a = Image::filled(3, 3, [10, 20, 30, 255]).unwrap();
        assert_eq!(a.mean_abs_error(&a), 0.0);
        let b = Image::filled(3, 3, [11, 20, 30, 255]).unwrap();
        assert!(a.mean_abs_error(&b) > 0.0);
    }

    /// An image whose every pixel says where it is.
    fn numbered(width: u32, height: u32) -> Image {
        let mut img = Image::new(width, height).unwrap();
        for y in 0..height {
            for x in 0..width {
                img.set_pixel(x, y, [x as u8, y as u8, (y >> 8) as u8, 255]);
            }
        }
        img
    }

    fn rows_copied() -> u64 {
        ROWS_COPIED.with(std::cell::Cell::get)
    }

    #[test]
    fn a_scroll_copies_only_the_rows_it_uncovers() {
        // `typing_udp`'s window: 640×480, a line of text is 14 rows.
        let mut scrolled = numbered(640, 480);
        let mut moved = scrolled.clone();
        for (src_top, dst_top) in [(14, 0), (0, 14), (14, 0)] {
            let band = Rect::new(0, src_top, 640, 466);
            let before = rows_copied();
            scrolled.scroll_rect(band, 0, dst_top);
            assert_eq!(rows_copied() - before, 14, "{src_top} → {dst_top}");
            let before = rows_copied();
            moved.move_rect(band, 0, dst_top);
            assert_eq!(rows_copied() - before, 466);
            assert_eq!(scrolled, moved);
        }
        assert_eq!(scrolled.clone().into_data(), moved.data());
    }

    #[test]
    fn other_moves_copy_pixels_and_leave_the_rows_in_order() {
        let page = numbered(16, 12);
        for (src, dst) in [
            (Rect::new(0, 4, 15, 8), (0, 0)),  // part width
            (Rect::new(0, 6, 16, 6), (0, 0)),  // k = h: source and destination touch
            (Rect::new(0, 0, 16, 4), (0, 8)),  // k > h
            (Rect::new(0, 0, 16, 12), (1, 0)), // horizontal
            (Rect::new(0, 3, 16, 5), (0, 3)),  // onto itself
            (Rect::new(0, 3, 16, 6), (0, 1)),  // a band above a status line
            (Rect::new(0, 2, 16, 10), (0, 1)), // a band below a title row
        ] {
            let (mut scrolled, mut moved) = (page.clone(), page.clone());
            scrolled.scroll_rect(src, dst.0, dst.1);
            moved.move_rect(src, dst.0, dst.1);
            assert_eq!(scrolled.row_offset, 0, "{src:?} → {dst:?}");
            assert_eq!(scrolled.data(), moved.data(), "{src:?} → {dst:?}");
        }
        // A block reaching past the image is clipped first: what is left is
        // the whole image scrolled by less than the block's height.
        let (mut scrolled, mut moved) = (page.clone(), page);
        scrolled.scroll_rect(Rect::new(0, 2, 99, 99), 0, 0);
        moved.move_rect(Rect::new(0, 2, 99, 99), 0, 0);
        assert_eq!(scrolled.row_offset, 2);
        assert_eq!(scrolled, moved);
    }

    #[test]
    fn a_scrolled_image_reads_and_copies_in_row_order() {
        let mut img = numbered(8, 10);
        img.scroll_rect(Rect::new(0, 3, 8, 7), 0, 0);
        let crop = img.crop(img.bounds()).unwrap();
        assert_eq!(crop.row_offset, 0, "a copy out of it is stored in order");
        assert_eq!(crop, img);
        assert_eq!(crop.data(), img.clone().into_data());
        assert_eq!(img.pixel(5, 0), Some([5, 3, 0, 255]));
        assert_eq!(img.pixel(5, 9), Some([5, 9, 0, 255]), "uncovered");
    }

    #[test]
    #[should_panic(expected = "read them with `Image::row`")]
    fn data_refuses_a_scrolled_image() {
        let mut img = numbered(4, 4);
        img.scroll_rect(Rect::new(0, 1, 4, 3), 0, 0);
        let _ = img.data();
    }

    /// One generated operation: `(kind, a, b, c, d)`.
    type Op = (u8, u32, u32, u32, u32);

    /// Apply `op` to `img`, moving blocks with `scroll_rect` or, for the
    /// twin, with `move_rect`; `patch` is the image's own scratch tile.
    fn apply(img: &mut Image, patch: &mut Image, (kind, a, b, c, d): Op, scroll: bool) {
        let (w, h) = (img.width(), img.height());
        let colour = [a as u8, b as u8, c as u8, d as u8];
        let mv = |img: &mut Image, src: Rect, dst: (u32, u32)| {
            if scroll {
                img.scroll_rect(src, dst.0, dst.1)
            } else {
                img.move_rect(src, dst.0, dst.1)
            }
        };
        match kind {
            // The whole image (kinds 0 and 1) or a whole-width band
            // [top, top + len) scrolled up or down by k (0 ≤ k < len): the
            // moved block is len − k rows, so k runs from well below the
            // block's height to far past it.
            0..=3 => {
                let top = if kind < 2 { 0 } else { a % h };
                let len = if kind < 2 { h } else { 1 + b % (h - top) };
                let k = c % len;
                if d % 2 == 0 {
                    mv(img, Rect::new(0, top + k, w, len - k), (0, top));
                } else {
                    mv(img, Rect::new(0, top, w, len - k), (0, top + k));
                }
            }
            // Any block, anywhere, partly outside or not.
            4 => mv(
                img,
                Rect::new(a % (w + 2), b % (h + 2), 1 + c % (w + 1), 1 + d % (h + 1)),
                ((c / 7) % (w + 1), (d / 7) % (h + 1)),
            ),
            5 => img.set_pixel(a % (w + 1), b % (h + 1), colour),
            6 => img.fill_rect(Rect::new(a % w, b % h, 1 + c % w, 1 + d % h), colour),
            7 => img.blit_from(
                patch,
                Rect::new(c % 4, d % 4, 5, 5),
                a % (w + 2),
                b % (h + 2),
            ),
            8 => {
                let _ = img.swap_rect(patch, a % w, b % h);
            }
            // The image as the source of a blit.
            _ => patch.blit_from(img, Rect::new(a % w, b % h, 6, 6), c % 3, d % 3),
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// After every operation a scrolled image and its `move_rect`-only
        /// twin read the same through every reader.
        #[test]
        fn a_scrolled_image_reads_like_its_moved_twin(
            width in 1u32..12,
            height in 1u32..40,
            ops in proptest::collection::vec((0u8..10, 0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000), 1..60),
        ) {
            let mut scrolled = numbered(width, height);
            let mut twin = scrolled.clone();
            let mut patches = (numbered(5, 5), numbered(5, 5));
            let reference = Image::filled(width, height, [7, 200, 30, 255]).unwrap();
            for (n, &op) in ops.iter().enumerate() {
                apply(&mut scrolled, &mut patches.0, op, true);
                apply(&mut twin, &mut patches.1, op, false);
                prop_assert_eq!(twin.row_offset, 0);
                prop_assert!(scrolled == twin, "op {} {:?}", n, op);
                for y in 0..height {
                    prop_assert_eq!(scrolled.row(y), twin.row(y), "row {} after op {}", y, n);
                }
                prop_assert_eq!(&patches.0, &patches.1, "patch after op {}", n);
                prop_assert_eq!(patches.0.data(), patches.1.data());
                let (_, a, b, c, d) = op;
                let rect = Rect::new(a % width, b % height, 1 + c % width, 1 + d % height);
                let crop = twin.crop(rect).unwrap();
                prop_assert_eq!(scrolled.crop(rect).unwrap().into_data(), crop.data());
                prop_assert!(scrolled.region_equals(&crop, rect.left, rect.top));
                prop_assert_eq!(
                    scrolled.region_equals(&patches.0, a % width, b % height),
                    twin.region_equals(&patches.1, a % width, b % height)
                );
                prop_assert_eq!(scrolled.mean_abs_error(&twin), 0.0);
                prop_assert_eq!(scrolled.mean_abs_error(&reference), twin.mean_abs_error(&reference));
                prop_assert_eq!(scrolled.to_ppm(), twin.to_ppm());
                prop_assert_eq!(scrolled.clone().into_data(), twin.data().to_vec());
            }
        }
    }
}
