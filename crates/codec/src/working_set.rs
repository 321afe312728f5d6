//! One codec working set per thread (DESIGN §14.2 "Working memory").
//!
//! Every PNG, DCT and DEFLATE call needs scratch memory in proportion to
//! its image: the LZ77 tables and tokens, PNG's filtered scanlines or the
//! DCT coefficient body on their way into DEFLATE, a decoder's inflated
//! stream, and the buffer a payload is assembled in. A thread keeps these
//! between calls in one [`WorkingSet`], so a warm call allocates only what
//! it returns.
//!
//! A call *takes* the set out of its thread-local slot and puts it back
//! when done; nothing is borrowed across the call, so a call that re-enters
//! (or one that unwinds) finds the slot empty and works in fresh buffers.
//! A set that has grown past [`KEEP_LIMIT_BYTES`] is freed instead of put
//! back: a full-frame encode or a hostile decode bound cannot pin its
//! memory on the thread, and the next tile-sized call starts a set of its
//! own size rather than sharing the ceiling with a frame's leftovers.
//!
//! Nothing a buffer held before reaches an output: each call sizes and
//! clears what it reads, or reads only what it wrote itself (see
//! [`Lz77Scratch`] and `deflate::inflate::inflate_into`), so every output
//! byte is what fresh buffers give.

use std::cell::Cell;

use crate::deflate::compress::Lz77Scratch;

/// The most a thread keeps between calls, summed over its buffers. The
/// PNG and DCT round trips of an opaque 128×128 tile of noise, the worst
/// case of a tile, keep 0.93 MiB.
pub(crate) const KEEP_LIMIT_BYTES: usize = 1 << 20;

/// Scratch rows of the PNG filter and unfilter passes, one scanline each.
#[derive(Debug, Default)]
pub(crate) struct PngRows {
    /// The row being filtered or unfiltered, in the PNG's layout (RGB only:
    /// RGBA rows are the image's own).
    pub(crate) cur: Vec<u8>,
    /// The row above `cur` (zeros above the first).
    pub(crate) prev: Vec<u8>,
    /// The filter being scored.
    pub(crate) candidate: Vec<u8>,
    /// The best-scoring filter so far.
    pub(crate) best: Vec<u8>,
}

/// Everything a codec call works in besides its input and its output.
#[derive(Debug, Default)]
pub(crate) struct WorkingSet {
    pub(crate) lz: Lz77Scratch,
    pub(crate) rows: PngRows,
    /// The uncompressed side of DEFLATE: an encoder's filtered scanlines
    /// (PNG) or coefficient body (DCT), a decoder's inflated stream. No
    /// call needs two of them.
    pub(crate) plain: Vec<u8>,
    /// Where a payload is written before it is copied out at its size.
    pub(crate) out: Vec<u8>,
}

/// Bytes `v` holds on to.
fn capacity_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl WorkingSet {
    fn kept_bytes(&self) -> usize {
        let (lz, rows) = (&self.lz, &self.rows);
        let bytes = [
            &rows.cur,
            &rows.prev,
            &rows.candidate,
            &rows.best,
            &self.plain,
            &self.out,
        ];
        capacity_bytes(&lz.head3)
            + capacity_bytes(&lz.head)
            + capacity_bytes(&lz.prev)
            + capacity_bytes(&lz.tokens)
            + bytes.map(capacity_bytes).iter().sum::<usize>()
    }
}

thread_local! {
    static KEPT: Cell<WorkingSet> = Cell::new(WorkingSet::default());
}

/// Run `f` in this thread's working set, then put the set back, or free
/// it if it has grown past [`KEEP_LIMIT_BYTES`].
pub(crate) fn with<R>(f: impl FnOnce(&mut WorkingSet) -> R) -> R {
    // `try_with`: a thread being torn down has no slot left, and works in
    // fresh buffers.
    let mut ws = KEPT.try_with(Cell::take).unwrap_or_default();
    let result = f(&mut ws);
    if ws.kept_bytes() <= KEEP_LIMIT_BYTES {
        let _ = KEPT.try_with(|slot| slot.set(ws));
    }
    result
}

/// Run `write` over this thread's assembly buffer (emptied first) and
/// return what it wrote as one allocation of exactly that size.
pub(crate) fn assemble(write: impl FnOnce(&mut WorkingSet, &mut Vec<u8>)) -> Vec<u8> {
    with(|ws| {
        let mut out = std::mem::take(&mut ws.out);
        out.clear();
        write(ws, &mut out);
        let payload = out.to_vec();
        ws.out = out;
        payload
    })
}

/// Bytes this thread's working set keeps between calls.
#[cfg(test)]
pub(crate) fn kept_bytes() -> usize {
    KEPT.with(|slot| {
        let ws = slot.take();
        let bytes = ws.kept_bytes();
        slot.set(ws);
        bytes
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::compress::tests::lz77_reference;
    use crate::deflate::compress::{lz77, Token};
    use crate::deflate::{deflate, inflate, Level};
    use crate::png::{self, PngColor, PngOptions};
    use crate::{dct, zlib, Image};
    use proptest::prelude::*;

    /// `len` bytes of runs, repeats and noise drawn from `seed`, so the
    /// matcher finds matches of every length and the chains fill up.
    fn content(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let run = 1 + next() % 40;
            match next() % 3 {
                0 => out.extend(std::iter::repeat_n(next() as u8, run)),
                1 if out.len() > run => {
                    let from = next() % (out.len() - run);
                    out.extend_from_within(from..from + run);
                }
                _ => out.extend((0..run).map(|_| next() as u8)),
            }
        }
        out.truncate(len);
        out
    }

    fn image(seed: u64, w: u32, h: u32, opaque: bool) -> Image {
        let mut data = content(seed, (w * h * 4) as usize);
        if opaque {
            data.iter_mut().skip(3).step_by(4).for_each(|a| *a = 255);
        }
        Image::from_rgba(w, h, data).unwrap()
    }

    /// One codec call of the interleaved sequence and everything it
    /// returned, byte for byte.
    #[derive(Debug, Clone, Copy)]
    struct Call {
        kind: u8,
        seed: u64,
        large: bool,
    }

    const KINDS: u8 = 9;

    impl Call {
        fn level(self) -> Level {
            [Level::Fast, Level::Default, Level::Best][(self.seed % 3) as usize]
        }

        /// Side of the call's image, or a twentieth of its byte length.
        fn side(self) -> u32 {
            if self.large {
                40 + (self.seed % 50) as u32
            } else {
                1 + (self.seed % 9) as u32
            }
        }

        fn run(self) -> Vec<Result<Vec<u8>, crate::Error>> {
            let side = self.side();
            let bytes = content(self.seed, side as usize * 20 * side as usize / 4);
            let png_opts = |color| PngOptions {
                color,
                level: self.level(),
            };
            let pixels = |img: crate::Result<Image>| img.map(|img| img.data().to_vec());
            match self.kind {
                0..=2 => {
                    let level = [Level::Fast, Level::Default, Level::Best][self.kind as usize];
                    let stream = deflate(&bytes, level);
                    vec![Ok(stream.clone()), inflate(&stream, 1 << 24)]
                }
                3 => {
                    let stream = zlib::compress(&bytes, self.level());
                    vec![Ok(stream.clone()), zlib::decompress(&stream, 1 << 24)]
                }
                4 | 5 => {
                    let color = [PngColor::Rgb, PngColor::Rgba][self.kind as usize - 4];
                    let img = image(self.seed, side, side + 3, color == PngColor::Rgb);
                    let file = png::encode(&img, png_opts(color));
                    vec![Ok(file.clone()), pixels(png::decode(&file))]
                }
                6 => {
                    let img = image(self.seed, side + 5, side, true);
                    let payload = dct::encode(&img, 20 + (self.seed % 80) as u8);
                    vec![Ok(payload.clone()), pixels(dct::decode(&payload))]
                }
                // A decode that fails (or finds garbage) halfway, then the
                // same payload intact.
                7 => {
                    let img = image(self.seed, side, side, true);
                    let file = png::encode(&img, png_opts(PngColor::Rgb));
                    let mut bad = file.clone();
                    bad.truncate(file.len() / 2 + 8);
                    let cut = pixels(png::decode(&bad));
                    vec![cut, pixels(png::decode(&file))]
                }
                _ => {
                    let img = image(self.seed, side + 8, side + 8, true);
                    let payload = dct::encode(&img, 75);
                    let mut bad = payload.clone();
                    let at = 13 + (self.seed as usize) % (payload.len() - 13);
                    bad[at] ^= 0x5a;
                    let corrupt = pixels(dct::decode(&bad));
                    let cut = pixels(dct::decode(&bad[..13 + (at - 13) / 2]));
                    vec![corrupt, cut, pixels(dct::decode(&payload))]
                }
            }
        }
    }

    /// The same call on a thread whose working set is empty.
    fn on_fresh_thread(call: Call) -> Vec<Result<Vec<u8>, crate::Error>> {
        std::thread::spawn(move || call.run()).join().unwrap()
    }

    /// The matcher's tokens from this thread's own (reused) tables.
    fn tokens_in_working_set(data: &[u8], level: Level) -> Vec<Token> {
        with(|ws| {
            lz77(&mut ws.lz, data, level);
            ws.lz.tokens.clone()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Reuse leaks nothing: every call of an interleaved sequence on one
        // thread returns what it returns on a thread of its own, and the
        // tokens the reused tables give are the reference matcher's. Calls
        // alternate between large and small inputs, so a stale head or
        // chain entry of a larger call would be in reach of a smaller one.
        #[test]
        fn reused_working_set_changes_no_output(
            calls in proptest::collection::vec((0u8..KINDS, any::<u64>()), 4..14),
        ) {
            for (i, &(kind, seed)) in calls.iter().enumerate() {
                let call = Call { kind, seed, large: i % 2 == 0 };
                prop_assert_eq!(call.run(), on_fresh_thread(call), "call {} {:?}", i, call);
                let bytes = content(seed, call.side() as usize * 20);
                let level = call.level();
                prop_assert_eq!(
                    tokens_in_working_set(&bytes, level),
                    lz77_reference(&bytes, level),
                    "tokens after call {}", i
                );
            }
        }
    }

    /// An opaque 128×128 tile's PNG and DCT round trips stay inside the
    /// ceiling, so a thread serving tiles keeps its set from call to call:
    /// the second round trip allocates only its outputs.
    #[test]
    fn a_tile_working_set_is_kept() {
        let tile = image(11, 128, 128, true);
        let round_trips = || {
            let file = png::encode(&tile, PngOptions::default());
            let payload = dct::encode(&tile, 75);
            (png::decode(&file).unwrap(), dct::decode(&payload).unwrap())
        };
        round_trips();
        let kept = kept_bytes();
        assert!(
            kept > KEEP_LIMIT_BYTES / 2 && kept <= KEEP_LIMIT_BYTES,
            "{kept} B kept"
        );
        round_trips();
        assert_eq!(kept_bytes(), kept, "a warm round trip grows nothing");
    }

    /// Large calls leave at most the ceiling behind: a 4 MiB DEFLATE, a
    /// 1024×1024 PNG, and a DCT payload claiming the largest image there is
    /// whose body inflates to 4 MiB of zeros (and fails on its first block).
    #[test]
    fn large_calls_keep_at_most_the_ceiling() {
        let bytes = content(3, 4 << 20);
        let stream = deflate(&bytes, Level::Default);
        assert!(kept_bytes() <= KEEP_LIMIT_BYTES, "{} B kept", kept_bytes());
        assert_eq!(inflate(&stream, 8 << 20).unwrap(), bytes);
        assert!(kept_bytes() <= KEEP_LIMIT_BYTES, "{} B kept", kept_bytes());

        let frame = image(5, 1024, 1024, true);
        let file = png::encode(&frame, PngOptions::default());
        assert!(kept_bytes() <= KEEP_LIMIT_BYTES, "{} B kept", kept_bytes());
        assert_eq!(png::decode(&file).unwrap(), frame);
        assert!(kept_bytes() <= KEEP_LIMIT_BYTES, "{} B kept", kept_bytes());

        let mut hostile = b"ADCT".to_vec();
        hostile.extend_from_slice(&8192u32.to_be_bytes());
        hostile.extend_from_slice(&8192u32.to_be_bytes());
        hostile.push(75);
        hostile.extend_from_slice(&deflate(&vec![0; 4 << 20], Level::Fast));
        assert!(dct::decode(&hostile).is_err());
        assert!(kept_bytes() <= KEEP_LIMIT_BYTES, "{} B kept", kept_bytes());
    }
}
