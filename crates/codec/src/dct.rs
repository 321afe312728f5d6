//! A block-DCT lossy codec standing in for JPEG (draft §4.2: "JPEG is lossy,
//! but more suitable for photographic images").
//!
//! Architecture mirrors JPEG: RGB → YCbCr colour transform, 8×8 forward DCT,
//! quality-scaled quantisation with separate luma/chroma tables, zigzag
//! ordering, then a compact entropy stage (run-length of zeros + signed
//! varints, finished with DEFLATE at [`Level::Fast`], the long-match
//! policy: in a stream of zero runs and small varints a match shorter than
//! 8 bytes costs more bits than the literals it replaces, so only longer
//! ones are kept). It reproduces JPEG's rate/distortion behaviour on
//! photographic vs synthetic content without importing a full JPEG
//! entropy coder.
//!
//! The transform is the integer Loeffler–Ligtenberg–Moshovitz factorisation
//! (`jfdctint`/`jidctint`): 12 multiplies per 1-D transform in 13-bit fixed
//! point. One production kernel runs it, [`fdct`] / [`idct`], in 32-bit
//! wrapping arithmetic — what libjpeg does for 8-bit samples — with
//! `jidctint`'s sparse shortcuts on the inverse side (DC-only block, column
//! or row whose AC terms are all zero). 32 bits are enough for every block a
//! real encoder produces; [`idct`] checks a proved bound on Σ|coefficient|
//! and sends the rest (hostile streams, pathological checkerboards at very
//! low quality) through [`idct_reference`], the same butterfly in `i64`.
//! Around the kernel, the quantiser multiplies by an exact per-table
//! reciprocal instead of dividing, and the decoder dequantises coefficients
//! as it reads them so the zeros are never touched.
//!
//! Two oracles are retained, each for a named job:
//!
//! * the scalar `i64` transform — [`idct_reference`] is the out-of-range
//!   fallback of [`idct`] *and* the equality oracle of
//!   `idct_equals_i64_oracle*` / `sparse_shortcuts_equal_full_butterfly`;
//!   its forward twin lives in the test module as the oracle of
//!   `fdct_equals_i64_oracle`;
//! * the seed's separable f32 transform (test module, `naive`) — the
//!   accuracy oracle of `fixed_point_matches_naive_f32_closely` (quantised
//!   outputs within ±1).

use std::num::Wrapping;

use crate::deflate::compress::deflate_into;
use crate::deflate::inflate::inflate_into;
use crate::deflate::Level;
use crate::image::{check_dims, Image, BYTES_PER_PIXEL};
use crate::{working_set, Error, Result};

/// Magic bytes identifying this codec's container.
const MAGIC: [u8; 4] = *b"ADCT";

/// Standard JPEG luminance quantisation table (Annex K), in zigzag order
/// applied here in natural row-major order for simplicity.
const LUMA_Q: [i32; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Standard JPEG chrominance quantisation table (Annex K).
const CHROMA_Q: [i32; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Zigzag scan order for an 8×8 block.
const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// Scale a base quantisation table by quality 1..=100 (JPEG's convention).
fn scaled_table(base: &[i32; 64], quality: u8) -> [i32; 64] {
    let q = quality.clamp(1, 100) as i32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0i32; 64];
    for i in 0..64 {
        out[i] = ((base[i] * scale + 50) / 100).clamp(1, 255);
    }
    out
}

// ---------------------------------------------------------------------------
// Fixed-point Loeffler DCT (the jfdctint/jidctint factorisation).
// ---------------------------------------------------------------------------

/// Fixed-point fractional bits for the trig constants.
const CONST_BITS: u32 = 13;
/// Extra scale carried between the two 1-D passes for precision.
const PASS1_BITS: u32 = 2;

const FIX_0_298631336: i64 = 2446;
const FIX_0_390180644: i64 = 3196;
const FIX_0_541196100: i64 = 4433;
const FIX_0_765366865: i64 = 6270;
const FIX_0_899976223: i64 = 7373;
const FIX_1_175875602: i64 = 9633;
const FIX_1_501321110: i64 = 12299;
const FIX_1_847759065: i64 = 15137;
const FIX_1_961570560: i64 = 16069;
const FIX_2_053119869: i64 = 16819;
const FIX_2_562915447: i64 = 20995;
const FIX_3_072711026: i64 = 25172;

// --- The production kernel: 32-bit wrapping arithmetic. --------------------
//
// Wrapping addition, subtraction, multiplication and left shift are exact
// modulo 2^32, so an intermediate may wrap freely; only a value that is
// shifted *right* (every `descale`) must be the true integer, i.e. fit in
// 32 bits. Each such value is a linear form of the eight inputs of its 1-D
// pass, so it is bounded by (largest weight) × Σ|input| or by
// (Σ|weight|) × max|input|, whichever is known. Running the butterflies on
// unit vectors gives the weights of the integer constants above:
//
// * inverse: every coefficient reaches every output with weight at most
//   11 363 (= ⌈√2·cos(π/16)·2^13⌉ < 2^13.5);
// * forward: the weights into one output sum to at most 65 536 = 2^16.

/// One 32-bit lane of the production kernel.
type W = Wrapping<i32>;

/// Multiply a lane by one of the 13-bit trig constants.
#[inline(always)]
fn mul(a: W, c: i64) -> W {
    a * Wrapping(c as i32)
}

/// Round-to-nearest right shift of a lane that is known to fit.
#[inline(always)]
fn descale32(x: W, n: u32) -> W {
    (x + Wrapping(1 << (n - 1))) >> n as usize
}

/// One forward 1-D butterfly: 8 centred samples in, 8 coefficients out,
/// scaled up by `2^PASS1_BITS` after pass 1 and descaled back down in
/// pass 2 (`pass2 = true`). Output of the full 2-D transform is the true
/// DCT-II multiplied by 8.
#[inline(always)]
fn fdct_1d(s: [W; 8], pass2: bool) -> [W; 8] {
    let tmp0 = s[0] + s[7];
    let tmp7 = s[0] - s[7];
    let tmp1 = s[1] + s[6];
    let tmp6 = s[1] - s[6];
    let tmp2 = s[2] + s[5];
    let tmp5 = s[2] - s[5];
    let tmp3 = s[3] + s[4];
    let tmp4 = s[3] - s[4];

    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    let (shift, o0, o4) = if pass2 {
        (
            CONST_BITS + PASS1_BITS,
            descale32(tmp10 + tmp11, PASS1_BITS),
            descale32(tmp10 - tmp11, PASS1_BITS),
        )
    } else {
        (
            CONST_BITS - PASS1_BITS,
            (tmp10 + tmp11) << PASS1_BITS as usize,
            (tmp10 - tmp11) << PASS1_BITS as usize,
        )
    };

    let z1 = mul(tmp12 + tmp13, FIX_0_541196100);
    let o2 = descale32(z1 + mul(tmp13, FIX_0_765366865), shift);
    let o6 = descale32(z1 - mul(tmp12, FIX_1_847759065), shift);

    let z1 = tmp4 + tmp7;
    let z2 = tmp5 + tmp6;
    let z3 = tmp4 + tmp6;
    let z4 = tmp5 + tmp7;
    let z5 = mul(z3 + z4, FIX_1_175875602);

    let t4 = mul(tmp4, FIX_0_298631336);
    let t5 = mul(tmp5, FIX_2_053119869);
    let t6 = mul(tmp6, FIX_3_072711026);
    let t7 = mul(tmp7, FIX_1_501321110);
    let z1 = mul(z1, -FIX_0_899976223);
    let z2 = mul(z2, -FIX_2_562915447);
    let z3 = mul(z3, -FIX_1_961570560) + z5;
    let z4 = mul(z4, -FIX_0_390180644) + z5;

    let o7 = descale32(t4 + z1 + z3, shift);
    let o5 = descale32(t5 + z2 + z4, shift);
    let o3 = descale32(t6 + z2 + z3, shift);
    let o1 = descale32(t7 + z1 + z4, shift);
    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// One inverse 1-D butterfly; `pass2` selects the final descale that also
/// divides out the forward transform's ×8.
#[inline(always)]
fn idct_1d(c: [W; 8], pass2: bool) -> [W; 8] {
    let shift = if pass2 {
        CONST_BITS + PASS1_BITS + 3
    } else {
        CONST_BITS - PASS1_BITS
    };

    let z1 = mul(c[2] + c[6], FIX_0_541196100);
    let tmp2 = z1 - mul(c[6], FIX_1_847759065);
    let tmp3 = z1 + mul(c[2], FIX_0_765366865);

    let tmp0 = (c[0] + c[4]) << CONST_BITS as usize;
    let tmp1 = (c[0] - c[4]) << CONST_BITS as usize;

    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    let z1 = c[7] + c[1];
    let z2 = c[5] + c[3];
    let z3 = c[7] + c[3];
    let z4 = c[5] + c[1];
    let z5 = mul(z3 + z4, FIX_1_175875602);

    let t0 = mul(c[7], FIX_0_298631336);
    let t1 = mul(c[5], FIX_2_053119869);
    let t2 = mul(c[3], FIX_3_072711026);
    let t3 = mul(c[1], FIX_1_501321110);
    let z1 = mul(z1, -FIX_0_899976223);
    let z2 = mul(z2, -FIX_2_562915447);
    let z3 = mul(z3, -FIX_1_961570560) + z5;
    let z4 = mul(z4, -FIX_0_390180644) + z5;

    let t0 = t0 + z1 + z3;
    let t1 = t1 + z2 + z4;
    let t2 = t2 + z2 + z3;
    let t3 = t3 + z1 + z4;

    [
        descale32(tmp10 + t3, shift),
        descale32(tmp11 + t2, shift),
        descale32(tmp12 + t1, shift),
        descale32(tmp13 + t0, shift),
        descale32(tmp13 - t0, shift),
        descale32(tmp12 - t1, shift),
        descale32(tmp11 - t2, shift),
        descale32(tmp10 - t3, shift),
    ]
}

/// Forward DCT of one block of centred samples, in place: rows (pass 1)
/// then columns (pass 2). Output is the true DCT-II multiplied by 8.
///
/// Exact for `|sample| <= 256` (the colour transform emits −128..=128):
/// pass 1 shifts values of at most `2^16 · 256 = 2^24` and emits at most
/// `32 · 256 + 1`; pass 2 therefore shifts at most
/// `2^16 · (2^13 + 1) + 2^14 < 2^30`. Beyond that range the arithmetic
/// wraps (it never panics) and the output is meaningless.
pub fn fdct(block: &mut [i32; 64]) {
    for row in block.chunks_exact_mut(8) {
        let out = fdct_1d(std::array::from_fn(|x| Wrapping(row[x])), false);
        for (dst, v) in row.iter_mut().zip(out) {
            *dst = v.0;
        }
    }
    for x in 0..8 {
        let out = fdct_1d(std::array::from_fn(|y| Wrapping(block[y * 8 + x])), true);
        for (y, v) in out.into_iter().enumerate() {
            block[y * 8 + x] = v.0;
        }
    }
}

/// Largest Σ|coefficient| of a block the 32-bit inverse is used for.
///
/// With `S` that sum: a pass-1 column shifts at most `11 363 · S_col` and
/// emits at most `11 363 · S_col / 2^11 + 1`, so one pass-2 row's inputs sum
/// to at most `5.55 · S + 8` and pass 2 shifts at most
/// `11 363 · (5.55 · S + 8) + 2^17 < 63 047 · S + 2^18`. That fits 32 bits
/// up to `S ≈ 34 000`; the guard is `S < 2^14`, for which every shifted value
/// is below `2^30` — a factor of two in hand. The exact DCT of 8-bit samples
/// has `S <= 8 · ‖c‖₂ <= 8 192` (orthonormal transform, 64 terms) and
/// rounding to a table adds at most `Σ q/2 <= 32 · 255 = 8 160`, so what an
/// encoder of real pixels emits stays inside the guard at every quality.
const IDCT32_SUM_LIMIT: u64 = 1 << 14;

/// Inverse DCT of one block of dequantised coefficients, in place.
///
/// Dispatches on Σ|coefficient|: below `2^14` (`IDCT32_SUM_LIMIT`, where
/// the range proof lives) the 32-bit kernel with its sparse shortcuts,
/// otherwise [`idct_reference`]. Both produce the same integers.
pub fn idct(block: &mut [i32; 64]) {
    let ac_sum = block[1..].iter().map(|c| c.unsigned_abs() as u64).sum();
    idct_with_ac_sum(block, ac_sum);
}

/// [`idct`] for a caller that already knows `ac_sum` = Σ|AC coefficient|
/// (the decoder adds it up while dequantising).
#[inline]
fn idct_with_ac_sum(block: &mut [i32; 64], ac_sum: u64) {
    if ac_sum + block[0].unsigned_abs() as u64 >= IDCT32_SUM_LIMIT {
        idct_reference(block);
    } else if ac_sum == 0 {
        // DC only: pass 1 gives `dc << PASS1_BITS` down column 0, pass 2
        // `((dc << 2) + 16) >> 5` along every row.
        let flat = (block[0] + 4) >> 3;
        block.fill(flat);
    } else {
        idct32(block);
    }
}

/// The 32-bit inverse: columns (pass 1) then rows (pass 2), skipping the
/// butterfly where it degenerates. Exact below [`IDCT32_SUM_LIMIT`].
fn idct32(block: &mut [i32; 64]) {
    // With every AC term of a column zero the butterfly reduces to
    // `descale(c0 << CONST_BITS, CONST_BITS - PASS1_BITS)`.
    for x in 0..8 {
        let col: [W; 8] = std::array::from_fn(|y| Wrapping(block[y * 8 + x]));
        let out = if col[1..].iter().all(|c| c.0 == 0) {
            [col[0] << PASS1_BITS as usize; 8]
        } else {
            idct_1d(col, false)
        };
        for (y, v) in out.into_iter().enumerate() {
            block[y * 8 + x] = v.0;
        }
    }
    // The same reduction with the final shift:
    // `descale(c0 << CONST_BITS, CONST_BITS + PASS1_BITS + 3)`.
    for row in block.chunks_exact_mut(8) {
        if row[1..].iter().all(|&c| c == 0) {
            let flat = (row[0] + 16) >> 5;
            row.fill(flat);
        } else {
            let out = idct_1d(std::array::from_fn(|x| Wrapping(row[x])), true);
            for (dst, v) in row.iter_mut().zip(out) {
                *dst = v.0;
            }
        }
    }
}

// --- The same inverse butterfly in i64: fallback and oracle. ---------------

/// Round-to-nearest right shift (the `DESCALE` of libjpeg).
#[inline(always)]
fn descale(x: i64, n: u32) -> i32 {
    ((x + (1i64 << (n - 1))) >> n) as i32
}

/// One scalar inverse 1-D butterfly; `pass2` selects the final descale that
/// also divides out the forward transform's ×8.
#[inline(always)]
fn idct_1d_scalar(c: [i64; 8], pass2: bool) -> [i32; 8] {
    let shift = if pass2 {
        CONST_BITS + PASS1_BITS + 3
    } else {
        CONST_BITS - PASS1_BITS
    };

    let z2 = c[2];
    let z3 = c[6];
    let z1 = (z2 + z3) * FIX_0_541196100;
    let tmp2 = z1 - z3 * FIX_1_847759065;
    let tmp3 = z1 + z2 * FIX_0_765366865;

    let tmp0 = (c[0] + c[4]) << CONST_BITS;
    let tmp1 = (c[0] - c[4]) << CONST_BITS;

    let tmp10 = tmp0 + tmp3;
    let tmp13 = tmp0 - tmp3;
    let tmp11 = tmp1 + tmp2;
    let tmp12 = tmp1 - tmp2;

    let t0 = c[7];
    let t1 = c[5];
    let t2 = c[3];
    let t3 = c[1];
    let z1 = t0 + t3;
    let z2 = t1 + t2;
    let z3 = t0 + t2;
    let z4 = t1 + t3;
    let z5 = (z3 + z4) * FIX_1_175875602;

    let t0 = t0 * FIX_0_298631336;
    let t1 = t1 * FIX_2_053119869;
    let t2 = t2 * FIX_3_072711026;
    let t3 = t3 * FIX_1_501321110;
    let z1 = -z1 * FIX_0_899976223;
    let z2 = -z2 * FIX_2_562915447;
    let z3 = -z3 * FIX_1_961570560 + z5;
    let z4 = -z4 * FIX_0_390180644 + z5;

    let t0 = t0 + z1 + z3;
    let t1 = t1 + z2 + z4;
    let t2 = t2 + z2 + z3;
    let t3 = t3 + z1 + z4;

    [
        descale(tmp10 + t3, shift),
        descale(tmp11 + t2, shift),
        descale(tmp12 + t1, shift),
        descale(tmp13 + t0, shift),
        descale(tmp13 - t0, shift),
        descale(tmp12 - t1, shift),
        descale(tmp11 - t2, shift),
        descale(tmp10 - t3, shift),
    ]
}

/// Scalar reference inverse DCT: columns (pass 1) then rows (pass 2).
pub fn idct_reference(block: &mut [i32; 64]) {
    for x in 0..8 {
        let col = std::array::from_fn(|y| block[y * 8 + x] as i64);
        let out = idct_1d_scalar(col, false);
        for y in 0..8 {
            block[y * 8 + x] = out[y];
        }
    }
    for y in 0..8 {
        let row = std::array::from_fn(|x| block[y * 8 + x] as i64);
        let out = idct_1d_scalar(row, true);
        block[y * 8..y * 8 + 8].copy_from_slice(&out);
    }
}

// ---------------------------------------------------------------------------
// Quantisation.
// ---------------------------------------------------------------------------

/// Quantiser for one scaled table. The kernel outputs the true DCT scaled
/// by 8, so coefficient `i` is divided by `d = 8 · q[i]`, rounding half away
/// from zero: `sign(c) · ⌊(|c| + d/2) / d⌋`.
///
/// The division is a multiplication by `m = ⌊2^32 / d⌋ + 1`. Write
/// `m · d = 2^32 + e` with `1 <= e <= d`; then `n · m / 2^32 = n/d +
/// n · e / (d · 2^32)`, whose floor is `⌊n/d⌋` as long as the second term is
/// below `1/d`, i.e. `n · e < 2^32`. Tables are clamped to `q <= 255`, so
/// `e <= d <= 2 040` and the product is exact for every `n < 2^21`; the
/// forward kernel emits `|c| <= 64 · 128 + 3`, so `n = |c| + d/2 < 2^14`.
struct Quantiser {
    half: [u32; 64],
    recip: [u32; 64],
}

impl Quantiser {
    fn new(table: &[i32; 64]) -> Self {
        let divisor = |i: usize| table[i] as u32 * 8;
        Quantiser {
            half: std::array::from_fn(|i| divisor(i) / 2),
            recip: std::array::from_fn(|i| ((1u64 << 32) / divisor(i) as u64) as u32 + 1),
        }
    }

    /// Quantise coefficient `i` of a block.
    #[inline(always)]
    fn apply(&self, c: i32, i: usize) -> i32 {
        let n = c.unsigned_abs() + self.half[i];
        let q = ((n as u64 * self.recip[i] as u64) >> 32) as i32;
        // Branch-free sign restore, so the 64-coefficient loop vectorises.
        let sign = c >> 31;
        (q ^ sign) - sign
    }
}

// ---------------------------------------------------------------------------
// Integer colour transforms (16-bit fixed point).
// ---------------------------------------------------------------------------

/// RGB → centred YCbCr in 16-bit fixed point. Returns samples in
/// −128..=128 (pure blue reaches `cb = 128`).
#[inline(always)]
fn rgb_to_ycbcr_centred(r: u8, g: u8, b: u8) -> (i32, i32, i32) {
    let (r, g, b) = (r as i32, g as i32, b as i32);
    let y = (19595 * r + 38470 * g + 7471 * b + 32768) >> 16;
    let cb = (-11056 * r - 21712 * g + 32768 * b + 32768) >> 16;
    let cr = (32768 * r - 27440 * g - 5328 * b + 32768) >> 16;
    (y - 128, cb, cr)
}

/// Centred YCbCr → RGB, clamped to u8. Inputs are clamped to ±2048 first:
/// valid streams stay within ±~384 (IDCT ringing), but hostile coefficient
/// streams can push IDCT output far enough to overflow the 16-bit
/// fixed-point products below.
#[inline(always)]
fn ycbcr_centred_to_rgb(y: i32, cb: i32, cr: i32) -> (u8, u8, u8) {
    let y = y.clamp(-2048, 2047) + 128;
    let cb = cb.clamp(-2048, 2047);
    let cr = cr.clamp(-2048, 2047);
    let r = y + ((91881 * cr + 32768) >> 16);
    let g = y - ((22554 * cb + 46802 * cr + 32768) >> 16);
    let b = y + ((116130 * cb + 32768) >> 16);
    (
        r.clamp(0, 255) as u8,
        g.clamp(0, 255) as u8,
        b.clamp(0, 255) as u8,
    )
}

/// Signed zigzag varint (protobuf-style).
fn write_svarint(out: &mut Vec<u8>, v: i32) {
    let mut u = ((v << 1) ^ (v >> 31)) as u32;
    loop {
        if u < 0x80 {
            out.push(u as u8);
            return;
        }
        out.push((u & 0x7f) as u8 | 0x80);
        u >>= 7;
    }
}

fn read_svarint(data: &[u8], off: &mut usize) -> Result<i32> {
    let mut u: u32 = 0;
    let mut shift = 0;
    loop {
        if *off >= data.len() {
            return Err(Error::Truncated("DCT varint"));
        }
        let b = data[*off];
        *off += 1;
        u |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 31 {
            return Err(Error::Invalid {
                what: "DCT varint",
                detail: "too long",
            });
        }
    }
    Ok(((u >> 1) as i32) ^ -((u & 1) as i32))
}

/// Encode one quantised block: DC delta then (run, value) pairs, 0xFF = EOB
/// marker encoded as run-255.
fn encode_block(out: &mut Vec<u8>, coeffs: &[i32; 64], prev_dc: &mut i32) {
    write_svarint(out, coeffs[0] - *prev_dc);
    *prev_dc = coeffs[0];
    // Bit `i` set: zigzag position `i` is non-zero. Collected branch-free,
    // then walked set bit by set bit, so the zeros between (and after) the
    // few coded coefficients cost no mispredicted branch.
    let mut coded = 0u64;
    for i in 1..64 {
        coded |= u64::from(coeffs[ZIGZAG[i]] != 0) << i;
    }
    let mut prev = 0;
    while coded != 0 {
        let i = coded.trailing_zeros() as usize;
        out.push((i - prev - 1) as u8);
        write_svarint(out, coeffs[ZIGZAG[i]]);
        prev = i;
        coded &= coded - 1;
    }
    out.push(0xff); // end of block
}

/// Bound on dequantised coefficients: real streams stay well inside
/// `|DCT| <= 8 * 128 = 1024`; hostile streams can carry arbitrary varints,
/// so clamp the product to keep the fixed-point IDCT's intermediates in
/// range.
const COEFF_LIMIT: i64 = 1 << 20;

#[inline(always)]
fn dequantise(v: i32, q: i32) -> i32 {
    (v as i64 * q as i64).clamp(-COEFF_LIMIT, COEFF_LIMIT) as i32
}

/// The fewest body bytes [`read_block`] accepts for one plane of a block:
/// a one-byte DC varint and the end-of-block marker.
const MIN_PLANE_BYTES: usize = 2;

/// Read one block straight into dequantised coefficients: varint, zigzag
/// position, multiply and clamp in one step per *coded* coefficient, so the
/// zeros cost nothing beyond clearing `plane`. Returns Σ|AC coefficient|,
/// which [`idct_with_ac_sum`] needs for its dispatch.
fn read_block(
    data: &[u8],
    off: &mut usize,
    prev_dc: &mut i32,
    q: &[i32; 64],
    plane: &mut [i32; 64],
) -> Result<u64> {
    *plane = [0; 64];
    let dc = read_svarint(data, off)?;
    // Wrapping: hostile streams may accumulate arbitrary DC deltas.
    *prev_dc = prev_dc.wrapping_add(dc);
    plane[0] = dequantise(*prev_dc, q[0]);
    let mut ac_sum = 0u64;
    let mut i = 1;
    loop {
        let Some(&run) = data.get(*off) else {
            return Err(Error::Truncated("DCT block"));
        };
        *off += 1;
        if run == 0xff {
            return Ok(ac_sum);
        }
        i += run as usize;
        if i >= 64 {
            return Err(Error::Invalid {
                what: "DCT block",
                detail: "run past block end",
            });
        }
        let pos = ZIGZAG[i];
        let v = dequantise(read_svarint(data, off)?, q[pos]);
        plane[pos] = v;
        ac_sum += v.unsigned_abs() as u64;
        i += 1;
    }
}

/// Gather one 8×8 block of centred YCbCr samples (edge-clamped), writing
/// the three planes. The interior fast path walks whole pixel rows; only
/// right/bottom edge blocks pay the per-pixel clamping.
#[inline]
fn gather_block(img: &Image, bx: usize, by: usize, planes: &mut [[i32; 64]; 3]) {
    let w = img.width();
    let h = img.height();
    let x0 = bx as u32 * 8;
    let y0 = by as u32 * 8;
    if x0 + 8 <= w && y0 + 8 <= h {
        for dy in 0..8 {
            let row = img.row(y0 + dy as u32);
            let base = (x0 as usize) * 4;
            let px = &row[base..base + 32];
            for dx in 0..8 {
                let (yy, cb, cr) = rgb_to_ycbcr_centred(px[dx * 4], px[dx * 4 + 1], px[dx * 4 + 2]);
                let idx = dy * 8 + dx;
                planes[0][idx] = yy;
                planes[1][idx] = cb;
                planes[2][idx] = cr;
            }
        }
    } else {
        for dy in 0..8u32 {
            for dx in 0..8u32 {
                let x = (x0 + dx).min(w - 1);
                let y = (y0 + dy).min(h - 1);
                let [r, g, b, _] = img.pixel(x, y).expect("in bounds");
                let (yy, cb, cr) = rgb_to_ycbcr_centred(r, g, b);
                let idx = (dy * 8 + dx) as usize;
                planes[0][idx] = yy;
                planes[1][idx] = cb;
                planes[2][idx] = cr;
            }
        }
    }
}

/// Encode an image with the given quality (1..=100; higher = better).
pub fn encode(img: &Image, quality: u8) -> Vec<u8> {
    working_set::assemble(|ws, out| {
        encode_body(img, quality, &mut ws.plain);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&img.width().to_be_bytes());
        out.extend_from_slice(&img.height().to_be_bytes());
        out.push(quality.clamp(1, 100));
        deflate_into(&mut ws.lz, &ws.plain, Level::Fast, out);
    })
}

/// Write `img`'s coefficient body, the input of the DEFLATE stage, into
/// `body`.
fn encode_body(img: &Image, quality: u8, body: &mut Vec<u8>) {
    let w = img.width();
    let h = img.height();
    let luma_q = Quantiser::new(&scaled_table(&LUMA_Q, quality));
    let chroma_q = Quantiser::new(&scaled_table(&CHROMA_Q, quality));

    let bw = w.div_ceil(8) as usize;
    let bh = h.div_ceil(8) as usize;
    // Photo and video content quantises to 9–12 bytes a block at the
    // qualities in use; sharp text takes two or three times that and grows.
    body.clear();
    body.reserve(bw * bh * 3 * 16);
    let mut prev_dc = [0i32; 3];

    let mut planes = [[0i32; 64]; 3];
    for by in 0..bh {
        for bx in 0..bw {
            gather_block(img, bx, by, &mut planes);
            for (p, plane) in planes.iter_mut().enumerate() {
                fdct(plane);
                let q = if p == 0 { &luma_q } else { &chroma_q };
                let coeffs = std::array::from_fn(|i| q.apply(plane[i], i));
                encode_block(body, &coeffs, &mut prev_dc[p]);
            }
        }
    }
}

/// The width and height an [`encode`]d payload declares, read from its
/// header alone: nothing is inflated or allocated.
pub fn dims(data: &[u8]) -> Result<(u32, u32)> {
    if data.len() < 13 {
        return Err(Error::Truncated("DCT header"));
    }
    if data[..4] != MAGIC {
        return Err(Error::Invalid {
            what: "DCT container",
            detail: "bad magic",
        });
    }
    let w = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    let h = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
    check_dims(w, h)?;
    Ok((w, h))
}

/// Decode an image produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Image> {
    let (w, h) = dims(data)?;
    let quality = data[12];
    let (w, h) = (w as usize, h as usize);
    let bw = w.div_ceil(8);
    let bh = h.div_ceil(8);
    working_set::with(|ws| {
        inflate_into(&data[13..], bw * bh * 3 * 200 + 1024, None, &mut ws.plain)?;
        decode_body(&ws.plain, w, h, quality)
    })
}

/// The `w`×`h` image whose coefficient body at `quality` is `body`.
fn decode_body(body: &[u8], w: usize, h: usize, quality: u8) -> Result<Image> {
    let luma_q = scaled_table(&LUMA_Q, quality);
    let chroma_q = scaled_table(&CHROMA_Q, quality);
    let bw = w.div_ceil(8);
    let bh = h.div_ceil(8);
    // A body too short for its blocks is refused before the pixels it
    // claims are allocated.
    if body.len() / (3 * MIN_PLANE_BYTES) < bw * bh {
        return Err(Error::Truncated("DCT body"));
    }

    // Every pixel is written exactly once below, row slice by row slice.
    let mut pixels = vec![0u8; w * h * BYTES_PER_PIXEL];
    let mut off = 0usize;
    let mut prev_dc = [0i32; 3];
    let mut planes = [[0i32; 64]; 3];
    for by in 0..bh {
        for bx in 0..bw {
            for (p, plane) in planes.iter_mut().enumerate() {
                let q = if p == 0 { &luma_q } else { &chroma_q };
                let ac_sum = read_block(body, &mut off, &mut prev_dc[p], q, plane)?;
                idct_with_ac_sum(plane, ac_sum);
            }
            let (x0, y0) = (bx * 8, by * 8);
            let cols = (w - x0).min(8);
            for dy in 0..(h - y0).min(8) {
                let start = ((y0 + dy) * w + x0) * BYTES_PER_PIXEL;
                let row = &mut pixels[start..start + cols * BYTES_PER_PIXEL];
                for (dx, px) in row.chunks_exact_mut(BYTES_PER_PIXEL).enumerate() {
                    let idx = dy * 8 + dx;
                    let (r, g, b) =
                        ycbcr_centred_to_rgb(planes[0][idx], planes[1][idx], planes[2][idx]);
                    px.copy_from_slice(&[r, g, b, 255]);
                }
            }
        }
    }
    Image::from_rgba(w as u32, h as u32, pixels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate;
    use proptest::prelude::*;

    // --- Oracles (the module docs say which test uses which). --------------

    /// One scalar forward 1-D butterfly: 8 centred samples in, 8 coefficients
    /// out, scaled up by `2^PASS1_BITS` after pass 1 and descaled back down in
    /// pass 2 (`pass2 = true`). Output of the full 2-D transform is the true
    /// DCT-II multiplied by 8.
    #[inline(always)]
    fn fdct_1d_scalar(s: [i64; 8], pass2: bool) -> [i32; 8] {
        let tmp0 = s[0] + s[7];
        let tmp7 = s[0] - s[7];
        let tmp1 = s[1] + s[6];
        let tmp6 = s[1] - s[6];
        let tmp2 = s[2] + s[5];
        let tmp5 = s[2] - s[5];
        let tmp3 = s[3] + s[4];
        let tmp4 = s[3] - s[4];

        let tmp10 = tmp0 + tmp3;
        let tmp13 = tmp0 - tmp3;
        let tmp11 = tmp1 + tmp2;
        let tmp12 = tmp1 - tmp2;

        let (shift, o0, o4) = if pass2 {
            (
                CONST_BITS + PASS1_BITS,
                descale(tmp10 + tmp11, PASS1_BITS),
                descale(tmp10 - tmp11, PASS1_BITS),
            )
        } else {
            (
                CONST_BITS - PASS1_BITS,
                ((tmp10 + tmp11) << PASS1_BITS) as i32,
                ((tmp10 - tmp11) << PASS1_BITS) as i32,
            )
        };

        let z1 = (tmp12 + tmp13) * FIX_0_541196100;
        let o2 = descale(z1 + tmp13 * FIX_0_765366865, shift);
        let o6 = descale(z1 - tmp12 * FIX_1_847759065, shift);

        let z1 = tmp4 + tmp7;
        let z2 = tmp5 + tmp6;
        let z3 = tmp4 + tmp6;
        let z4 = tmp5 + tmp7;
        let z5 = (z3 + z4) * FIX_1_175875602;

        let t4 = tmp4 * FIX_0_298631336;
        let t5 = tmp5 * FIX_2_053119869;
        let t6 = tmp6 * FIX_3_072711026;
        let t7 = tmp7 * FIX_1_501321110;
        let z1 = -z1 * FIX_0_899976223;
        let z2 = -z2 * FIX_2_562915447;
        let z3 = -z3 * FIX_1_961570560 + z5;
        let z4 = -z4 * FIX_0_390180644 + z5;

        let o7 = descale(t4 + z1 + z3, shift);
        let o5 = descale(t5 + z2 + z4, shift);
        let o3 = descale(t6 + z2 + z3, shift);
        let o1 = descale(t7 + z1 + z4, shift);
        [o0, o1, o2, o3, o4, o5, o6, o7]
    }

    /// Scalar reference forward DCT: rows (pass 1) then columns (pass 2).
    fn fdct_reference(block: &mut [i32; 64]) {
        for y in 0..8 {
            let row = std::array::from_fn(|x| block[y * 8 + x] as i64);
            let out = fdct_1d_scalar(row, false);
            block[y * 8..y * 8 + 8].copy_from_slice(&out);
        }
        for x in 0..8 {
            let col = std::array::from_fn(|y| block[y * 8 + x] as i64);
            let out = fdct_1d_scalar(col, true);
            for y in 0..8 {
                block[y * 8 + x] = out[y];
            }
        }
    }

    /// The seed's naive separable f32 transform: the accuracy oracle of
    /// `fixed_point_matches_naive_f32_closely`.
    mod naive {
        /// Forward 8×8 DCT-II on centred samples (float, O(N²) per 1-D pass).
        pub fn fdct(block: &mut [f32; 64]) {
            let mut tmp = [0f32; 64];
            for y in 0..8 {
                for u in 0..8 {
                    let mut s = 0f32;
                    for x in 0..8 {
                        s += block[y * 8 + x] * dct_cos(x, u);
                    }
                    tmp[y * 8 + u] = s * norm(u);
                }
            }
            for u in 0..8 {
                for v in 0..8 {
                    let mut s = 0f32;
                    for y in 0..8 {
                        s += tmp[y * 8 + u] * dct_cos(y, v);
                    }
                    block[v * 8 + u] = s * norm(v);
                }
            }
        }

        /// Inverse 8×8 DCT (float).
        pub fn idct(block: &mut [f32; 64]) {
            let mut tmp = [0f32; 64];
            for u in 0..8 {
                for y in 0..8 {
                    let mut s = 0f32;
                    for v in 0..8 {
                        s += norm(v) * block[v * 8 + u] * dct_cos(y, v);
                    }
                    tmp[y * 8 + u] = s;
                }
            }
            for y in 0..8 {
                for x in 0..8 {
                    let mut s = 0f32;
                    for u in 0..8 {
                        s += norm(u) * tmp[y * 8 + u] * dct_cos(x, u);
                    }
                    block[y * 8 + x] = s;
                }
            }
        }

        fn dct_cos(x: usize, u: usize) -> f32 {
            // cos((2x+1) u pi / 16), cached in a 64-entry table.
            use std::sync::OnceLock;
            static TABLE: OnceLock<[f32; 64]> = OnceLock::new();
            let t = TABLE.get_or_init(|| {
                let mut t = [0f32; 64];
                for x in 0..8 {
                    for u in 0..8 {
                        t[x * 8 + u] =
                            (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos();
                    }
                }
                t
            });
            t[x * 8 + u]
        }

        fn norm(u: usize) -> f32 {
            if u == 0 {
                0.5f32 / std::f32::consts::SQRT_2
            } else {
                0.5
            }
        }
    }

    /// The quantiser as a division: the oracle of
    /// `reciprocal_quantiser_is_exact_for_every_divisor`. The divisor is
    /// `8 * q`; rounding is half-away-from-zero to match the seed's `.round()`.
    fn quantise(c: i32, q: i32) -> i32 {
        let d = q * 8;
        if c >= 0 {
            (c + d / 2) / d
        } else {
            -((-c + d / 2) / d)
        }
    }

    /// The block coder as a plain scan: find the last non-zero zigzag
    /// position, then test every coefficient up to it. Oracle of
    /// `encode_block_equals_scanning_oracle`, and what `encode_oracle` uses.
    fn encode_block_oracle(out: &mut Vec<u8>, coeffs: &[i32; 64], prev_dc: &mut i32) {
        write_svarint(out, coeffs[0] - *prev_dc);
        *prev_dc = coeffs[0];
        let last_nonzero = (1..64).rfind(|&i| coeffs[ZIGZAG[i]] != 0).unwrap_or(0);
        let mut run = 0u8;
        for i in 1..=last_nonzero {
            let v = coeffs[ZIGZAG[i]];
            if v == 0 {
                run += 1;
            } else {
                out.push(run);
                write_svarint(out, v);
                run = 0;
            }
        }
        out.push(0xff);
    }

    /// `encode` as it was before the 32-bit kernel: `i64` transform, one
    /// division per coefficient. Oracle of `pipeline_equals_oracle_pipeline`.
    fn encode_oracle(img: &Image, quality: u8) -> Vec<u8> {
        let tables = [
            scaled_table(&LUMA_Q, quality),
            scaled_table(&CHROMA_Q, quality),
        ];
        let mut body = Vec::new();
        let mut prev_dc = [0i32; 3];
        let mut planes = [[0i32; 64]; 3];
        for by in 0..img.height().div_ceil(8) as usize {
            for bx in 0..img.width().div_ceil(8) as usize {
                gather_block(img, bx, by, &mut planes);
                for (p, plane) in planes.iter_mut().enumerate() {
                    fdct_reference(plane);
                    let q = &tables[p.min(1)];
                    let coeffs = std::array::from_fn(|i| quantise(plane[i], q[i]));
                    encode_block_oracle(&mut body, &coeffs, &mut prev_dc[p]);
                }
            }
        }
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&img.width().to_be_bytes());
        out.extend_from_slice(&img.height().to_be_bytes());
        out.push(quality.clamp(1, 100));
        out.extend_from_slice(&deflate::deflate(&body, Level::Fast));
        out
    }

    /// `decode` as it was: all 64 coefficients dequantised, `i64` transform
    /// on every block, one bounds-checked `set_pixel` per pixel.
    fn decode_oracle(data: &[u8]) -> Image {
        let w = u32::from_be_bytes(data[4..8].try_into().unwrap());
        let h = u32::from_be_bytes(data[8..12].try_into().unwrap());
        let tables = [
            scaled_table(&LUMA_Q, data[12]),
            scaled_table(&CHROMA_Q, data[12]),
        ];
        let body = deflate::inflate(&data[13..], 1 << 24).unwrap();
        let mut img = Image::new(w, h).unwrap();
        let mut off = 0;
        let mut prev_dc = [0i32; 3];
        let mut planes = [[0i32; 64]; 3];
        for by in 0..h.div_ceil(8) {
            for bx in 0..w.div_ceil(8) {
                for (p, plane) in planes.iter_mut().enumerate() {
                    // All-ones table: the raw coefficients, then the
                    // multiply the old decoder did for every position.
                    read_block(&body, &mut off, &mut prev_dc[p], &[1; 64], plane).unwrap();
                    for i in 0..64 {
                        plane[i] = dequantise(plane[i], tables[p.min(1)][i]);
                    }
                    idct_reference(plane);
                }
                for i in 0..64u32 {
                    let (r, g, b) = ycbcr_centred_to_rgb(
                        planes[0][i as usize],
                        planes[1][i as usize],
                        planes[2][i as usize],
                    );
                    img.set_pixel(bx * 8 + i % 8, by * 8 + i / 8, [r, g, b, 255]);
                }
            }
        }
        img
    }

    fn photo_like(w: u32, h: u32) -> Image {
        // Smooth gradients + sensor-like noise: what real photographs look
        // like to a compressor (DCT quantises the noise away; lossless
        // codecs must spend bits on it).
        let mut img = Image::new(w, h).unwrap();
        let mut state = 0x9e3779b9u32;
        for y in 0..h {
            for x in 0..w {
                let fx = x as f32 / w as f32;
                let fy = y as f32 / h as f32;
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let noise = ((state >> 24) as i32 % 24) - 12;
                let r = (128.0 + 100.0 * (fx * 6.0).sin() + noise as f32).clamp(0.0, 255.0) as u8;
                let g = (128.0 + 100.0 * (fy * 5.0).cos() + noise as f32).clamp(0.0, 255.0) as u8;
                let b =
                    (128.0 + 80.0 * ((fx + fy) * 4.0).sin() + noise as f32).clamp(0.0, 255.0) as u8;
                img.set_pixel(x, y, [r, g, b, 255]);
            }
        }
        img
    }

    fn noise_image(w: u32, h: u32, seed: u32) -> Image {
        let mut img = Image::new(w, h).unwrap();
        let mut state = seed | 1;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let [r, g, b, _] = state.to_be_bytes();
                img.set_pixel(x, y, [r, g, b, 255]);
            }
        }
        img
    }

    /// `idct` and the `i64` oracle agree on `block`; returns the result.
    fn assert_idct_matches_oracle(block: [i32; 64]) -> [i32; 64] {
        let (mut ours, mut oracle) = (block, block);
        idct(&mut ours);
        idct_reference(&mut oracle);
        assert_eq!(ours, oracle, "input {block:?}");
        ours
    }

    /// The sign pattern of 2-D basis function (u, v): the input that drives
    /// output (u, v) of a transform to the largest magnitude it can reach.
    fn basis_signs(u: usize, v: usize) -> [i32; 64] {
        let cos = |x: usize, k: usize| {
            ((2 * x + 1) as f64 * k as f64 * std::f64::consts::PI / 16.0).cos()
        };
        std::array::from_fn(|i| {
            if cos(i % 8, u) * cos(i / 8, v) < 0.0 {
                -1
            } else {
                1
            }
        })
    }

    #[test]
    fn dct_idct_identity() {
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 255) as i32 - 128;
        }
        let original = block;
        fdct(&mut block);
        // The forward kernel emits true DCT × 8; the inverse expects
        // dequantised (true-scale) coefficients, so divide the 8 back out
        // the same way quantise(c, 1) would.
        for c in block.iter_mut() {
            *c = quantise(*c, 1);
        }
        idct(&mut block);
        for i in 0..64 {
            assert!(
                (block[i] - original[i]).abs() <= 1,
                "i={i}: {} vs {}",
                block[i],
                original[i]
            );
        }
    }

    #[test]
    fn dc_only_block() {
        // A flat block must produce a single DC coefficient, scaled by 8.
        let mut block = [50i32; 64];
        fdct(&mut block);
        assert_eq!(block[0], 8 * 400, "DC = 8 * 8 * value, got {}", block[0]);
        for (i, &c) in block.iter().enumerate().skip(1) {
            assert!(c.abs() <= 2, "AC[{i}] = {c}");
        }
    }

    #[test]
    fn fixed_point_matches_naive_f32_closely() {
        // The integer kernel is the production transform; the seed's f32
        // kernel is the accuracy oracle. Quantised coefficients may differ
        // by at most one step at any quality.
        let mut state = 0xfeed_beefu32;
        for trial in 0..200 {
            let mut int_block = [0i32; 64];
            let mut f32_block = [0f32; 64];
            for i in 0..64 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = ((state >> 20) as i32 % 256) - 128;
                int_block[i] = v;
                f32_block[i] = v as f32;
            }
            fdct(&mut int_block);
            naive::fdct(&mut f32_block);
            for q in [1u8, 25, 50, 75, 95, 100] {
                let table = scaled_table(&LUMA_Q, q);
                for i in 0..64 {
                    let ours = quantise(int_block[i], table[i]);
                    let theirs = (f32_block[i] / table[i] as f32).round() as i32;
                    assert!(
                        (ours - theirs).abs() <= 1,
                        "trial {trial} q {q} i {i}: int {ours} vs f32 {theirs}"
                    );
                }
            }
        }
    }

    #[test]
    fn naive_f32_inverse_agrees_with_the_kernel() {
        // The inverse side of the accuracy oracle: on in-range coefficients
        // the integer output is the rounded float output, give or take one.
        let mut state = 0x0bad_cafeu32;
        for _ in 0..200 {
            let mut block = [0i32; 64];
            for v in block.iter_mut().take(20) {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((state >> 20) as i32 % 256) - 128;
            }
            let mut float: [f32; 64] = std::array::from_fn(|i| block[i] as f32);
            naive::idct(&mut float);
            let ours = assert_idct_matches_oracle(block);
            for i in 0..64 {
                assert!((ours[i] as f32 - float[i]).abs() <= 1.0, "i={i}");
            }
        }
    }

    #[test]
    fn fdct_is_exact_at_its_documented_input_bound() {
        // ±256 arranged to maximise each output in turn, plus the flat
        // extremes: the largest values the forward kernel ever shifts.
        for u in 0..8 {
            for v in 0..8 {
                for sign in [256, -256] {
                    let mut ours = basis_signs(u, v).map(|s| s * sign);
                    let mut oracle = ours;
                    fdct(&mut ours);
                    fdct_reference(&mut oracle);
                    assert_eq!(ours, oracle, "basis ({u}, {v}) × {sign}");
                }
            }
        }
    }

    /// A block whose |coefficients| sum to exactly `sum`, laid out by `shape`.
    fn block_with_sum(sum: i32, shape: usize) -> [i32; 64] {
        let mut block = [0i32; 64];
        match shape {
            // Everything on the coefficient with the heaviest weight.
            0 => block[9] = sum,
            1 => block[9] = -sum,
            // Everything on DC (the DC-only shortcut right at the guard).
            2 => block[0] = sum,
            // Spread over every position with basis-function signs, so the
            // contributions pile up in one output sample.
            _ => {
                let signs = basis_signs(shape % 8, shape / 8 % 8);
                for i in 0..64 {
                    block[i] = signs[i] * (sum / 64);
                }
                block[0] += signs[0] * (sum % 64);
            }
        }
        assert_eq!(block.iter().map(|c| c.abs()).sum::<i32>(), sum);
        block
    }

    #[test]
    fn idct_equals_i64_oracle_on_both_sides_of_the_guard() {
        let limit = IDCT32_SUM_LIMIT as i32;
        for sum in [limit - 1, limit, limit + 1] {
            for shape in 0..64 {
                assert_idct_matches_oracle(block_with_sum(sum, shape));
            }
        }
    }

    #[test]
    fn idct32_has_the_margin_the_proof_claims() {
        // The guard stops at 2^14; the derivation says the 32-bit kernel is
        // exact to about 34 000. Call it past the guard to show the margin
        // is real and not an accident of the dispatch.
        for sum in [IDCT32_SUM_LIMIT as i32, 24_000, 32_000] {
            for shape in (0..64).filter(|&s| s != 2) {
                let mut ours = block_with_sum(sum, shape);
                let mut oracle = ours;
                idct32(&mut ours);
                idct_reference(&mut oracle);
                assert_eq!(ours, oracle, "sum {sum} shape {shape}");
            }
        }
    }

    #[test]
    fn sparse_shortcuts_equal_full_butterfly() {
        // `idct_reference` has no shortcut at all, so equality with it is
        // equality with the full butterfly.
        for v in [-1024, -517, -5, -4, -3, -1, 0, 1, 3, 4, 5, 100, 1023] {
            // DC only.
            let mut block = [0i32; 64];
            block[0] = v;
            let out = assert_idct_matches_oracle(block);
            assert!(out.iter().all(|&s| s == out[0]));
            for k in 0..8 {
                // One non-zero column: seven column shortcuts in pass 1, and
                // for k = 0 the row shortcut on every pass-2 row.
                assert_idct_matches_oracle(std::array::from_fn(|i| {
                    let (x, y) = (i % 8, (i / 8) as i32);
                    if x == k {
                        v + 3 * y - 7
                    } else {
                        0
                    }
                }));
                // One non-zero row: for k = 0 all eight columns take the
                // pass-1 shortcut, for k > 0 none does.
                assert_idct_matches_oracle(std::array::from_fn(|i| {
                    let (x, y) = ((i % 8) as i32, i / 8);
                    if y == k {
                        v - 5 * x + 11
                    } else {
                        0
                    }
                }));
                // A single coefficient somewhere in row k.
                let mut block = [0i32; 64];
                block[k * 8 + (k * 3) % 8] = v;
                assert_idct_matches_oracle(block);
            }
        }
    }

    #[test]
    fn reciprocal_quantiser_is_exact_for_every_divisor() {
        // Exhaustive: every table value there is (divisors 8..=2 040 step 8)
        // against every coefficient far past what the kernel can emit.
        for q in 1..=255 {
            let quantiser = Quantiser::new(&[q; 64]);
            for c in -(1i32 << 17)..=(1 << 17) {
                assert_eq!(quantiser.apply(c, 0), quantise(c, q), "c={c} q={q}");
            }
        }
    }

    proptest! {
        #[test]
        fn fdct_equals_i64_oracle(samples in proptest::collection::vec(-128i32..=127, 64)) {
            let mut a = [0i32; 64];
            a.copy_from_slice(&samples);
            let mut b = a;
            fdct(&mut a);
            fdct_reference(&mut b);
            prop_assert_eq!(a, b);
        }

        // The full hostile dequantised range: dense blocks take the fallback,
        // so this pins the dispatch rather than the 32-bit arithmetic...
        #[test]
        fn idct_equals_i64_oracle(coeffs in proptest::collection::vec(-(1i32 << 20)..=(1 << 20), 64)) {
            let mut block = [0i32; 64];
            block.copy_from_slice(&coeffs);
            assert_idct_matches_oracle(block);
        }

        // ...and this one the arithmetic: sparse blocks of realistic size,
        // most of them inside the guard, some straddling it.
        #[test]
        fn idct_equals_i64_oracle_on_sparse_blocks(
            coeffs in proptest::collection::vec((0usize..64, -3000i32..=3000), 0..12),
        ) {
            let mut block = [0i32; 64];
            for (pos, v) in coeffs {
                block[pos] = v;
            }
            assert_idct_matches_oracle(block);
        }

        #[test]
        fn encode_block_equals_scanning_oracle(
            coeffs in proptest::collection::vec((0usize..64, -70000i32..=70000), 0..70),
            prev in -2000i32..=2000,
        ) {
            let mut block = [0i32; 64];
            for (pos, v) in coeffs {
                block[pos] = v;
            }
            let (mut ours, mut oracle) = (Vec::new(), Vec::new());
            let (mut dc_ours, mut dc_oracle) = (prev, prev);
            encode_block(&mut ours, &block, &mut dc_ours);
            encode_block_oracle(&mut oracle, &block, &mut dc_oracle);
            prop_assert_eq!(ours, oracle);
            prop_assert_eq!(dc_ours, dc_oracle);
        }

        // Whole-pipeline parity at every quality: bytes and pixels are what
        // the i64 transform and the dividing quantiser produced.
        #[test]
        fn pipeline_equals_oracle_pipeline(
            seed in 0u32..1000,
            quality in 1u8..=100,
            (w, h) in (1u32..=26, 1u32..=18),
            content in 0u8..2,
        ) {
            let img = if content == 0 { photo_like(w, h) } else { noise_image(w, h, seed) };
            let ours = encode(&img, quality);
            prop_assert_eq!(&ours, &encode_oracle(&img, quality));
            prop_assert_eq!(decode(&ours).unwrap(), decode_oracle(&ours));
        }
    }

    #[test]
    fn svarint_round_trip() {
        let mut buf = Vec::new();
        let values = [0, 1, -1, 63, -64, 1000, -100000, i32::MAX, i32::MIN];
        for &v in &values {
            write_svarint(&mut buf, v);
        }
        let mut off = 0;
        for &v in &values {
            assert_eq!(read_svarint(&buf, &mut off).unwrap(), v);
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn high_quality_is_near_lossless_on_photo() {
        let img = photo_like(64, 64);
        let enc = encode(&img, 95);
        let back = decode(&enc).unwrap();
        let err = img.mean_abs_error(&back);
        assert!(err < 4.0, "q95 error {err}");
    }

    #[test]
    fn quality_monotonic_size_and_error() {
        let img = photo_like(96, 96);
        let hi = encode(&img, 90);
        let lo = encode(&img, 10);
        assert!(
            lo.len() < hi.len(),
            "q10 {} should be smaller than q90 {}",
            lo.len(),
            hi.len()
        );
        let err_hi = img.mean_abs_error(&decode(&hi).unwrap());
        let err_lo = img.mean_abs_error(&decode(&lo).unwrap());
        assert!(
            err_lo > err_hi,
            "q10 err {err_lo} should exceed q90 err {err_hi}"
        );
    }

    #[test]
    fn beats_lossless_on_photo_content() {
        let img = photo_like(128, 128);
        let dct = encode(&img, 50);
        let png = crate::png::encode(&img, crate::png::PngOptions::default());
        assert!(
            dct.len() < png.len(),
            "DCT ({}) should beat PNG ({}) on photographic content",
            dct.len(),
            png.len()
        );
    }

    #[test]
    fn non_multiple_of_8_dims() {
        let img = photo_like(33, 19);
        let back = decode(&encode(&img, 80)).unwrap();
        assert_eq!(back.width(), 33);
        assert_eq!(back.height(), 19);
        assert!(img.mean_abs_error(&back) < 10.0);
    }

    #[test]
    fn flat_image_tiny() {
        let img = Image::filled(64, 64, [100, 150, 200, 255]).unwrap();
        let enc = encode(&img, 75);
        assert!(
            enc.len() < 200,
            "flat image should encode tiny, got {}",
            enc.len()
        );
        let back = decode(&enc).unwrap();
        assert!(img.mean_abs_error(&back) < 2.0);
    }

    #[test]
    fn decode_never_panics_on_noise() {
        let mut state = 0x55aa55aau32;
        for len in 0..256 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = decode(&buf);
            if len >= 13 {
                buf[..4].copy_from_slice(&MAGIC);
                buf[4..8].copy_from_slice(&16u32.to_be_bytes());
                buf[8..12].copy_from_slice(&16u32.to_be_bytes());
                let _ = decode(&buf);
            }
        }
    }

    #[test]
    fn hostile_coefficients_decode_without_panic() {
        // A hand-built stream with extreme DC deltas and AC values: the
        // clamp + wrapping DC must keep the fixed-point IDCT in range.
        let mut body = Vec::new();
        let mut prev_dc = 0i32;
        for _ in 0..4 * 3 {
            let mut coeffs = [0i32; 64];
            coeffs[0] = i32::MAX / 2;
            coeffs[1] = i32::MIN / 2;
            coeffs[63] = i32::MAX / 3;
            encode_block(&mut body, &coeffs, &mut prev_dc);
        }
        let compressed = deflate::deflate(&body, Level::Fast);
        let mut data = Vec::new();
        data.extend_from_slice(&MAGIC);
        data.extend_from_slice(&16u32.to_be_bytes());
        data.extend_from_slice(&16u32.to_be_bytes());
        data.push(50);
        data.extend_from_slice(&compressed);
        let _ = decode(&data);
    }
}
