//! A block-DCT lossy codec standing in for JPEG (draft §4.2: "JPEG is lossy,
//! but more suitable for photographic images").
//!
//! Architecture mirrors JPEG: RGB → YCbCr colour transform, 8×8 forward DCT,
//! quality-scaled quantisation with separate luma/chroma tables, zigzag
//! ordering, then a compact entropy stage (run-length of zeros + signed
//! varints, finished with DEFLATE). It reproduces JPEG's rate/distortion
//! behaviour on photographic vs synthetic content without importing a full
//! JPEG entropy coder.
//!
//! The transform itself is the integer Loeffler–Ligtenberg–Moshovitz kernel
//! (the `jfdctint`/`jidctint` factorisation): 12 multiplies per 1-D
//! transform instead of the 64 a naive separable implementation spends, in
//! 13-bit fixed point, so an 8×8 block costs 192 integer multiplies where
//! the seed's float kernel cost 1024 float multiplies plus table lookups.
//! Two implementations of the same arithmetic ship:
//!
//! * [`Kernel::Fast`] — lane-per-row/column form over `[i32; 8]` vectors
//!   (structure-of-arrays with two cheap 8×8 transposes), shaped so the
//!   autovectoriser turns each butterfly step into SIMD ops.
//! * [`Kernel::Reference`] — a plain scalar transliteration, one 1-D
//!   butterfly at a time.
//!
//! Both perform bit-identical arithmetic (proved by proptest over arbitrary
//! blocks at every quality), so the wire bytes do not depend on which is
//! selected; the reference path exists as an oracle and a perf ablation.
//! The seed's naive f32 kernel is kept under [`naive`] as the accuracy
//! oracle and the "before" side of `bench codecs`.

use crate::deflate::{self, Level};
use crate::image::Image;
use crate::{Error, Result};

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

/// Which 8×8 transform implementation to run. Both produce bit-identical
/// coefficients; `Reference` exists as a correctness oracle and for the
/// perf ablation in the session config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum Kernel {
    /// Vectorised lane-per-row Loeffler kernel (the production path).
    #[default]
    Fast,
    /// Scalar one-butterfly-at-a-time form of the same arithmetic.
    Reference,
}

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

/// Round-to-nearest right shift (the `DESCALE` of libjpeg).
#[inline(always)]
fn descale(x: i64, n: u32) -> i32 {
    ((x + (1i64 << (n - 1))) >> n) as i32
}

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

/// Scalar reference forward DCT: rows (pass 1) then columns (pass 2).
pub fn fdct_reference(block: &mut [i32; 64]) {
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

// --- Vectorised form: the same butterflies, one lane per row/column. ------

/// Eight transforms in flight: lane `l` of every vector belongs to the
/// `l`-th row (or column) being transformed.
type V8 = [i32; 8];
type W8 = [i64; 8];

#[inline(always)]
fn widen(a: V8) -> W8 {
    std::array::from_fn(|i| a[i] as i64)
}

#[inline(always)]
fn wadd(a: W8, b: W8) -> W8 {
    std::array::from_fn(|i| a[i] + b[i])
}

#[inline(always)]
fn wsub(a: W8, b: W8) -> W8 {
    std::array::from_fn(|i| a[i] - b[i])
}

#[inline(always)]
fn wmul(a: W8, c: i64) -> W8 {
    std::array::from_fn(|i| a[i] * c)
}

#[inline(always)]
fn wshl(a: W8, n: u32) -> W8 {
    std::array::from_fn(|i| a[i] << n)
}

#[inline(always)]
fn wdescale(a: W8, n: u32) -> V8 {
    std::array::from_fn(|i| descale(a[i], n))
}

#[inline(always)]
fn narrow(a: W8) -> V8 {
    std::array::from_fn(|i| a[i] as i32)
}

/// Eight forward 1-D butterflies at once; `s[j]` holds sample `j` of each
/// of the 8 lanes. Arithmetic is lane-for-lane identical to
/// [`fdct_1d_scalar`].
#[inline(always)]
fn fdct_1d_vec(s: &[W8; 8], pass2: bool) -> [V8; 8] {
    let tmp0 = wadd(s[0], s[7]);
    let tmp7 = wsub(s[0], s[7]);
    let tmp1 = wadd(s[1], s[6]);
    let tmp6 = wsub(s[1], s[6]);
    let tmp2 = wadd(s[2], s[5]);
    let tmp5 = wsub(s[2], s[5]);
    let tmp3 = wadd(s[3], s[4]);
    let tmp4 = wsub(s[3], s[4]);

    let tmp10 = wadd(tmp0, tmp3);
    let tmp13 = wsub(tmp0, tmp3);
    let tmp11 = wadd(tmp1, tmp2);
    let tmp12 = wsub(tmp1, tmp2);

    let (shift, o0, o4) = if pass2 {
        (
            CONST_BITS + PASS1_BITS,
            wdescale(wadd(tmp10, tmp11), PASS1_BITS),
            wdescale(wsub(tmp10, tmp11), PASS1_BITS),
        )
    } else {
        (
            CONST_BITS - PASS1_BITS,
            narrow(wshl(wadd(tmp10, tmp11), PASS1_BITS)),
            narrow(wshl(wsub(tmp10, tmp11), PASS1_BITS)),
        )
    };

    let z1 = wmul(wadd(tmp12, tmp13), FIX_0_541196100);
    let o2 = wdescale(wadd(z1, wmul(tmp13, FIX_0_765366865)), shift);
    let o6 = wdescale(wsub(z1, wmul(tmp12, FIX_1_847759065)), shift);

    let z1 = wadd(tmp4, tmp7);
    let z2 = wadd(tmp5, tmp6);
    let z3 = wadd(tmp4, tmp6);
    let z4 = wadd(tmp5, tmp7);
    let z5 = wmul(wadd(z3, z4), FIX_1_175875602);

    let t4 = wmul(tmp4, FIX_0_298631336);
    let t5 = wmul(tmp5, FIX_2_053119869);
    let t6 = wmul(tmp6, FIX_3_072711026);
    let t7 = wmul(tmp7, FIX_1_501321110);
    let z1 = wmul(z1, -FIX_0_899976223);
    let z2 = wmul(z2, -FIX_2_562915447);
    let z3 = wadd(wmul(z3, -FIX_1_961570560), z5);
    let z4 = wadd(wmul(z4, -FIX_0_390180644), z5);

    let o7 = wdescale(wadd(wadd(t4, z1), z3), shift);
    let o5 = wdescale(wadd(wadd(t5, z2), z4), shift);
    let o3 = wdescale(wadd(wadd(t6, z2), z3), shift);
    let o1 = wdescale(wadd(wadd(t7, z1), z4), shift);
    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// Eight inverse 1-D butterflies at once, lane-identical to
/// [`idct_1d_scalar`].
#[inline(always)]
fn idct_1d_vec(c: &[W8; 8], pass2: bool) -> [V8; 8] {
    let shift = if pass2 {
        CONST_BITS + PASS1_BITS + 3
    } else {
        CONST_BITS - PASS1_BITS
    };

    let z1 = wmul(wadd(c[2], c[6]), FIX_0_541196100);
    let tmp2 = wsub(z1, wmul(c[6], FIX_1_847759065));
    let tmp3 = wadd(z1, wmul(c[2], FIX_0_765366865));

    let tmp0 = wshl(wadd(c[0], c[4]), CONST_BITS);
    let tmp1 = wshl(wsub(c[0], c[4]), CONST_BITS);

    let tmp10 = wadd(tmp0, tmp3);
    let tmp13 = wsub(tmp0, tmp3);
    let tmp11 = wadd(tmp1, tmp2);
    let tmp12 = wsub(tmp1, tmp2);

    let z1 = wadd(c[7], c[1]);
    let z2 = wadd(c[5], c[3]);
    let z3 = wadd(c[7], c[3]);
    let z4 = wadd(c[5], c[1]);
    let z5 = wmul(wadd(z3, z4), FIX_1_175875602);

    let t0 = wmul(c[7], FIX_0_298631336);
    let t1 = wmul(c[5], FIX_2_053119869);
    let t2 = wmul(c[3], FIX_3_072711026);
    let t3 = wmul(c[1], FIX_1_501321110);
    let z1 = wmul(z1, -FIX_0_899976223);
    let z2 = wmul(z2, -FIX_2_562915447);
    let z3 = wadd(wmul(z3, -FIX_1_961570560), z5);
    let z4 = wadd(wmul(z4, -FIX_0_390180644), z5);

    let t0 = wadd(wadd(t0, z1), z3);
    let t1 = wadd(wadd(t1, z2), z4);
    let t2 = wadd(wadd(t2, z2), z3);
    let t3 = wadd(wadd(t3, z1), z4);

    [
        wdescale(wadd(tmp10, t3), shift),
        wdescale(wadd(tmp11, t2), shift),
        wdescale(wadd(tmp12, t1), shift),
        wdescale(wadd(tmp13, t0), shift),
        wdescale(wsub(tmp13, t0), shift),
        wdescale(wsub(tmp12, t1), shift),
        wdescale(wsub(tmp11, t2), shift),
        wdescale(wsub(tmp10, t3), shift),
    ]
}

/// Transpose an 8×8 block of `[i32; 8]` rows.
#[inline(always)]
fn transpose(rows: &[V8; 8]) -> [V8; 8] {
    std::array::from_fn(|i| std::array::from_fn(|j| rows[j][i]))
}

#[inline(always)]
fn load_rows(block: &[i32; 64]) -> [V8; 8] {
    std::array::from_fn(|y| std::array::from_fn(|x| block[y * 8 + x]))
}

#[inline(always)]
fn store_rows(block: &mut [i32; 64], rows: &[V8; 8]) {
    for (y, row) in rows.iter().enumerate() {
        block[y * 8..y * 8 + 8].copy_from_slice(row);
    }
}

#[inline(always)]
fn widen_all(rows: &[V8; 8]) -> [W8; 8] {
    std::array::from_fn(|i| widen(rows[i]))
}

/// Vectorised forward DCT: lane-per-row pass 1, lane-per-column pass 2.
pub fn fdct_fast(block: &mut [i32; 64]) {
    // Pass 1 transforms every row; vector lane l = row l, so the inputs are
    // the block's columns (one transpose), and the butterfly outputs come
    // back as coefficient-major vectors (rows of the transposed result).
    let cols = transpose(&load_rows(block));
    let p1 = fdct_1d_vec(&widen_all(&cols), false);
    // p1[u][r] = pass-1 coefficient u of row r. Pass 2 transforms every
    // column; lane l = column l, so inputs are the pass-1 rows: transpose
    // back.
    let rows = transpose(&p1);
    let p2 = fdct_1d_vec(&widen_all(&rows), true);
    // p2[v][c] = final coefficient (v, c): already row-major.
    store_rows(block, &p2);
}

/// Vectorised inverse DCT: lane-per-column pass 1, lane-per-row pass 2.
pub fn idct_fast(block: &mut [i32; 64]) {
    // Pass 1 transforms every column; lane l = column l, so the inputs are
    // the block's rows — contiguous loads, no transpose needed.
    let rows = load_rows(block);
    let p1 = idct_1d_vec(&widen_all(&rows), false);
    // p1[y][c] = pass-1 sample row y, column c. Pass 2 transforms every
    // row; lane l = row l, so inputs are the columns of p1.
    let cols = transpose(&p1);
    let p2 = idct_1d_vec(&widen_all(&cols), true);
    // p2[x][r] = final sample (r, x): transpose into row-major order.
    store_rows(block, &transpose(&p2));
}

/// The seed's naive separable f32 kernel, kept as the accuracy oracle for
/// the fixed-point kernels and as the "before" side of `bench codecs` /
/// E22. Not used on any production path.
pub mod naive {
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

/// Quantise one forward coefficient. The kernel outputs the true DCT
/// scaled by 8, so the divisor is `8 * q`; rounding is half-away-from-zero
/// to match the old float path's `.round()`.
#[inline(always)]
fn quantise(c: i32, q: i32) -> i32 {
    let d = q * 8;
    if c >= 0 {
        (c + d / 2) / d
    } else {
        -((-c + d / 2) / d)
    }
}

// ---------------------------------------------------------------------------
// Integer colour transforms (16-bit fixed point).
// ---------------------------------------------------------------------------

/// RGB → centred YCbCr in 16-bit fixed point. Returns samples in
/// −128..=127.
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
    let mut run = 0u8;
    let mut last_nonzero = 0;
    for i in 1..64 {
        if coeffs[ZIGZAG[i]] != 0 {
            last_nonzero = i;
        }
    }
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
    out.push(0xff); // end of block
}

fn decode_block(data: &[u8], off: &mut usize, prev_dc: &mut i32) -> Result<[i32; 64]> {
    let mut coeffs = [0i32; 64];
    let dc = read_svarint(data, off)?;
    // Wrapping: hostile streams may accumulate arbitrary DC deltas.
    *prev_dc = prev_dc.wrapping_add(dc);
    coeffs[0] = *prev_dc;
    let mut i = 1;
    loop {
        if *off >= data.len() {
            return Err(Error::Truncated("DCT block"));
        }
        let run = data[*off];
        *off += 1;
        if run == 0xff {
            break;
        }
        i += run as usize;
        if i >= 64 {
            return Err(Error::Invalid {
                what: "DCT block",
                detail: "run past block end",
            });
        }
        coeffs[ZIGZAG[i]] = read_svarint(data, off)?;
        i += 1;
        if i > 64 {
            return Err(Error::Invalid {
                what: "DCT block",
                detail: "coefficient overflow",
            });
        }
    }
    Ok(coeffs)
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
    encode_with(img, quality, Kernel::Fast)
}

/// Encode with an explicit transform kernel. Both kernels produce
/// bit-identical bytes; [`Kernel::Reference`] exists for the perf ablation.
pub fn encode_with(img: &Image, quality: u8, kernel: Kernel) -> Vec<u8> {
    let w = img.width();
    let h = img.height();
    let luma_q = scaled_table(&LUMA_Q, quality);
    let chroma_q = scaled_table(&CHROMA_Q, quality);

    let bw = w.div_ceil(8) as usize;
    let bh = h.div_ceil(8) as usize;
    // Photo and video content quantises to 9–12 bytes a block at the
    // qualities in use; sharp text takes two or three times that and grows.
    let mut body = Vec::with_capacity(bw * bh * 3 * 16);
    let mut prev_dc = [0i32; 3];

    let fdct: fn(&mut [i32; 64]) = match kernel {
        Kernel::Fast => fdct_fast,
        Kernel::Reference => fdct_reference,
    };

    let mut planes = [[0i32; 64]; 3];
    for by in 0..bh {
        for bx in 0..bw {
            gather_block(img, bx, by, &mut planes);
            for (p, plane) in planes.iter_mut().enumerate() {
                fdct(plane);
                let q = if p == 0 { &luma_q } else { &chroma_q };
                let mut coeffs = [0i32; 64];
                for i in 0..64 {
                    coeffs[i] = quantise(plane[i], q[i]);
                }
                encode_block(&mut body, &coeffs, &mut prev_dc[p]);
            }
        }
    }

    let compressed = deflate::deflate(&body, Level::Fast);
    let mut out = Vec::with_capacity(compressed.len() + 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&w.to_be_bytes());
    out.extend_from_slice(&h.to_be_bytes());
    out.push(quality.clamp(1, 100));
    out.extend_from_slice(&compressed);
    out
}

/// Bound on dequantised coefficients: real streams stay well inside
/// `|DCT| <= 8 * 128 * 8 = 8192` (×8 kernel scale); hostile streams can
/// carry arbitrary varints, so clamp before the multiply to keep the
/// fixed-point IDCT's intermediates in range.
const COEFF_LIMIT: i64 = 1 << 20;

/// Decode an image produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Image> {
    decode_with(data, Kernel::Fast)
}

/// Decode with an explicit transform kernel (bit-identical output).
pub fn decode_with(data: &[u8], kernel: Kernel) -> Result<Image> {
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
    let quality = data[12];
    if w == 0 || h == 0 || w > crate::image::MAX_DIMENSION || h > crate::image::MAX_DIMENSION {
        return Err(Error::BadDimensions {
            width: w,
            height: h,
        });
    }
    let luma_q = scaled_table(&LUMA_Q, quality);
    let chroma_q = scaled_table(&CHROMA_Q, quality);
    let bw = w.div_ceil(8) as usize;
    let bh = h.div_ceil(8) as usize;
    let body = deflate::inflate(&data[13..], bw * bh * 3 * 200 + 1024)?;

    let idct: fn(&mut [i32; 64]) = match kernel {
        Kernel::Fast => idct_fast,
        Kernel::Reference => idct_reference,
    };

    let mut img = Image::new(w, h)?;
    let mut off = 0usize;
    let mut prev_dc = [0i32; 3];
    let mut planes = [[0i32; 64]; 3];
    for by in 0..bh {
        for bx in 0..bw {
            for (p, plane) in planes.iter_mut().enumerate() {
                let coeffs = decode_block(&body, &mut off, &mut prev_dc[p])?;
                let q = if p == 0 { &luma_q } else { &chroma_q };
                for i in 0..64 {
                    let dq = coeffs[i] as i64 * q[i] as i64;
                    plane[i] = dq.clamp(-COEFF_LIMIT, COEFF_LIMIT) as i32;
                }
                idct(plane);
            }
            for dy in 0..8u32 {
                for dx in 0..8u32 {
                    let x = bx as u32 * 8 + dx;
                    let y = by as u32 * 8 + dy;
                    if x >= w || y >= h {
                        continue;
                    }
                    let idx = (dy * 8 + dx) as usize;
                    let (r, g, b) =
                        ycbcr_centred_to_rgb(planes[0][idx], planes[1][idx], planes[2][idx]);
                    img.set_pixel(x, y, [r, g, b, 255]);
                }
            }
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn dct_idct_identity() {
        let mut block = [0i32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 255) as i32 - 128;
        }
        let original = block;
        fdct_fast(&mut block);
        // The forward kernel emits true DCT × 8; the inverse expects
        // dequantised (true-scale) coefficients, so divide the 8 back out
        // the same way quantise(c, 1) would.
        for c in block.iter_mut() {
            *c = quantise(*c, 1);
        }
        idct_fast(&mut block);
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
        fdct_fast(&mut block);
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
            fdct_fast(&mut int_block);
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

    proptest! {
        // Tentpole acceptance: the vectorised kernel is bit-identical to
        // the scalar reference for arbitrary sample blocks...
        #[test]
        fn fast_fdct_equals_reference(samples in proptest::collection::vec(-128i32..=127, 64)) {
            let mut a = [0i32; 64];
            a.copy_from_slice(&samples);
            let mut b = a;
            fdct_fast(&mut a);
            fdct_reference(&mut b);
            prop_assert_eq!(a, b);
        }

        // ...and for the inverse, over the full hostile dequantised range.
        #[test]
        fn fast_idct_equals_reference(coeffs in proptest::collection::vec(-(1i32 << 20)..=(1 << 20), 64)) {
            let mut a = [0i32; 64];
            a.copy_from_slice(&coeffs);
            let mut b = a;
            idct_fast(&mut a);
            idct_reference(&mut b);
            prop_assert_eq!(a, b);
        }

        // Whole-pipeline parity at every quality: encode/decode bytes do
        // not depend on the kernel selected.
        #[test]
        fn kernel_choice_never_changes_wire_bytes(seed in 0u32..1000, quality in 1u8..=100) {
            let mut img = Image::new(24, 16).unwrap();
            let mut state = seed | 1;
            for y in 0..16 {
                for x in 0..24 {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    img.set_pixel(x, y, [(state >> 24) as u8, (state >> 16) as u8, (state >> 8) as u8, 255]);
                }
            }
            let fast = encode_with(&img, quality, Kernel::Fast);
            let refr = encode_with(&img, quality, Kernel::Reference);
            prop_assert_eq!(&fast, &refr);
            let d_fast = decode_with(&fast, Kernel::Fast).unwrap();
            let d_ref = decode_with(&fast, Kernel::Reference).unwrap();
            prop_assert_eq!(d_fast, d_ref);
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
