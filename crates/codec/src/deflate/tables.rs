//! Fixed tables from RFC 1951: length/distance bases and extra bits, the
//! code-length-code transmission order, and the fixed Huffman code lengths.

/// Base match lengths for litlen symbols 257..=285.
pub const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for litlen symbols 257..=285.
pub const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Base distances for distance symbols 0..=29.
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for distance symbols 0..=29.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which code-length-code lengths are transmitted (RFC 1951 §3.2.7).
pub const CLEN_ORDER: [u8; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Fixed litlen code lengths (RFC 1951 §3.2.6).
pub const FIXED_LITLEN_LENS: [u8; 288] = {
    let mut lens = [8u8; 288];
    let mut i = 144;
    while i < 256 {
        lens[i] = 9;
        i += 1;
    }
    while i < 280 {
        lens[i] = 7;
        i += 1;
    }
    lens
};

/// Fixed distance code lengths: 5 bits each. Symbols 30 and 31 of the
/// 32-entry code never occur in valid data and get no code here, so their
/// bit patterns decode as an invalid code word.
pub const FIXED_DIST_LENS: [u8; 30] = [5; 30];

/// `LEN_SYMBOL[len - 3]` = index into [`LEN_BASE`] of the symbol coding `len`.
const LEN_SYMBOL: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut sym = 0;
    while sym < 29 {
        // Symbol 284 formally reaches 258, but 258 belongs to symbol 285;
        // filling in ascending order lets 285 overwrite it.
        let mut len = LEN_BASE[sym] as usize;
        let end = len + (1 << LEN_EXTRA[sym]);
        while len < end && len <= 258 {
            t[len - 3] = sym as u8;
            len += 1;
        }
        sym += 1;
    }
    t
};

/// zlib's two-level distance map: `DIST_SYMBOL[d]` for `d = dist - 1 < 256`,
/// `DIST_SYMBOL[256 + (d >> 7)]` above (every symbol from 16 on starts at a
/// multiple of 128).
const DIST_SYMBOL: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut sym = 0;
    while sym < 30 {
        let mut d = DIST_BASE[sym] as usize - 1;
        let end = d + (1 << DIST_EXTRA[sym]);
        while d < end {
            if d < 256 {
                t[d] = sym as u8;
            } else {
                t[256 + (d >> 7)] = sym as u8;
            }
            d += 1;
        }
        sym += 1;
    }
    t
};

/// Index into [`LEN_BASE`]/[`LEN_EXTRA`] for a match length (3..=258).
#[inline(always)]
pub fn length_index(len: u16) -> usize {
    debug_assert!((3..=258).contains(&len));
    LEN_SYMBOL[(len - 3) as usize & 0xff] as usize
}

/// Index into [`DIST_BASE`]/[`DIST_EXTRA`] for a match distance (1..=32768).
#[inline(always)]
pub fn distance_index(dist: u16) -> usize {
    debug_assert!((1..=32768).contains(&dist));
    let d = (dist - 1) as usize;
    (if d < 256 {
        DIST_SYMBOL[d]
    } else {
        DIST_SYMBOL[256 + (d >> 7)]
    }) as usize
}

/// Map a match length (3..=258) to (litlen symbol, extra bits, extra value).
#[cfg(test)]
pub fn length_to_symbol(len: u16) -> (u16, u8, u16) {
    let idx = length_index(len);
    (257 + idx as u16, LEN_EXTRA[idx], len - LEN_BASE[idx])
}

/// Map a match distance (1..=32768) to (distance symbol, extra bits, extra value).
#[cfg(test)]
pub fn distance_to_symbol(dist: u16) -> (u16, u8, u16) {
    let idx = distance_index(dist);
    (idx as u16, DIST_EXTRA[idx], dist - DIST_BASE[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_symbol_edges() {
        assert_eq!(length_to_symbol(3), (257, 0, 0));
        assert_eq!(length_to_symbol(10), (264, 0, 0));
        assert_eq!(length_to_symbol(11), (265, 1, 0));
        assert_eq!(length_to_symbol(12), (265, 1, 1));
        assert_eq!(length_to_symbol(257), (284, 5, 30));
        assert_eq!(length_to_symbol(258), (285, 0, 0));
    }

    #[test]
    fn distance_symbol_edges() {
        assert_eq!(distance_to_symbol(1), (0, 0, 0));
        assert_eq!(distance_to_symbol(4), (3, 0, 0));
        assert_eq!(distance_to_symbol(5), (4, 1, 0));
        assert_eq!(distance_to_symbol(6), (4, 1, 1));
        assert_eq!(distance_to_symbol(24577), (29, 13, 0));
        assert_eq!(distance_to_symbol(32768), (29, 13, 8191));
    }

    /// The tables are the reverse linear scan they replaced.
    #[test]
    fn lookup_tables_match_a_scan_of_the_bases() {
        let scan = |bases: &[u16], v: u16| bases.iter().rposition(|&b| v >= b).unwrap();
        for len in 3..=258u16 {
            assert_eq!(length_index(len), scan(&LEN_BASE, len), "length {len}");
        }
        for dist in 1..=32768u16 {
            assert_eq!(
                distance_index(dist),
                scan(&DIST_BASE, dist),
                "distance {dist}"
            );
        }
    }

    #[test]
    fn every_length_round_trips() {
        for len in 3..=258u16 {
            let (sym, extra, val) = length_to_symbol(len);
            let base = LEN_BASE[(sym - 257) as usize];
            assert_eq!(base + val, len);
            assert!(val < (1 << extra) || extra == 0 && val == 0);
        }
    }

    #[test]
    fn every_distance_round_trips() {
        for dist in 1..=32768u32 {
            let (sym, extra, val) = distance_to_symbol(dist as u16);
            let base = DIST_BASE[sym as usize] as u32;
            assert_eq!(base + val as u32, dist);
            assert!(extra == 0 && val == 0 || (val as u32) < (1 << extra));
        }
    }
}
