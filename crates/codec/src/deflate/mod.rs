//! DEFLATE (RFC 1951), implemented from scratch.
//!
//! The PNG payload format the draft mandates is zlib/DEFLATE underneath, and
//! no compression crate is on the approved dependency list — so this module
//! provides a complete implementation: a total, DoS-bounded, table-driven
//! inflater and a compressor with stored, fixed-Huffman and dynamic-Huffman
//! blocks over an LZ77 hash-chain matcher with optional lazy matching.

pub mod bits;
pub mod compress;
pub mod huffman;
pub mod inflate;
#[cfg(test)]
mod oracle;
pub mod tables;

pub use compress::{deflate, Level};
pub use inflate::inflate;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// inflate(deflate(x)) == x for arbitrary bytes at every level.
        #[test]
        fn round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
                let c = deflate(&data, level);
                let back = inflate(&c, 1 << 24).unwrap();
                prop_assert_eq!(&back, &data);
            }
        }

        /// Highly repetitive structured data round-trips and shrinks.
        #[test]
        fn round_trip_repetitive(byte in any::<u8>(), reps in 1usize..20_000) {
            let data = vec![byte; reps];
            let c = deflate(&data, Level::Default);
            let back = inflate(&c, 1 << 24).unwrap();
            prop_assert_eq!(back, data);
        }

        /// The inflater never panics on arbitrary input.
        #[test]
        fn inflate_total(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let _ = inflate(&data, 1 << 20);
        }
    }
}
