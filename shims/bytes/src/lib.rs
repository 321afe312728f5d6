//! Offline stand-in for the `bytes` crate (the subset this workspace uses).
//!
//! Provides [`Bytes`]: an immutable, cheaply cloneable byte buffer backed by
//! an `Arc<[u8]>`. Clones share the allocation, matching the upstream crate's
//! key property (O(1) clone of packet payloads). Mutation and the `Buf`/
//! `BufMut` traits are intentionally absent — nothing here needs them.
//!
//! One difference from upstream matters on hot paths: **`From<Vec<u8>>`
//! copies here.** Upstream takes the vector's allocation over; an
//! `Arc<[u8]>` keeps its reference counts in front of the bytes, so the shim
//! allocates again and `memcpy`s. Every constructor costs exactly one
//! allocation and one copy of the data; to build a buffer from several
//! pieces, assemble them in a reused scratch `Vec` and freeze the result
//! with [`Bytes::copy_from_slice`] rather than allocating a `Vec` per buffer
//! and converting it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer borrowing a `'static` slice. The shim copies it once into a
    /// shared allocation; upstream's zero-copy behaviour is an optimisation
    /// no caller here observes.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy `data` into a new shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let arc: Arc<[u8]> = Arc::from(data);
        let end = arc.len();
        Bytes {
            data: arc,
            start: 0,
            end,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-buffer sharing the same allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies `v` into a new shared allocation and frees `v` — unlike
    /// upstream, which reuses the vector's buffer (see the crate docs).
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::from(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let c = Bytes::from_static(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.len(), 3);
        assert!(Bytes::new().is_empty());
        assert_eq!(&a[..], &[1, 2, 3]);
    }

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![7u8; 4096]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
    }

    #[test]
    fn slice_views_share_and_bound() {
        let a = Bytes::from((0u8..32).collect::<Vec<u8>>());
        let s = a.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], 4);
        let s2 = s.slice(2..);
        assert_eq!(&s2[..], &[6, 7, 8, 9, 10, 11]);
        assert!(Arc::ptr_eq(&a.data, &s2.data));
    }

    #[test]
    fn hash_matches_slice_semantics() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Bytes::from(vec![1, 2]));
        assert!(set.contains(&Bytes::copy_from_slice(&[1, 2])));
    }

    #[test]
    fn debug_escapes() {
        let d = format!("{:?}", Bytes::from_static(b"a\x00b"));
        assert_eq!(d, "b\"a\\x00b\"");
    }
}
