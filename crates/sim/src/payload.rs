//! Zero-copy message payloads.
//!
//! Extent bytes used to travel through the simulated stack as `Vec<u8>`,
//! deep-copied at every actor boundary: request creation cloned the
//! immediates into the descriptor, delivery cloned them again into the
//! process, and retransmission kept whole duplicates alive. [`Payload`] is
//! a cheap-clone handle — an `Arc<[u8]>` plus an `(offset, len)` window —
//! so passing bytes between actors is a refcount bump and slicing is free.
//!
//! The type dereferences to `[u8]` and compares against `Vec<u8>`/`[u8]`,
//! so most call sites treat it exactly like the byte vector it replaced.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheap-clone handle to immutable bytes.
#[derive(Clone)]
pub struct Payload {
    bytes: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Payload {
    /// An empty payload (no allocation is shared, but none is needed).
    pub fn empty() -> Self {
        Payload {
            bytes: Arc::from(&[][..]),
            off: 0,
            len: 0,
        }
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[self.off..self.off + self.len]
    }

    /// A sub-view of this payload sharing the same backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the payload's bounds.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "payload slice {range:?} out of bounds (len {})",
            self.len
        );
        Payload {
            bytes: Arc::clone(&self.bytes),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Copies the bytes into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Payload {
            bytes: Arc::from(v),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Self {
        Payload {
            bytes: Arc::from(s),
            off: 0,
            len: s.len(),
        }
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(a: [u8; N]) -> Self {
        Payload::from(&a[..])
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(bytes: Arc<[u8]>) -> Self {
        let len = bytes.len();
        Payload { bytes, off: 0, len }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Payload {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Payload {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Full contents would drown logs for extent-sized payloads.
        const PREVIEW: usize = 16;
        if self.len <= PREVIEW {
            write!(f, "Payload({:?})", self.as_slice())
        } else {
            write!(
                f,
                "Payload({:?}.. len {})",
                &self.as_slice()[..PREVIEW],
                self.len
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_vec_and_compares_like_bytes() {
        let p = Payload::from(vec![1u8, 2, 3]);
        assert_eq!(p.len(), 3);
        assert_eq!(p, vec![1u8, 2, 3]);
        assert_eq!(vec![1u8, 2, 3], p);
        assert_eq!(p, [1u8, 2, 3]);
        assert_eq!(&p[..], &[1u8, 2, 3]);
        assert_eq!(p.to_vec(), vec![1, 2, 3]);
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn clones_share_the_backing_buffer() {
        let p = Payload::from(vec![0u8; 4096]);
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.bytes, &q.bytes));
        assert_eq!(p, q);
    }

    #[test]
    fn slices_are_views_not_copies() {
        let p = Payload::from((0u8..64).collect::<Vec<_>>());
        let s = p.slice(10..20);
        assert!(Arc::ptr_eq(&p.bytes, &s.bytes));
        assert_eq!(&s[..], &(10u8..20).collect::<Vec<_>>()[..]);
        let ss = s.slice(2..4);
        assert_eq!(&ss[..], &[12u8, 13]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        Payload::from(vec![0u8; 4]).slice(2..9);
    }

    #[test]
    fn hash_and_ord_follow_byte_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Payload::from(vec![1u8, 2]);
        let b = Payload::from(vec![0u8, 1, 2, 3]).slice(1..3);
        let hash = |p: &Payload| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        let c = Payload::from(vec![1u8, 3]);
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Less);
    }

    #[test]
    fn debug_previews_long_payloads() {
        let long = Payload::from(vec![0u8; 100]);
        let s = format!("{long:?}");
        assert!(s.contains("len 100"), "{s}");
        assert!(s.len() < 120, "{s}");
    }
}
