//! `SimBuf` — the zero-copy payload buffer of the simulated datapath.
//!
//! Simulated hardware moves the *same* bytes through many stations: a
//! snooped write run is split into packets, each packet crosses the
//! mesh, lands in the incoming queue, and is DMAed into destination
//! memory. Modelling each station with an owned `Vec<u8>` costs one
//! allocation + copy per packet per station; for a 64-node collective
//! sweep that dominates the simulator's wall-clock time without
//! changing a single virtual timestamp.
//!
//! [`SimBuf`] is a reference-counted byte slice: a shared backing
//! allocation plus an `(offset, len)` window. Cloning and slicing are
//! O(1) and allocation-free, so packetization becomes "take a window"
//! and fan-out becomes "bump a refcount".
//!
//! ## Ownership rules (documented for the datapath)
//!
//! * A `SimBuf` is **immutable** through shared views: mutation is only
//!   possible via [`SimBuf::append`] on a buffer that uniquely owns its
//!   backing storage and ends exactly at the backing vector's tail —
//!   otherwise `append` copies out into a fresh allocation first.
//!   Holding a clone of a buffer therefore guarantees its bytes never
//!   change underneath you.
//! * Producers (snoop logic, DMA reads) build a `Vec<u8>` once and wrap
//!   it (`SimBuf::from`); every downstream station clones or slices.
//! * Consumers that need owned bytes at the end of the path (a memory
//!   write) read through `Deref<Target = [u8]>` — no copy-out needed.

use std::ops::{Deref, Range};
use std::sync::{Arc, LazyLock};

/// The backing every empty buffer shares: making one allocates nothing.
static EMPTY: LazyLock<Arc<Vec<u8>>> = LazyLock::new(|| Arc::new(Vec::new()));

/// A cheaply cloneable, sliceable, immutable byte buffer.
///
/// Equality and hashing are content-based (two buffers with the same
/// bytes compare equal regardless of sharing), so swapping a `Vec<u8>`
/// field for a `SimBuf` preserves observable behaviour.
#[derive(Clone)]
pub struct SimBuf {
    backing: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl SimBuf {
    /// The empty buffer. Every empty buffer shares one static backing,
    /// so this allocates nothing.
    pub fn new() -> SimBuf {
        SimBuf {
            backing: Arc::clone(&EMPTY),
            off: 0,
            len: 0,
        }
    }

    /// Wrap an owned vector without copying; an empty one is dropped
    /// for the shared empty backing.
    pub fn from_vec(v: Vec<u8>) -> SimBuf {
        if v.is_empty() {
            return SimBuf::new();
        }
        let len = v.len();
        SimBuf {
            backing: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-window of this buffer; shares the backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `self.len()`.
    pub fn slice(&self, r: Range<usize>) -> SimBuf {
        assert!(r.start <= r.end && r.end <= self.len, "slice out of range");
        SimBuf {
            backing: Arc::clone(&self.backing),
            off: self.off + r.start,
            len: r.end - r.start,
        }
    }

    /// Append bytes, extending the backing storage in place when this
    /// buffer is the sole owner and its window ends at the backing
    /// vector's tail (the packetizer's combining case: the open packet
    /// was built here and nobody else has seen it). Otherwise the
    /// visible bytes are copied out into a fresh allocation first.
    pub fn append(&mut self, bytes: &[u8]) {
        match Arc::get_mut(&mut self.backing) {
            Some(v) if self.off + self.len == v.len() => {
                v.extend_from_slice(bytes);
            }
            _ => {
                let mut v = Vec::with_capacity(self.len + bytes.len());
                v.extend_from_slice(&self.backing[self.off..self.off + self.len]);
                v.extend_from_slice(bytes);
                self.backing = Arc::new(v);
                self.off = 0;
            }
        }
        self.len += bytes.len();
    }

    /// Copy the visible bytes into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for SimBuf {
    fn default() -> SimBuf {
        SimBuf::new()
    }
}

impl Deref for SimBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.backing[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for SimBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for SimBuf {
    fn from(v: Vec<u8>) -> SimBuf {
        SimBuf::from_vec(v)
    }
}

impl From<&[u8]> for SimBuf {
    fn from(s: &[u8]) -> SimBuf {
        SimBuf::from_vec(s.to_vec())
    }
}

impl PartialEq for SimBuf {
    fn eq(&self, other: &SimBuf) -> bool {
        self[..] == other[..]
    }
}

impl Eq for SimBuf {}

impl std::fmt::Debug for SimBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimBuf({} bytes @{})", self.len, self.off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_backing_without_copying() {
        let b = SimBuf::from_vec((0u8..100).collect());
        let s = b.slice(10..20);
        assert_eq!(&s[..], &(10u8..20).collect::<Vec<_>>()[..]);
        assert!(Arc::ptr_eq(&b.backing, &s.backing));
        let s2 = s.slice(5..10);
        assert_eq!(&s2[..], &(15u8..20).collect::<Vec<_>>()[..]);
        assert!(Arc::ptr_eq(&b.backing, &s2.backing));
    }

    #[test]
    fn append_extends_in_place_when_unique_at_tail() {
        let mut b = SimBuf::from_vec(vec![1, 2, 3]);
        let backing_before = Arc::as_ptr(&b.backing);
        b.append(&[4, 5]);
        assert_eq!(&b[..], &[1, 2, 3, 4, 5]);
        assert_eq!(Arc::as_ptr(&b.backing), backing_before);
    }

    #[test]
    fn append_copies_when_shared() {
        let mut b = SimBuf::from_vec(vec![1, 2, 3]);
        let held = b.clone();
        b.append(&[4]);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        // The held clone must be unaffected: immutability through shares.
        assert_eq!(&held[..], &[1, 2, 3]);
    }

    #[test]
    fn append_copies_when_window_not_at_tail() {
        let base = SimBuf::from_vec(vec![1, 2, 3, 4]);
        let mut head = base.slice(0..2);
        drop(base); // head is now unique, but its window ends mid-vector
        head.append(&[9]);
        assert_eq!(&head[..], &[1, 2, 9]);
    }

    #[test]
    fn equality_is_content_based() {
        let a = SimBuf::from_vec(vec![7, 8, 9]);
        let b = SimBuf::from_vec(vec![0, 7, 8, 9, 0]).slice(1..4);
        assert_eq!(a, b);
        assert_ne!(a, SimBuf::from_vec(vec![7, 8]));
    }

    #[test]
    fn empty_buffers_share_one_backing() {
        let (a, b) = (SimBuf::new(), SimBuf::from(Vec::with_capacity(16)));
        assert!(Arc::ptr_eq(&a.backing, &b.backing));
        assert!(Arc::ptr_eq(&a.backing, &SimBuf::default().backing));
        assert_eq!(&a[..], &[] as &[u8]);
        assert_eq!(&b[..], &[] as &[u8]);
        // Appending to one copies out: the shared backing stays empty.
        let mut c = SimBuf::new();
        c.append(&[1, 2]);
        assert_eq!(&c[..], &[1, 2]);
        assert!(SimBuf::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn out_of_range_slice_panics() {
        SimBuf::from_vec(vec![0; 4]).slice(2..6);
    }
}
