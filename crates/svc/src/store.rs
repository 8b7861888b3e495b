//! The per-shard store: a hash map with per-entry apply sequence
//! numbers and tombstones.
//!
//! The sequence number is the replication and verification backbone:
//! the primary assigns one per mutation under the store lock, the
//! backup applies records in sequence order, and a client's ack
//! carries the sequence — so "zero lost acknowledged writes" is
//! checkable as *for every acked write, the surviving store's entry
//! for that key has a sequence at least as new*.

use std::collections::HashMap;

use crate::{fnv1a_fold, FNV_SEED};

/// Maximum key length the wire format carries (`opaque<32>` in the RPC
/// interface).
pub const MAX_KEY: usize = 32;

/// Maximum value length the wire format carries (`opaque<64>` in the
/// RPC interface).
pub const MAX_VAL: usize = 64;

/// One store entry as enumerated by [`ShardStore::entries`] /
/// [`ShardStore::entries_since`]: key, apply sequence, and value
/// (`None` = tombstone).
pub type StoreEntry = (Vec<u8>, u64, Option<Vec<u8>>);

/// A mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert or overwrite `key`.
    Put {
        /// Key bytes (≤ [`MAX_KEY`]).
        key: Vec<u8>,
        /// Value bytes (≤ [`MAX_VAL`]).
        val: Vec<u8>,
    },
    /// Delete `key` (leaves a sequenced tombstone).
    Del {
        /// Key bytes (≤ [`MAX_KEY`]).
        key: Vec<u8>,
    },
}

impl Op {
    /// The key the mutation targets.
    pub fn key(&self) -> &[u8] {
        match self {
            Op::Put { key, .. } | Op::Del { key } => key,
        }
    }
}

/// Outcome of applying one mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The shard-local apply sequence assigned to the mutation.
    pub seq: u64,
    /// Whether the key held a live value beforehand.
    pub existed: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    seq: u64,
    /// `None` is a tombstone: the key was deleted at `seq`.
    val: Option<Vec<u8>>,
}

/// One shard's key-value state.
#[derive(Debug, Default)]
pub struct ShardStore {
    map: HashMap<Vec<u8>, Entry>,
    last_seq: u64,
}

impl ShardStore {
    /// An empty store.
    pub fn new() -> ShardStore {
        ShardStore::default()
    }

    /// Apply a mutation as the primary: assigns the next sequence.
    pub fn apply_next(&mut self, op: &Op) -> Applied {
        let seq = self.last_seq + 1;
        self.apply_at(seq, op)
    }

    /// Apply a mutation at an externally assigned sequence (the
    /// backup's replay path). `seq` must be monotonically increasing
    /// across calls.
    pub fn apply_at(&mut self, seq: u64, op: &Op) -> Applied {
        self.last_seq = seq;
        let (key, val) = match op {
            Op::Put { key, val } => (key, Some(val.clone())),
            Op::Del { key } => (key, None),
        };
        let prev = self.map.insert(key.clone(), Entry { seq, val });
        Applied {
            seq,
            existed: prev.map(|e| e.val.is_some()).unwrap_or(false),
        }
    }

    /// Load one entry from a snapshot/delta stream: inserts the entry
    /// at its original sequence without claiming the sequence space
    /// between (entries arrive sorted by key, not by sequence). The
    /// stream's closing cut record fixes `last_seq` exactly via
    /// [`ShardStore::set_last_seq`].
    pub fn load_entry(&mut self, seq: u64, key: Vec<u8>, val: Option<Vec<u8>>) {
        self.last_seq = self.last_seq.max(seq);
        self.map.insert(key, Entry { seq, val });
    }

    /// Pin the apply sequence at a snapshot cut (must be at least the
    /// highest loaded entry's sequence).
    pub fn set_last_seq(&mut self, seq: u64) {
        debug_assert!(seq >= self.last_seq, "a cut never rewinds the store");
        self.last_seq = seq;
    }

    /// Read a key: `(entry sequence, value)`. A deleted key reports
    /// its tombstone's sequence with `None`; a never-written key
    /// reports `(0, None)`.
    pub fn get(&self, key: &[u8]) -> (u64, Option<&[u8]>) {
        match self.map.get(key) {
            Some(e) => (e.seq, e.val.as_deref()),
            None => (0, None),
        }
    }

    /// Highest sequence applied so far.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Number of live (non-tombstone) entries.
    pub fn len(&self) -> usize {
        self.map.values().filter(|e| e.val.is_some()).count()
    }

    /// True when no live entry exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry — including tombstones — sorted by key, for
    /// reference comparison in tests.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let mut out: Vec<_> = self
            .map
            .iter()
            .map(|(k, e)| (k.clone(), e.seq, e.val.clone()))
            .collect();
        out.sort();
        out
    }

    /// Entries (tombstones included) applied after sequence `cut`,
    /// sorted by key — the delta a migration or re-replication sync
    /// streams after its concurrent snapshot phase.
    pub fn entries_since(&self, cut: u64) -> Vec<StoreEntry> {
        let mut out: Vec<_> = self
            .map
            .iter()
            .filter(|(_, e)| e.seq > cut)
            .map(|(k, e)| (k.clone(), e.seq, e.val.clone()))
            .collect();
        out.sort();
        out
    }

    /// FNV-1a digest over the sorted entries (tombstones included)
    /// and the last sequence — a replay-stable fingerprint of the
    /// shard's state.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_SEED;
        let mut eat = |bytes: &[u8]| h = fnv1a_fold(h, bytes);
        for (k, seq, val) in self.entries() {
            eat(&(k.len() as u32).to_le_bytes());
            eat(&k);
            eat(&seq.to_le_bytes());
            match val {
                Some(v) => {
                    eat(&[1]);
                    eat(&(v.len() as u32).to_le_bytes());
                    eat(&v);
                }
                None => eat(&[0]),
            }
        }
        eat(&self.last_seq.to_le_bytes());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_tombstones_and_digest() {
        let mut s = ShardStore::new();
        let a = s.apply_next(&Op::Put {
            key: b"k".to_vec(),
            val: b"v1".to_vec(),
        });
        assert_eq!(a.seq, 1);
        assert!(!a.existed);
        let b = s.apply_next(&Op::Put {
            key: b"k".to_vec(),
            val: b"v2".to_vec(),
        });
        assert_eq!(b.seq, 2);
        assert!(b.existed);
        assert_eq!(s.get(b"k"), (2, Some(b"v2".as_slice())));

        let d = s.apply_next(&Op::Del { key: b"k".to_vec() });
        assert_eq!(d.seq, 3);
        assert!(d.existed);
        assert_eq!(s.get(b"k"), (3, None));
        assert_eq!(s.get(b"missing"), (0, None));
        assert_eq!(s.len(), 0);
        assert_eq!(s.last_seq(), 3);

        // Replaying the same ops at the same sequences reproduces the
        // digest exactly.
        let mut r = ShardStore::new();
        r.apply_at(
            1,
            &Op::Put {
                key: b"k".to_vec(),
                val: b"v1".to_vec(),
            },
        );
        r.apply_at(
            2,
            &Op::Put {
                key: b"k".to_vec(),
                val: b"v2".to_vec(),
            },
        );
        r.apply_at(3, &Op::Del { key: b"k".to_vec() });
        assert_eq!(s.digest(), r.digest());
    }
}
