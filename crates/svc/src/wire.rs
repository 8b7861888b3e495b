//! The wire: every byte layout the service's VMMC channels carry, and
//! the one control discipline they share.
//!
//! ## One image
//!
//! A replication record is a little-endian header of 32-bit words —
//! `[seq u64][kind u32][klen u32][vlen u32][pad u32]` — then the key
//! and the value, each zero-padded to a word, so records pack back to
//! back and a bulk batch or a live group ships only their own bytes.
//! One writer ([`Record::encode`]) and one bounds-checked reader
//! (`words`, then `fields`, whose length limits are `extent`'s) stand
//! behind [`Record::decode`] / [`Record::size`]; nothing outside this
//! module touches a header by offset.
//!
//! ## One channel
//!
//! A record stream is a `shrimp_core::SlotChannel` of shape [`STREAM`]
//! whose reverse direction carries only acks: the channel's record
//! numbers count records, a chunk is one packed run of records — a
//! live group or a sync batch — and its flag, stored after the data by
//! automatic update, is the highest record it holds, so the receiver
//! learns the chunk's size from the flag it polls. Which slot a chunk
//! lands in is the paper's own split by size: a live group — the
//! records queued behind one in flight, packed while they fit in
//! [`REC_BYTES`] — rides an eager slot by automatic update, and a sync
//! batch is read from the data slot however short it is
//! ([`pad_batch`]). The receiver reads each record's header, then
//! exactly the key and value bytes it names ([`Record::size`]), never
//! past its slot.

use shrimp_core::SlotShape;

use crate::store::{Op, StoreEntry, MAX_KEY, MAX_VAL};

/// Record header: `[seq u64][kind u32][klen u32][vlen u32][pad u32]`.
pub(crate) const REC_HDR: usize = 24;
/// The largest record, and so the eager slot a live group packs into —
/// a multiple of the word size, as the channel's slots need.
pub(crate) const REC_BYTES: usize = REC_HDR + MAX_KEY + MAX_VAL;

/// A batch's capacity, and so one slot of the stream: eight of the
/// largest records.
pub(crate) const BATCH_BYTES: usize = 8 * REC_BYTES;
/// Most records one packed batch can hold (all of them bare headers).
pub(crate) const BATCH_MAX_RECS: usize = BATCH_BYTES / REC_HDR;

/// Every record stream's channel: one batch per slot; an eager slot
/// that holds the largest record alone, or a group of smaller ones, so
/// every live chunk is stored straight into the peer's control block
/// by automatic update, its flag behind it in store order (one word
/// takes 4.75 µs that way, 7.6 µs by deliberate update — §3.4); and a
/// short poll burst covering the common in-flight case before a wait
/// blocks (a landing packet wakes the waiter).
pub(crate) const STREAM: SlotShape = SlotShape {
    slot: BATCH_BYTES,
    eager: REC_BYTES,
    polls: 16,
};

/// The short-batch rule: the receiver reads a sync batch from the data
/// slot, so a batch no longer than an eager payload — a lone cut — is
/// zero-padded one word past it rather than riding an eager slot. The
/// receiver reads only the records the flag admits, never the pad.
pub(crate) fn pad_batch(buf: &mut Vec<u8>) {
    buf.resize(buf.len().max(STREAM.eager + 4), 0);
}

/// Word-align a payload length (the hardware's transfer restriction).
fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// The `N` header words at the front of `raw`, if it holds that many.
fn words<const N: usize>(raw: &[u8]) -> Option<[u32; N]> {
    let head = raw.get(..4 * N)?;
    Some(std::array::from_fn(|i| {
        u32::from_le_bytes(head[4 * i..4 * i + 4].try_into().expect("four bytes"))
    }))
}

/// The bytes a record whose header names `klen` and `vlen` occupies,
/// the lengths checked against the format's limits.
fn extent(klen: u32, vlen: u32) -> Option<usize> {
    let (klen, vlen) = (klen as usize, vlen as usize);
    if klen > MAX_KEY || vlen > MAX_VAL {
        return None;
    }
    Some(REC_HDR + pad4(klen) + pad4(vlen))
}

/// The key and value fields behind a record header: lengths checked
/// against the format's limits, the image against the bytes `raw`
/// holds. Returns the image's size too.
fn fields(raw: &[u8], klen: u32, vlen: u32) -> Option<(usize, &[u8], &[u8])> {
    let used = extent(klen, vlen)?;
    if raw.len() < used {
        return None;
    }
    let (klen, vlen) = (klen as usize, vlen as usize);
    let val = REC_HDR + pad4(klen);
    Some((used, &raw[REC_HDR..REC_HDR + klen], &raw[val..val + vlen]))
}

/// What a record does to the receiving store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// An entry: a snapshot entry before the stream's cut (loaded at
    /// its original store sequence), a live `put` after it.
    Put = 1,
    /// A tombstone, likewise.
    Del = 2,
    /// Closes a snapshot+delta sync: `seq` is the source's exact apply
    /// sequence at the cut; key and value are empty.
    Cut = 3,
}

/// One replication record, borrowed from whatever holds its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record<'a> {
    /// The store sequence the record carries.
    pub(crate) seq: u64,
    /// What it does.
    pub(crate) kind: Kind,
    /// Key bytes (empty for a cut).
    pub(crate) key: &'a [u8],
    /// Value bytes (empty unless a put).
    pub(crate) val: &'a [u8],
}

impl<'a> Record<'a> {
    /// A store entry at `seq`: a value, or `None` for a tombstone.
    pub(crate) fn entry(seq: u64, key: &'a [u8], val: Option<&'a [u8]>) -> Record<'a> {
        let kind = if val.is_some() { Kind::Put } else { Kind::Del };
        Record {
            seq,
            kind,
            key,
            val: val.unwrap_or(&[]),
        }
    }

    /// The record replaying one live mutation.
    pub(crate) fn of_op(seq: u64, op: &'a Op) -> Record<'a> {
        match op {
            Op::Put { key, val } => Record::entry(seq, key, Some(val)),
            Op::Del { key } => Record::entry(seq, key, None),
        }
    }

    /// The record carrying one snapshot or delta entry.
    pub(crate) fn of_entry((key, seq, val): &'a StoreEntry) -> Record<'a> {
        Record::entry(*seq, key, val.as_deref())
    }

    /// The cut record pinning the receiver at `seq`.
    pub(crate) fn cut(seq: u64) -> Record<'static> {
        Record {
            seq,
            kind: Kind::Cut,
            key: &[],
            val: &[],
        }
    }

    /// The mutation an entry record carries (`None` for a cut).
    pub(crate) fn op(&self) -> Option<Op> {
        let key = self.key.to_vec();
        match self.kind {
            Kind::Put => Some(Op::Put {
                key,
                val: self.val.to_vec(),
            }),
            Kind::Del => Some(Op::Del { key }),
            Kind::Cut => None,
        }
    }

    /// Bytes [`Record::encode`] appends.
    pub(crate) fn len(&self) -> usize {
        REC_HDR + pad4(self.key.len()) + pad4(self.val.len())
    }

    /// Append the record's image to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.key.len() <= MAX_KEY && self.val.len() <= MAX_VAL);
        let head = [
            self.seq as u32,
            (self.seq >> 32) as u32,
            self.kind as u32,
            self.key.len() as u32,
            self.val.len() as u32,
            0,
        ];
        for w in head {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        for field in [self.key, self.val] {
            buf.extend_from_slice(field);
            buf.resize(buf.len() + pad4(field.len()) - field.len(), 0);
        }
    }

    /// The bytes the record whose header leads `head` occupies, by the
    /// length checks [`Record::decode`] makes: what a receiver reads
    /// behind the header. `None` if `head` is short of a header or
    /// names a key or value past the format's limits.
    pub(crate) fn size(head: &[u8]) -> Option<usize> {
        let [_, _, _, klen, vlen, _] = words(head)?;
        extent(klen, vlen)
    }

    /// Parse one record off the front of `raw`: the bytes it occupied
    /// and the record. `None` on a malformed image — the receiver
    /// treats it as channel corruption and unwinds, rather than
    /// panicking inside the kernel.
    pub(crate) fn decode(raw: &'a [u8]) -> Option<(usize, Record<'a>)> {
        let [lo, hi, kind, klen, vlen, _] = words(raw)?;
        let kind = [Kind::Put, Kind::Del, Kind::Cut]
            .into_iter()
            .find(|k| *k as u32 == kind)?;
        let (used, key, val) = fields(raw, klen, vlen)?;
        let seq = lo as u64 | (hi as u64) << 32;
        Some((
            used,
            Record {
                seq,
                kind,
                key,
                val,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
        vec(any::<u8>(), 0..max + 1)
    }

    /// An arbitrary well-formed record as `(seq, kind, key, val)`.
    fn record() -> impl Strategy<Value = (u64, u32, Vec<u8>, Vec<u8>)> {
        (any::<u64>(), 1u32..4, bytes(MAX_KEY), bytes(MAX_VAL))
    }

    fn borrowed((seq, kind, key, val): &(u64, u32, Vec<u8>, Vec<u8>)) -> Record<'_> {
        let kind = [Kind::Put, Kind::Del, Kind::Cut][*kind as usize - 1];
        Record {
            seq: *seq,
            kind,
            key,
            val,
        }
    }

    fn encoded(rec: &Record<'_>) -> Vec<u8> {
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), rec.len());
        buf
    }

    /// The decoder over `raw` may not panic, report more bytes than it
    /// was given, or hand back a field past the format's limits.
    fn decoder_holds_its_bounds(raw: &[u8]) -> Result<(), TestCaseError> {
        if let Some((used, rec)) = Record::decode(raw) {
            prop_assert!(used <= raw.len(), "over-read");
            prop_assert_eq!(used, rec.len());
            prop_assert_eq!(
                Record::size(raw),
                Some(used),
                "the header names what decode read"
            );
            prop_assert!(rec.key.len() <= MAX_KEY && rec.val.len() <= MAX_VAL);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_or_over_read(
            raw in vec(any::<u8>(), 0..256),
        ) {
            decoder_holds_its_bounds(&raw)?;
        }

        /// Pure noise almost never gets past the kind check, so also
        /// start from a well-formed image, overwrite one header word
        /// and cut the buffer short: every bounds check sees traffic.
        #[test]
        fn damaged_images_never_panic_or_over_read(
            r in record(),
            word in 0usize..6,
            with in prop_oneof![any::<u32>(), 0u32..200],
            keep in 0usize..REC_BYTES + 1,
        ) {
            let mut raw = encoded(&borrowed(&r));
            if let Some(w) = raw.get_mut(4 * word..4 * word + 4) {
                w.copy_from_slice(&with.to_le_bytes());
            }
            raw.truncate(keep);
            decoder_holds_its_bounds(&raw)?;
        }

        #[test]
        fn a_record_round_trips_and_fits_a_live_slot(r in record()) {
            let rec = borrowed(&r);
            let raw = encoded(&rec);
            prop_assert_eq!(raw.len() % 4, 0, "images stay word-aligned");
            prop_assert!(raw.len() <= REC_BYTES, "a live record fits its slot");
            prop_assert_eq!(Record::size(&raw[..REC_HDR]), Some(raw.len()));
            prop_assert_eq!(Record::decode(&raw), Some((raw.len(), rec)));
        }

        #[test]
        fn a_packed_batch_decodes_to_the_same_list(batch in vec(record(), 0..9)) {
            let recs: Vec<Record<'_>> = batch.iter().map(borrowed).collect();
            let mut raw = Vec::new();
            for rec in &recs {
                rec.encode(&mut raw);
            }
            prop_assert!(raw.len() <= BATCH_BYTES, "eight records always fit a batch");
            let (mut off, mut back) = (0, Vec::new());
            while back.len() < recs.len() {
                let Some((used, rec)) = Record::decode(&raw[off..]) else {
                    break;
                };
                off += used;
                back.push(rec);
            }
            prop_assert_eq!(back, recs);
            prop_assert_eq!(off, raw.len(), "`used` sums to the batch length");
        }
    }

    #[test]
    fn records_reject_malformed_headers() {
        assert_eq!(Record::entry(78, b"alpha", None).kind, Kind::Del);
        assert_eq!(REC_BYTES % 4, 0, "slot offsets must stay word-aligned");
        let widest = Record::entry(1, &[7; MAX_KEY], Some(&[9; MAX_VAL]));
        assert_eq!(widest.len(), REC_BYTES, "the widest record fills its slot");

        assert!(Record::decode(&[0u8; 8]).is_none(), "truncated");
        let good = encoded(&Record::entry(1, b"k", Some(b"v")));
        let mut bad_kind = good.clone();
        bad_kind[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(Record::decode(&bad_kind).is_none(), "unknown kind");
        // Each image holds the bytes its bad length claims, so only the
        // length limit can reject it.
        for (word, limit, what) in [(3, MAX_KEY, "key"), (4, MAX_VAL, "value")] {
            let mut bad_len = good.clone();
            bad_len[4 * word..4 * word + 4].copy_from_slice(&(limit as u32 + 1).to_le_bytes());
            bad_len.resize(REC_BYTES + 8, 0);
            assert!(
                Record::decode(&bad_len).is_none(),
                "oversized {what} length"
            );
        }
        assert!(
            Record::decode(&good[..good.len() - 1]).is_none(),
            "short image"
        );
    }

    #[test]
    fn packed_records_round_trip_back_to_back() {
        let recs = [
            Record::entry(9, b"alpha", Some(b"some value")),
            Record::entry(10, b"beta!!", None),
            Record::cut(11),
        ];
        let mut buf = Vec::new();
        for rec in &recs {
            rec.encode(&mut buf);
        }
        assert_eq!(buf.len() % 4, 0, "packed batches stay word-aligned");
        let mut off = 0;
        for (rec, used) in recs.iter().zip([REC_HDR + 8 + 12, REC_HDR + 8, REC_HDR]) {
            assert_eq!(Record::decode(&buf[off..]), Some((used, *rec)));
            off += used;
        }
        assert_eq!(off, buf.len());

        assert!(Record::decode(&buf[..10]).is_none(), "truncated header");
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(Record::decode(&bad).is_none(), "unknown kind");
    }
}
