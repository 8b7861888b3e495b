//! The wire: every byte layout the service's VMMC channels carry, and
//! the one control discipline they share.
//!
//! ## One image, two uses
//!
//! A replication record and a read-through slot are the same thing — a
//! little-endian header of 32-bit words, a key field, a value field:
//!
//! | field   | width | record        | slot |
//! |---------|-------|---------------|------|
//! | `seq`   | u64   | ✓             |      |
//! | `kind`  | u32   | ✓             |      |
//! | `epoch` | u32   |               | ✓    |
//! | `seq`   | u32   |               | ✓    |
//! | `klen`  | u32   | ✓             | ✓    |
//! | `vlen`  | u32   | ✓             | ✓ (or a [`slot`] tag) |
//! | pad     | u32   | ✓             |      |
//! | key     |       | `pad4(klen)`  | [`MAX_KEY`] |
//! | value   |       | `pad4(vlen)`  | [`MAX_VAL`] |
//!
//! They differ in where the value starts ([`Placement`]) and in what
//! the header's leading words say. A record is packed, so a bulk batch
//! runs records back to back and a live record ships only its own
//! bytes; a slot is fixed, so every slot has one size and one offset.
//! One writer (`put_image`) and one bounds-checked reader (`words`,
//! then `fields`) stand behind [`Record::encode`] / [`Record::decode`]
//! and [`slot::encode`] / [`slot::decode`]; nothing outside this module
//! touches a header by offset.
//!
//! ## One monotone word
//!
//! Data first, then one control word: VMMC delivers in order, so a word
//! stored after the data it covers is that data's commit point. A
//! record stream has two such words — the sender's *flag* (highest
//! stream index deposited) and the receiver's cumulative *ack* — and
//! both are a [`WordWriter`] on one side and a [`WordWaiter`] on the
//! other, compared with the wrapping [`seq_ge`]. The writer stores the
//! word by automatic update, so it costs a store, not a transfer.

use shrimp_core::{ImportHandle, Vmmc, VmmcError};
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_obs::MsgId;
use shrimp_sim::Ctx;

use crate::cluster::WATCH_INTERVAL;
use crate::store::{Op, StoreEntry, MAX_KEY, MAX_VAL};

/// Record header: `[seq u64][kind u32][klen u32][vlen u32][pad u32]`.
const REC_HDR: usize = 24;
/// The largest record, and so the size of a live record's slot — a
/// multiple of the word size, so slot offsets stay aligned for
/// deliberate update.
pub(crate) const REC_BYTES: usize = REC_HDR + MAX_KEY + MAX_VAL;

/// Replication channel depth: live records in flight, and (times the
/// record size) the bulk sync phases' batch capacity.
pub(crate) const REPL_SLOTS: usize = 8;
/// The record area of a stream's region, `| rec 0 | … | rec S-1 |`; the
/// flag word sits right behind it.
pub(crate) const REGION_BYTES: usize = REPL_SLOTS * REC_BYTES;
/// Most records one packed batch can hold (all of them bare headers).
pub(crate) const BATCH_MAX_RECS: usize = REGION_BYTES / REC_HDR;
// Any one record fits a batch, so packing always makes progress.
const _: () = assert!(REGION_BYTES >= REC_BYTES);

/// Byte offset of the slot live record `idx` (from 1) lands in.
pub(crate) fn live_offset(idx: u64) -> usize {
    ((idx - 1) % REPL_SLOTS as u64) as usize * REC_BYTES
}

/// Word-align a payload length (the hardware's transfer restriction).
fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Wrapping `>=` over `u32` sequence numbers (the control words
/// truncate 64-bit counters to the wire's 32 bits).
pub(crate) fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// Where an image's value field starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Records: key and value word-padded, back to back, so records
    /// pack variable-length and ship only their own bytes.
    Packed,
    /// Read-through slots: whole [`MAX_KEY`] and [`MAX_VAL`] fields, so
    /// every slot has one size and one offset.
    Fixed,
}

impl Placement {
    /// Bytes the key and value fields occupy.
    fn widths(self, klen: usize, vlen: usize) -> (usize, usize) {
        match self {
            Placement::Packed => (pad4(klen), pad4(vlen)),
            Placement::Fixed => (MAX_KEY, MAX_VAL),
        }
    }
}

/// Append one image: the header words, then each field zero-padded to
/// its placement's width.
fn put_image(buf: &mut Vec<u8>, head: &[u32], key: &[u8], val: &[u8], place: Placement) {
    debug_assert!(key.len() <= MAX_KEY && val.len() <= MAX_VAL);
    for w in head {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    let (kw, vw) = place.widths(key.len(), val.len());
    for (field, width) in [(key, kw), (val, vw)] {
        buf.extend_from_slice(field);
        buf.resize(buf.len() + width - field.len(), 0);
    }
}

/// The `N` header words at the front of `raw`, if it holds that many.
fn words<const N: usize>(raw: &[u8]) -> Option<[u32; N]> {
    let head = raw.get(..4 * N)?;
    Some(std::array::from_fn(|i| {
        u32::from_le_bytes(head[4 * i..4 * i + 4].try_into().expect("four bytes"))
    }))
}

/// The key and value fields behind a `hdr`-byte header: lengths checked
/// against the format's limits, the image against the bytes `raw`
/// holds. Returns the image's size too.
fn fields(
    raw: &[u8],
    hdr: usize,
    klen: u32,
    vlen: u32,
    place: Placement,
) -> Option<(usize, &[u8], &[u8])> {
    let (klen, vlen) = (klen as usize, vlen as usize);
    if klen > MAX_KEY || vlen > MAX_VAL {
        return None;
    }
    let (kw, vw) = place.widths(klen, vlen);
    let used = hdr + kw + vw;
    if raw.len() < used {
        return None;
    }
    let val = &raw[hdr + kw..hdr + kw + vlen];
    Some((used, &raw[hdr..hdr + klen], val))
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
        let (kw, vw) = Placement::Packed.widths(self.key.len(), self.val.len());
        REC_HDR + kw + vw
    }

    /// Append the record's image to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        let head = [
            self.seq as u32,
            (self.seq >> 32) as u32,
            self.kind as u32,
            self.key.len() as u32,
            self.val.len() as u32,
            0,
        ];
        put_image(buf, &head, self.key, self.val, Placement::Packed);
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
        let (used, key, val) = fields(raw, REC_HDR, klen, vlen, Placement::Packed)?;
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

/// The read-through slot: the publication of one key's latest entry
/// under one routing epoch, always [`Placement::Fixed`].
pub(crate) mod slot {
    use super::{fields, put_image, words, Placement, MAX_KEY, MAX_VAL};

    /// Slot header: `[epoch u32][seq u32][klen u32][vlen u32]`.
    const SLOT_HDR: usize = 16;
    /// Whole slot size — a multiple of the word size so slot offsets
    /// meet the fetch engine's alignment restriction.
    pub(crate) const SLOT_BYTES: usize = SLOT_HDR + MAX_KEY + MAX_VAL;

    /// `vlen` tag: the slot has never held a key.
    const VLEN_EMPTY: u32 = u32::MAX;
    /// `vlen` tag: the slot's key is deleted (a sequenced tombstone).
    const VLEN_TOMB: u32 = u32::MAX - 1;

    fn image(epoch: u32, seq: u32, key: &[u8], vlen: u32, val: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(SLOT_BYTES);
        let head = [epoch, seq, key.len() as u32, vlen];
        put_image(&mut out, &head, key, val, Placement::Fixed);
        out
    }

    /// The image publishing `key`'s entry (`None` = tombstone).
    pub(crate) fn encode(epoch: u32, seq: u32, key: &[u8], val: Option<&[u8]>) -> Vec<u8> {
        match val {
            Some(v) => image(epoch, seq, key, v.len() as u32, v),
            None => image(epoch, seq, key, VLEN_TOMB, &[]),
        }
    }

    /// The image of a slot that publishes nothing (a fresh table must
    /// not decode as publishing the zero key under epoch 0).
    pub(crate) fn empty(epoch: u32) -> Vec<u8> {
        image(epoch, 0, &[], VLEN_EMPTY, &[])
    }

    /// What a fetched slot says about `key` under `epoch`: the entry's
    /// sequence and value (`None` = deleted) when the slot publishes
    /// exactly that key at exactly that epoch. Empty, a different key
    /// (collision), a different epoch or anything malformed is `None` —
    /// a miss; the fallback RPC is always correct.
    pub(crate) fn decode(raw: &[u8], epoch: u32, key: &[u8]) -> Option<(u64, Option<Vec<u8>>)> {
        let [slot_epoch, seq, klen, vlen] = words(raw)?;
        if slot_epoch != epoch || vlen == VLEN_EMPTY {
            return None;
        }
        let tomb = vlen == VLEN_TOMB;
        let (_, slot_key, val) = fields(
            raw,
            SLOT_HDR,
            klen,
            if tomb { 0 } else { vlen },
            Placement::Fixed,
        )?;
        (slot_key == key).then(|| (seq as u64, (!tomb).then(|| val.to_vec())))
    }
}

/// Poll budget for a word wait: a short poll burst covering the common
/// in-flight case, then the blocking half of the polling/blocking
/// switch (a landing packet wakes the waiter).
const WORD_POLLS: usize = 16;

/// The raising half of a monotone word: a page bound by automatic
/// update to the page of the peer's export that holds the word, so a
/// store into it is the word's update.
pub(crate) struct WordWriter<'a> {
    vmmc: &'a Vmmc,
    /// The word's image in the bound page.
    word: VAddr,
    dst: ImportHandle,
}

impl<'a> WordWriter<'a> {
    /// A writer of the word at `off` in `dst` (exports start on a page).
    ///
    /// # Errors
    ///
    /// Fails if the automatic-update binding cannot be created.
    pub(crate) fn new(
        vmmc: &'a Vmmc,
        ctx: &Ctx,
        dst: ImportHandle,
        off: usize,
    ) -> Result<WordWriter<'a>, VmmcError> {
        let mirror = vmmc.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let within = off % PAGE_SIZE;
        // Combining stays off, as for shrimp-coll's flags: its timer
        // would hold every lone word.
        vmmc.bind_au(ctx, mirror, &dst, off - within, 1, false, false)?;
        Ok(WordWriter {
            vmmc,
            word: mirror.add(within),
            dst,
        })
    }

    /// The import the word lives in (a stream's records land in it too).
    pub(crate) fn dst(&self) -> &ImportHandle {
        &self.dst
    }

    /// Advance the word to `v`. The store's packet leaves behind every
    /// completed send to the same node, so in-order delivery lands it
    /// behind that data. A store cannot see a dead peer: only the
    /// fenced [`WordWaiter::wait_ge`] on the answering word does.
    pub(crate) fn raise(&self, ctx: &Ctx, v: u32) {
        let start = ctx.now();
        self.vmmc
            .proc_()
            .write_u32(ctx, self.word, v)
            .expect("the bound page is this writer's own, mapped writable");
        self.vmmc
            .user_span(MsgId::NONE, "raise", start, ctx.now(), 4);
    }
}

/// The waiting half of a monotone word: the local address the peer's
/// [`WordWriter`] stores into.
pub(crate) struct WordWaiter<'a> {
    vmmc: &'a Vmmc,
    va: VAddr,
}

impl<'a> WordWaiter<'a> {
    /// A waiter on the exported word at `va`.
    pub(crate) fn new(vmmc: &'a Vmmc, va: VAddr) -> WordWaiter<'a> {
        WordWaiter { vmmc, va }
    }

    /// Wait until the word reaches `need` and return it. The wait runs
    /// in [`WATCH_INTERVAL`] slices; between slices `fence` says
    /// whether to give up, which surfaces as the slice's own
    /// [`VmmcError::Timeout`].
    pub(crate) fn wait_ge(
        &self,
        ctx: &Ctx,
        need: u32,
        fence: impl Fn() -> bool,
    ) -> Result<u32, VmmcError> {
        loop {
            let slice = ctx.now() + WATCH_INTERVAL;
            match self
                .vmmc
                .wait_u32_deadline(ctx, self.va, WORD_POLLS, slice, |v| seq_ge(v, need))
            {
                Err(VmmcError::Timeout { .. }) if !fence() => {}
                done => return done,
            }
        }
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

    /// Every decoder over `raw`: none may panic, report more bytes than
    /// it was given, or hand back a field past the format's limits.
    fn decoders_hold_their_bounds(raw: &[u8], epoch: u32, key: &[u8]) -> Result<(), TestCaseError> {
        if let Some((used, rec)) = Record::decode(raw) {
            prop_assert!(used <= raw.len(), "over-read");
            prop_assert_eq!(used, rec.len());
            prop_assert!(rec.key.len() <= MAX_KEY && rec.val.len() <= MAX_VAL);
        }
        if let Some((_, Some(val))) = slot::decode(raw, epoch, key) {
            prop_assert!(raw.len() >= slot::SLOT_BYTES && val.len() <= MAX_VAL);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic_or_over_read(
            raw in vec(any::<u8>(), 0..256),
            epoch in any::<u32>(),
            key in bytes(MAX_KEY),
        ) {
            decoders_hold_their_bounds(&raw, epoch, &key)?;
        }

        /// Pure noise almost never gets past the kind check, so also
        /// start from a well-formed image, overwrite one header word
        /// and cut the buffer short: every bounds check sees traffic.
        #[test]
        fn damaged_images_never_panic_or_over_read(
            r in record(),
            epoch in any::<u32>(),
            word in 0usize..6,
            with in prop_oneof![any::<u32>(), 0u32..200],
            keep in 0usize..REC_BYTES + 1,
        ) {
            let rec = borrowed(&r);
            let images = [
                encoded(&rec),
                slot::encode(epoch, rec.seq as u32, rec.key, (rec.kind == Kind::Put).then_some(rec.val)),
            ];
            for mut raw in images {
                if let Some(w) = raw.get_mut(4 * word..4 * word + 4) {
                    w.copy_from_slice(&with.to_le_bytes());
                }
                raw.truncate(keep);
                decoders_hold_their_bounds(&raw, epoch, rec.key)?;
            }
        }

        #[test]
        fn a_record_round_trips_and_fits_a_live_slot(r in record()) {
            let rec = borrowed(&r);
            let raw = encoded(&rec);
            prop_assert_eq!(raw.len() % 4, 0, "images stay word-aligned");
            prop_assert!(raw.len() <= REC_BYTES, "a live record fits its slot");
            prop_assert_eq!(Record::decode(&raw), Some((raw.len(), rec)));
        }

        #[test]
        fn a_packed_batch_decodes_to_the_same_list(batch in vec(record(), 0..9)) {
            let recs: Vec<Record<'_>> = batch.iter().map(borrowed).collect();
            let mut raw = Vec::new();
            for rec in &recs {
                rec.encode(&mut raw);
            }
            prop_assert!(raw.len() <= REGION_BYTES, "eight records always fit a batch");
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

        #[test]
        fn a_slot_answers_for_exactly_its_epoch_and_key(
            epoch in any::<u32>(),
            seq in any::<u32>(),
            key in bytes(MAX_KEY),
            live in any::<bool>(),
            val in bytes(MAX_VAL),
            other_epoch in any::<u32>(),
            other_key in bytes(MAX_KEY),
            cut in 0usize..MAX_KEY,
        ) {
            let val = live.then_some(val);
            let raw = slot::encode(epoch, seq, &key, val.as_deref());
            prop_assert_eq!(raw.len(), slot::SLOT_BYTES);
            prop_assert_eq!(slot::decode(&raw, epoch, &key), Some((seq as u64, val)));
            if other_epoch != epoch {
                prop_assert_eq!(slot::decode(&raw, other_epoch, &key), None);
            }
            if other_key != key {
                prop_assert_eq!(slot::decode(&raw, epoch, &other_key), None);
            }
            if cut < key.len() {
                prop_assert_eq!(slot::decode(&raw, epoch, &key[..cut]), None, "a proper prefix");
            }
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
        let mut bad_len = good.clone();
        bad_len[12..16].copy_from_slice(&(MAX_KEY as u32 + 1).to_le_bytes());
        assert!(Record::decode(&bad_len).is_none(), "oversized key length");
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

    #[test]
    fn slot_roundtrip_and_validation() {
        assert_eq!(
            slot::SLOT_BYTES % 4,
            0,
            "slot offsets must stay word-aligned"
        );
        let raw = slot::encode(3, 41, b"alpha", Some(b"value-bytes"));
        assert_eq!(
            slot::decode(&raw, 3, b"alpha"),
            Some((41, Some(b"value-bytes".to_vec())))
        );
        // Wrong epoch, wrong key, and a key prefix are all misses.
        assert_eq!(slot::decode(&raw, 4, b"alpha"), None);
        assert_eq!(slot::decode(&raw, 3, b"beta!"), None);
        assert_eq!(slot::decode(&raw, 3, b"alph"), None);

        let tomb = slot::encode(3, 42, b"alpha", None);
        assert_eq!(slot::decode(&tomb, 3, b"alpha"), Some((42, None)));

        // A never-written slot answers for no key, not even the empty
        // one under its own epoch.
        assert_eq!(slot::decode(&slot::empty(0), 0, b""), None);
        assert_eq!(
            slot::decode(&raw[..slot::SLOT_BYTES - 1], 3, b"alpha"),
            None
        );
    }

    #[test]
    fn seq_ge_wraps() {
        assert!(seq_ge(5, 5));
        assert!(seq_ge(6, 5));
        assert!(!seq_ge(5, 6));
        assert!(seq_ge(3, u32::MAX - 2));
    }
}
