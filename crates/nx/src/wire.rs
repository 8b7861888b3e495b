//! On-the-wire layout of an NX connection's region.
//!
//! Every ordered process pair s → r has one mapped region, exported by
//! r and written only by s — through s's automatic-update mirror of the
//! whole region, or by deliberate update. It holds:
//!
//! * `NPKT` fixed-size packet buffers, each a 32-byte descriptor and
//!   then the payload; the descriptor's `kind` word doubles as the
//!   arrival flag (it lands in the final packet, so in-order delivery
//!   makes it the commit point);
//! * then the **tail**, in the page the last buffer ends in (or the
//!   next, when the buffers fill whole pages): s's 8 large-transfer
//!   *done* slots, s's credit ring for the r → s packet buffers, s's
//!   scout reply slots for r's large sends, and the **urgent word**.
//!   When s finds every packet buffer full and a brief poll of its
//!   credit ring brings none, it stores the urgent word through a
//!   one-page binding with the destination-interrupt flag set (paper §6
//!   "Interrupts"); r takes the notification in its next library call.
//!   r returns each buffer's credit as soon as it frees the buffer.
//!
//! So a direction's control words ride the region of the opposite
//! direction, the one the writer already maps, and the tail fits in the
//! room the done slots left: no region is larger than its packet
//! buffers and done slots need, for any `NPKT` from 1 to 64.
//!
//! One spare word separates each tail area from the next. The
//! packetizer appends any store that continues an open packet's bytes
//! to that packet and ORs in its interrupt bit, so without the gaps a
//! reply to the first slot could ride a packet still open on the last
//! credit, and the urgent word a reply's packet, lending it the
//! interrupt: which words neighbour each other would change the packet
//! count. With the gaps every area packs as it did in a region of its
//! own.

use shrimp_node::PAGE_SIZE;

/// Bytes per packet buffer, descriptor included.
pub(crate) const PKT_BUF: usize = 2048;
/// Bytes of descriptor at the end of each packet buffer.
pub(crate) const DESC_BYTES: usize = 32;
/// Payload bytes per packet buffer.
pub const PKT_PAYLOAD: usize = PKT_BUF - DESC_BYTES;
/// Large-transfer done slots per connection.
pub(crate) const DONE_SLOTS: usize = 8;
/// Credit ring slots: the most packet buffers a connection may have
/// (`NxWorld::new` checks it). The receiver may return every buffer's
/// credit before the sender takes one, and credit `c + CREDIT_SLOTS`
/// lands on credit `c`'s slot.
pub(crate) const CREDIT_SLOTS: usize = 64;
/// Scout reply slots per connection: the most large sends a connection
/// may have outstanding (a further one waits for a reply first).
pub(crate) const REPLY_SLOTS: usize = 8;

/// Message kind tags stored in a descriptor. `0` marks a free buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum MsgKind {
    /// A complete small message.
    Small = 1,
    /// A scout announcing a large transfer (payload empty, `size` is the
    /// full length).
    Scout = 2,
    /// One chunk of a large transfer using the non-aligned fallback.
    Chunk = 3,
}

impl MsgKind {
    /// Decode a descriptor kind word.
    fn from_u32(v: u32) -> Option<MsgKind> {
        match v {
            1 => Some(MsgKind::Small),
            2 => Some(MsgKind::Scout),
            3 => Some(MsgKind::Chunk),
            _ => None,
        }
    }
}

/// A decoded packet-buffer descriptor. The default is a free buffer's:
/// every word zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Desc {
    /// Payload length for Small/Chunk; total message length for Scout.
    pub(crate) size: u32,
    /// NX message type.
    pub(crate) mtype: i32,
    /// Per-connection send sequence number.
    pub(crate) seq: u32,
    /// Message kind (arrival flag; `None` = free buffer).
    pub(crate) kind: Option<MsgKind>,
    /// Large-transfer id (Scout/Chunk).
    pub(crate) msgid: u32,
    /// Byte offset of this chunk within the large message (Chunk).
    pub(crate) chunk_off: u32,
}

impl Desc {
    /// Encode into the 32-byte wire form. The `kind` word — the arrival
    /// flag — is the **first** word, so the automatic-update send path
    /// can write everything after it first and commit with a final
    /// single-word store (in-order delivery then guarantees the whole
    /// message precedes the flag on the receiver).
    pub(crate) fn encode(&self) -> [u8; DESC_BYTES] {
        let mut b = [0u8; DESC_BYTES];
        b[0..4].copy_from_slice(&self.kind.map_or(0, |k| k as u32).to_le_bytes());
        b[4..8].copy_from_slice(&self.size.to_le_bytes());
        b[8..12].copy_from_slice(&(self.mtype as u32).to_le_bytes());
        b[12..16].copy_from_slice(&self.seq.to_le_bytes());
        b[16..20].copy_from_slice(&self.msgid.to_le_bytes());
        b[20..24].copy_from_slice(&self.chunk_off.to_le_bytes());
        b
    }

    /// Decode from the wire form.
    pub(crate) fn decode(b: &[u8; DESC_BYTES]) -> Desc {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        Desc {
            kind: MsgKind::from_u32(word(0)),
            size: word(4),
            mtype: word(8) as i32,
            seq: word(12),
            msgid: word(16),
            chunk_off: word(20),
        }
    }
}

/// Scout reply modes written by the receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum ReplyMode {
    /// Zero-copy: the sender transfers straight into the receiver's
    /// exported user buffer (`name` in the reply).
    ZeroCopy = 1,
    /// Alignment forbids zero-copy: stream chunks through the packet
    /// buffers instead.
    Chunked = 2,
}

/// A decoded scout reply slot (16 bytes: name u64, mode u32, ack u32;
/// `ack == msgid` is the arrival flag and is written last in the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reply {
    /// Export name of the receiver's user buffer (ZeroCopy mode).
    pub(crate) name: u64,
    /// Transfer mode.
    pub(crate) mode: ReplyMode,
    /// Echoed msgid; acts as the arrival flag.
    pub(crate) ack: u32,
}

impl Reply {
    /// Bytes per reply slot.
    pub(crate) const BYTES: usize = 16;

    /// Encode into the 16-byte wire form.
    pub(crate) fn encode(&self) -> [u8; Self::BYTES] {
        let mut b = [0u8; Self::BYTES];
        b[0..8].copy_from_slice(&self.name.to_le_bytes());
        b[8..12].copy_from_slice(&(self.mode as u32).to_le_bytes());
        b[12..16].copy_from_slice(&self.ack.to_le_bytes());
        b
    }

    /// Decode from the wire form; `None` until the ack matches `msgid`.
    pub(crate) fn decode(b: &[u8; Self::BYTES], msgid: u32) -> Option<Reply> {
        let ack = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        if ack != msgid {
            return None;
        }
        let mode = match u32::from_le_bytes([b[8], b[9], b[10], b[11]]) {
            1 => ReplyMode::ZeroCopy,
            2 => ReplyMode::Chunked,
            _ => return None,
        };
        Some(Reply {
            name: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            mode,
            ack,
        })
    }
}

/// Offsets within the tail, from the end of the last packet buffer:
/// done slots, credit ring, reply slots and the urgent word, each area
/// one spare word past the one before it.
const CREDITS_AT: usize = DONE_SLOTS * 4 + 4;
const REPLIES_AT: usize = CREDITS_AT + CREDIT_SLOTS * 4 + 4;
const URGENT_AT: usize = REPLIES_AT + REPLY_SLOTS * Reply::BYTES + 4;
const TAIL_BYTES: usize = URGENT_AT + 4;

/// Byte offsets within a connection's region (exported by the receiver,
/// written by the sender).
///
/// Each packet buffer is `[descriptor | payload]`. A message is written
/// as one ascending run (or the payload first and the descriptor in a
/// second, later transfer), so the descriptor is always part of the
/// *final* packet to land and its `kind` word is a safe arrival flag —
/// packets commit atomically at DMA completion, and in the real hardware
/// write combining gives the same property (§4.1).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    /// Packet buffers per connection.
    pub(crate) npkt: usize,
}

impl Layout {
    /// Offset of packet buffer `i`: of its descriptor, and so of the
    /// descriptor's kind word (the arrival flag — the first word of the
    /// buffer, written last on the AU path).
    pub(crate) fn pkt(&self, i: usize) -> usize {
        assert!(i < self.npkt, "packet buffer index out of range");
        i * PKT_BUF
    }

    /// Offset of packet buffer `i`'s payload.
    pub(crate) fn payload(&self, i: usize) -> usize {
        self.pkt(i) + DESC_BYTES
    }

    /// Offset of the tail, right after the last packet buffer.
    fn tail(&self) -> usize {
        self.npkt * PKT_BUF
    }

    /// Offset of the done slot of large transfer `msgid`. Transfers
    /// `DONE_SLOTS` apart share a slot, safely: a receiver serves one
    /// large message at a time and waits for the word to equal its
    /// `msgid`.
    pub(crate) fn done_slot(&self, msgid: u32) -> usize {
        self.tail() + (msgid as usize % DONE_SLOTS) * 4
    }

    /// Offset of credit ring slot `c % CREDIT_SLOTS`.
    pub(crate) fn credit_slot(&self, c: u64) -> usize {
        self.tail() + CREDITS_AT + (c % CREDIT_SLOTS as u64) as usize * 4
    }

    /// Encoded credit word for credit number `c` freeing buffer `idx`.
    pub(crate) fn credit_word(c: u64, idx: usize) -> u32 {
        (((c as u32) & 0x00FF_FFFF) << 8) | (idx as u32 + 1)
    }

    /// Decode a credit word expected to be credit number `c`; returns
    /// the freed buffer index when it has arrived.
    pub(crate) fn decode_credit(v: u32, c: u64) -> Option<usize> {
        if v & 0xFF == 0 {
            return None;
        }
        if (v >> 8) != ((c as u32) & 0x00FF_FFFF) {
            return None;
        }
        Some((v & 0xFF) as usize - 1)
    }

    /// Offset of the scout reply slot for `msgid`. Sends `REPLY_SLOTS`
    /// apart share a slot, safely, however many are outstanding: a reply
    /// is matched on `ack == msgid`, never on the slot being full, and a
    /// receiver serves one large message at a time — it writes no second
    /// reply until the sender has read the first and delivered that
    /// message's data.
    pub(crate) fn reply_slot(&self, msgid: u32) -> usize {
        self.tail() + REPLIES_AT + (msgid as usize % REPLY_SLOTS) * Reply::BYTES
    }

    /// Offset of the urgent word, in the region's last page.
    pub(crate) fn urgent(&self) -> usize {
        self.tail() + URGENT_AT
    }

    /// Total region size in bytes (page-aligned).
    pub(crate) fn total(&self) -> usize {
        (self.tail() + TAIL_BYTES).div_ceil(PAGE_SIZE) * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A packet buffer's first 32 bytes and a reply slot hold
        /// whatever the peer — or nobody yet — stored there.
        #[test]
        fn arbitrary_images_never_panic(
            desc in proptest::collection::vec(any::<u8>(), DESC_BYTES..DESC_BYTES + 1),
            reply in proptest::collection::vec(any::<u8>(), Reply::BYTES..Reply::BYTES + 1),
            msgid in any::<u32>(),
            credit in any::<u32>(),
            c in any::<u64>(),
        ) {
            let d = Desc::decode(desc.as_slice().try_into().unwrap());
            prop_assert_eq!(d.kind.is_some(), (1..=3).contains(&desc[0]) && desc[1..4] == [0; 3]);
            if let Some(r) = Reply::decode(reply.as_slice().try_into().unwrap(), msgid) {
                prop_assert_eq!(r.ack, msgid);
            }
            if let Some(idx) = Layout::decode_credit(credit, c) {
                prop_assert!(idx < 255);
            }
        }

        #[test]
        fn a_descriptor_round_trips(
            kind in (0u32..4).prop_map(MsgKind::from_u32),
            words in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        ) {
            let (size, mtype, seq, msgid, chunk_off) = words;
            let d = Desc { size, mtype: mtype as i32, seq, kind, msgid, chunk_off };
            prop_assert_eq!(Desc::decode(&d.encode()), d);
            prop_assert_eq!(d.encode()[24..], [0u8; 8], "the spare words stay zero");
        }

        #[test]
        fn a_reply_decodes_only_for_its_own_msgid_and_a_valid_mode(
            name in any::<u64>(),
            zero_copy in any::<bool>(),
            ack in any::<u32>(),
            other in any::<u32>(),
            mode in any::<u32>(),
        ) {
            let r = Reply {
                name,
                mode: if zero_copy { ReplyMode::ZeroCopy } else { ReplyMode::Chunked },
                ack,
            };
            let mut image = r.encode();
            prop_assert_eq!(Reply::decode(&image, ack), Some(r));
            if other != ack {
                prop_assert_eq!(Reply::decode(&image, other), None);
            }
            image[8..12].copy_from_slice(&mode.to_le_bytes());
            prop_assert_eq!(Reply::decode(&image, ack).is_some(), mode == 1 || mode == 2);
        }

        #[test]
        fn a_credit_decodes_exactly_for_its_own_number_mod_2_to_the_24(
            c in any::<u64>(),
            other in prop_oneof![any::<u64>(), 0u64..4],
            shift in prop_oneof![Just(0u64), Just(1 << 24), Just(5 << 24), Just(1 << 40)],
            idx in 0usize..CREDIT_SLOTS,
        ) {
            let word = Layout::credit_word(c, idx);
            prop_assert!(word & 0xFF != 0, "a credit is never the empty slot");
            for expected in [other, c.wrapping_add(shift), c.wrapping_add(other)] {
                let same = (expected as u32) << 8 == (c as u32) << 8;
                prop_assert_eq!(
                    Layout::decode_credit(word, expected),
                    same.then_some(idx),
                    "credit {} read as {}", c, expected
                );
            }
        }
    }

    #[test]
    fn free_buffer_decodes_as_no_kind() {
        assert_eq!(Desc::decode(&[0u8; DESC_BYTES]), Desc::default());
        assert_eq!(Desc::default().kind, None);
        assert_eq!(Layout::decode_credit(0, 0), None);
    }

    #[test]
    fn layout_offsets_do_not_overlap() {
        let l = Layout { npkt: 16 };
        assert_eq!(l.pkt(0), 0);
        assert_eq!(l.payload(0), DESC_BYTES);
        assert_eq!(l.pkt(1), PKT_BUF);
        assert!(l.done_slot(0) >= l.payload(15) + PKT_PAYLOAD);
        assert_eq!(l.done_slot(DONE_SLOTS as u32 + 3), l.done_slot(3));
        assert_eq!(l.credit_slot(65), l.credit_slot(1));
        assert_eq!(l.reply_slot(9), l.reply_slot(1));
        // Each area starts one spare word past the end of the one before.
        assert_eq!(l.credit_slot(0), l.done_slot(DONE_SLOTS as u32 - 1) + 8);
        let last_credit = l.credit_slot(CREDIT_SLOTS as u64 - 1);
        assert_eq!(l.reply_slot(0), last_credit + 8);
        let last_reply = l.reply_slot(REPLY_SLOTS as u32 - 1);
        assert_eq!(l.urgent(), last_reply + Reply::BYTES + 4);
    }

    /// The tail shares the page the done slots always had, so no
    /// region grows for any packet-buffer count a world accepts, and
    /// the urgent word's one-page binding covers the region's last page.
    #[test]
    fn the_tail_fits_in_the_last_page_for_every_buffer_count() {
        for npkt in 1..=CREDIT_SLOTS {
            let l = Layout { npkt };
            let done_only = (npkt * PKT_BUF + DONE_SLOTS * 4).div_ceil(PAGE_SIZE) * PAGE_SIZE;
            assert_eq!(l.total(), done_only, "npkt {npkt}");
            let last_page = l.total() - PAGE_SIZE;
            assert!(l.done_slot(0) >= last_page, "npkt {npkt}");
            assert!(l.urgent() + 4 <= l.total(), "npkt {npkt}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pkt_index_bounds_checked() {
        Layout { npkt: 4 }.pkt(4);
    }
}
