//! The message slot: the §4.1 channel shape, the one under the
//! collectives' chunk engine and the service's record stream.
//!
//! A channel `s → r` is one region exported by `r`, written only by
//! `s`, and it separates control from data the way the paper's
//! libraries do: bulk payloads go into the data slots, everything else
//! is a store into the control block through `s`'s local *mirror* of
//! the whole region, which is bound to it for automatic update.
//!
//! ```text
//! | slot 0 payload | slot 1 payload |
//! | flag[0..2] | ack | eager slot 0 | eager slot 1 |   ← control block
//! ```
//!
//! The control block follows the data slots directly, so a region is as
//! many pages as its bytes need: the collectives' two 2 KiB slots fill
//! a page and their control block starts the next; the service's two
//! 960 B slots share one page with theirs.
//!
//! Sequence numbers count *records* from 1. A chunk carries one or more
//! (a collective chunk always one, a service batch as many as fit) and
//! lands in the slot its first record names, `(first - 1) % 2`. A chunk
//! is sent in two halves, so a bulk payload can be in flight while the
//! sender does other work:
//!
//! * **Post — eager or bulk**: a payload of at most the shape's `eager`
//!   bytes is copied into the mirror's eager slot (any alignment, no
//!   send call). A larger one leaves by both send paths at once: its
//!   tail is a non-blocking deliberate update into the data slot,
//!   started first, whose DMA reads the source over the EISA bus while
//!   the CPU copies the head — whole eager slots' worth, up to 5/8 of
//!   the payload — into the mirror's data slot over the memory bus.
//!   The post hands back the tail's send handle. Both sides know the
//!   chunk's length, so the receiver reads the slot the same rule
//!   names, and the split is invisible to it. A payload the caller
//!   holds as bytes ([`SlotChannel::send`]) takes the same path, each
//!   copy a store instead: an eager payload is stored straight into the
//!   mirror, so storing it is sending it, and only a bulk tail is
//!   stored into the staging bounce for its deliberate update.
//! * **Flag — after the data**: the sender waits out the send handle, if
//!   there is one, then stores the flag word `=` the chunk's last record
//!   into the mirror. Automatic-update packets leave in store order, and
//!   a completed send has its last piece already placed in the outgoing
//!   FIFO, so the flag lands after the payload on either path and the
//!   receiver polls one word, whose value also says how many records the
//!   chunk holds; a head's stores precede the flag's. A sender has at
//!   most one chunk posted and not yet flagged, so the bounce buffer a
//!   deliberate update reads from is never reused early.
//! * **Ack / flow control**: a credit is owed only for a payload, the
//!   one thing a later chunk can overwrite (NX's packet-buffer credits,
//!   §4.1, are the same idea). The `ack` word in region `s → r` is
//!   stored by `s` after it consumes a *non-empty* chunk from the
//!   reverse channel `r → s` and carries that chunk's last record — the
//!   highest payload record consumed, cumulative because delivery is in
//!   order. The sender remembers, per slot, the last record of the
//!   newest payload it left there; a payload waits for `ack ≥` that
//!   before overwriting the slot, so two slots double-buffer. A sender
//!   that waited for every payload's ack ([`SlotChannel::wait_acked`])
//!   holds every credit and polls for none. An empty chunk is its flag
//!   alone: it never waits and is never acked. Its flag may overwrite
//!   the flag of an unconsumed payload in the same slot; the receiver
//!   polls for `flag ≥` its next record, so a later one still releases
//!   it. A receiver may also split the ack in two: release the chunk
//!   now ([`SlotChannel::release`]) and store its ack later
//!   ([`SlotChannel::store_ack`]), at a moment when the store is off
//!   its own critical path. The credit comes back later, never sooner,
//!   so no slot is overwritten early; the caller is the one that must
//!   know no sender waits on it meanwhile. The channel owes at most one
//!   ack, the newest, because the ack word is cumulative.
//!   [`SlotChannel::ack`] is the two at once.

use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_obs::MsgId;
use shrimp_sim::{Ctx, RetryPolicy, SimTime};

use crate::daemon::BufferName;
use crate::endpoint::{ExportOpts, ImportHandle, SendHandle, Vmmc};
use crate::error::VmmcError;

/// Data slots per direction: double buffering. It is also the fewest
/// the collectives' chunk engine runs on — it posts chunk `c+1` before
/// it consumes chunk `c`, and that post waits for the ack of chunk
/// `c+1-SLOTS`, which with one slot is the chunk the peer has not yet
/// consumed because it is waiting the same way.
const SLOTS: usize = 2;
/// Control-block offset of the ack word, behind one flag per slot.
const ACK: usize = 4 * SLOTS;
/// Control-block offset of the eager slots: an 8-byte boundary, so
/// reduction lanes sit naturally aligned.
const EAGER: usize = (ACK + 4).next_multiple_of(8);

/// What the channel's callers size differently.
#[derive(Debug, Clone, Copy)]
pub struct SlotShape {
    /// Bytes per data slot: the largest chunk (a word multiple).
    pub slot: usize,
    /// Largest payload that rides the control page instead of a
    /// deliberate update (0: every payload is one), a word multiple; a
    /// bulk payload's head is a whole number of these.
    pub eager: usize,
    /// Polls before a wait blocks.
    pub polls: usize,
}

impl SlotShape {
    /// Where the control block starts: right behind the data slots, on
    /// an 8-byte boundary like the eager slots inside it.
    fn ctl_off(&self) -> usize {
        (SLOTS * self.slot).next_multiple_of(8)
    }

    /// The whole region's bytes.
    fn len(&self) -> usize {
        self.ctl_off() + EAGER + SLOTS * self.eager
    }
}

/// Wrapping `a ≥ b` over record numbers.
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// The slot a chunk whose first record is `seq` lands in.
fn slot_of(seq: u32) -> usize {
    seq.wrapping_sub(1) as usize % SLOTS
}

/// Eighths of a bulk payload, at most, that leave as its head by
/// automatic update; the tail's deliberate update reads the rest over
/// the EISA bus at the same time. Swept on the collectives' shape
/// (2 KiB chunks, 256 B granules): `coll_8x8` `virt_mbs` at seed 1
/// reads 329.95 unsplit, 397.26 at 4/8, 412.38 at 5/8 and 414.20 at
/// 6/8, but a 12-rank ring allgather of 8 KiB blocks goes the other
/// way — 7 227.2 µs unsplit, 6 005.9 / 6 157.0 / 6 358.0 at 4/8 / 5/8 /
/// 6/8 — so 6/8 would buy 0.4 % of `virt_mbs` for 3.3 % of the
/// allgather, and 4/8 save 2.5 % of it for 3.7 % of `virt_mbs`. A 2 KiB
/// chunk is a 1 280 B head and a 768 B tail. All by automatic update is
/// slower than any split (64-rank 8 KiB allreduce 1 446.2 µs, against
/// 1 271.0 at 5/8). SRPC's word-granular split agrees: Fig. 8's 500 B
/// round trip reads 81.86 / 78.58 / 87.16 µs at 4/8 / 5/8 / 6/8, its
/// 1 000 B one 148.37 / 136.68 / 136.73.
const HEAD_EIGHTHS: usize = 5;

/// Bytes of a bulk payload, `padded` long, that the CPU stores by
/// automatic update while a deliberate update reads the rest: the
/// largest whole number of `granule`s within five eighths of it
/// (none for a zero granule). A [`SlotChannel`]'s granule is its eager
/// slot; an SRPC run's is one word.
pub fn bulk_head(padded: usize, granule: usize) -> usize {
    let most = padded * HEAD_EIGHTHS / 8;
    most.checked_rem(granule).map_or(0, |r| most - r)
}

/// This side's exported region, before the peer's region is imported.
#[derive(Debug)]
pub struct SlotExport {
    /// The region's name, for the out-of-band exchange.
    pub name: BufferName,
    local: VAddr,
    shape: SlotShape,
}

/// One endpoint of a channel pair: it sends into the peer's region and
/// receives from its own.
#[derive(Debug)]
pub struct SlotChannel {
    shape: SlotShape,
    /// My export: the peer's payloads, flags and eager slots, and its
    /// acks for my sends.
    local: VAddr,
    /// The peer's export, where my bulk payloads go.
    peer: ImportHandle,
    /// Automatic-update mirror of the peer's region: a store here is my
    /// bulk head, flag, eager payload or ack arriving there.
    mirror: VAddr,
    /// Word-aligned bounce buffer for the tail of an unaligned payload.
    staging: VAddr,
    next_send: u32,
    /// Per slot, the last record of the newest payload left there: the
    /// ack a later payload must see before reusing it.
    unacked: [Option<u32>; SLOTS],
    next_recv: u32,
    /// The last record of the newest payload released but not yet
    /// acknowledged.
    owed: Option<u32>,
}

/// Where a payload's bytes come from.
#[derive(Debug, Clone, Copy)]
enum Src<'a> {
    /// `len` bytes of this process's memory at a virtual address:
    /// every move is a timed copy.
    At(VAddr, usize),
    /// Bytes the caller holds: every move is a timed store.
    Bytes(&'a [u8]),
}

impl Src<'_> {
    fn len(&self) -> usize {
        match self {
            Src::At(_, len) => *len,
            Src::Bytes(b) => b.len(),
        }
    }

    /// Move `len` bytes, from `skip` bytes into the payload, to `dst`:
    /// a timed copy, or a timed store recorded as a `store` span.
    fn place(
        self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        skip: usize,
        dst: VAddr,
        len: usize,
    ) -> Result<(), VmmcError> {
        match self {
            Src::At(va, _) => vmmc.proc_().copy(ctx, va.add(skip), dst, len)?,
            Src::Bytes(b) if len > 0 => {
                let start = ctx.now();
                vmmc.proc_().write(ctx, dst, &b[skip..skip + len])?;
                vmmc.user_span(MsgId::NONE, "store", start, ctx.now(), len);
            }
            Src::Bytes(_) => {}
        }
        Ok(())
    }
}

/// A chunk whose payload has moved but whose flag is not yet stored:
/// what [`SlotChannel::post`] hands to [`SlotChannel::flag`].
#[derive(Debug)]
#[must_use]
pub struct PostedChunk {
    slot: usize,
    last: u32,
    du: Option<SendHandle>,
}

impl PostedChunk {
    /// Whether a deliberate update may still be in flight, so the flag
    /// can wait; an eager or empty chunk may be flagged at once.
    pub fn in_flight(&self) -> bool {
        self.du.is_some()
    }
}

impl SlotExport {
    /// Complete the pair once the peer's region is imported: bind the
    /// automatic-update mirror of its whole region, data slots and
    /// control block, then allocate the staging bounce.
    ///
    /// # Errors
    ///
    /// Fails if the automatic-update binding cannot be created.
    pub fn join(
        self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        peer: ImportHandle,
    ) -> Result<SlotChannel, VmmcError> {
        let p = vmmc.proc_();
        let pages = self.shape.len().div_ceil(PAGE_SIZE);
        let mirror = p.alloc(pages * PAGE_SIZE, CacheMode::WriteBack);
        // Combining stays off: its 0.8 us timer would sit on every lone
        // flag and ack (64-rank barrier 33.6 -> 39.0 us with it on, 64 B
        // allreduce 78.6 -> 84.0).
        vmmc.bind_au(ctx, mirror, &peer, 0, pages, false, false)?;
        Ok(SlotChannel {
            shape: self.shape,
            local: self.local,
            peer,
            mirror,
            staging: p.alloc(self.shape.slot, CacheMode::WriteBack),
            next_send: 1,
            unacked: [None; SLOTS],
            next_recv: 1,
            owed: None,
        })
    }
}

impl SlotChannel {
    /// Allocate and export this side's region — the data slots, then
    /// the control block — riding out daemon outages under `policy`.
    ///
    /// # Panics
    ///
    /// Unless the slot is a positive word multiple, the eager bytes a
    /// word multiple and the control block fits a page.
    ///
    /// # Errors
    ///
    /// Fails if the export is rejected.
    pub fn export(
        vmmc: &Vmmc,
        ctx: &Ctx,
        shape: SlotShape,
        policy: RetryPolicy,
    ) -> Result<SlotExport, VmmcError> {
        assert!(shape.slot >= 4 && shape.slot.is_multiple_of(4), "slot");
        assert!(EAGER + SLOTS * shape.eager <= PAGE_SIZE, "eager slots");
        assert!(shape.eager.is_multiple_of(4), "eager");
        let local = vmmc.proc_().alloc(shape.len(), CacheMode::WriteBack);
        let opts = ExportOpts::default();
        let name = vmmc.export_retry(ctx, local, shape.len(), opts, policy)?;
        Ok(SlotExport { name, local, shape })
    }

    /// Post the next chunk: `records` records (at least one) in `len`
    /// bytes at `src` (0 for a pure flag). A payload waits until the
    /// peer has consumed the last payload left in its slot, then moves —
    /// eagerly through the mirror, or as a head through the mirror and a
    /// tail by a non-blocking deliberate update still in flight when
    /// this returns. The chunk reaches the peer only once
    /// [`SlotChannel::flag`] is called on what this returns, which must
    /// happen before the next post.
    ///
    /// # Errors
    ///
    /// Propagates memory and transfer faults.
    pub fn post(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        src: VAddr,
        len: usize,
        records: u32,
    ) -> Result<PostedChunk, VmmcError> {
        self.put(vmmc, ctx, Src::At(src, len), records)
    }

    /// Post the next chunk from bytes the caller holds, then
    /// [`SlotChannel::flag`] it: the chunk is on its way when this
    /// returns. By the post's rule, an eager payload is one store into
    /// the mirror and a bulk one stores its head there and its tail into
    /// the staging bounce for the deliberate update; each store is a
    /// `store` span.
    ///
    /// # Errors
    ///
    /// Propagates memory and transfer faults.
    pub fn send(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        bytes: &[u8],
        records: u32,
    ) -> Result<(), VmmcError> {
        let posted = self.put(vmmc, ctx, Src::Bytes(bytes), records)?;
        self.flag(vmmc, ctx, posted)
    }

    /// Every post: the credit wait, then the payload by the eager or the
    /// bulk rule, a deliberate-update tail left in flight.
    fn put(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        src: Src<'_>,
        records: u32,
    ) -> Result<PostedChunk, VmmcError> {
        let len = src.len();
        debug_assert!(len <= self.shape.slot && records > 0);
        let first = self.next_send;
        let (slot, last) = (slot_of(first), first.wrapping_add(records - 1));
        let mut du = None;
        if len > 0 {
            if let Some(need) = self.unacked[slot] {
                self.wait(vmmc, ctx, ACK, None, move |v| seq_ge(v, need))?;
            }
            if len > self.shape.eager {
                let (off, padded) = (slot * self.shape.slot, len.next_multiple_of(4));
                let head = bulk_head(padded, self.shape.eager);
                let from = match src {
                    Src::At(va, _) if va.is_word_aligned() => va.add(head),
                    _ => {
                        src.place(vmmc, ctx, head, self.staging, len - head)?;
                        self.staging
                    }
                };
                let (dst, tail) = (off + head, padded - head);
                du = Some(vmmc.send_nonblocking(ctx, from, &self.peer, dst, tail)?);
                src.place(vmmc, ctx, 0, self.mirror.add(off), head)?;
            } else {
                let eager = self.shape.ctl_off() + EAGER + slot * self.shape.eager;
                src.place(vmmc, ctx, 0, self.mirror.add(eager), len)?;
            }
            self.unacked[slot] = Some(last);
        }
        self.next_send = last.wrapping_add(1);
        Ok(PostedChunk { slot, last, du })
    }

    /// Release a posted chunk to the peer: wait out its deliberate
    /// update, if it has one, then store the flag word. Flag after data:
    /// a completed send's packets are already ahead of this store's in
    /// the outgoing FIFO, and delivery is in order.
    ///
    /// # Errors
    ///
    /// Fails if the mirror is no longer mapped.
    pub fn flag(&self, vmmc: &Vmmc, ctx: &Ctx, posted: PostedChunk) -> Result<(), VmmcError> {
        if let Some(du) = &posted.du {
            vmmc.send_wait(ctx, du);
        }
        self.raise(vmmc, ctx, 4 * posted.slot, posted.last)
    }

    /// Wait, without a deadline or until `deadline`, for the peer to
    /// have consumed every payload posted so far, then hold every slot's
    /// credit. Owing nothing, it returns at once and charges nothing.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] at the deadline.
    pub fn wait_acked(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        deadline: Option<SimTime>,
    ) -> Result<(), VmmcError> {
        let newest = self.unacked.iter().flatten().copied();
        let Some(need) = newest.reduce(|a, b| if seq_ge(a, b) { a } else { b }) else {
            return Ok(());
        };
        self.wait(vmmc, ctx, ACK, deadline, move |v| seq_ge(v, need))?;
        self.unacked = [None; SLOTS];
        Ok(())
    }

    /// Wait, without a deadline or until `deadline`, for the next
    /// chunk's flag; returns how many records it admits — the chunk's
    /// own, or more once a later empty chunk's flag overwrote it.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] at the deadline.
    pub fn wait_flag(
        &self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        deadline: Option<SimTime>,
    ) -> Result<u32, VmmcError> {
        let next = self.next_recv;
        let flag = 4 * slot_of(next);
        let v = self.wait(vmmc, ctx, flag, deadline, move |v| seq_ge(v, next))?;
        Ok(v.wrapping_sub(next).wrapping_add(1))
    }

    /// Where the next chunk's `len`-byte payload sits: its eager slot or
    /// its data slot, by the sender's rule.
    pub fn payload(&self, len: usize) -> VAddr {
        let slot = slot_of(self.next_recv);
        if len > self.shape.eager {
            self.local.add(slot * self.shape.slot)
        } else {
            let eager = EAGER + slot * self.shape.eager;
            self.local.add(self.shape.ctl_off() + eager)
        }
    }

    /// Release the next chunk, its `records` records consumed from a
    /// `len`-byte payload — consumed, never before, so the sender cannot
    /// overwrite data still being read — and acknowledge it at once
    /// ([`SlotChannel::release`], then [`SlotChannel::store_ack`]).
    ///
    /// # Errors
    ///
    /// Fails if the mirror is no longer mapped.
    pub fn ack(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        records: u32,
        len: usize,
    ) -> Result<(), VmmcError> {
        self.release(records, len);
        self.store_ack(vmmc, ctx)
    }

    /// Release the next chunk, its `records` records consumed from a
    /// `len`-byte payload, without storing anything: the next chunk's
    /// flag is what [`SlotChannel::wait_flag`] polls for now, and a
    /// payload's ack is owed until [`SlotChannel::store_ack`]. An empty
    /// chunk frees nothing and owes nothing.
    pub fn release(&mut self, records: u32, len: usize) {
        let last = self.next_recv.wrapping_add(records - 1);
        if len > 0 {
            self.owed = Some(last);
        }
        self.next_recv = last.wrapping_add(1);
    }

    /// Store the ack this side owes, if it owes one: the newest released
    /// payload's last record, which acknowledges every one before it.
    /// Owing nothing, it stores and charges nothing.
    ///
    /// # Errors
    ///
    /// Fails if the mirror is no longer mapped; the ack stays owed.
    pub fn store_ack(&mut self, vmmc: &Vmmc, ctx: &Ctx) -> Result<(), VmmcError> {
        if let Some(last) = self.owed {
            self.raise(vmmc, ctx, ACK, last)?;
            self.owed = None;
        }
        Ok(())
    }

    /// Poll, then block, on the control word at `off` of my region,
    /// with the polls watched ([`Vmmc::wait_u32_watched`]): a flag or
    /// ack wait misses while the peer's chunk is in flight, and each
    /// miss another item interrupts would otherwise hand the token back
    /// to this thread. The instants are the unwatched wait's.
    fn wait(
        &self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        off: usize,
        deadline: Option<SimTime>,
        pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        let va = self.local.add(self.shape.ctl_off() + off);
        vmmc.wait_u32_watched(ctx, va, self.shape.polls, deadline, pred)
    }

    /// Store a control word into the peer's control block: one
    /// automatic-update store, recorded as a `raise` span.
    fn raise(&self, vmmc: &Vmmc, ctx: &Ctx, off: usize, v: u32) -> Result<(), VmmcError> {
        let start = ctx.now();
        let va = self.mirror.add(self.shape.ctl_off() + off);
        vmmc.proc_().write_u32(ctx, va, v)?;
        vmmc.user_span(MsgId::NONE, "raise", start, ctx.now(), 4);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use shrimp_mesh::NodeId;
    use shrimp_sim::{
        FaultEvent, FaultKind, FaultPlan, Kernel, MetricsRegistry, MetricsSnapshot, SimChannel,
        SimDur, SimTime, TraceEvent,
    };

    use super::*;
    use crate::system::{ShrimpSystem, SystemConfig};

    /// The collectives' shape and the service's, and the service's
    /// slots without eager ones: every payload one deliberate update.
    const COLL: SlotShape = SlotShape {
        slot: 2048,
        eager: 256,
        polls: 64,
    };
    const SVC: SlotShape = SlotShape {
        slot: 960,
        eager: 120,
        polls: 16,
    };
    const DU_ONLY: SlotShape = SlotShape { eager: 0, ..SVC };

    type End = Box<dyn FnOnce(&Vmmc, &Ctx, &mut SlotChannel) + Send>;

    /// One channel pair of `shape` between nodes 0 and 1 under `plan`;
    /// each end's body gets its channel, and both must finish.
    fn slot_pair(shape: SlotShape, plan: &FaultPlan, ends: [End; 2]) {
        slot_pair_on(&Kernel::new(), shape, plan, ends);
    }

    /// [`slot_pair`] on a kernel the caller built.
    fn slot_pair_on(kernel: &Kernel, shape: SlotShape, plan: &FaultPlan, ends: [End; 2]) {
        let system = ShrimpSystem::build(kernel, SystemConfig::prototype());
        system.apply_faults(plan);
        let names: [SimChannel<BufferName>; 2] = [SimChannel::new(), SimChannel::new()];
        let done = Arc::new(Mutex::new(0));
        for (i, end) in ends.into_iter().enumerate() {
            let vmmc = system.endpoint(i, format!("end{i}"));
            let (names, done) = (names.clone(), Arc::clone(&done));
            kernel.spawn(format!("end{i}"), move |ctx| {
                let boot = RetryPolicy::bootstrap();
                let local = SlotChannel::export(&vmmc, ctx, shape, boot).unwrap();
                names[i].send(&ctx.handle(), local.name);
                let peer = vmmc.import(ctx, NodeId(1 - i), names[1 - i].recv(ctx));
                let mut ch = local.join(&vmmc, ctx, peer.unwrap()).unwrap();
                end(&vmmc, ctx, &mut ch);
                *done.lock() += 1;
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
        assert_eq!(*done.lock(), 2, "an end never finished");
    }

    /// A chunk of `len` bytes, distinct from its neighbours.
    fn chunk(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7 + 1) as u8).collect()
    }

    /// End 0 posts `chunks` one record each, from a source `offset`
    /// bytes into a page, and flags each; end 1 starts `late` and
    /// checks each chunk in its slot before acking it.
    fn stream(
        shape: SlotShape,
        plan: &FaultPlan,
        offset: usize,
        late: SimDur,
        chunks: Vec<Vec<u8>>,
    ) {
        let expect = chunks.clone();
        let sender: End = Box::new(move |vmmc, ctx, ch| {
            let src = vmmc
                .proc_()
                .alloc_at_offset(shape.slot, offset, CacheMode::WriteBack);
            for c in &chunks {
                vmmc.proc_().poke(src, c).unwrap();
                let posted = ch.post(vmmc, ctx, src, c.len(), 1).unwrap();
                ch.flag(vmmc, ctx, posted).unwrap();
            }
        });
        let receiver: End = Box::new(move |vmmc, ctx, ch| {
            ctx.advance(late);
            for (i, c) in expect.iter().enumerate() {
                ch.wait_flag(vmmc, ctx, None).unwrap();
                let got = vmmc.proc_().read(ctx, ch.payload(c.len()), c.len());
                assert_eq!(&got.unwrap(), c, "chunk {i} of {}", c.len());
                ch.ack(vmmc, ctx, 1, c.len()).unwrap();
            }
        });
        slot_pair(shape, plan, [sender, receiver]);
    }

    /// Flag after data on both paths: a 2 µs stall every 5 µs on the
    /// sender's DMA engine, its links, or the receiver's DMA engine. A
    /// flag that overtook its payload would release a slot still
    /// holding the chunk two back.
    #[test]
    fn the_flag_lands_after_its_data_on_both_paths_under_stalls() {
        let chunks: Vec<_> = (0..12)
            .map(|i| chunk(i, if i % 2 == 0 { 64 } else { 2048 }))
            .collect();
        let stalls = |kind: FaultKind| {
            let events = (0..600).map(|k| FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(5.0) * k,
                kind: kind.clone(),
            });
            FaultPlan::scripted(events.collect())
        };
        let dur = SimDur::from_us(2.0);
        let plans = [
            FaultPlan::empty(),
            stalls(FaultKind::DmaStall { node: 0, dur }),
            stalls(FaultKind::LinkStall { node: 0, dur }),
            stalls(FaultKind::DmaStall { node: 1, dur }),
        ];
        for plan in &plans {
            stream(COLL, plan, 0, SimDur::ZERO, chunks.clone());
        }
    }

    /// One chunk of `len` bytes from a source `offset` bytes into a
    /// page: what the sender's NIC put out for it, `(AU, DU)` packets,
    /// and whether the receiver had every one of them in, and the
    /// payload intact, the moment it saw the flag.
    fn one_chunk_wire(shape: SlotShape, len: usize, offset: usize) -> ((u64, u64), bool) {
        let out = Arc::new(Mutex::new((0, 0)));
        let seen = Arc::new(Mutex::new((0, false)));
        let (out_w, seen_w) = (Arc::clone(&out), Arc::clone(&seen));
        let sender: End = Box::new(move |vmmc, ctx, ch| {
            let p = vmmc.proc_();
            let src = p.alloc_at_offset(shape.slot, offset, CacheMode::WriteBack);
            p.poke(src, &chunk(0, len)).unwrap();
            let nic = vmmc.system().nic(vmmc.node_index());
            let before = nic.stats();
            let posted = ch.post(vmmc, ctx, src, len, 1).unwrap();
            ch.flag(vmmc, ctx, posted).unwrap();
            ch.wait_acked(vmmc, ctx, None).unwrap();
            let after = nic.stats();
            *out_w.lock() = (
                after.au_packets_out - before.au_packets_out,
                after.du_packets_out - before.du_packets_out,
            );
        });
        let receiver: End = Box::new(move |vmmc, ctx, ch| {
            let nic = vmmc.system().nic(vmmc.node_index());
            let before = nic.stats().packets_in;
            ch.wait_flag(vmmc, ctx, None).unwrap();
            let arrived = nic.stats().packets_in - before;
            let got = vmmc.proc_().peek(ch.payload(len), len).unwrap();
            *seen_w.lock() = (arrived, got == chunk(0, len));
            ch.ack(vmmc, ctx, 1, len).unwrap();
        });
        slot_pair(shape, &FaultPlan::empty(), [sender, receiver]);
        let ((au, du), (arrived, intact)) = (*out.lock(), *seen.lock());
        ((au, du), intact && arrived == au + du)
    }

    /// A bulk chunk leaves by both send paths: a collectives' 2 KiB
    /// chunk from an unaligned source is its 768 B tail by deliberate
    /// update and its 1 280 B head as five 256 B automatic-update
    /// packets, then the flag, and it is whole when the flag is seen. A
    /// full service batch is a 600 B head (five 120 B eager slots'
    /// worth, in three packets of at most 256 B) and a 360 B tail; with
    /// no eager slots there is no head, so one deliberate update and
    /// the flag.
    #[test]
    fn a_bulk_chunk_is_a_deliberate_update_tail_and_an_automatic_update_head() {
        assert_eq!(one_chunk_wire(COLL, 2048, 3), ((5 + 1, 1), true));
        assert_eq!(one_chunk_wire(COLL, 2048, 0), ((5 + 1, 1), true));
        assert_eq!(one_chunk_wire(SVC, 960, 0), ((3 + 1, 1), true));
        assert_eq!(one_chunk_wire(DU_ONLY, 960, 0), ((1, 1), true));
    }

    /// A payload waits for its slot's credit across empty chunks: `A`,
    /// five empty chunks (never acked, lapping both slots twice), then
    /// `B` into `A`'s slot, while the receiver starts two virtual
    /// seconds late. It reads `B` in place of `A` if the post skips the
    /// credit wait or an empty chunk clears its slot's credit.
    #[test]
    fn a_payload_waits_for_its_slots_credit_across_empty_chunks() {
        for (shape, len) in [(COLL, 64), (COLL, 2048), (SVC, 64)] {
            let mut chunks = vec![chunk(0, len)];
            chunks.extend(std::iter::repeat_n(Vec::new(), 5));
            chunks.push(chunk(1, len));
            stream(shape, &FaultPlan::empty(), 0, SimDur::from_us(2e6), chunks);
        }
    }

    /// Slots off the page grid — 8 B, 512 B and 3 KiB, so the control
    /// page starts at 4 KiB or 8 KiB — and the service's 960 B, each
    /// lapping its slots many times with full, ragged, eager and empty
    /// chunks from aligned and unaligned sources (the staging bounce).
    #[test]
    fn slot_sizes_off_the_page_grid_carry_every_chunk_intact() {
        let shapes = [
            SlotShape {
                slot: 8,
                eager: 4,
                polls: 64,
            },
            SlotShape {
                slot: 512,
                eager: 256,
                polls: 64,
            },
            SlotShape {
                slot: 3072,
                eager: 256,
                polls: 64,
            },
            SVC,
        ];
        for shape in shapes.into_iter().chain([DU_ONLY]) {
            let (s, e) = (shape.slot, shape.eager);
            let lens = [s, 1, s - 1, 0, e, e + 1, s / 2 + 3, s];
            let chunks: Vec<_> = (0..24).map(|i| chunk(i, lens[i % lens.len()])).collect();
            for offset in [0, 3] {
                stream(
                    shape,
                    &FaultPlan::empty(),
                    offset,
                    SimDur::ZERO,
                    chunks.clone(),
                );
            }
        }
    }

    /// A chunk of n records admits exactly those n: the flag of a
    /// 3-record, a 1-record, a 5-record and a 40-record chunk, each sent
    /// from bytes (three eager, the last bulk), tells the receiver each
    /// count, each chunk lands in its first record's slot, and after the
    /// last ack nothing more is admitted.
    #[test]
    fn a_chunk_of_n_records_admits_exactly_those_n() {
        const COUNTS: [u32; 4] = [3, 1, 5, 40];
        let sender: End = Box::new(|vmmc, ctx, ch| {
            for (i, n) in COUNTS.into_iter().enumerate() {
                ch.send(vmmc, ctx, &chunk(i, 24 * n as usize), n).unwrap();
                ch.wait_acked(vmmc, ctx, None).unwrap();
            }
        });
        let receiver: End = Box::new(|vmmc, ctx, ch| {
            for (i, n) in COUNTS.into_iter().enumerate() {
                assert_eq!(ch.wait_flag(vmmc, ctx, None).unwrap(), n, "chunk {i}");
                let len = 24 * n as usize;
                let got = vmmc.proc_().read(ctx, ch.payload(len), len).unwrap();
                assert_eq!(got, chunk(i, len), "chunk {i}");
                ch.ack(vmmc, ctx, n, len).unwrap();
            }
            // Records 1..=49 went in slots 0, 1, 0 and 1 (first records
            // 1, 4, 5, 10); record 50 is not there.
            assert_eq!(ch.payload(SVC.slot), ch.local.add(SVC.slot));
            let soon = Some(ctx.now() + SimDur::from_us(50.0));
            let more = ch.wait_flag(vmmc, ctx, soon);
            assert!(matches!(more, Err(VmmcError::Timeout { .. })), "{more:?}");
        });
        slot_pair(SVC, &FaultPlan::empty(), [sender, receiver]);
    }

    /// The instant a post returns: a post whose slot credit nobody has
    /// proven polls the ack word once even when the ack is long there
    /// (the collectives' case), and one that follows an ack wait polls
    /// not at all (the service's commit wait already proved it).
    #[test]
    fn a_post_after_an_ack_wait_charges_no_credit_poll() {
        let spent = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&spent);
        let sender: End = Box::new(move |vmmc, ctx, ch| {
            let src = vmmc.proc_().alloc(DU_ONLY.slot, CacheMode::WriteBack);
            let post = |ch: &mut SlotChannel| {
                let t0 = ctx.now();
                let posted = ch.post(vmmc, ctx, src, 64, 1).unwrap();
                log.lock().push(ctx.now() - t0);
                ch.flag(vmmc, ctx, posted).unwrap();
            };
            post(ch); // slot 0, no credit owed
            post(ch); // slot 1, no credit owed
            ctx.advance(SimDur::from_us(1_000.0)); // both acks land
            post(ch); // slot 0 again: one polled hit
            ch.wait_acked(vmmc, ctx, None).unwrap();
            post(ch); // slot 1 again, its credit proven
        });
        let receiver: End = Box::new(|vmmc, ctx, ch| {
            for _ in 0..4 {
                ch.wait_flag(vmmc, ctx, None).unwrap();
                ch.ack(vmmc, ctx, 1, 64).unwrap();
            }
        });
        slot_pair(DU_ONLY, &FaultPlan::empty(), [sender, receiver]);
        let c = shrimp_node::CostModel::shrimp_prototype();
        let send = c.lib_call + c.eisa_pio_access * 2;
        let want = [send, send, send + c.load_word, send];
        assert_eq!(spent.lock()[..], want, "lib call + PIO = {send}");
    }

    /// Releasing a payload moves the receiver on but returns no credit:
    /// the sender's third payload, into the first one's slot, is posted
    /// only after the receiver stores that ack, 1 ms after releasing it.
    #[test]
    fn a_released_payload_is_credited_only_by_its_stored_ack() {
        let times = Arc::new(Mutex::new([SimTime::ZERO; 2]));
        let (posted, stored) = (Arc::clone(&times), Arc::clone(&times));
        let sender: End = Box::new(move |vmmc, ctx, ch| {
            let src = vmmc.proc_().alloc(COLL.slot, CacheMode::WriteBack);
            for _ in 0..3 {
                let chunk = ch.post(vmmc, ctx, src, 64, 1).unwrap();
                ch.flag(vmmc, ctx, chunk).unwrap();
            }
            posted.lock()[0] = ctx.now();
        });
        let receiver: End = Box::new(move |vmmc, ctx, ch| {
            ch.wait_flag(vmmc, ctx, None).unwrap();
            ch.release(1, 64);
            assert_eq!(ch.wait_flag(vmmc, ctx, None).unwrap(), 1, "the second");
            ctx.advance(SimDur::from_us(1_000.0));
            stored.lock()[1] = ctx.now();
            ch.store_ack(vmmc, ctx).unwrap();
            for _ in 0..2 {
                ch.wait_flag(vmmc, ctx, None).unwrap();
                ch.ack(vmmc, ctx, 1, 64).unwrap();
            }
        });
        slot_pair(COLL, &FaultPlan::empty(), [sender, receiver]);
        let [posted, stored] = *times.lock();
        assert!(posted > stored, "posted at {posted}, acked at {stored}");
    }

    /// [`SlotChannel::wait_flag`] as it waited before its polls were
    /// watched: the same word, budget and predicate through
    /// [`Vmmc::wait_u32`].
    fn wait_flag_unwatched(vmmc: &Vmmc, ctx: &Ctx, ch: &SlotChannel) -> u32 {
        let next = ch.next_recv;
        let va = ch.local.add(ch.shape.ctl_off() + 4 * slot_of(next));
        let v = vmmc.wait_u32(ctx, va, ch.shape.polls, move |v| seq_ge(v, next));
        v.unwrap().wrapping_sub(next).wrapping_add(1)
    }

    /// A ping-pong of 2 KiB chunks over a collectives' channel, each end
    /// acking a chunk before it posts its reply, with the flag waits
    /// watched or not: every item the kernel executed, and its counts.
    fn ping_pong(watched: bool) -> (Vec<String>, MetricsSnapshot) {
        const ROUNDS: usize = 8;
        let reg = MetricsRegistry::new();
        let _counted = reg.install();
        let kernel = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        kernel.set_tracer(move |ev| {
            l.lock().push(match ev {
                TraceEvent::Event { at } => format!("event@{}", at.as_ps()),
                TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_ps()),
            });
        });
        let end = |serves: bool| -> End {
            Box::new(move |vmmc, ctx, ch| {
                let src = vmmc.proc_().alloc(COLL.slot, CacheMode::WriteBack);
                for i in 0..2 * ROUNDS {
                    if (i % 2 == 1) == serves {
                        let posted = ch.post(vmmc, ctx, src, COLL.slot, 1).unwrap();
                        ch.flag(vmmc, ctx, posted).unwrap();
                    } else {
                        let admitted = if watched {
                            ch.wait_flag(vmmc, ctx, None).unwrap()
                        } else {
                            wait_flag_unwatched(vmmc, ctx, ch)
                        };
                        assert_eq!(admitted, 1);
                        ch.ack(vmmc, ctx, 1, COLL.slot).unwrap();
                    }
                }
            })
        };
        slot_pair_on(&kernel, COLL, &FaultPlan::empty(), [end(false), end(true)]);
        let log = std::mem::take(&mut *log.lock());
        (log, reg.snapshot())
    }

    /// The flag waits' misses need no thread handoff. While a chunk's
    /// packets are in flight, each of its deposits interrupts the
    /// waiting end's poll streak; unwatched, the interrupted miss hands
    /// the token back to the waiter, watched the thread that popped it
    /// re-reads the flag and keeps the token. Same items, same instants
    /// and the same 5 874 resumes either way: only who runs them moves.
    /// Of the 2 917 handoffs with plain waits, 211 are left: each
    /// wait's end (a hit or a spent budget), the sends and set-up.
    #[test]
    fn a_flag_waits_missed_polls_need_no_handoff() {
        let (watched, plain) = (ping_pong(true), ping_pong(false));
        assert_eq!(watched.0, plain.0, "the kernel trace moved");
        let (w, p) = (watched.1, plain.1);
        assert_eq!(
            (w.resumes, w.events_executed),
            (p.resumes, p.events_executed)
        );
        let handoffs = |m: &MetricsSnapshot| m.resumes - m.fast_resumes;
        assert_eq!((handoffs(&w), handoffs(&p)), (211, 2_917), "{w:?} vs {p:?}");
    }

    #[test]
    fn records_and_slots_hold_across_the_wrap() {
        assert!(seq_ge(5, 5) && seq_ge(6, 5) && !seq_ge(5, 6));
        assert!(seq_ge(3, u32::MAX - 2) && !seq_ge(u32::MAX - 2, 3));
        // Consecutive records alternate slots through 2³² and back to 1.
        let seqs = [u32::MAX - 1, u32::MAX, 0, 1, 2];
        let slots: Vec<_> = seqs.into_iter().map(slot_of).collect();
        assert_eq!(slots, [1, 0, 1, 0, 1]);
    }
}
