//! The per-rank NX library instance: sends, receives, probes, progress.
//!
//! Protocol summary (paper §4.1):
//!
//! * **Small messages — one-copy protocol.** The sender writes the
//!   message and a small descriptor into a packet buffer on the
//!   receiver. The receiver examines descriptors to find arrivals, may
//!   consume messages out of order (by type), copies the payload into
//!   user memory, and returns a *send credit* naming the freed buffer
//!   through the tail of the sender's region, which it maps for its own
//!   sends, as soon as the buffer is free. When the sender finds every
//!   buffer full and a brief poll brings no credit, it interrupts the
//!   receiver through the urgent word (paper §6 "Interrupts"); the
//!   receiver's next library call takes the notification.
//! * **Large messages — zero-copy protocol.** The sender sends a scout
//!   descriptor, then optimistically copies the data into a local safe
//!   buffer. The receive call replies with the export name of the user
//!   receive buffer; the sender (immediately, or from a later library
//!   call if it finished its safe copy first) transfers the data
//!   directly into the receiver's user buffer and raises a done flag.
//!   Alignment-incompatible transfers fall back to streaming chunks
//!   through the packet buffers. A connection has [`REPLY_SLOTS`]
//!   reply slots; a further large send first waits for one of the
//!   outstanding transfers to complete.
//!
//! Every step above that touches one connection is a method on that
//! direction's state ([`OutConn`], [`InConn`]; a rank holds one
//! [`Peer`] of both per remote rank), taking the endpoint as `&Vmmc`.
//! [`NxProc`] is the NX calls over them, and the rank-wide state: the
//! loop-back queue, posted receives, completed handles, the counters.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use shrimp_core::{BufferName, ExportOpts, ExportPerms, Vmmc, VmmcError};
use shrimp_node::{CacheMode, MemFault, VAddr};
use shrimp_sim::Ctx;

use crate::config::{NxConfig, SendVariant};
use crate::wire::{
    Desc, Layout, MsgKind, Reply, ReplyMode, DESC_BYTES, PKT_BUF, PKT_PAYLOAD, REPLY_SLOTS,
};
use crate::world::{BounceBuf, InConn, OutConn, Peer};

/// NX message types at or above this value are reserved for the library
/// (collectives); `crecv(-1, ...)` does not match them.
pub const INTERNAL_TYPE_BASE: i32 = 1 << 29;

/// Handle for an asynchronous operation, returned by
/// [`NxProc::isend`]/[`NxProc::irecv`] and consumed by
/// [`NxProc::msgwait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgHandle(u32);

/// Information about the last completed receive (the NX `info...`
/// calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NxInfo {
    /// Byte count of the message.
    pub count: usize,
    /// Message type.
    pub mtype: i32,
    /// Sending rank.
    pub src: usize,
}

/// Per-process protocol counters (diagnostics; not part of the NX API).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NxStats {
    /// Messages sent through the one-copy small path.
    pub small_sent: u64,
    /// Messages sent through the scout/rendezvous path.
    pub large_sent: u64,
    /// Large sends completed zero-copy (user-to-user).
    pub zero_copy_sent: u64,
    /// Large sends completed through the chunked fallback.
    pub chunked_sent: u64,
    /// Messages received.
    pub received: u64,
    /// Times the sender found every packet buffer full and had to wait
    /// for a credit. A stall interrupts the receiver through the urgent
    /// word only if a brief poll of the credit ring brings no credit.
    pub credit_stalls: u64,
}

/// NX library errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NxError {
    /// A message longer than the posted receive buffer arrived; the
    /// message is consumed and dropped (real NX aborts the job).
    Truncated {
        /// Actual message length.
        len: usize,
        /// Posted buffer capacity.
        max: usize,
    },
    /// Destination rank out of range.
    InvalidRank(usize),
    /// An underlying VMMC operation failed.
    Vmmc(VmmcError),
    /// A collective operation failed in the `shrimp-coll` backend.
    Collective(shrimp_coll::CollError),
    /// A bounded setup wait (the join rendezvous) gave up.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Total virtual time spent waiting.
        waited: shrimp_sim::SimDur,
    },
}

impl std::fmt::Display for NxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NxError::Truncated { len, max } => {
                write!(
                    f,
                    "message of {len} bytes exceeds posted buffer of {max} bytes"
                )
            }
            NxError::InvalidRank(r) => write!(f, "rank {r} out of range"),
            NxError::Vmmc(e) => write!(f, "vmmc: {e}"),
            NxError::Collective(e) => write!(f, "collective: {e}"),
            NxError::Timeout { op, waited } => write!(f, "{op} timed out after {waited}"),
        }
    }
}

impl std::error::Error for NxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NxError::Vmmc(e) => Some(e),
            NxError::Collective(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmmcError> for NxError {
    fn from(e: VmmcError) -> Self {
        NxError::Vmmc(e)
    }
}

impl From<MemFault> for NxError {
    fn from(e: MemFault) -> Self {
        NxError::Vmmc(VmmcError::Fault(e))
    }
}

impl From<shrimp_coll::CollError> for NxError {
    fn from(e: shrimp_coll::CollError) -> Self {
        match e {
            shrimp_coll::CollError::Vmmc(v) => NxError::Vmmc(v),
            shrimp_coll::CollError::Timeout { op, waited } => NxError::Timeout { op, waited },
            other => NxError::Collective(other),
        }
    }
}

/// A large send whose receiver reply has not yet arrived.
#[derive(Clone, Copy)]
pub(crate) struct PendingLarge {
    msgid: u32,
    /// Where the data is read from once the reply arrives: the pledged
    /// user buffer, or the safe copy that let the application resume.
    source: VAddr,
    len: usize,
    mtype: i32,
    handle: Option<MsgHandle>,
    /// The pool buffer holding the safe copy, released on completion
    /// (`None` when the source is the pledged user buffer).
    bounce: Option<VAddr>,
}

/// A handler invoked when a posted `hrecv` completes (NX's
/// handler-based receive).
pub type RecvHandler = Box<dyn FnMut(&Ctx, NxInfo) + Send>;

struct Posted {
    handle: MsgHandle,
    typesel: i32,
    buf: VAddr,
    maxlen: usize,
    handler: Option<RecvHandler>,
}

fn type_matches(mtype: i32, typesel: i32) -> bool {
    if typesel < 0 {
        mtype < INTERNAL_TYPE_BASE
    } else {
        mtype == typesel
    }
}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Untimed read of `N` bytes of a region a connection mapped at join.
fn peek<const N: usize>(vmmc: &Vmmc, at: VAddr) -> [u8; N] {
    let bytes = vmmc.proc_().peek(at, N);
    let bytes = bytes.expect("a connection's regions stay mapped");
    bytes.try_into().expect("peek returns the length asked")
}

/// A rank's connections by remote rank; its own entry is empty.
pub(crate) struct Peers(pub Vec<Option<Peer>>);

impl std::ops::Index<usize> for Peers {
    type Output = Peer;
    fn index(&self, q: usize) -> &Peer {
        self.0[q].as_ref().expect("every other rank is connected")
    }
}

impl std::ops::IndexMut<usize> for Peers {
    fn index_mut(&mut self, q: usize) -> &mut Peer {
        self.0[q].as_mut().expect("every other rank is connected")
    }
}

// ======================================================================
// One connection: every step of the protocols that touches a single
// peer, as a method on that direction's state.
// ======================================================================

impl OutConn {
    /// One-copy send: take a packet buffer, stamp `desc` with the
    /// connection's next `seq`, and move it and the `desc.size` bytes at
    /// `payload` (`None` for a scout, which is all descriptor) into the
    /// buffer the way `variant` says.
    fn send_small(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        variant: SendVariant,
        mut desc: Desc,
        payload: Option<VAddr>,
    ) -> Result<(), NxError> {
        // The bytes that travel besides the descriptor, if any.
        let data = payload
            .filter(|_| desc.size > 0)
            .map(|src| (src, desc.size as usize));
        debug_assert!(data.is_none_or(|(_, len)| len <= PKT_PAYLOAD));
        let idx = self.alloc_buffer(vmmc, ctx)?;
        let p = vmmc.proc_();
        desc.seq = self.next_seq;
        self.next_seq += 1;
        p.charge_descriptor(ctx);

        // Control traffic (scouts, chunks' descriptors) rides the
        // configured small path too, and chunk payloads follow it.
        match variant {
            SendVariant::AutomaticUpdate => {
                // Marshal the descriptor body and data as one ascending
                // run, then commit with a single store of the kind word
                // at the buffer start: in-order delivery guarantees the
                // receiver never observes the flag before the data.
                let enc = desc.encode();
                let mut bytes = enc[4..].to_vec();
                if let Some((src, len)) = data {
                    bytes.extend(p.peek(src, len)?);
                }
                let buffer = self.au_send.add(self.layout.pkt(idx));
                p.write(ctx, buffer.add(4), &bytes)?;
                p.write(ctx, buffer, &enc[..4])?;
            }
            SendVariant::DuMarshal | SendVariant::DuFromUser => {
                // The payload either goes ahead on its own, straight
                // from user memory, or is copied behind the descriptor
                // in the staging area so that one send carries both.
                // §4 "Reducing Copying": the engine moves whole words,
                // so an unaligned buffer (or one whose padded tail is
                // unmapped) takes the copying path whatever was asked.
                let from_user = variant == SendVariant::DuFromUser
                    && data.is_none_or(|(src, len)| {
                        src.is_word_aligned() && p.peek(src, pad4(len)).is_ok()
                    });
                let (direct, marshaled) = if from_user {
                    (data, None)
                } else {
                    (None, data)
                };
                if let Some((src, len)) = direct {
                    vmmc.send(ctx, src, &self.data, self.layout.payload(idx), pad4(len))?;
                }
                p.poke(self.staging, &desc.encode())?;
                p.charge_bookkeeping(ctx);
                let mut staged = DESC_BYTES;
                if let Some((src, len)) = marshaled {
                    p.copy(ctx, src, self.staging.add(DESC_BYTES), len)?;
                    staged += len;
                }
                let buffer = self.layout.pkt(idx);
                vmmc.send(ctx, self.staging, &self.data, buffer, pad4(staged))?;
            }
        }
        Ok(())
    }

    /// Take a free packet buffer, waiting on the credit ring when all
    /// are in use (and interrupting the receiver if a brief poll brings
    /// no credit).
    fn alloc_buffer(&mut self, vmmc: &Vmmc, ctx: &Ctx) -> Result<usize, NxError> {
        let p = vmmc.proc_();
        p.charge_bookkeeping(ctx);
        if let Some(idx) = self.free.pop() {
            return Ok(idx);
        }
        let c = self.credits_taken;
        let slot = self.local.add(self.layout.credit_slot(c));
        let arrived = move |v| Layout::decode_credit(v, c).is_some();
        self.credit_stalls += 1;
        // Brief poll, then interrupt the receiver (paper §6: the NX
        // library generates an interrupt to request more buffers).
        let word = match p.poll_u32(ctx, slot, 64, arrived)? {
            Some(v) => v,
            None => {
                p.write_u32(ctx, self.urgent, 1)?;
                vmmc.wait_u32(ctx, slot, 1024, arrived)?
            }
        };
        self.credits_taken += 1;
        Ok(Layout::decode_credit(word, c).expect("predicate checked"))
    }

    /// The receiver's reply to large send `msgid`, once it has landed
    /// (an untimed look at the slot).
    fn reply(&self, vmmc: &Vmmc, msgid: u32) -> Option<Reply> {
        let slot = self.local.add(self.layout.reply_slot(msgid));
        Reply::decode(&peek(vmmc, slot), msgid)
    }

    /// The oldest outstanding large send whose reply has arrived.
    fn replied(&self, vmmc: &Vmmc) -> Option<(PendingLarge, Reply)> {
        self.pending_large
            .iter()
            .find_map(|pl| Some((*pl, self.reply(vmmc, pl.msgid)?)))
    }

    /// Take a free safe-copy buffer of at least `len` bytes from the
    /// pool (allocating one if none is free); the caller must release it
    /// with [`Self::release_bounce`] once the transfer completes.
    fn acquire_bounce(&mut self, vmmc: &Vmmc, len: usize) -> VAddr {
        if let Some(b) = self
            .bounce_pool
            .iter_mut()
            .find(|b| !b.in_use && b.cap >= len)
        {
            b.in_use = true;
            return b.va;
        }
        let cap = len.next_power_of_two().max(8192);
        let va = vmmc.proc_().alloc(cap, CacheMode::WriteBack);
        self.bounce_pool.push(BounceBuf {
            va,
            cap,
            in_use: true,
        });
        va
    }

    fn release_bounce(&mut self, va: VAddr) {
        if let Some(b) = self.bounce_pool.iter_mut().find(|b| b.va == va) {
            b.in_use = false;
        }
    }
}

impl InConn {
    /// The arrived descriptor with the lowest `seq` among those `want`
    /// accepts, and its packet buffer. Untimed: the caller of a timed
    /// scan charges its bookkeeping once, a blocking recheck nothing.
    fn oldest(&self, vmmc: &Vmmc, want: impl Fn(&Desc) -> bool) -> Option<(usize, Desc)> {
        let descs = (0..self.layout.npkt).map(|idx| {
            let at = self.data_local.add(self.layout.pkt(idx));
            (idx, Desc::decode(&peek(vmmc, at)))
        });
        descs
            .filter(|(_, desc)| want(desc))
            .min_by_key(|(_, desc)| desc.seq)
    }

    /// Free packet buffer `idx` and return its credit to the sender.
    fn release_buffer(&mut self, vmmc: &Vmmc, ctx: &Ctx, idx: usize) -> Result<(), NxError> {
        let p = vmmc.proc_();
        // Mark the buffer free locally (cheap write-back store) and
        // update the free-buffer accounting.
        p.charge_bookkeeping(ctx);
        p.write_u32(ctx, self.data_local.add(self.layout.pkt(idx)), 0)?;
        let c = self.credits_returned;
        self.credits_returned += 1;
        // Credit returned through automatic update.
        p.charge_bookkeeping(ctx);
        let slot = self.au_send.add(self.layout.credit_slot(c));
        p.write_u32(ctx, slot, Layout::credit_word(c, idx))?;
        Ok(())
    }
}

/// One rank's NX library state. Obtained from
/// [`NxWorld::join`](crate::NxWorld::join); all methods run in that
/// rank's simulation process.
pub struct NxProc {
    vmmc: Vmmc,
    rank: usize,
    config: NxConfig,
    peers: Peers,
    info: NxInfo,
    local_q: VecDeque<(i32, Vec<u8>)>,
    posted: Vec<Posted>,
    completed: HashMap<MsgHandle, NxInfo>,
    next_handle: u32,
    pub(crate) coll: shrimp_coll::CollComm,
    pub(crate) barrier_epoch: u32,
    progress_guard: bool,
    stats: NxStats,
}

impl std::fmt::Debug for NxProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NxProc")
            .field("rank", &self.rank)
            .field("nranks", &self.numnodes())
            .finish()
    }
}

impl NxProc {
    pub(crate) fn new(
        vmmc: Vmmc,
        rank: usize,
        config: NxConfig,
        peers: Peers,
        coll: shrimp_coll::CollComm,
    ) -> NxProc {
        NxProc {
            vmmc,
            rank,
            config,
            peers,
            info: NxInfo::default(),
            local_q: VecDeque::new(),
            posted: Vec::new(),
            completed: HashMap::new(),
            next_handle: 1,
            coll,
            barrier_epoch: 0,
            progress_guard: false,
            stats: NxStats::default(),
        }
    }

    /// This process's rank (NX `mynode()`).
    pub fn mynode(&self) -> usize {
        self.rank
    }

    /// Number of ranks (NX `numnodes()`).
    pub fn numnodes(&self) -> usize {
        self.peers.0.len()
    }

    /// The VMMC endpoint (for allocating user buffers etc.).
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// The underlying collective communicator (shares this rank's
    /// address space): use it directly for the full algorithm palette —
    /// the NX `g*` calls are thin wrappers over it.
    pub fn coll(&mut self) -> &mut shrimp_coll::CollComm {
        &mut self.coll
    }

    /// Protocol counters for this process.
    pub fn stats(&self) -> NxStats {
        let stalls = self.peers.0.iter().flatten().map(|p| p.out.credit_stalls);
        NxStats {
            credit_stalls: stalls.sum(),
            ..self.stats
        }
    }

    /// Byte count of the last received message (NX `infocount()`).
    pub fn infocount(&self) -> usize {
        self.info.count
    }

    /// Type of the last received message (NX `infotype()`).
    pub fn infotype(&self) -> i32 {
        self.info.mtype
    }

    /// Source rank of the last received message (NX `infonode()`).
    pub fn infonode(&self) -> usize {
        self.info.src
    }

    /// The remote ranks, ascending: the order every scan visits them in.
    fn others(&self) -> impl Iterator<Item = usize> {
        let me = self.rank;
        (0..self.numnodes()).filter(move |&q| q != me)
    }

    // ==================================================================
    // Sending
    // ==================================================================

    /// Blocking typed send (NX `csend`). Returns when the user buffer is
    /// safe to reuse.
    ///
    /// # Errors
    ///
    /// [`NxError::InvalidRank`]; [`NxError::Vmmc`] on memory faults.
    pub fn csend(
        &mut self,
        ctx: &Ctx,
        mtype: i32,
        buf: VAddr,
        len: usize,
        dst: usize,
    ) -> Result<(), NxError> {
        let start = ctx.now();
        self.start_send(ctx, mtype, buf, len, dst, None)?;
        self.vmmc
            .user_span(shrimp_obs::MsgId::NONE, "csend", start, ctx.now(), len);
        Ok(())
    }

    /// Asynchronous send (NX `isend`); complete with
    /// [`NxProc::msgwait`]. The user buffer must stay untouched until
    /// the wait returns.
    ///
    /// # Errors
    ///
    /// As for [`NxProc::csend`].
    pub fn isend(
        &mut self,
        ctx: &Ctx,
        mtype: i32,
        buf: VAddr,
        len: usize,
        dst: usize,
    ) -> Result<MsgHandle, NxError> {
        let handle = self.fresh_handle();
        self.start_send(ctx, mtype, buf, len, dst, Some(handle))?;
        Ok(handle)
    }

    fn fresh_handle(&mut self) -> MsgHandle {
        let h = MsgHandle(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Complete the send behind `handle`, if it has one.
    fn sent(&mut self, handle: Option<MsgHandle>, count: usize, mtype: i32) {
        if let Some(h) = handle {
            let src = self.rank;
            self.completed.insert(h, NxInfo { count, mtype, src });
        }
    }

    /// Both sends: blocking without a `handle`, asynchronous with one.
    fn start_send(
        &mut self,
        ctx: &Ctx,
        mtype: i32,
        buf: VAddr,
        len: usize,
        dst: usize,
        handle: Option<MsgHandle>,
    ) -> Result<(), NxError> {
        self.vmmc.proc_().charge_call(ctx);
        self.progress(ctx)?;
        if dst >= self.numnodes() {
            return Err(NxError::InvalidRank(dst));
        }
        if dst == self.rank {
            let data = self.vmmc.proc_().read(ctx, buf, len)?;
            self.local_q.push_back((mtype, data));
        } else if len > self.config.large_threshold.min(PKT_PAYLOAD) {
            // Scout now, data when the receiver replies; the handle
            // completes with the transfer.
            return self.send_large(ctx, dst, mtype, buf, len, handle);
        } else {
            self.stats.small_sent += 1;
            let desc = Desc {
                size: len as u32,
                mtype,
                kind: Some(MsgKind::Small),
                ..Desc::default()
            };
            self.peers[dst].out.send_small(
                &self.vmmc,
                ctx,
                self.config.send_variant,
                desc,
                Some(buf),
            )?;
        }
        // Local and small sends complete inline.
        self.sent(handle, len, mtype);
        Ok(())
    }

    fn send_large(
        &mut self,
        ctx: &Ctx,
        dst: usize,
        mtype: i32,
        buf: VAddr,
        len: usize,
        handle: Option<MsgHandle>,
    ) -> Result<(), NxError> {
        // A reply slot per outstanding send: with all of them taken
        // (blocking sends return after the safe copy, so a slow receiver
        // lets them pile up) wait for one transfer to complete first.
        if self.peers[dst].out.pending_large.len() == REPLY_SLOTS {
            self.drain_large(ctx, dst..dst + 1, REPLY_SLOTS - 1)?;
        }
        let (vmmc, conn) = (&self.vmmc, &mut self.peers[dst].out);
        let msgid = conn.next_msgid;
        conn.next_msgid += 1;
        self.stats.large_sent += 1;
        // Scout: a descriptor-only message through the one-copy path.
        let scout = Desc {
            size: len as u32,
            mtype,
            kind: Some(MsgKind::Scout),
            msgid,
            ..Desc::default()
        };
        conn.send_small(vmmc, ctx, self.config.send_variant, scout, None)?;

        let mut pl = PendingLarge {
            msgid,
            source: buf,
            len,
            mtype,
            handle,
            bounce: None,
        };
        if handle.is_none() && self.config.optimistic_copy {
            // Copy to the safe buffer, stopping the moment the receiver
            // replies (footnote 1: the copy is not on the critical path).
            let bounce = conn.acquire_bounce(vmmc, len);
            pl.bounce = Some(bounce);
            let mut copied = 0usize;
            while copied < len {
                if let Some(reply) = conn.reply(vmmc, msgid) {
                    return self.complete_large(ctx, dst, pl, reply);
                }
                // Small copy quanta so the reply is noticed promptly
                // ("the sender immediately stops copying").
                let chunk = (len - copied).min(512);
                vmmc.proc_()
                    .copy(ctx, buf.add(copied), bounce.add(copied), chunk)?;
                copied += chunk;
            }
            // Fully copied: the application may continue; the transfer
            // itself happens when the reply arrives (progress()).
            pl.source = bounce;
        } else if handle.is_none() {
            // Ablation: no optimistic copy — block for the reply's ack
            // word, the last of its slot.
            let ack = conn.layout.reply_slot(msgid) + Reply::BYTES - 4;
            vmmc.wait_u32(ctx, conn.local.add(ack), 1024, |v| v == msgid)?;
            let reply = conn.reply(vmmc, msgid).expect("ack word matched");
            return self.complete_large(ctx, dst, pl, reply);
        }
        // (isend comes straight here: the user buffer is pledged until
        // msgwait, so there is no copy to make; transfer on reply.)
        conn.pending_large.push(pl);
        Ok(())
    }

    /// Move large send `pl` to rank `dst` the way the receiver's `reply`
    /// asks, and complete it.
    fn complete_large(
        &mut self,
        ctx: &Ctx,
        dst: usize,
        pl: PendingLarge,
        reply: Reply,
    ) -> Result<(), NxError> {
        let (vmmc, conn) = (&self.vmmc, &mut self.peers[dst].out);
        let p = vmmc.proc_();
        // Pool buffer used only to word-align an unaligned source;
        // released below (the blocking send makes it reusable on return).
        let mut align_bounce = None;
        match reply.mode {
            ReplyMode::ZeroCopy => {
                self.stats.zero_copy_sent += 1;
                let src = if pl.source.is_word_aligned() {
                    pl.source
                } else {
                    let b = conn.acquire_bounce(vmmc, pl.len);
                    p.copy(ctx, pl.source, b, pl.len)?;
                    align_bounce = Some(b);
                    b
                };
                let target = match conn.zc_imports.entry(reply.name) {
                    Entry::Occupied(e) => e.into_mut(),
                    // "If it hasn't done so already, the sender
                    // imports that buffer."
                    Entry::Vacant(e) => {
                        e.insert(vmmc.import(ctx, conn.data.node(), BufferName(reply.name))?)
                    }
                };
                vmmc.send(ctx, src, target, 0, pl.len)?;
                // Done flag: one word through the data region.
                let done = conn.staging.add(PKT_BUF);
                p.write_u32(ctx, done, pl.msgid)?;
                let slot = conn.layout.done_slot(pl.msgid);
                vmmc.send(ctx, done, &conn.data, slot, 4)?;
            }
            ReplyMode::Chunked => {
                self.stats.chunked_sent += 1;
                let mut off = 0usize;
                while off < pl.len {
                    let chunk = Desc {
                        size: (pl.len - off).min(PKT_PAYLOAD) as u32,
                        mtype: pl.mtype,
                        kind: Some(MsgKind::Chunk),
                        msgid: pl.msgid,
                        chunk_off: off as u32,
                        ..Desc::default()
                    };
                    let from = Some(pl.source.add(off));
                    conn.send_small(vmmc, ctx, self.config.send_variant, chunk, from)?;
                    off += chunk.size as usize;
                }
            }
        }
        conn.pending_large.retain(|other| other.msgid != pl.msgid);
        for b in [pl.bounce, align_bounce].into_iter().flatten() {
            conn.release_bounce(b);
        }
        self.sent(pl.handle, pl.len, pl.mtype);
        Ok(())
    }

    // ==================================================================
    // Receiving
    // ==================================================================

    /// Blocking typed receive (NX `crecv`): any source, `typesel == -1`
    /// matches any application type. Returns the message length.
    ///
    /// # Errors
    ///
    /// [`NxError::Truncated`] if the arriving message exceeds `maxlen`
    /// (the message is consumed and dropped).
    pub fn crecv(
        &mut self,
        ctx: &Ctx,
        typesel: i32,
        buf: VAddr,
        maxlen: usize,
    ) -> Result<usize, NxError> {
        self.crecvx(ctx, typesel, buf, maxlen, None)
    }

    /// `crecv` with a source-rank selector (NX `crecvx`).
    ///
    /// # Errors
    ///
    /// As for [`NxProc::crecv`].
    pub fn crecvx(
        &mut self,
        ctx: &Ctx,
        typesel: i32,
        buf: VAddr,
        maxlen: usize,
        srcsel: Option<usize>,
    ) -> Result<usize, NxError> {
        let start = ctx.now();
        let n = self.recv(ctx, typesel, buf, maxlen, srcsel)?;
        self.vmmc
            .user_span(shrimp_obs::MsgId::NONE, "crecv", start, ctx.now(), n);
        Ok(n)
    }

    fn recv(
        &mut self,
        ctx: &Ctx,
        typesel: i32,
        buf: VAddr,
        maxlen: usize,
        srcsel: Option<usize>,
    ) -> Result<usize, NxError> {
        self.vmmc.proc_().charge_call(ctx);
        loop {
            self.progress(ctx)?;
            if srcsel.is_none_or(|s| s == self.rank) {
                if let Some(pos) = self
                    .local_q
                    .iter()
                    .position(|(t, _)| type_matches(*t, typesel))
                {
                    let (mtype, data) = self.local_q.remove(pos).expect("position valid");
                    if data.len() > maxlen {
                        return Err(NxError::Truncated {
                            len: data.len(),
                            max: maxlen,
                        });
                    }
                    self.vmmc.proc_().write(ctx, buf, &data)?;
                    self.info = NxInfo {
                        count: data.len(),
                        mtype,
                        src: self.rank,
                    };
                    return Ok(data.len());
                }
            }
            if let Some((q, idx, desc)) = self.try_find(ctx, typesel, srcsel) {
                return match desc.kind {
                    Some(MsgKind::Small) => self.consume_small(ctx, q, idx, desc, buf, maxlen),
                    _ => self.recv_large(ctx, q, idx, desc, buf, maxlen),
                };
            }
            self.vmmc
                .wait_activity(ctx, || self.arrival_visible(typesel, srcsel));
        }
    }

    /// Post an asynchronous receive (NX `irecv`); complete with
    /// [`NxProc::msgwait`].
    pub fn irecv(&mut self, ctx: &Ctx, typesel: i32, buf: VAddr, maxlen: usize) -> MsgHandle {
        self.post(ctx, typesel, buf, maxlen, None)
    }

    /// Post a handler receive (NX `hrecv`): when a matching message
    /// arrives, it is delivered into `buf` and `handler` runs in this
    /// process's context — at the next library call, matching the
    /// user-level signal semantics of the original. The returned handle
    /// can still be `msgwait`ed.
    pub fn hrecv(
        &mut self,
        ctx: &Ctx,
        typesel: i32,
        buf: VAddr,
        maxlen: usize,
        handler: RecvHandler,
    ) -> MsgHandle {
        self.post(ctx, typesel, buf, maxlen, Some(handler))
    }

    fn post(
        &mut self,
        ctx: &Ctx,
        typesel: i32,
        buf: VAddr,
        maxlen: usize,
        handler: Option<RecvHandler>,
    ) -> MsgHandle {
        self.vmmc.proc_().charge_call(ctx);
        let handle = self.fresh_handle();
        self.posted.push(Posted {
            handle,
            typesel,
            buf,
            maxlen,
            handler,
        });
        handle
    }

    /// Wait for an asynchronous send or receive to complete (NX
    /// `msgwait`). Updates the `info...` state for receives.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the completing operation.
    pub fn msgwait(&mut self, ctx: &Ctx, handle: MsgHandle) -> Result<usize, NxError> {
        self.vmmc.proc_().charge_call(ctx);
        loop {
            if let Some(info) = self.completed.remove(&handle) {
                return Ok(info.count);
            }
            self.progress(ctx)?;
            // Try to complete posted receives in post order.
            if self.try_complete_posted(ctx)? {
                continue;
            }
            if self.completed.contains_key(&handle) {
                continue;
            }
            self.vmmc
                .wait_activity(ctx, || self.arrival_visible(-1, None));
        }
    }

    /// Non-blocking completion test (NX `msgdone`): true once the
    /// operation behind `handle` has completed; the handle is consumed
    /// on the first `true` (as in NX — pair each handle with exactly one
    /// successful `msgdone` or `msgwait`).
    ///
    /// # Errors
    ///
    /// Propagates progress-engine errors.
    pub fn msgdone(&mut self, ctx: &Ctx, handle: MsgHandle) -> Result<bool, NxError> {
        self.vmmc.proc_().charge_call(ctx);
        self.progress(ctx)?;
        self.try_complete_posted(ctx)?;
        Ok(self.completed.remove(&handle).is_some())
    }

    /// Non-blocking probe (NX `iprobe`): information about the first
    /// matching arrived message, without consuming it.
    pub fn iprobe(&mut self, ctx: &Ctx, typesel: i32) -> Result<Option<NxInfo>, NxError> {
        self.vmmc.proc_().charge_call(ctx);
        self.progress(ctx)?;
        if let Some((t, data)) = self.local_q.iter().find(|(t, _)| type_matches(*t, typesel)) {
            return Ok(Some(NxInfo {
                count: data.len(),
                mtype: *t,
                src: self.rank,
            }));
        }
        let found = self.try_find(ctx, typesel, None);
        Ok(found.map(|(src, _idx, desc)| NxInfo {
            count: desc.size as usize,
            mtype: desc.mtype,
            src,
        }))
    }

    /// Blocking probe (NX `cprobe`).
    ///
    /// # Errors
    ///
    /// Propagates progress-engine errors.
    pub fn cprobe(&mut self, ctx: &Ctx, typesel: i32) -> Result<NxInfo, NxError> {
        loop {
            if let Some(info) = self.iprobe(ctx, typesel)? {
                return Ok(info);
            }
            self.vmmc
                .wait_activity(ctx, || self.arrival_visible(typesel, None));
        }
    }

    /// Untimed arrival check used as the blocking recheck (closes the
    /// sleep/wake race). Also true when a pending large send's reply has
    /// arrived — progress() must run for the protocol to move.
    fn arrival_visible(&self, typesel: i32, srcsel: Option<usize>) -> bool {
        self.find(typesel, srcsel).is_some() || self.pending_reply_visible()
    }

    /// Untimed check: has any outstanding large send's reply landed?
    fn pending_reply_visible(&self) -> bool {
        let mut conns = self.peers.0.iter().flatten();
        conns.any(|peer| peer.out.replied(&self.vmmc).is_some())
    }

    /// Timed arrival scan.
    fn try_find(
        &self,
        ctx: &Ctx,
        typesel: i32,
        srcsel: Option<usize>,
    ) -> Option<(usize, usize, Desc)> {
        self.vmmc.proc_().charge_bookkeeping(ctx);
        self.find(typesel, srcsel)
    }

    /// The message a receive of `typesel` from `srcsel` would take now,
    /// as `(rank, packet buffer, descriptor)`: ranks ascending, lowest
    /// `seq` within a rank.
    fn find(&self, typesel: i32, srcsel: Option<usize>) -> Option<(usize, usize, Desc)> {
        let mut ranks = self.others().filter(|&q| srcsel.is_none_or(|s| s == q));
        ranks.find_map(|q| {
            let (idx, desc) = self.peers[q].inc.oldest(&self.vmmc, |desc| {
                // Anything else is a free buffer, or a chunk claimed by
                // an active large receive.
                matches!(desc.kind, Some(MsgKind::Small | MsgKind::Scout))
                    && type_matches(desc.mtype, typesel)
            })?;
            Some((q, idx, desc))
        })
    }

    /// Record a message received from rank `src` for the `info...`
    /// calls; returns its length.
    fn received(&mut self, count: usize, mtype: i32, src: usize) -> usize {
        self.info = NxInfo { count, mtype, src };
        self.stats.received += 1;
        count
    }

    fn consume_small(
        &mut self,
        ctx: &Ctx,
        q: usize,
        idx: usize,
        desc: Desc,
        buf: VAddr,
        maxlen: usize,
    ) -> Result<usize, NxError> {
        let n = desc.size as usize;
        let (vmmc, conn) = (&self.vmmc, &mut self.peers[q].inc);
        let p = vmmc.proc_();
        // Parsing the descriptor and size checks.
        p.charge_descriptor(ctx);
        let truncated = n > maxlen;
        if !truncated && n > 0 && !self.config.in_place_receive {
            p.copy(ctx, conn.data_local.add(conn.layout.payload(idx)), buf, n)?;
        }
        conn.release_buffer(vmmc, ctx, idx)?;
        if truncated {
            return Err(NxError::Truncated {
                len: n,
                max: maxlen,
            });
        }
        Ok(self.received(n, desc.mtype, q))
    }

    fn recv_large(
        &mut self,
        ctx: &Ctx,
        q: usize,
        idx: usize,
        scout: Desc,
        buf: VAddr,
        maxlen: usize,
    ) -> Result<usize, NxError> {
        let (total, msgid) = (scout.size as usize, scout.msgid);
        let peer_node = self.peers[q].out.data.node();
        let (vmmc, conn) = (&self.vmmc, &mut self.peers[q].inc);
        let p = vmmc.proc_();
        conn.release_buffer(vmmc, ctx, idx)?;

        let truncated = total > maxlen;
        let zero_copy = self.config.allow_zero_copy
            && !truncated
            && buf.is_word_aligned()
            && total.is_multiple_of(4)
            && total > 0;

        // Reply through the peer's region (automatic update).
        let (name, mode) = if zero_copy {
            let name = match conn.user_exports.entry((buf.0, total)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let opts = ExportOpts {
                        perms: ExportPerms::Nodes(vec![peer_node]),
                        handler: None,
                        ..Default::default()
                    };
                    *e.insert(vmmc.export(ctx, buf, total, opts)?)
                }
            };
            (name.0, ReplyMode::ZeroCopy)
        } else {
            (0, ReplyMode::Chunked)
        };
        let reply = Reply {
            name,
            mode,
            ack: msgid,
        };
        let slot = conn.au_send.add(conn.layout.reply_slot(msgid));
        p.write(ctx, slot, &reply.encode())?;

        if zero_copy {
            // Wait for the sender's done flag, then clear it.
            let done = conn.data_local.add(conn.layout.done_slot(msgid));
            vmmc.wait_u32(ctx, done, 1024, |v| v == msgid)?;
            p.write_u32(ctx, done, 0)?;
        } else {
            // Chunked: consume chunks of this msgid in order.
            let next_chunk = |conn: &InConn| {
                conn.oldest(vmmc, |d| d.kind == Some(MsgKind::Chunk) && d.msgid == msgid)
            };
            let mut received = 0usize;
            while received < total {
                let Some((cidx, chunk)) = next_chunk(conn) else {
                    vmmc.wait_activity(ctx, || next_chunk(conn).is_some());
                    continue;
                };
                let n = chunk.size as usize;
                if !truncated {
                    let payload = conn.data_local.add(conn.layout.payload(cidx));
                    p.copy(ctx, payload, buf.add(chunk.chunk_off as usize), n)?;
                }
                conn.release_buffer(vmmc, ctx, cidx)?;
                received += n;
            }
        }
        if truncated {
            return Err(NxError::Truncated {
                len: total,
                max: maxlen,
            });
        }
        Ok(self.received(total, scout.mtype, q))
    }

    /// Block until every outstanding large send has been transferred to
    /// its receiver. Call before the process stops making NX calls (the
    /// optimistic-copy protocol finishes transfers lazily from later
    /// library calls, so a process that exits without flushing can leave
    /// a receiver waiting forever).
    ///
    /// # Errors
    ///
    /// Propagates transfer errors.
    pub fn flush(&mut self, ctx: &Ctx) -> Result<(), NxError> {
        self.vmmc.proc_().charge_call(ctx);
        self.drain_large(ctx, 0..self.numnodes(), 0)
    }

    /// Complete large sends as their replies arrive until no connection
    /// to `ranks` has more than `at_most` outstanding.
    fn drain_large(
        &mut self,
        ctx: &Ctx,
        ranks: std::ops::Range<usize>,
        at_most: usize,
    ) -> Result<(), NxError> {
        loop {
            self.progress(ctx)?;
            let mut conns = self.peers.0[ranks.clone()].iter().flatten();
            if conns.all(|peer| peer.out.pending_large.len() <= at_most) {
                return Ok(());
            }
            self.vmmc
                .wait_activity(ctx, || self.pending_reply_visible());
        }
    }

    /// Complete the first posted receive whose message has arrived;
    /// returns whether one completed. Runs the `hrecv` handler, if any.
    /// Re-entrant calls (the completion path itself drives progress)
    /// return `false` immediately.
    fn try_complete_posted(&mut self, ctx: &Ctx) -> Result<bool, NxError> {
        if self.progress_guard {
            return Ok(false);
        }
        let Some(pos) = self.posted.iter().position(|p| {
            self.find(p.typesel, None).is_some()
                || self
                    .local_q
                    .iter()
                    .any(|(t, _)| type_matches(*t, p.typesel))
        }) else {
            return Ok(false);
        };
        let mut p = self.posted.remove(pos);
        self.progress_guard = true;
        let r = self.crecvx(ctx, p.typesel, p.buf, p.maxlen, None);
        self.progress_guard = false;
        r?;
        let info = self.info;
        self.completed.insert(p.handle, info);
        if let Some(h) = p.handler.as_mut() {
            // Handler semantics follow the notification model (§2.3):
            // signal-delivery cost, then user code in this process.
            ctx.advance(self.vmmc.proc_().node().costs().signal_delivery);
            h(ctx, info);
        }
        Ok(true)
    }

    /// Drive background protocol work: take queued notifications (a
    /// stalled sender's urgent word, charged a signal delivery), and
    /// complete large sends whose replies have arrived. Called
    /// automatically at the top of every library call.
    ///
    /// # Errors
    ///
    /// Propagates VMMC errors from completing transfers.
    pub fn progress(&mut self, ctx: &Ctx) -> Result<(), NxError> {
        self.vmmc.poll_notifications(ctx);
        // Handler receives complete from any library call.
        if self.posted.iter().any(|p| p.handler.is_some()) {
            while self.try_complete_posted(ctx)? {}
        }
        // Large sends whose replies arrived.
        for q in self.others() {
            while let Some((pl, reply)) = self.peers[q].out.replied(&self.vmmc) {
                self.complete_large(ctx, q, pl, reply)?;
            }
        }
        Ok(())
    }
}
