//! The byte ring: the *cyclic shared queue* of paper §4.2 and §4.3, the
//! one channel VRPC's SBL and stream sockets are both built on.
//!
//! Each direction of a ring pair lives in its *receiver's* exported
//! region: a control page, then `ring` bytes of data. The writer
//! deposits bytes straight into the ring, then stores its running
//! *written* count at control offset 0. The reader takes bytes out, then
//! stores its running *consumed* count — the writer's flow-control ack —
//! at offset 4 of the writer's region. Control words always travel by
//! automatic update through a mirror of the peer's region; the data
//! moves by the caller's [`RingPath`]. Counts run modulo 2³²
//! (`free_bytes`, `unread_bytes`), and a writer never puts more than
//! its ack leaves room for. Control words from offset 8 on belong to the
//! caller (sockets keeps its FIN flag there).

use std::ops::Range;

use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::Ctx;

use crate::daemon::BufferName;
use crate::endpoint::{ExportOpts, ImportHandle, Vmmc};
use crate::error::VmmcError;

/// Control offset of the count of bytes the peer has written here.
const WRITTEN: usize = 0;
/// Control offset of the count of bytes the peer has consumed from *its*
/// ring: the ack for this side's writes.
const ACK: usize = 4;
/// Polls before a ring wait falls back to blocking.
const POLLS: usize = 256;

/// Bytes free in a ring of `ring` bytes whose writer has put `sent`
/// bytes and whose reader has acknowledged `ack`, both counts modulo
/// 2³². An ack no reader could have sent leaves no room.
fn free_bytes(ring: usize, sent: u32, ack: u32) -> usize {
    ring.saturating_sub(sent.wrapping_sub(ack) as usize)
}

/// Bytes published but not yet consumed, both counts modulo 2³².
fn unread_bytes(written: u32, consumed: u32) -> usize {
    written.wrapping_sub(consumed) as usize
}

/// How bytes enter the peer's ring (control words always travel by
/// automatic update).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPath {
    /// Stage the bytes, then a charged copy into the automatic-update
    /// mirror: the copy is the send.
    AuCopy,
    /// Charged stores into the automatic-update mirror: the stores are
    /// the send.
    AuStore,
    /// Stage the bytes, a charged copy into the shadow ring, then one
    /// deliberate update of the enclosing word range.
    DuCopy,
    /// Charged stores into the shadow ring, then one deliberate update.
    DuStore,
    /// The shadow stands in for the caller's memory (the same bytes, no
    /// copy charged), then one deliberate update; word-ragged edges
    /// resend shadow bytes already deposited.
    DuDirect,
}

/// This side's exported region, before the peer's region is imported.
#[derive(Debug)]
pub struct RingExport {
    /// The region's name, for the out-of-band exchange.
    pub name: BufferName,
    local: VAddr,
    ring: usize,
}

/// One endpoint of a ring pair: it writes into the peer's region and
/// reads from its own.
#[derive(Debug)]
pub struct ByteRing {
    path: RingPath,
    ring: usize,
    /// My export: the peer deposits data and control here.
    local: VAddr,
    /// Automatic-update mirror of the peer's region: my control words,
    /// and my data on the AU paths.
    mirror: VAddr,
    /// Shadow of the peer's ring, the source of deliberate updates.
    shadow: VAddr,
    /// Where staged bytes wait and the receive-side copy lands.
    scratch: VAddr,
    peer: ImportHandle,
    sent: u64,
    consumed: u64,
}

impl RingExport {
    /// Complete the pair once the peer's region is imported: bind the
    /// automatic-update mirror of it, then allocate the shadow and
    /// scratch rings.
    ///
    /// # Errors
    ///
    /// Fails if the automatic-update binding cannot be created.
    pub fn join(
        self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        peer: ImportHandle,
        path: RingPath,
    ) -> Result<ByteRing, VmmcError> {
        let p = vmmc.proc_();
        let mirror = p.alloc(PAGE_SIZE + self.ring, CacheMode::WriteBack);
        let pages = 1 + self.ring / PAGE_SIZE;
        vmmc.bind_au(ctx, mirror, &peer, 0, pages, true, false)?;
        Ok(ByteRing {
            path,
            ring: self.ring,
            local: self.local,
            mirror,
            shadow: p.alloc(self.ring, CacheMode::WriteBack),
            scratch: p.alloc(self.ring, CacheMode::WriteBack),
            peer,
            sent: 0,
            consumed: 0,
        })
    }
}

impl ByteRing {
    /// Allocate and export this side's region: a control page, then
    /// `ring` bytes.
    ///
    /// # Panics
    ///
    /// Unless `ring` is a nonzero whole number of pages.
    ///
    /// # Errors
    ///
    /// Fails if the export is rejected.
    pub fn export(vmmc: &Vmmc, ctx: &Ctx, ring: usize) -> Result<RingExport, VmmcError> {
        assert!(ring > 0 && ring.is_multiple_of(PAGE_SIZE), "whole pages");
        let local = vmmc.proc_().alloc(PAGE_SIZE + ring, CacheMode::WriteBack);
        let name = vmmc.export(ctx, local, PAGE_SIZE + ring, ExportOpts::default())?;
        Ok(RingExport { local, ring, name })
    }

    /// Wait until at least `need` bytes are free, then return the room
    /// up to the ring end: the most one [`ByteRing::put`] deposits
    /// without splitting.
    ///
    /// # Errors
    ///
    /// Fails if the control page is no longer mapped.
    pub fn wait_room(&self, vmmc: &Vmmc, ctx: &Ctx, need: usize) -> Result<usize, VmmcError> {
        let (ring, sent) = (self.ring, self.sent as u32);
        loop {
            let free = free_bytes(ring, sent, self.ctrl_word(vmmc, ACK)?);
            if free >= need {
                return Ok(free.min(ring - self.pos(self.sent)));
            }
            vmmc.wait_u32(ctx, self.local.add(ACK), POLLS, move |v| {
                free_bytes(ring, sent, v) >= need
            })?;
        }
    }

    /// Deposit `bytes` (for which [`ByteRing::wait_room`] made room) by
    /// this ring's path, split at the ring end, then publish the written
    /// count. Control follows data, so the count is the commit point.
    ///
    /// # Errors
    ///
    /// Propagates transfer faults.
    pub fn put(&mut self, vmmc: &Vmmc, ctx: &Ctx, bytes: &[u8]) -> Result<(), VmmcError> {
        let mut off = 0;
        while off < bytes.len() {
            let pos = self.pos(self.sent);
            let n = (bytes.len() - off).min(self.ring - pos);
            self.deposit(vmmc, ctx, pos, &bytes[off..off + n])?;
            self.sent += n as u64;
            off += n;
        }
        self.store_ctrl(vmmc, ctx, WRITTEN, self.sent as u32)
    }

    fn deposit(&self, vmmc: &Vmmc, ctx: &Ctx, pos: usize, bytes: &[u8]) -> Result<(), VmmcError> {
        let p = vmmc.proc_();
        let du = !matches!(self.path, RingPath::AuCopy | RingPath::AuStore);
        let dst = if du {
            self.shadow.add(pos)
        } else {
            self.mirror.add(PAGE_SIZE + pos)
        };
        match self.path {
            RingPath::AuCopy | RingPath::DuCopy => {
                p.poke(self.scratch, bytes)?; // the caller's bytes
                p.copy(ctx, self.scratch, dst, bytes.len())?;
            }
            RingPath::AuStore | RingPath::DuStore => p.write(ctx, dst, bytes)?,
            RingPath::DuDirect => p.poke(dst, bytes)?,
        }
        if du {
            let (start, end) = (pos & !3, (pos + bytes.len()).div_ceil(4) * 4);
            let src = self.shadow.add(start);
            vmmc.send(ctx, src, &self.peer, PAGE_SIZE + start, end - start)?;
        }
        Ok(())
    }

    /// Bytes the peer has published and this side not yet taken, up to
    /// the ring end: the most one [`ByteRing::take`] reads without
    /// splitting.
    ///
    /// # Errors
    ///
    /// Fails if the control page is no longer mapped.
    pub fn readable(&self, vmmc: &Vmmc) -> Result<usize, VmmcError> {
        let unread = unread_bytes(self.ctrl_word(vmmc, WRITTEN)?, self.consumed as u32);
        Ok(unread.min(self.ring - self.pos(self.consumed)))
    }

    /// Wait until the peer has published `need` bytes past the consumed
    /// count.
    ///
    /// # Errors
    ///
    /// Fails if the control page is no longer mapped.
    pub fn wait_readable(&self, vmmc: &Vmmc, ctx: &Ctx, need: usize) -> Result<(), VmmcError> {
        let consumed = self.consumed as u32;
        vmmc.wait_u32(ctx, self.local.add(WRITTEN), POLLS, move |v| {
            unread_bytes(v, consumed) >= need
        })
        .map(drop)
    }

    /// The word at the read position, uncharged. A caller that frames
    /// its bytes keeps such a word 4-aligned, so it never wraps.
    ///
    /// # Errors
    ///
    /// Fails if the ring is no longer mapped.
    pub fn peek_word(&self, vmmc: &Vmmc) -> Result<u32, VmmcError> {
        self.ctrl_word(vmmc, PAGE_SIZE + self.pos(self.consumed))
    }

    /// Take the bytes at offsets `body` past the consumed count out of
    /// the ring — by a charged copy through scratch, or by in-place
    /// loads — then release `span` bytes with the ack store. The writer
    /// may overwrite them only once they are out.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn take(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        body: Range<usize>,
        span: usize,
        in_place: bool,
    ) -> Result<Vec<u8>, VmmcError> {
        let p = vmmc.proc_();
        let mut out = Vec::with_capacity(body.len());
        let mut at = body.start;
        while at < body.end {
            let pos = self.pos(self.consumed + at as u64);
            let n = (body.end - at).min(self.ring - pos);
            let src = self.local.add(PAGE_SIZE + pos);
            if in_place {
                out.extend(p.read(ctx, src, n)?);
            } else {
                let dst = self.scratch.add(out.len());
                p.copy(ctx, src, dst, n)?; // the receive-side copy
                out.extend(p.peek(dst, n)?);
            }
            at += n;
        }
        self.consumed += span as u64;
        self.store_ctrl(vmmc, ctx, ACK, self.consumed as u32)?;
        Ok(out)
    }

    /// The word at offset `off` of this side's region, as the peer
    /// stored it (uncharged): a control word below `PAGE_SIZE`.
    ///
    /// # Errors
    ///
    /// Fails if the control page is no longer mapped.
    pub fn ctrl_word(&self, vmmc: &Vmmc, off: usize) -> Result<u32, VmmcError> {
        let b = vmmc.proc_().peek(self.local.add(off), 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("a word is 4 bytes")))
    }

    /// Store a control word into the peer's region by automatic update.
    ///
    /// # Errors
    ///
    /// Fails if the mirror is no longer mapped.
    pub fn store_ctrl(&self, vmmc: &Vmmc, ctx: &Ctx, off: usize, v: u32) -> Result<(), VmmcError> {
        Ok(vmmc.proc_().write_u32(ctx, self.mirror.add(off), v)?)
    }

    fn pos(&self, count: u64) -> usize {
        (count % self.ring as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use shrimp_mesh::NodeId;
    use shrimp_sim::{Kernel, SimChannel, SimTime};

    use super::*;
    use crate::system::{ShrimpSystem, SystemConfig};

    /// The two rings in use: sockets' 32 KiB and the SBL's 64 KiB.
    const RINGS: [usize; 2] = [32 * 1024, 64 * 1024];

    const PATHS: [RingPath; 5] = [
        RingPath::AuCopy,
        RingPath::AuStore,
        RingPath::DuCopy,
        RingPath::DuStore,
        RingPath::DuDirect,
    ];

    type End = Box<dyn FnOnce(&Vmmc, &Ctx, &mut ByteRing) + Send>;

    /// One ring pair of `ring` bytes on `path` between nodes 0 and 1; each
    /// end's body gets its `ByteRing`, and both must finish.
    fn ring_pair(ring: usize, path: RingPath, ends: [End; 2]) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let names: [SimChannel<BufferName>; 2] = [SimChannel::new(), SimChannel::new()];
        let done = Arc::new(Mutex::new(0));
        for (i, end) in ends.into_iter().enumerate() {
            let vmmc = system.endpoint(i, format!("end{i}"));
            let (names, done) = (names.clone(), Arc::clone(&done));
            kernel.spawn(format!("end{i}"), move |ctx| {
                let local = ByteRing::export(&vmmc, ctx, ring).unwrap();
                names[i].send(&ctx.handle(), local.name);
                let peer = vmmc.import(ctx, NodeId(1 - i), names[1 - i].recv(ctx));
                let mut r = local.join(&vmmc, ctx, peer.unwrap(), path).unwrap();
                end(&vmmc, ctx, &mut r);
                *done.lock() += 1;
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
        assert_eq!(*done.lock(), 2, "an end never finished");
    }

    /// The flow-control rule on every path: a writer facing a full ring
    /// gets room only after the reader has taken the bytes out, and what
    /// it writes next lands behind them intact.
    #[test]
    fn room_opens_only_after_the_bytes_are_out() {
        const RING: usize = 2 * PAGE_SIZE;
        let full: Vec<u8> = (0..RING).map(|i| (i % 251) as u8).collect();
        for path in PATHS {
            // (writer's room reopened, reader's take returned)
            let at = Arc::new(Mutex::new((SimTime::ZERO, SimTime::ZERO)));
            let (w_at, r_at) = (Arc::clone(&at), Arc::clone(&at));
            let (bytes, expect) = (full.clone(), full.clone());
            let writer: End = Box::new(move |vmmc, ctx, r| {
                assert_eq!(r.wait_room(vmmc, ctx, RING).unwrap(), RING);
                r.put(vmmc, ctx, &bytes).unwrap();
                r.wait_room(vmmc, ctx, 4).unwrap();
                w_at.lock().0 = ctx.now();
                r.put(vmmc, ctx, b"next").unwrap();
            });
            let reader: End = Box::new(move |vmmc, ctx, r| {
                r.wait_readable(vmmc, ctx, RING).unwrap();
                assert_eq!(r.readable(vmmc).unwrap(), RING);
                assert_eq!(r.take(vmmc, ctx, 0..RING, RING, false).unwrap(), expect);
                r_at.lock().1 = ctx.now();
                r.wait_readable(vmmc, ctx, 4).unwrap();
                assert_eq!(r.take(vmmc, ctx, 0..4, 4, true).unwrap(), b"next");
            });
            ring_pair(RING, path, [writer, reader]);
            let (room, out) = *at.lock();
            assert!(
                room > out,
                "{path:?}: room at {room:?}, bytes out at {out:?}"
            );
        }
    }

    #[test]
    fn room_and_unread_hold_across_the_count_wrap() {
        for ring in RINGS {
            // Acks just below and just above 2³², and a writer from
            // level with the reader to a full ring ahead of it.
            let r = ring as u32;
            for ack in [u32::MAX - r, u32::MAX - 3, u32::MAX, 0, 1, r - 1] {
                for k in [0, 1, 4, 7, r / 2, r - 1, r] {
                    let sent = ack.wrapping_add(k);
                    assert_eq!(
                        free_bytes(ring, sent, ack),
                        ring - k as usize,
                        "{ring} {ack} {k}"
                    );
                    assert_eq!(unread_bytes(sent, ack), k as usize, "{ring} {ack} {k}");
                }
            }
        }
    }

    #[test]
    fn an_ack_ahead_of_the_writer_leaves_no_room() {
        for ring in RINGS {
            // One past what was sent, across the wrap and short of it,
            // and a ring and one byte behind it.
            assert_eq!(free_bytes(ring, u32::MAX, 0), 0);
            assert_eq!(free_bytes(ring, 3, 4), 0);
            assert_eq!(free_bytes(ring, 2, 1u32.wrapping_sub(ring as u32)), 0);
        }
    }
}
