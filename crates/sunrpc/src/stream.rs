//! The SBL — SHRIMP base layer: a bidirectional byte stream over a pair
//! of import-export mappings.
//!
//! Each direction is a **cyclic shared queue** (paper §4.2): the data
//! ring lives in the receiver's exported memory and the writer deposits
//! bytes directly into it. The control information is two reserved
//! words — a running *written* count, and the writer's *consumed* count
//! of the opposite direction (the flow-control ack) — always transferred
//! by automatic update, while the data moves by automatic or deliberate
//! update according to the configured variant.
//!
//! Layout of one direction's region (exported by that direction's
//! receiver): one control page (`written` at offset 0, `consumed` of the
//! opposite direction at offset 4), then `RING_BYTES` of data ring.

use shrimp_core::{ImportHandle, Vmmc, VmmcError};
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::Ctx;

/// Ring capacity per direction. Comfortably exceeds the largest message
/// in the paper's sweeps (10 KB) so steady-state calls never stall on
/// flow control.
pub const RING_BYTES: usize = 64 * 1024;

/// Total region size per direction (control page + ring).
pub const REGION_BYTES: usize = PAGE_SIZE + RING_BYTES;

/// How message *data* is moved (control always uses automatic update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamVariant {
    /// Marshal straight into the automatic-update mirror of the peer's
    /// ring; the stores are the transfer.
    #[default]
    AutomaticUpdate,
    /// Marshal into a local staging ring, then one deliberate update.
    DeliberateUpdate,
}

/// One endpoint of an established bidirectional stream.
pub struct SblStream {
    vmmc_name: String,
    variant: StreamVariant,
    /// My export: the peer deposits data for me here.
    local: VAddr,
    /// The peer's region (my outgoing direction).
    peer: ImportHandle,
    /// AU mirror of the peer's region (whole region for AU data, control
    /// page only for DU data — but mapping the whole region is free, so
    /// we always bind it all and the variant picks the data path).
    mirror: VAddr,
    /// Staging ring for the deliberate-update data path.
    staging: VAddr,
    /// Scratch area the receive path copies messages into (the
    /// receiver-side copy of the 1-copy protocol).
    scratch: VAddr,
    sent_total: u64,
    consumed_total: u64,
}

impl std::fmt::Debug for SblStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SblStream")
            .field("endpoint", &self.vmmc_name)
            .field("variant", &self.variant)
            .finish_non_exhaustive()
    }
}

impl SblStream {
    /// Assemble an endpoint from an established mapping pair: `local` is
    /// this side's exported region, `peer` the imported remote region.
    /// Call once per side after the out-of-band name exchange; the AU
    /// binding for the outgoing direction is created here.
    ///
    /// # Errors
    ///
    /// Fails if the AU binding cannot be created.
    pub fn assemble(
        vmmc: &Vmmc,
        ctx: &Ctx,
        local: VAddr,
        peer: ImportHandle,
        variant: StreamVariant,
    ) -> Result<SblStream, VmmcError> {
        let mirror = vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack);
        vmmc.bind_au(ctx, mirror, &peer, 0, REGION_BYTES / PAGE_SIZE, true, false)?;
        let staging = vmmc.proc_().alloc(RING_BYTES, CacheMode::WriteBack);
        let scratch = vmmc.proc_().alloc(RING_BYTES, CacheMode::WriteBack);
        Ok(SblStream {
            vmmc_name: vmmc.proc_().name().to_string(),
            variant,
            local,
            peer,
            mirror,
            staging,
            scratch,
            sent_total: 0,
            consumed_total: 0,
        })
    }

    /// Allocate and export one direction's region; helper for connection
    /// setup.
    ///
    /// # Errors
    ///
    /// Fails if the export is rejected.
    pub fn export_region(
        vmmc: &Vmmc,
        ctx: &Ctx,
    ) -> Result<(VAddr, shrimp_core::BufferName), VmmcError> {
        let va = vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack);
        let name = vmmc.export(ctx, va, REGION_BYTES, shrimp_core::ExportOpts::default())?;
        Ok((va, name))
    }

    /// Bytes the peer has acknowledged consuming from our outgoing ring.
    ///
    /// # Errors
    ///
    /// Fails if the control page is no longer mapped.
    fn peer_ack(&self, vmmc: &Vmmc) -> Result<u32, VmmcError> {
        let b = vmmc.proc_().peek(self.local.add(4), 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Send one message (a length-delimited record). Blocks for ring
    /// space, deposits `[len | bytes]` into the peer's ring, then
    /// updates the written count (control after data; in-order delivery
    /// makes the count the commit point).
    ///
    /// # Errors
    ///
    /// [`VmmcError::OutOfRange`] for a record the ring could never hold
    /// (nothing is sent); otherwise propagates transfer faults.
    pub fn send_record(&mut self, vmmc: &Vmmc, ctx: &Ctx, bytes: &[u8]) -> Result<(), VmmcError> {
        let framed_len = 4 + bytes.len();
        let padded = framed_len.div_ceil(4) * 4;
        if padded > RING_BYTES {
            return Err(VmmcError::OutOfRange {
                offset: 0,
                len: padded,
                buffer_len: RING_BYTES,
            });
        }
        // Flow control: wait until the ring has room (counters are
        // modulo 2^32; differences stay correct across wrap because the
        // ring is far smaller than 2^31).
        let sent32 = self.sent_total as u32;
        let ack = self.peer_ack(vmmc)?;
        if sent32.wrapping_sub(ack) as usize + padded > RING_BYTES {
            let needed_ack = sent32
                .wrapping_add(padded as u32)
                .wrapping_sub(RING_BYTES as u32);
            vmmc.wait_u32(ctx, self.local.add(4), 256, move |v| {
                v.wrapping_sub(needed_ack) as i32 >= 0
            })?;
        }

        let mut framed = Vec::with_capacity(padded);
        framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        framed.extend_from_slice(bytes);
        framed.resize(padded, 0);

        // Deposit into the ring, splitting on wrap.
        let mut off = 0usize;
        while off < padded {
            let pos = ((self.sent_total + off as u64) % RING_BYTES as u64) as usize;
            let n = (padded - off).min(RING_BYTES - pos);
            match self.variant {
                StreamVariant::AutomaticUpdate => {
                    // XDR output written straight into the AU-bound ring:
                    // the marshaling stores are the send.
                    vmmc.proc_().write(
                        ctx,
                        self.mirror.add(PAGE_SIZE + pos),
                        &framed[off..off + n],
                    )?;
                }
                StreamVariant::DeliberateUpdate => {
                    // Marshal into the staging ring (write-back cost)...
                    vmmc.proc_()
                        .write(ctx, self.staging.add(pos), &framed[off..off + n])?;
                    // ...then one deliberate update into the peer's ring.
                    vmmc.send(ctx, self.staging.add(pos), &self.peer, PAGE_SIZE + pos, n)?;
                }
            }
            off += n;
        }
        self.sent_total += padded as u64;
        // Control word after the data (automatic update).
        vmmc.proc_()
            .write_u32(ctx, self.mirror, self.sent_total as u32)?;
        Ok(())
    }

    fn peek_ring_u32(&self, vmmc: &Vmmc, at: u64) -> Result<u32, VmmcError> {
        let pos = (at % RING_BYTES as u64) as usize;
        debug_assert!(
            pos + 4 <= RING_BYTES,
            "records are 4-aligned so a length never wraps"
        );
        let b = vmmc.proc_().peek(self.local.add(PAGE_SIZE + pos), 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Receive one message, blocking until it has fully arrived. The
    /// record is copied out of the ring into scratch memory (the
    /// receiver-side copy) and returned; the consumed count is
    /// acknowledged to the writer through automatic update.
    ///
    /// # Errors
    ///
    /// Propagates transfer faults.
    pub fn recv_record(&mut self, vmmc: &Vmmc, ctx: &Ctx) -> Result<Vec<u8>, VmmcError> {
        self.recv_record_impl(vmmc, ctx, true)
    }

    /// Receive one message **in place** — the §4.2 "further
    /// optimization": with slightly modified stubs the XDR decode can
    /// consume the arguments directly from the ring, eliminating the
    /// receiver-side copy. The consequence the paper notes holds here
    /// too: the record's ring space is only acknowledged on this call,
    /// so the peer cannot overwrite data the server is still consuming
    /// (the server must finish the current call before the next arrives
    /// anyway).
    ///
    /// # Errors
    ///
    /// Propagates transfer faults.
    pub fn recv_record_in_place(&mut self, vmmc: &Vmmc, ctx: &Ctx) -> Result<Vec<u8>, VmmcError> {
        self.recv_record_impl(vmmc, ctx, false)
    }

    fn recv_record_impl(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        copy: bool,
    ) -> Result<Vec<u8>, VmmcError> {
        // Wait for the length word.
        let need_len = (self.consumed_total + 4) as u32;
        vmmc.wait_u32(ctx, self.local, 256, move |v| {
            v.wrapping_sub(need_len) as i32 >= 0
        })?;
        let len = self.peek_ring_u32(vmmc, self.consumed_total)? as usize;
        let padded = (4 + len).div_ceil(4) * 4;
        // Wait for the full record.
        let need_all = (self.consumed_total + padded as u64) as u32;
        vmmc.wait_u32(ctx, self.local, 256, move |v| {
            v.wrapping_sub(need_all) as i32 >= 0
        })?;

        let mut out = vec![0u8; len];
        let mut off = 0usize;
        while off < len {
            let at = self.consumed_total + 4 + off as u64;
            let pos = (at % RING_BYTES as u64) as usize;
            let n = (len - off).min(RING_BYTES - pos);
            if copy {
                // The 1-copy protocol's receiver copy.
                vmmc.proc_().copy(
                    ctx,
                    self.local.add(PAGE_SIZE + pos),
                    self.scratch.add(off),
                    n,
                )?;
                let bytes = vmmc.proc_().peek(self.scratch.add(off), n)?;
                out[off..off + n].copy_from_slice(&bytes);
            } else {
                // In-place decode: per-word loads only.
                let bytes = vmmc.proc_().read(ctx, self.local.add(PAGE_SIZE + pos), n)?;
                out[off..off + n].copy_from_slice(&bytes);
            }
            off += n;
        }
        self.consumed_total += padded as u64;
        // Acknowledge through the peer's control page.
        vmmc.proc_()
            .write_u32(ctx, self.mirror.add(4), self.consumed_total as u32)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::{BufferName, ShrimpSystem, SystemConfig};
    use shrimp_mesh::NodeId;
    use shrimp_sim::{Kernel, SimChannel};

    fn pair_test(variant: StreamVariant, records: Vec<Vec<u8>>) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let a_names: SimChannel<BufferName> = SimChannel::new();
        let b_names: SimChannel<BufferName> = SimChannel::new();
        let expected = records.clone();

        {
            let vmmc = system.endpoint(0, "a");
            let (a_names, b_names) = (a_names.clone(), b_names.clone());
            let records = records.clone();
            kernel.spawn("a", move |ctx| {
                let (_local, name) = SblStream::export_region(&vmmc, ctx).unwrap();
                a_names.send(&ctx.handle(), name);
                let peer_name = b_names.recv(ctx);
                let peer = vmmc.import(ctx, NodeId(1), peer_name).unwrap();
                let local = _local;
                let mut s = SblStream::assemble(&vmmc, ctx, local, peer, variant).unwrap();
                for r in &records {
                    s.send_record(&vmmc, ctx, r).unwrap();
                }
                // Echo check: receive them back.
                for r in &records {
                    assert_eq!(&s.recv_record(&vmmc, ctx).unwrap(), r);
                }
            });
        }
        {
            let vmmc = system.endpoint(1, "b");
            kernel.spawn("b", move |ctx| {
                let (local, name) = SblStream::export_region(&vmmc, ctx).unwrap();
                b_names.send(&ctx.handle(), name);
                let peer_name = a_names.recv(ctx);
                let peer = vmmc.import(ctx, NodeId(0), peer_name).unwrap();
                let mut s = SblStream::assemble(&vmmc, ctx, local, peer, variant).unwrap();
                for r in &expected {
                    let got = s.recv_record(&vmmc, ctx).unwrap();
                    assert_eq!(&got, r);
                    s.send_record(&vmmc, ctx, &got).unwrap();
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
    }

    #[test]
    fn echo_small_records_au() {
        pair_test(
            StreamVariant::AutomaticUpdate,
            vec![b"null".to_vec(), b"".to_vec(), vec![7; 100]],
        );
    }

    #[test]
    fn echo_small_records_du() {
        pair_test(
            StreamVariant::DeliberateUpdate,
            vec![b"abc".to_vec(), vec![1; 33], vec![2; 4096]],
        );
    }

    #[test]
    fn ring_wraps_correctly() {
        // Enough traffic to wrap the 64 KB ring several times.
        let records: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 9000]).collect();
        pair_test(StreamVariant::AutomaticUpdate, records);
    }

    #[test]
    fn du_ring_wraps_correctly() {
        let records: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 10000]).collect();
        pair_test(StreamVariant::DeliberateUpdate, records);
    }
}
