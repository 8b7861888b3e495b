//! The SBL — SHRIMP base layer: a bidirectional byte stream over a pair
//! of import-export mappings, one [`ByteRing`] cyclic shared queue per
//! direction (paper §4.2).
//!
//! The SBL adds record framing to the ring: a record is its length word,
//! its bytes, and padding to a word, deposited whole and published with
//! one written-count store. The data moves by automatic or deliberate
//! update according to the configured variant.

use shrimp_core::{ByteRing, ImportHandle, RingExport, RingPath, Vmmc, VmmcError};
use shrimp_sim::Ctx;

/// Ring capacity per direction. Comfortably exceeds the largest message
/// in the paper's sweeps (10 KB) so steady-state calls never stall on
/// flow control.
const RING_BYTES: usize = 64 * 1024;

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
pub(crate) struct SblStream(ByteRing);

impl SblStream {
    /// Allocate and export this side's region; the first step of
    /// connection setup.
    pub(crate) fn export(vmmc: &Vmmc, ctx: &Ctx) -> Result<RingExport, VmmcError> {
        ByteRing::export(vmmc, ctx, RING_BYTES)
    }

    /// Assemble an endpoint once the peer's region is imported.
    pub(crate) fn assemble(
        vmmc: &Vmmc,
        ctx: &Ctx,
        local: RingExport,
        peer: ImportHandle,
        variant: StreamVariant,
    ) -> Result<SblStream, VmmcError> {
        let path = match variant {
            StreamVariant::AutomaticUpdate => RingPath::AuStore,
            StreamVariant::DeliberateUpdate => RingPath::DuStore,
        };
        Ok(SblStream(local.join(vmmc, ctx, peer, path)?))
    }

    /// Send one record: wait for ring space, deposit `[len | bytes]`,
    /// then publish it (control after data; in-order delivery makes the
    /// count the commit point).
    ///
    /// # Errors
    ///
    /// [`VmmcError::OutOfRange`] for a record the ring could never hold
    /// (nothing is sent); otherwise transfer faults.
    pub(crate) fn send_record(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        bytes: &[u8],
    ) -> Result<(), VmmcError> {
        let padded = framed_len(bytes.len())?;
        self.0.wait_room(vmmc, ctx, padded)?;
        let mut framed = Vec::with_capacity(padded);
        framed.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        framed.extend_from_slice(bytes);
        framed.resize(padded, 0);
        self.0.put(vmmc, ctx, &framed)
    }

    /// Receive one record, blocking until it has fully arrived, then
    /// acknowledge it to the writer through automatic update. The
    /// record leaves the ring by the receiver-side copy into scratch
    /// memory, or `in_place` — the §4.2 "further optimization": with
    /// slightly modified stubs the XDR decode consumes the arguments
    /// directly from the ring, with no receiver-side copy. Either way the
    /// ring space is acknowledged only once the record is out, so the
    /// peer cannot overwrite data still being consumed.
    ///
    /// # Errors
    ///
    /// [`VmmcError::OutOfRange`] for a length word the ring could never
    /// hold: the peer wrote it, so it is checked before it is trusted.
    /// Otherwise transfer faults.
    pub(crate) fn recv_record(
        &mut self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        in_place: bool,
    ) -> Result<Vec<u8>, VmmcError> {
        self.0.wait_readable(vmmc, ctx, 4)?;
        let len = self.0.peek_word(vmmc)? as usize;
        let padded = framed_len(len)?;
        self.0.wait_readable(vmmc, ctx, padded)?;
        self.0.take(vmmc, ctx, 4..4 + len, padded, in_place)
    }
}

/// The ring bytes a record of `len` bytes takes: its length word, the
/// bytes, padding to a word. Larger than the ring is
/// [`VmmcError::OutOfRange`].
fn framed_len(len: usize) -> Result<usize, VmmcError> {
    let padded = (4 + len).div_ceil(4) * 4;
    if padded > RING_BYTES {
        return Err(VmmcError::OutOfRange {
            offset: 0,
            len: padded,
            buffer_len: RING_BYTES,
        });
    }
    Ok(padded)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use shrimp_core::{BufferName, ShrimpSystem, SystemConfig};
    use shrimp_mesh::NodeId;
    use shrimp_sim::{Kernel, SimChannel};

    /// One side of a pair: its endpoint, its own export, and the import
    /// of the other side's.
    type Side = Box<dyn FnOnce(&Vmmc, &Ctx, RingExport, ImportHandle) + Send>;

    /// Run two sides on nodes 0 and 1 after exchanging region names, and
    /// require both to finish (a side parked forever fails the test).
    fn run_pair(sides: [Side; 2]) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let names: [SimChannel<BufferName>; 2] = [SimChannel::new(), SimChannel::new()];
        let done = Arc::new(AtomicUsize::new(0));
        for (i, side) in sides.into_iter().enumerate() {
            let vmmc = system.endpoint(i, format!("side{i}"));
            let (names, done) = (names.clone(), Arc::clone(&done));
            kernel.spawn(format!("side{i}"), move |ctx| {
                let local = SblStream::export(&vmmc, ctx).unwrap();
                names[i].send(&ctx.handle(), local.name);
                let peer_name = names[1 - i].recv(ctx);
                let peer = vmmc.import(ctx, NodeId(1 - i), peer_name).unwrap();
                side(&vmmc, ctx, local, peer);
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
        assert_eq!(done.load(Ordering::Relaxed), 2, "a side never finished");
    }

    /// Side 0 sends every record and then expects them echoed back
    /// (copied out); side 1 receives every record (in place), then
    /// echoes them. (Echoing each as
    /// it arrives deadlocks once both rings fill: side 0 reads nothing
    /// until it has sent everything.)
    fn pair_test(variant: StreamVariant, records: Vec<Vec<u8>>) {
        let expected = records.clone();
        run_pair([
            Box::new(move |vmmc, ctx, local, peer| {
                let mut s = SblStream::assemble(vmmc, ctx, local, peer, variant).unwrap();
                for r in &records {
                    s.send_record(vmmc, ctx, r).unwrap();
                }
                for r in &records {
                    assert_eq!(&s.recv_record(vmmc, ctx, false).unwrap(), r);
                }
            }),
            Box::new(move |vmmc, ctx, local, peer| {
                let mut s = SblStream::assemble(vmmc, ctx, local, peer, variant).unwrap();
                let got: Vec<Vec<u8>> = expected
                    .iter()
                    .map(|_| s.recv_record(vmmc, ctx, true).unwrap())
                    .collect();
                assert_eq!(got, expected);
                for r in &got {
                    s.send_record(vmmc, ctx, r).unwrap();
                }
            }),
        ]);
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

    #[test]
    fn a_length_word_past_the_ring_is_rejected() {
        run_pair([
            // A raw peer: one record header claiming 0xFFFF_FFF0 bytes,
            // published with nothing behind it.
            Box::new(|vmmc, ctx, local, peer| {
                let mut ring = local.join(vmmc, ctx, peer, RingPath::AuStore).unwrap();
                ring.wait_room(vmmc, ctx, 4).unwrap();
                ring.put(vmmc, ctx, &0xFFFF_FFF0u32.to_le_bytes()).unwrap();
            }),
            Box::new(|vmmc, ctx, local, peer| {
                let mut s =
                    SblStream::assemble(vmmc, ctx, local, peer, StreamVariant::default()).unwrap();
                assert_eq!(
                    s.recv_record(vmmc, ctx, false).unwrap_err(),
                    VmmcError::OutOfRange {
                        offset: 0,
                        len: 0xFFFF_FFF4,
                        buffer_len: RING_BYTES,
                    }
                );
            }),
        ]);
    }
}
