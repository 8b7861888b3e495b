//! Zero-copy read-through: serving cache-resident `get`s with a
//! one-sided remote fetch instead of an RPC round trip.
//!
//! When [`read_through`](crate::SvcConfig::read_through) is on, every
//! primary generation exports a fixed table of *value slots* with the
//! read-permission bit set. A slot is the publication of one key's
//! latest entry — epoch, sequence, key, value, 112 bytes; the image is
//! [`crate::wire::slot`]'s.
//!
//! Keys map to slots by `fnv1a(key) % RT_SLOTS`; a colliding key
//! simply overwrites the slot, so a fetch can *miss* (the slot holds a
//! different key) — the client then falls back to the SRPC `get`. A
//! never-written slot is a miss too; a deleted key's slot is still a
//! *hit*: the deletion is the answer.
//!
//! The primary updates the slot inside the store lock, before the
//! mutation's commit point (the backup's ack), so the table is never
//! behind any acknowledged write of its epoch. Every slot carries the
//! generation's routing epoch; a client validates epoch *and* key
//! after the fetch and falls back to RPC on any mismatch, so deposed
//! generations and hash collisions are indistinguishable from a plain
//! cache miss — never a wrong answer.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts};
use shrimp_node::{CacheMode, UserProc, VAddr};
use shrimp_sim::RetryPolicy;

use crate::cluster::SvcCluster;
use crate::fnv1a;
use crate::store::ShardStore;
use crate::wire::slot::{self, SLOT_BYTES};

/// Slots per shard table. Collisions only cost a fallback RPC, so this
/// trades export size against hit rate for hot keysets.
pub(crate) const RT_SLOTS: usize = 256;

/// The slot a key publishes to.
pub(crate) fn slot_of(key: &[u8]) -> usize {
    (fnv1a(key) % RT_SLOTS as u64) as usize
}

/// One generation's exported slot table: where clients import it from,
/// and its writable side — a clone of the exporting process (threads
/// share the address space) plus the table's base. Mutations poke slots
/// while holding the store lock, so slot updates are ordered exactly
/// like the store's sequence.
pub(crate) struct RtRegion {
    /// The routing epoch whose mutations this table publishes.
    pub(crate) epoch: u32,
    /// `(node, buffer)` of the export.
    pub(crate) at: (usize, BufferName),
    proc_: UserProc,
    base: VAddr,
}

impl std::fmt::Debug for RtRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtRegion")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl RtRegion {
    /// Publish `key`'s latest entry (`None` = tombstone) to its slot.
    /// The local slot store is not a timed DMA — it is the primary
    /// writing its own exported memory, so it carries no virtual-time
    /// cost beyond the mutation that triggered it.
    pub(crate) fn write_slot(&self, key: &[u8], seq: u64, val: Option<&[u8]>) {
        let img = slot::encode(self.epoch, seq as u32, key, val);
        let va = self.base.add(slot_of(key) * SLOT_BYTES);
        self.proc_.poke(va, &img).expect("the slot table is mapped");
    }
}

/// Spawn the slot-table exporter for one primary generation: allocate
/// and export the table fetchable, seed it from the store, and install
/// it — the write handle for the mutation path, the buffer name for
/// clients — then exit (the export outlives the process).
pub(crate) fn spawn_rt_exporter(
    cluster: &Arc<SvcCluster>,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-rt-s{shard}-e{epoch}");
    let h = cluster.system().sim().clone();
    h.spawn(name.clone(), move |ctx| {
        let vmmc = cluster.system().endpoint(node, name);
        let total = RT_SLOTS * SLOT_BYTES;
        let base = vmmc.proc_().alloc(total, CacheMode::WriteBack);
        let empty = slot::empty(epoch);
        for s in 0..RT_SLOTS {
            let va = base.add(s * SLOT_BYTES);
            vmmc.proc_().poke(va, &empty).expect("just allocated");
        }
        let opts = ExportOpts {
            read: true,
            ..Default::default()
        };
        let Ok(bufname) = vmmc.export_retry(ctx, base, total, opts, RetryPolicy::bootstrap())
        else {
            // The daemon never came back up within the bootstrap
            // budget; this generation serves without read-through.
            return;
        };
        let region = RtRegion {
            epoch,
            at: (node, bufname),
            proc_: vmmc.proc_().clone(),
            base,
        };
        // Seed and install atomically against mutations: both under
        // the store lock, the same lock the mutation path pokes under.
        let g = store.lock();
        for (key, seq, val) in g.entries() {
            region.write_slot(&key, seq, val.as_deref());
        }
        cluster.install_rt(shard, region);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, SvcConfig};
    use shrimp_core::{ShrimpSystem, SystemConfig};
    use shrimp_sim::Kernel;

    #[test]
    fn a_deposed_epochs_late_exporter_neither_clobbers_nor_answers() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let cluster = SvcCluster::spawn(&system, SvcConfig::chained(system.len()));
        let proc_ = system.endpoint(0, "rt-test").proc_().clone();
        let table = |epoch: u32, tag: u64| {
            let base = proc_.alloc(RT_SLOTS * SLOT_BYTES, CacheMode::WriteBack);
            let at = (0, BufferName(tag));
            let region = RtRegion {
                epoch,
                at,
                proc_: proc_.clone(),
                base,
            };
            (region, base.add(slot_of(b"k") * SLOT_BYTES))
        };
        let ((newer, newer_slot), (late, late_slot)) = (table(2, 22), table(1, 11));
        cluster.install_rt(0, newer);
        cluster.install_rt(0, late);

        assert_eq!(cluster.rt_pub(0, 2), Some((0, BufferName(22))));
        assert_eq!(cluster.rt_pub(0, 1), None, "a deposed epoch has no table");
        assert_eq!(cluster.rt_pub(0, 3), None, "nor has one not yet exported");
        let put = Op::Put {
            key: b"k".to_vec(),
            val: b"v".to_vec(),
        };
        cluster.rt_publish(0, 1, &put, 7);
        cluster.rt_publish(0, 2, &put, 8);
        let slot_at = |va| slot::decode(&proc_.peek(va, SLOT_BYTES).unwrap(), 2, b"k");
        assert_eq!(slot_at(newer_slot), Some((8, Some(b"v".to_vec()))));
        assert_eq!(proc_.peek(late_slot, SLOT_BYTES).unwrap(), [0; SLOT_BYTES]);
        cluster.begin_shutdown();
    }
}
