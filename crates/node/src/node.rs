//! One PC node: DRAM, buses, DMA service, snoop and interrupt hooks.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use shrimp_mesh::NodeId;
use shrimp_sim::{BandwidthResource, Probe, SimBuf, SimDur, SimHandle, SimTime};

use crate::costs::CostModel;
use crate::memory::{PAddr, PageAllocator, PhysMem, PAGE_SIZE};

/// A run of CPU stores observed on the memory bus, reported to the NIC's
/// snoop logic. The stored data is already visible in [`Node::mem`]; the
/// NIC reads it from there if it needs to packetize it.
#[derive(Debug, Clone, Copy)]
pub struct SnoopWrite {
    /// Physical address of the first byte written.
    pub paddr: PAddr,
    /// Length of the contiguous write run in bytes (never crosses a page
    /// boundary).
    pub len: usize,
    /// Time at which the last store of the run completed.
    pub at: SimTime,
}

/// An interrupt raised to the node CPU.
#[derive(Debug, Clone)]
pub struct Interrupt {
    /// Interrupt source identifier (NIC notification, receive-path
    /// freeze, buffer exhaustion, ...).
    pub vector: u32,
    /// Source-specific data word (e.g. the physical page involved).
    pub info: u64,
}

/// A simulated DEC 560ST node: 60 MHz Pentium, DRAM, Xpress memory bus,
/// EISA expansion bus.
///
/// The node is pure hardware: user processes are modelled by
/// [`crate::UserProc`], the network interface by `shrimp-nic`, and system
/// software by `shrimp-core`.
pub struct Node {
    id: NodeId,
    handle: SimHandle,
    costs: CostModel,
    mem: Arc<PhysMem>,
    membus: Arc<BandwidthResource>,
    eisa: Arc<BandwidthResource>,
    page_alloc: Mutex<PageAllocator>,
    /// The watch probe, built by `probe()` on first use.
    probe: OnceLock<Probe>,
    snoop_hook: OnceLock<Box<dyn Fn(SnoopWrite) + Send + Sync>>,
    interrupt_hook: OnceLock<Box<dyn Fn(Interrupt) + Send + Sync>>,
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Build a node with `mem_pages` of DRAM and the given cost model.
    pub fn new(handle: SimHandle, id: NodeId, mem_pages: usize, costs: CostModel) -> Arc<Node> {
        let membus = Arc::new(BandwidthResource::new(
            "xpress-membus",
            costs.membus_bytes_per_sec,
            costs.membus_per_txn,
        ));
        let eisa = Arc::new(BandwidthResource::new(
            "eisa",
            costs.eisa_bytes_per_sec,
            costs.eisa_per_txn,
        ));
        Arc::new(Node {
            id,
            handle,
            costs,
            mem: Arc::new(PhysMem::new(mem_pages)),
            membus,
            eisa,
            page_alloc: Mutex::new(PageAllocator::new(0, mem_pages as u64)),
            probe: OnceLock::new(),
            snoop_hook: OnceLock::new(),
            interrupt_hook: OnceLock::new(),
        })
    }

    /// This node's mesh id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The calibrated cost model in force on this node.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The node's DRAM.
    pub fn mem(&self) -> &Arc<PhysMem> {
        &self.mem
    }

    /// The watch probe of this node's DRAM
    /// ([`Ctx::advance_watched`](shrimp_sim::Ctx::advance_watched)): it
    /// reads the word at a physical address. Built once, on the node's
    /// first watched poll, so a node that never polls watched allocates
    /// none.
    pub(crate) fn probe(&self) -> &Probe {
        self.probe.get_or_init(|| {
            let mem = Arc::clone(&self.mem);
            Arc::new(move |pa| mem.read_u32(PAddr(pa)))
        })
    }

    /// The Xpress memory bus (CPU copies and DMA contend here).
    pub fn membus(&self) -> &Arc<BandwidthResource> {
        &self.membus
    }

    /// The EISA expansion bus (NIC DMA and programmed I/O contend here).
    pub fn eisa(&self) -> &Arc<BandwidthResource> {
        &self.eisa
    }

    /// The simulation handle this node schedules events with.
    pub fn sim(&self) -> &SimHandle {
        &self.handle
    }

    /// Allocate `n` contiguous physical page frames.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of memory — simulation configurations
    /// size DRAM generously and exhaustion indicates a harness bug.
    pub fn alloc_frames(&self, n: u64) -> u64 {
        self.page_alloc
            .lock()
            .alloc(n)
            .unwrap_or_else(|| panic!("node {} out of physical memory", self.id))
    }

    /// Return `n` frames starting at `first` to the allocator.
    pub fn free_frames(&self, first: u64, n: u64) {
        self.page_alloc.lock().free(first, n);
    }

    /// Install the memory-bus snoop hook (the NIC's snoop logic).
    ///
    /// # Panics
    ///
    /// Panics if the node already has one: the hook is set once.
    pub fn set_snoop_hook(&self, hook: impl Fn(SnoopWrite) + Send + Sync + 'static) {
        if self.snoop_hook.set(Box::new(hook)).is_err() {
            panic!("node {}: snoop hook set twice", self.id);
        }
    }

    /// Report a write-through/uncached store run to the snoop hook, if any.
    pub fn snoop(&self, w: SnoopWrite) {
        if let Some(h) = self.snoop_hook.get() {
            h(w);
        }
    }

    /// Install the CPU interrupt hook (the OS's first-level handler).
    ///
    /// # Panics
    ///
    /// Panics if the node already has one: the hook is set once.
    pub fn set_interrupt_hook(&self, hook: impl Fn(Interrupt) + Send + Sync + 'static) {
        if self.interrupt_hook.set(Box::new(hook)).is_err() {
            panic!("node {}: interrupt hook set twice", self.id);
        }
    }

    /// Raise an interrupt; the OS hook runs after the configured
    /// interrupt latency.
    ///
    /// # Panics
    ///
    /// Panics (at dispatch time) if no interrupt hook is installed.
    pub fn raise_interrupt(self: &Arc<Self>, irq: Interrupt) {
        let me = Arc::clone(self);
        self.handle
            .schedule_in(self.costs.interrupt_latency, move || {
                match me.interrupt_hook.get() {
                    Some(hook) => hook(irq),
                    None => panic!("node {}: interrupt with no handler", me.id),
                }
            });
    }

    /// Start a DMA transfer **into** DRAM (the NIC's incoming DMA engine):
    /// reserves the EISA bus and the memory bus, commits the bytes when
    /// the transfer completes, then calls `on_done` with the time the
    /// transfer queued for the EISA bus behind earlier DMAs (zero when
    /// the bus was free once its set-up was done) and the completion
    /// time. The data becomes visible to polling CPUs only at completion.
    ///
    /// # Panics
    ///
    /// Panics if the destination range is out of bounds.
    pub fn dma_write(
        self: &Arc<Self>,
        paddr: PAddr,
        data: impl Into<SimBuf>,
        on_done: impl FnOnce(SimDur, SimTime) + Send + 'static,
    ) {
        let data = data.into();
        let now = self.handle.now();
        let bytes = data.len();
        let setup = self.costs.dma_setup;
        let e = self.eisa.reserve(now + setup, bytes);
        let m = self.membus.reserve(now + setup, bytes);
        let done = e.end.max(m.end);
        let queued = e.start - (now + setup);
        let me = Arc::clone(self);
        self.handle.schedule_at(done, move || {
            me.mem.write(paddr, &data);
            on_done(queued, done);
        });
    }

    /// Start a DMA transfer **out of** DRAM (the deliberate-update
    /// engine's source read): reserves both buses, then calls `on_done`
    /// with the completion time and the bytes read (snapshotted at
    /// completion).
    ///
    /// # Panics
    ///
    /// Panics if the source range is out of bounds.
    pub fn dma_read(
        self: &Arc<Self>,
        paddr: PAddr,
        len: usize,
        on_done: impl FnOnce(SimTime, Vec<u8>) + Send + 'static,
    ) {
        let now = self.handle.now();
        let setup = self.costs.dma_setup;
        let e = self.eisa.reserve(now + setup, len);
        let m = self.membus.reserve(now + setup, len);
        let done = e.end.max(m.end);
        let me = Arc::clone(self);
        self.handle.schedule_at(done, move || {
            let mut buf = vec![0u8; len];
            me.mem.read(paddr, &mut buf);
            on_done(done, buf);
        });
    }

    /// Charge the memory bus for `bytes` of CPU-generated traffic
    /// starting at `at`; returns when the bus is done with it. Used by
    /// the CPU store/copy helpers so CPU traffic and DMA contend.
    pub fn charge_membus(&self, at: SimTime, bytes: usize) -> SimTime {
        self.membus.reserve(at, bytes).end
    }

    /// Number of whole pages of DRAM.
    pub fn mem_pages(&self) -> usize {
        self.mem.len() / PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::Kernel;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_node(kernel: &Kernel) -> Arc<Node> {
        Node::new(
            kernel.handle(),
            NodeId(0),
            64,
            CostModel::shrimp_prototype(),
        )
    }

    #[test]
    fn dma_write_commits_at_completion_not_start() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        let when = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&when);
        let n2 = Arc::clone(&node);
        node.dma_write(PAddr(128), vec![0xAB; 4], move |_, t| {
            assert_eq!(n2.mem().read_u32(PAddr(128)), 0xABAB_ABAB);
            w.store(t.as_ps(), Ordering::SeqCst);
        });
        // Before the simulation runs, memory is untouched.
        assert_eq!(node.mem().read_u32(PAddr(128)), 0);
        kernel.run_until_quiescent().unwrap();
        assert!(when.load(Ordering::SeqCst) > 0);
    }

    #[test]
    fn dma_read_returns_snapshot() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        node.mem().write(PAddr(4096), b"shrimp-data!");
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        node.dma_read(PAddr(4096), 12, move |_t, data| {
            *g.lock() = data;
        });
        kernel.run_until_quiescent().unwrap();
        assert_eq!(got.lock().as_slice(), b"shrimp-data!");
    }

    #[test]
    fn back_to_back_dma_queues_on_eisa() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        let times = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..2 {
            let t = Arc::clone(&times);
            node.dma_write(PAddr(0), vec![1u8; 3300], move |_, at| t.lock().push(at));
        }
        kernel.run_until_quiescent().unwrap();
        let times = times.lock();
        // 3300 B at 33 MB/s = 100 us serialization each; the second must
        // finish at least 100 us after the first.
        let gap = times[1] - times[0];
        assert!(gap >= SimDur::from_us(100.0), "gap={gap}");
    }

    #[test]
    fn interrupts_reach_the_hook_after_latency() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let h = kernel.handle();
        node.set_interrupt_hook(move |irq| s.lock().push((irq.vector, irq.info, h.now())));
        node.raise_interrupt(Interrupt {
            vector: 7,
            info: 42,
        });
        kernel.run_until_quiescent().unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!((seen[0].0, seen[0].1), (7, 42));
        assert_eq!(
            seen[0].2 - SimTime::ZERO,
            CostModel::shrimp_prototype().interrupt_latency
        );
    }

    #[test]
    fn snoop_hook_sees_reported_writes() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        node.set_snoop_hook(move |w| s.lock().push((w.paddr, w.len)));
        node.snoop(SnoopWrite {
            paddr: PAddr(512),
            len: 16,
            at: SimTime::ZERO,
        });
        assert_eq!(*seen.lock(), vec![(PAddr(512), 16)]);
    }

    #[test]
    fn frame_alloc_and_free_round_trip() {
        let kernel = Kernel::new();
        let node = test_node(&kernel);
        let f = node.alloc_frames(4);
        node.free_frames(f, 4);
        assert_eq!(node.mem_pages(), 64);
    }
}
