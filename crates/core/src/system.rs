//! Whole-system assembly: nodes, NICs, daemons, backplane, Ethernet.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use shrimp_mesh::{Backplane, DeliveryOrder, LinkParams, Mesh2D, NodeId, TopologyRef};
use shrimp_nic::{Nic, NicPacket, IRQ_NOTIFICATION, IRQ_RECV_FREEZE};
use shrimp_node::{CostModel, Ethernet, Node, UserProc};
use shrimp_sim::{FaultKind, FaultLog, FaultPlan, Kernel, SimHandle};

use crate::daemon::Daemon;
use crate::endpoint::{EndpointShared, Vmmc};

/// Configuration for building a [`ShrimpSystem`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Fabric topology; the node count is `topology.len()`.
    pub topology: TopologyRef,
    /// The cost model applied on every node.
    pub costs: CostModel,
}

/// DRAM pages per node (4 KB each): 40 MB.
const MEM_PAGES_PER_NODE: usize = 10 * 1024;

impl SystemConfig {
    /// The four-node prototype: 2×2 mesh, 40 MB DRAM per node, calibrated
    /// costs, Paragon backplane.
    pub fn prototype() -> SystemConfig {
        SystemConfig {
            topology: std::sync::Arc::new(Mesh2D::shrimp_prototype()),
            costs: CostModel::shrimp_prototype(),
        }
    }

    /// The planned 16-node expansion (paper §8: "We also plan to expand
    /// the system to 16 nodes"): a 4×4 mesh with otherwise identical
    /// per-node hardware.
    pub fn expanded_16() -> SystemConfig {
        SystemConfig {
            topology: std::sync::Arc::new(Mesh2D::new(4, 4)),
            ..SystemConfig::prototype()
        }
    }

    /// An arbitrary `width × height` machine with prototype nodes, for
    /// scaling studies.
    pub fn with_mesh(width: usize, height: usize) -> SystemConfig {
        SystemConfig {
            topology: std::sync::Arc::new(Mesh2D::new(width, height)),
            ..SystemConfig::prototype()
        }
    }

    /// Prototype nodes over an arbitrary fabric topology.
    ///
    /// VMMC's delivery contract requires an in-order fabric;
    /// [`ShrimpSystem::build`] enforces that.
    pub fn with_topology(topology: TopologyRef) -> SystemConfig {
        SystemConfig {
            topology,
            ..SystemConfig::prototype()
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::prototype()
    }
}

/// Routes incoming-data events (DMA completions, notification
/// interrupts) from a node's NIC to the endpoint that exported the
/// destination page.
#[derive(Default)]
pub(crate) struct Registry {
    map: Mutex<HashMap<(usize, u64), Weak<EndpointShared>>>,
}

impl Registry {
    pub(crate) fn register_pages(&self, node: usize, pages: &[u64], ep: &Arc<EndpointShared>) {
        let mut m = self.map.lock();
        for &p in pages {
            m.insert((node, p), Arc::downgrade(ep));
        }
    }

    pub(crate) fn unregister_pages(&self, node: usize, pages: &[u64]) {
        let mut m = self.map.lock();
        for &p in pages {
            m.remove(&(node, p));
        }
    }

    pub(crate) fn lookup(&self, node: usize, ppage: u64) -> Option<Arc<EndpointShared>> {
        self.map.lock().get(&(node, ppage)).and_then(Weak::upgrade)
    }
}

/// A fully-wired SHRIMP multicomputer: the object benchmarks and
/// applications start from.
///
/// # Examples
///
/// ```
/// use shrimp_sim::Kernel;
/// use shrimp_core::{ShrimpSystem, SystemConfig};
///
/// let kernel = Kernel::new();
/// let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
/// assert_eq!(system.len(), 4);
/// ```
pub struct ShrimpSystem {
    handle: SimHandle,
    topology: TopologyRef,
    net: Arc<Backplane<NicPacket>>,
    eth: Arc<Ethernet>,
    nodes: Vec<Arc<Node>>,
    nics: Vec<Arc<Nic>>,
    daemons: Vec<Arc<Daemon>>,
    pub(crate) registry: Arc<Registry>,
    violations: Mutex<Vec<(NodeId, u64)>>,
    /// When set (by [`ShrimpSystem::apply_faults`]), a freeze interrupt
    /// triggers the OS recovery path automatically after the interrupt
    /// latency, instead of only being recorded.
    auto_repair: AtomicBool,
    fault_log: Mutex<Option<Arc<FaultLog>>>,
    /// Control-plane directives delivered by the fault plan, for upper
    /// layers (e.g. shrimp-svc shard migrations) to poll.
    directives: Mutex<Vec<(shrimp_sim::SimTime, &'static str, u64, u64)>>,
    /// The recorder current when [`ShrimpSystem::build`] ran, if any
    /// (see `shrimp_obs`); the backplane and every NIC were built under
    /// the same one.
    obs: Option<Arc<shrimp_obs::Recorder>>,
}

impl std::fmt::Debug for ShrimpSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShrimpSystem")
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl ShrimpSystem {
    /// Build and wire the whole machine on `kernel`, over a Paragon
    /// backplane with 40 MB of DRAM per node.
    pub fn build(kernel: &Kernel, config: SystemConfig) -> Arc<ShrimpSystem> {
        let handle = kernel.handle();
        // VMMC's per-sender in-order delivery guarantee (paper §3) is
        // *derived* from the fabric: only topologies declaring in-order
        // delivery (pairwise path-invariant routing over FIFO links) can
        // carry the VMMC protocol. Adaptive/non-minimal fabrics are for
        // raw-backplane ablations only.
        assert_eq!(
            config.topology.ordering(),
            DeliveryOrder::InOrder,
            "VMMC requires an in-order fabric; topology '{}' delivers unordered",
            config.topology.name()
        );
        let net: Arc<Backplane<NicPacket>> = Backplane::new(
            handle.clone(),
            Arc::clone(&config.topology),
            LinkParams::paragon(),
        );
        let eth = Ethernet::new(handle.clone());
        let registry = Arc::new(Registry::default());

        let mut nodes = Vec::new();
        let mut nics = Vec::new();
        let mut daemons = Vec::new();
        for id in config.topology.nodes() {
            let node = Node::new(handle.clone(), id, MEM_PAGES_PER_NODE, config.costs.clone());
            let nic = Nic::install(Arc::clone(&node), Arc::clone(&net));
            let daemon = Daemon::new(id, Arc::clone(&nic));
            nodes.push(node);
            nics.push(nic);
            daemons.push(daemon);
        }

        let system = Arc::new(ShrimpSystem {
            handle,
            topology: Arc::clone(&config.topology),
            net,
            eth,
            nodes,
            nics,
            daemons,
            registry,
            violations: Mutex::new(Vec::new()),
            auto_repair: AtomicBool::new(false),
            fault_log: Mutex::new(None),
            directives: Mutex::new(Vec::new()),
            obs: shrimp_obs::Recorder::current(),
        });

        // Wire per-node delivery and interrupt routing.
        for (i, node) in system.nodes.iter().enumerate() {
            let sys = Arc::downgrade(&system);
            system.nics[i].set_delivery_hook(move |ppage, at| {
                if let Some(sys) = sys.upgrade() {
                    if let Some(ep) = sys.registry.lookup(i, ppage) {
                        ep.on_delivery(ppage, at);
                    }
                }
            });
            let sys = Arc::downgrade(&system);
            node.set_interrupt_hook(move |irq| {
                let Some(sys) = sys.upgrade() else { return };
                match irq.vector {
                    IRQ_NOTIFICATION => {
                        if let Some(ep) = sys.registry.lookup(i, irq.info) {
                            ep.on_notification(irq.info);
                        }
                    }
                    IRQ_RECV_FREEZE => {
                        sys.violations.lock().push((NodeId(i), irq.info));
                        if sys.auto_repair.load(Ordering::SeqCst) {
                            sys.log_fault(format!("freeze node={i} page={}", irq.info));
                            // The OS freeze handler runs after the
                            // interrupt latency and repairs the page —
                            // unless the daemon is down, in which case
                            // its restart path owns the unfreeze.
                            let latency = sys.nodes[i].costs().interrupt_latency;
                            let page = irq.info;
                            let sys2 = Arc::downgrade(&sys);
                            sys.handle.schedule_in(latency, move || {
                                let Some(sys) = sys2.upgrade() else { return };
                                if sys.daemons[i].is_down() {
                                    return;
                                }
                                if sys.repair_and_unfreeze(i, page) {
                                    sys.log_fault(format!("repair node={i} page={page}"));
                                }
                            });
                        }
                    }
                    _ => {}
                }
            });
        }
        system
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty system (never constructible).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The fabric topology.
    pub fn topology(&self) -> &TopologyRef {
        &self.topology
    }

    /// The simulation handle.
    pub fn sim(&self) -> &SimHandle {
        &self.handle
    }

    /// The routing backplane.
    pub fn net(&self) -> &Arc<Backplane<NicPacket>> {
        &self.net
    }

    /// The observability recorder this system was built under, which
    /// the VMMC endpoints and user libraries record into; `None` when
    /// none was installed.
    pub fn obs(&self) -> Option<&Arc<shrimp_obs::Recorder>> {
        self.obs.as_ref()
    }

    /// The Ethernet side channel.
    pub fn ethernet(&self) -> &Arc<Ethernet> {
        &self.eth
    }

    /// Node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// NIC of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn nic(&self, i: usize) -> &Arc<Nic> {
        &self.nics[i]
    }

    /// Daemon of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn daemon(&self, i: usize) -> &Arc<Daemon> {
        &self.daemons[i]
    }

    /// Create a user process with a VMMC endpoint on node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn endpoint(self: &Arc<Self>, i: usize, name: impl Into<String>) -> Vmmc {
        let proc_ = UserProc::new(Arc::clone(&self.nodes[i]), name);
        Vmmc::new(Arc::clone(self), i, proc_)
    }

    /// Create a second VMMC endpoint for an *existing* process on node
    /// `i`, sharing its address space. Libraries layered on top of each
    /// other (NX over the collective layer, say) use this so both see
    /// the same user buffers.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `proc_` does not live on node
    /// `i`.
    pub fn endpoint_on(self: &Arc<Self>, i: usize, proc_: UserProc) -> Vmmc {
        assert!(i < self.nodes.len(), "node {i} out of range");
        assert!(
            Arc::ptr_eq(proc_.node(), &self.nodes[i]),
            "process does not live on node {i}"
        );
        Vmmc::new(Arc::clone(self), i, proc_)
    }

    /// Receive-path protection violations observed so far, as
    /// `(node, physical page)` pairs. A correct protocol never triggers
    /// any; tests assert emptiness.
    pub fn violations(&self) -> Vec<(NodeId, u64)> {
        self.violations.lock().clone()
    }

    /// The OS recovery path for a frozen receive datapath: what the
    /// freeze interrupt handler would do after deciding the offending
    /// page should accept data after all — enable the page in the
    /// incoming page table and unfreeze the NIC, which reprocesses its
    /// queued packets. Returns whether the node was frozen.
    pub fn repair_and_unfreeze(&self, node: usize, ppage: u64) -> bool {
        let nic = &self.nics[node];
        let was = nic.is_frozen();
        // repair() preserves the page's read-permission bit, so a
        // fetch-triggered freeze recovers to exactly the pre-violation
        // protection state.
        nic.ipt().repair(ppage);
        nic.unfreeze();
        was
    }

    /// Arm a fault plan (see `shrimp_sim::faults`): every event is
    /// scheduled on the kernel and dispatched into the owning layer —
    /// mesh link stalls and brownouts, NIC incoming-DMA stalls, IPT
    /// protection violations, daemon crash/restart cycles. Also enables
    /// the automatic OS recovery path: a freeze interrupt now schedules
    /// [`ShrimpSystem::repair_and_unfreeze`] after the interrupt
    /// latency (or defers to the daemon's restart when it is down).
    ///
    /// Returns the fault log; with a fixed seed and workload the log's
    /// rendering is bit-identical across runs.
    pub fn apply_faults(self: &Arc<Self>, plan: &FaultPlan) -> Arc<FaultLog> {
        let log = Arc::new(FaultLog::new());
        *self.fault_log.lock() = Some(Arc::clone(&log));
        self.auto_repair.store(true, Ordering::SeqCst);
        let sys = Arc::downgrade(self);
        plan.schedule(&self.handle, move |ev| {
            let Some(sys) = sys.upgrade() else { return };
            let now = sys.handle.now();
            sys.log_fault(format!("inject {}", ev.kind));
            match ev.kind {
                FaultKind::LinkStall { node, dur } => {
                    sys.net.stall_node_links(NodeId(node), now, dur);
                }
                FaultKind::PortStall { router, port, dur } => {
                    sys.net.stall_link(router, port, now, dur);
                }
                FaultKind::Brownout { factor, dur } => {
                    sys.net.brownout(now, dur, factor);
                }
                FaultKind::DmaStall { node, dur } => {
                    sys.nics[node].stall_incoming_dma(now, dur);
                }
                FaultKind::SendDmaStall { node, dur } => {
                    sys.nics[node].stall_outgoing_dma(now, dur);
                }
                FaultKind::IptViolation { node } => match sys.nics[node].inject_ipt_violation() {
                    Some(victim) => {
                        sys.log_fault(format!("ipt-disabled node={node} page={victim}"))
                    }
                    None => sys.log_fault(format!("ipt-no-victim node={node}")),
                },
                FaultKind::DaemonCrash { node, downtime } => {
                    sys.daemons[node].crash();
                    let sys2 = Arc::downgrade(&sys);
                    sys.handle.schedule_in(downtime, move || {
                        let Some(sys) = sys2.upgrade() else { return };
                        sys.daemons[node].restart();
                        sys.log_fault(format!("daemon-restart node={node}"));
                        // Restart re-validated the export table; clear
                        // any freeze the outage caused.
                        if sys.nics[node].is_frozen() {
                            sys.nics[node].unfreeze();
                            sys.log_fault(format!("unfreeze node={node}"));
                        }
                    });
                }
                FaultKind::FetchStall { node, dur } => {
                    sys.nics[node].stall_fetch_engine(now, dur);
                }
                FaultKind::Directive { op, a, b } => {
                    sys.directives.lock().push((now, op, a, b));
                }
            }
        });
        log
    }

    /// Control-plane directives injected so far (see
    /// [`FaultKind::Directive`]), in firing order. Consuming layers
    /// poll this and track their own cursor; entries are never removed.
    pub fn directives(&self) -> Vec<(shrimp_sim::SimTime, &'static str, u64, u64)> {
        self.directives.lock().clone()
    }

    /// The log installed by the last [`ShrimpSystem::apply_faults`].
    pub fn fault_log(&self) -> Option<Arc<FaultLog>> {
        self.fault_log.lock().clone()
    }

    fn log_fault(&self, line: String) {
        if let Some(log) = self.fault_log.lock().as_ref() {
            log.record(self.handle.now(), line);
        }
    }

    /// True when no packet is in flight anywhere: mesh delivered
    /// everything injected and every NIC finished its incoming DMA and
    /// holds no open combining packet.
    pub fn quiescent(&self) -> bool {
        let m = self.net.stats();
        m.injected == m.delivered && self.nics.iter().all(|n| n.in_flight() == 0)
    }
}
