//! The SHRIMP network interface.
//!
//! One `Nic` sits between a node's buses and the routing backplane and
//! implements the two datapaths of paper Figure 2:
//!
//! * **Outgoing** — either the memory-bus *snoop logic* (automatic
//!   update: OPT lookup, packetizing with optional combining and a
//!   combine timer) or the *deliberate-update engine* (two-access
//!   initiation, EISA DMA reads of the source, packetization), which
//!   also reads out and streams the replies to remote fetches;
//! * **Incoming** — the *incoming DMA engine*: per-packet incoming page
//!   table check, then DMA into main memory over the EISA bus; an
//!   interrupt is raised after a packet lands iff both the
//!   sender-specified and receiver-specified flags are set; data for a
//!   disabled page freezes the receive datapath and interrupts the CPU.
//!
//! Every decision of both datapaths is the `NicMachine`'s
//! (`machine.rs`); `Nic` is its driver. It holds what the machine may
//! not — the node, the backplane, the page tables the daemon shares, the
//! recorder and the delivery hook — and one lock around the machine. An
//! entry point or a kernel event steps the machine under that lock, then
//! carries out the actions it emitted, in order, with the lock released.

use std::cell::RefCell;
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, MutexGuard};
use shrimp_mesh::{Backplane, Delivery, NodeId};
use shrimp_node::{Node, PAddr, SnoopWrite, PAGE_SIZE};
use shrimp_sim::{SimBuf, SimDur, SimTime};

use crate::machine::{Engine, NicAction, NicEvent, NicMachine};
use crate::packetizer::OutWrite;
use crate::tables::{IncomingPageTable, OutgoingPageTable};
#[cfg(test)]
use crate::{
    machine::fetch_piece,
    tables::{IptEntry, OptEntry},
};

/// Interrupt vector: a notification packet landed (info = physical page).
pub const IRQ_NOTIFICATION: u32 = 1;
/// Interrupt vector: the receive datapath froze on a disabled page
/// (info = physical page).
pub const IRQ_RECV_FREEZE: u32 = 2;

/// A packet on the wire between two NICs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicPacket {
    /// Destination physical byte address (within one page). Unused for
    /// the fetch packet classes: a fetch reply deposits at the address
    /// the *requesting* NIC recorded at issue time, so a responder can
    /// never redirect a deposit.
    pub dst_paddr: u64,
    /// Payload bytes — a shared zero-copy view; the same backing
    /// allocation travels from the snoop/DU engine to the incoming DMA.
    pub data: SimBuf,
    /// Sender-specified destination-interrupt flag.
    pub interrupt: bool,
    /// Which datapath handles the packet on arrival.
    pub kind: PacketKind,
    /// Causal message id for observability; [`shrimp_obs::MsgId::NONE`]
    /// when tracing is off.
    pub msg: shrimp_obs::MsgId,
}

/// Classifies a [`NicPacket`] on the wire. Ordinary deposits carry
/// [`PacketKind::Data`]; the remote-fetch engine (the one-sided read
/// extension, DESIGN.md §5g) adds a request/reply/NAK protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// An ordinary one-way deposit (automatic or deliberate update).
    Data,
    /// A remote-fetch request descriptor (header-only control packet).
    FetchReq(FetchDesc),
    /// One chunk of a fetch reply.
    FetchReply {
        /// Requester-local fetch id this chunk answers.
        fetch: u64,
        /// Byte offset of this chunk within the fetched range.
        offset: usize,
        /// Whether this is the final chunk of the fetch.
        last: bool,
    },
    /// A typed negative acknowledgement: the fetch was refused.
    FetchNak {
        /// Requester-local fetch id being refused.
        fetch: u64,
        /// Why the responder refused.
        reason: NakReason,
    },
}

/// A remote-fetch request descriptor, as carried in the request packet.
/// Deliberately *excludes* any requester-side deposit address: the
/// requesting NIC keeps the reply region in its pending-fetch table, so
/// the protection of the reply deposit never depends on remote state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchDesc {
    /// Requesting node (where replies and NAKs go).
    pub from: NodeId,
    /// Requester-local fetch id, echoed in every reply/NAK packet.
    pub fetch: u64,
    /// Physical byte address to read on the responder.
    pub src_paddr: u64,
    /// Bytes to read (word-aligned, within one source page).
    pub len: usize,
}

/// Why a responder NIC refused a fetch (the typed NAK payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakReason {
    /// The target page has no incoming-page-table entry at all — it was
    /// never part of any export. Distinguished from [`NakReason::Denied`]
    /// so a protocol bug (wild address) is not mistaken for a transient
    /// protection fault.
    Unmapped {
        /// The offending physical page.
        ppage: u64,
    },
    /// The page is mapped but receive-disabled or exported without read
    /// permission.
    Denied {
        /// The offending physical page.
        ppage: u64,
    },
    /// The responder's daemon is down: no validation is possible.
    DaemonDown,
}

/// A remote-fetch request as issued by the local VMMC layer: read
/// `len` bytes at `src_paddr` on `src_node` and deposit them at the
/// local physical address `dst_paddr`.
#[derive(Debug, Clone, Copy)]
pub struct FetchRequest {
    /// Node to read from.
    pub src_node: NodeId,
    /// Physical byte address on that node.
    pub src_paddr: u64,
    /// Bytes to read. Must be word-aligned and lie within one source
    /// page and one destination page (the VMMC layer chunks larger
    /// fetches).
    pub len: usize,
    /// Local physical address the reply deposits into.
    pub dst_paddr: u64,
    /// Causal message id allocated at the fetch call
    /// ([`shrimp_obs::MsgId::NONE`] when tracing is off).
    pub msg: shrimp_obs::MsgId,
}

/// A deliberate-update transfer request, as decoded from the two-access
/// initiation sequence (the VMMC layer charges the two EISA programmed
/// I/O accesses before handing the request to the engine).
#[derive(Debug, Clone, Copy)]
pub struct DuRequest {
    /// Source physical address on the local node.
    pub src: PAddr,
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination physical byte address on that node.
    pub dst_paddr: u64,
    /// Transfer length in bytes.
    pub len: usize,
    /// Request a destination interrupt on the final packet.
    pub interrupt: bool,
    /// Causal message id allocated at the send syscall
    /// ([`shrimp_obs::MsgId::NONE`] when tracing is off); every packet
    /// of the transfer carries it.
    pub msg: shrimp_obs::MsgId,
}

/// Traffic counters for one NIC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Automatic-update packets injected.
    pub au_packets_out: u64,
    /// Deliberate-update packets injected.
    pub du_packets_out: u64,
    /// Total payload bytes injected.
    pub bytes_out: u64,
    /// Packets received and DMA'd to memory.
    pub packets_in: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Times the receive datapath froze on a disabled page.
    pub freezes: u64,
    /// Fetch requests issued by the local fetch engine.
    pub fetch_reqs_out: u64,
    /// Fetch requests arriving from remote nodes.
    pub fetch_reqs_in: u64,
    /// Fetch reply packets streamed out by the responder datapath.
    pub fetch_replies_out: u64,
    /// Fetch reply packets deposited by the requester datapath.
    pub fetch_replies_in: u64,
    /// Fetches this NIC refused (unmapped page, disabled page, missing
    /// read permission, or daemon down) — the per-NIC violation counter
    /// of the fetch protection model.
    pub fetch_denials: u64,
    /// Typed NAKs received for fetches this NIC issued.
    pub fetch_naks_in: u64,
    /// Deepest simultaneous responder-engine backlog observed: accepted
    /// fetch requests whose replies had not yet fully streamed out. A
    /// peak above 1 means requests queued behind a busy (or stalled)
    /// responder — the signature of brownouts and `FetchStall` faults.
    pub fetch_queue_peak: u64,
}

thread_local! {
    /// Emptied action buffers, reused so a step allocates none: one per
    /// level of re-entry (a callback that steps the NIC again).
    static SPARE: RefCell<Vec<Vec<NicAction>>> = const { RefCell::new(Vec::new()) };
}

/// The network interface of one node: the driver of its `NicMachine`.
/// Construct with [`Nic::install`], which wires the snoop hook and the
/// backplane sink.
pub struct Nic {
    node: Arc<Node>,
    net: Arc<Backplane<NicPacket>>,
    opt: OutgoingPageTable,
    ipt: IncomingPageTable,
    /// The recorder current when the NIC was installed, if any: the
    /// machine's spans (packetize/FIFO, IPT check, deposit, all tagged
    /// with the packet's causal message id) go to it.
    obs: Option<Arc<shrimp_obs::Recorder>>,
    delivery_hook: OnceLock<Box<dyn Fn(u64, SimTime) + Send + Sync>>,
    machine: Mutex<NicMachine>,
}

impl std::fmt::Debug for Nic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nic")
            .field("node", &self.node.id())
            .finish_non_exhaustive()
    }
}

impl Nic {
    /// Build the NIC for `node`, register its snoop logic on the memory
    /// bus and its incoming DMA engine on the backplane, and return it.
    /// It records into the thread's current `shrimp_obs` recorder, if
    /// one is installed.
    pub fn install(node: Arc<Node>, net: Arc<Backplane<NicPacket>>) -> Arc<Nic> {
        let obs = shrimp_obs::Recorder::current();
        let machine = NicMachine::new(node.id(), node.costs().clone(), obs.is_some());
        let nic = Arc::new(Nic {
            node: Arc::clone(&node),
            net: Arc::clone(&net),
            opt: OutgoingPageTable::new(),
            ipt: IncomingPageTable::new(),
            obs,
            delivery_hook: OnceLock::new(),
            machine: Mutex::new(machine),
        });

        let weak: Weak<Nic> = Arc::downgrade(&nic);
        node.set_snoop_hook(move |w| {
            if let Some(nic) = weak.upgrade() {
                nic.on_snoop(w);
            }
        });

        let weak: Weak<Nic> = Arc::downgrade(&nic);
        net.attach(node.id(), move |d| {
            if let Some(nic) = weak.upgrade() {
                nic.on_incoming(d);
            }
        });

        nic
    }

    /// The node this NIC is plugged into.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// The outgoing page table (automatic-update bindings).
    pub fn opt(&self) -> &OutgoingPageTable {
        &self.opt
    }

    /// The incoming page table (receive enables and interrupt flags).
    pub fn ipt(&self) -> &IncomingPageTable {
        &self.ipt
    }

    /// Install the delivery hook, called (with the destination physical
    /// page and completion time) after each packet's DMA completes. The
    /// VMMC layer uses it to wake blocked receivers.
    ///
    /// # Panics
    ///
    /// Panics if the NIC already has one: the hook is set once.
    pub fn set_delivery_hook(&self, hook: impl Fn(u64, SimTime) + Send + Sync + 'static) {
        if self.delivery_hook.set(Box::new(hook)).is_err() {
            panic!("nic {}: delivery hook set twice", self.node.id());
        }
    }

    /// Traffic counters.
    pub fn stats(&self) -> NicStats {
        self.machine.lock().stats
    }

    /// Allocate a causal message id from this NIC's recorder, or
    /// [`shrimp_obs::MsgId::NONE`] without one. The VMMC send syscall
    /// calls this so the id exists before the first packet.
    pub fn alloc_msg(&self) -> shrimp_obs::MsgId {
        match &self.obs {
            Some(rec) => rec.alloc_msg(),
            None => shrimp_obs::MsgId::NONE,
        }
    }

    /// Step the machine on `ev` under the lock, then carry out what it
    /// decided with the lock released.
    fn step(self: &Arc<Self>, ev: NicEvent) {
        self.run(self.node.sim().now(), self.machine.lock(), ev);
    }

    /// [`Nic::step`] with the lock already held.
    fn run(self: &Arc<Self>, now: SimTime, mut m: MutexGuard<'_, NicMachine>, ev: NicEvent) {
        let mut out = SPARE.with(|s| s.borrow_mut().pop()).unwrap_or_default();
        m.step(now, ev, &mut out);
        drop(m);
        for action in out.drain(..) {
            self.act(now, action);
        }
        SPARE.with(|s| s.borrow_mut().push(out));
    }

    /// Step an event that calls for no action.
    fn set(&self, ev: NicEvent) {
        let (now, mut out) = (self.node.sim().now(), Vec::new());
        self.machine.lock().step(now, ev, &mut out);
        debug_assert!(out.is_empty(), "a settings event acted");
    }

    /// Carry out one action decided at `now`.
    fn act(self: &Arc<Self>, now: SimTime, action: NicAction) {
        let me = Arc::clone(self);
        match action {
            NicAction::Inject(at, to, pkt) => {
                self.node.sim().schedule_at(at, move || {
                    let (from, msg) = (me.node.id(), pkt.msg);
                    match pkt.kind {
                        PacketKind::FetchReq(_) | PacketKind::FetchNak { .. } => {
                            me.net.inject_ctl_msg(from, to, pkt, msg)
                        }
                        _ => me.net.inject_msg(from, to, pkt.data.len(), pkt, msg),
                    };
                });
            }
            NicAction::DmaRead(src, len, piece) => {
                let read = move |_, data| me.step(NicEvent::Read(piece, now, data));
                self.node.dma_read(src, len, read);
            }
            NicAction::DmaWrite(at, dst, data, dep) => {
                let start = move || {
                    let node = Arc::clone(&me.node);
                    node.dma_write(PAddr(dst), data, move |queued, _| {
                        let irq = dep.irq_page().is_some_and(|p| me.ipt.get(p).interrupt);
                        me.step(NicEvent::Deposited(dep, queued, irq));
                    });
                };
                match at {
                    Some(at) => self.node.sim().schedule_at(at, start),
                    None => start(),
                }
            }
            NicAction::Interrupt(irq) => self.node.raise_interrupt(irq),
            NicAction::At(at, ev) => self.node.sim().schedule_at(at, move || me.step(ev)),
            NicAction::Delivered(ppage, t) => {
                if let Some(hook) = self.delivery_hook.get() {
                    hook(ppage, t);
                }
            }
            NicAction::SendDone(done, t) => done(t),
            NicAction::FetchDone(done, res) => done(res),
            NicAction::Span(span) => {
                if let Some(rec) = &self.obs {
                    rec.push(span);
                }
            }
            NicAction::QueueDepth(depth) => {
                if let Some(rec) = &self.obs {
                    let label = format!("fetch_queue_depth={depth}");
                    rec.instant(now, Some(self.node.id().0), label);
                }
            }
        }
    }

    /// The snoop logic: translate a write run through the OPT and hand
    /// it to the packetizer.
    fn on_snoop(self: &Arc<Self>, w: SnoopWrite) {
        let Some(entry) = self.opt.lookup(w.paddr.page()) else {
            return; // write to an unbound page: not our traffic
        };
        let mut data = vec![0u8; w.len];
        self.node.mem().read(w.paddr, &mut data);
        // Automatic updates have no send syscall: each snooped write run
        // becomes its own causal message (combining keeps the first).
        self.step(NicEvent::Snoop(OutWrite {
            dst_node: entry.dst_node,
            dst_paddr: entry.dst_ppage * PAGE_SIZE as u64 + w.paddr.offset() as u64,
            data: data.into(),
            interrupt: entry.dst_interrupt,
            combine: entry.combine,
            at: w.at,
            msg: self.alloc_msg(),
        }));
    }

    /// Close any held combining packet immediately (ordering flushes and
    /// unbind paths).
    pub fn flush_combining(self: &Arc<Self>) {
        self.step(NicEvent::Flush);
    }

    /// Execute a deliberate-update transfer: DMA the source out of main
    /// memory in packet-sized pieces, packetize, and inject. `done` fires
    /// once the final piece has been injected (the source buffer is then
    /// reusable and all packets are ordered ahead of any later traffic).
    ///
    /// # Panics
    ///
    /// Panics unless source, destination, and length are word-aligned and
    /// the length is positive — the hardware restriction the paper's
    /// libraries must design around (§4, §6).
    pub fn du_transfer(
        self: &Arc<Self>,
        req: DuRequest,
        done: impl FnOnce(SimTime) + Send + 'static,
    ) {
        assert!(req.len > 0, "deliberate update of zero bytes");
        assert!(
            req.src.0.is_multiple_of(4)
                && req.dst_paddr.is_multiple_of(4)
                && req.len.is_multiple_of(4),
            "deliberate update requires word-aligned source, destination, and length"
        );
        self.step(NicEvent::Send(req, Box::new(done)));
    }

    /// The incoming datapath: hand an arriving packet to the machine with
    /// the IPT entry it is checked against.
    fn on_incoming(self: &Arc<Self>, d: Delivery<NicPacket>) {
        let entry = match d.payload.kind {
            PacketKind::Data => self.ipt.lookup(d.payload.dst_paddr / PAGE_SIZE as u64),
            // The fetch path uses `lookup`, not `get`: an unmapped page
            // is an explicit protocol error, never a default entry.
            PacketKind::FetchReq(desc) => self.ipt.lookup(desc.src_paddr / PAGE_SIZE as u64),
            _ => None,
        };
        self.step(NicEvent::Arrive(d.payload, entry));
    }

    /// Issue a remote fetch: emit a request descriptor to the remote
    /// NIC, which validates the source page against its incoming page
    /// table (receive-enabled *and* read-permitted), DMAs the data out
    /// of its memory without involving the remote CPU, and streams reply
    /// packets back. `done` fires with the completion time of the final
    /// reply deposit, or with the typed NAK reason on refusal.
    ///
    /// # Panics
    ///
    /// Panics unless source, destination, and length are word-aligned
    /// and the length is positive — the same hardware restriction as the
    /// deliberate-update engine. Debug builds additionally assert the
    /// range stays within one source and one destination page (the VMMC
    /// layer chunks larger fetches).
    pub fn fetch(
        self: &Arc<Self>,
        req: FetchRequest,
        done: impl FnOnce(Result<SimTime, NakReason>) + Send + 'static,
    ) {
        assert!(req.len > 0, "remote fetch of zero bytes");
        assert!(
            req.src_paddr.is_multiple_of(4)
                && req.dst_paddr.is_multiple_of(4)
                && req.len.is_multiple_of(4),
            "remote fetch requires word-aligned source, destination, and length"
        );
        debug_assert!(
            (req.src_paddr + req.len as u64 - 1) / PAGE_SIZE as u64
                == req.src_paddr / PAGE_SIZE as u64,
            "fetch crosses a source page"
        );
        debug_assert!(
            (req.dst_paddr + req.len as u64 - 1) / PAGE_SIZE as u64
                == req.dst_paddr / PAGE_SIZE as u64,
            "fetch crosses a destination page"
        );
        self.step(NicEvent::Fetch(req, Box::new(done)));
    }

    /// Mark the local daemon down (or back up). While down, the fetch
    /// engine NAKs every arriving request with
    /// [`NakReason::DaemonDown`].
    pub fn set_daemon_down(&self, down: bool) {
        self.set(NicEvent::DaemonDown(down));
    }

    /// Whether the local daemon is marked down.
    pub fn is_daemon_down(&self) -> bool {
        self.machine.lock().daemon_down
    }

    /// Packets accepted by the incoming datapath whose DMA has not yet
    /// completed, plus any packet held open in the combining buffer,
    /// plus fetches in flight on either side. Zero means this NIC is
    /// quiescent; the VMMC unexport/unimport drain uses this.
    pub fn in_flight(&self) -> u64 {
        self.machine.lock().in_flight()
    }

    /// Whether the receive datapath is frozen.
    pub fn is_frozen(&self) -> bool {
        self.machine.lock().is_frozen()
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks (see `shrimp_sim::faults`)
    // ------------------------------------------------------------------

    /// Fault hook: stall the incoming DMA engine for `dur` starting at
    /// `start`. Accepted packets are held (in order) until the window
    /// passes; nothing is dropped.
    pub fn stall_incoming_dma(&self, start: SimTime, dur: SimDur) {
        self.set(NicEvent::Stall(Engine::Deposit, start, dur));
    }

    /// Fault hook: stall the outgoing DMA engine for `dur` starting at
    /// `start`. A piece due to be read from memory in the window is read
    /// when it passes, and every piece behind it waits its turn.
    pub fn stall_outgoing_dma(&self, start: SimTime, dur: SimDur) {
        self.set(NicEvent::Stall(Engine::SourceRead, start, dur));
    }

    /// Fault hook: stall the responder-side fetch engine for `dur`
    /// starting at `start`. Accepted fetch requests are held (in order)
    /// until the window passes, so replies to remote requesters stall;
    /// nothing is dropped.
    pub fn stall_fetch_engine(&self, start: SimTime, dur: SimDur) {
        self.set(NicEvent::Stall(Engine::Fetch, start, dur));
    }

    /// Fault hook: force an incoming-page-table protection violation by
    /// disabling the lowest-numbered enabled page. The next packet for
    /// that page freezes the receive datapath and raises
    /// [`IRQ_RECV_FREEZE`], exercising the paper's freeze-and-interrupt
    /// recovery path end-to-end. Returns the victim page, or `None` if
    /// no page is enabled.
    pub fn inject_ipt_violation(&self) -> Option<u64> {
        let victim = self.ipt.enabled_pages().into_iter().next()?;
        self.ipt.disable(victim);
        Some(victim)
    }

    /// Unfreeze the receive datapath (the OS does this after repairing
    /// the incoming page table) and reprocess the queued packets. If a
    /// queued packet still targets a disabled page the datapath refreezes
    /// at that packet.
    pub fn unfreeze(self: &Arc<Self>) {
        let (now, m) = (self.node.sim().now(), self.machine.lock());
        let enabled = m.replayable(|p| self.ipt.get(p).enabled);
        self.run(now, m, NicEvent::Unfreeze(enabled));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_mesh::{LinkParams, Mesh2D, TopologyRef};
    use shrimp_node::{CacheMode, CostModel, UserProc};
    use shrimp_sim::Kernel;

    struct Rig {
        kernel: Kernel,
        net: Arc<Backplane<NicPacket>>,
        nics: Vec<Arc<Nic>>,
        procs: Vec<UserProc>,
        /// Every interrupt raised, in order: (node, vector, info).
        irqs: Arc<Mutex<Vec<(usize, u32, u64)>>>,
    }

    impl Rig {
        /// The (vector, info) of each interrupt node `i` took.
        fn irqs(&self, i: usize) -> Vec<(u32, u64)> {
            let irqs = self.irqs.lock();
            irqs.iter()
                .filter(|x| x.0 == i)
                .map(|x| (x.1, x.2))
                .collect()
        }
    }

    fn rig(n_nodes: usize) -> Rig {
        rig_with(n_nodes, CostModel::shrimp_prototype())
    }

    fn rig_with(n_nodes: usize, costs: CostModel) -> Rig {
        let kernel = Kernel::new();
        let topo: TopologyRef = if n_nodes <= 4 {
            Arc::new(Mesh2D::shrimp_prototype())
        } else {
            Arc::new(Mesh2D::new(4, 4))
        };
        let net: Arc<Backplane<NicPacket>> =
            Backplane::new(kernel.handle(), topo, LinkParams::paragon());
        let mut nics = Vec::new();
        let mut procs = Vec::new();
        let irqs = Arc::new(Mutex::new(Vec::new()));
        for i in 0..n_nodes {
            let node = Node::new(kernel.handle(), NodeId(i), 256, costs.clone());
            let log = Arc::clone(&irqs);
            node.set_interrupt_hook(move |irq| log.lock().push((i, irq.vector, irq.info)));
            nics.push(Nic::install(Arc::clone(&node), Arc::clone(&net)));
            procs.push(UserProc::new(node, format!("p{i}")));
        }
        Rig {
            kernel,
            net,
            nics,
            procs,
            irqs,
        }
    }

    /// Map one page on the receiver, enable it in the IPT, bind one page
    /// on the sender's OPT to it; returns (send_va, recv_va).
    fn bind_one_page(
        r: &Rig,
        sender: usize,
        receiver: usize,
        combine: bool,
    ) -> (shrimp_node::VAddr, shrimp_node::VAddr) {
        let send_va = r.procs[sender].alloc(PAGE_SIZE, CacheMode::WriteThrough);
        let recv_va = r.procs[receiver].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (send_pa, _) = r.procs[sender].aspace().translate(send_va, true).unwrap();
        let (recv_pa, _) = r.procs[receiver].aspace().translate(recv_va, true).unwrap();
        r.nics[receiver].ipt().set(
            recv_pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        r.nics[sender].opt().bind(
            send_pa.page(),
            OptEntry {
                dst_node: NodeId(receiver),
                dst_ppage: recv_pa.page(),
                combine,
                dst_interrupt: false,
            },
        );
        (send_va, recv_va)
    }

    #[test]
    fn automatic_update_propagates_stores() {
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, true);
        let p0 = r.procs[0].clone();
        let p1 = r.procs[1].clone();
        r.kernel.spawn("writer", move |ctx| {
            p0.write(ctx, send_va.add(16), b"automatic update!")
                .unwrap();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(p1.peek(recv_va.add(16), 17).unwrap(), b"automatic update!");
        let st = r.nics[0].stats();
        assert_eq!(st.au_packets_out, 1);
        assert_eq!(r.nics[1].stats().packets_in, 1);
    }

    #[test]
    fn combining_merges_consecutive_stores_into_one_packet() {
        // A generous combine window so the two separate store runs land
        // within it (the default window is sized for streaming copies).
        let mut costs = CostModel::shrimp_prototype();
        costs.au_combine_timeout = shrimp_sim::SimDur::from_us(10.0);
        let r = rig_with(2, costs);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, true);
        let p0 = r.procs[0].clone();
        let p1 = r.procs[1].clone();
        r.kernel.spawn("writer", move |ctx| {
            // Two immediately-consecutive write runs: combined by the NIC.
            p0.write(ctx, send_va, &[1u8; 8]).unwrap();
            p0.write(ctx, send_va.add(8), &[2u8; 8]).unwrap();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.nics[0].stats().au_packets_out, 1);
        assert_eq!(p1.peek(recv_va, 16).unwrap(), [[1u8; 8], [2u8; 8]].concat());
    }

    #[test]
    fn without_combining_each_store_run_is_a_packet() {
        let r = rig(2);
        let (send_va, _recv_va) = bind_one_page(&r, 0, 1, false);
        let p0 = r.procs[0].clone();
        r.kernel.spawn("writer", move |ctx| {
            p0.write(ctx, send_va, &[1u8; 8]).unwrap();
            p0.write(ctx, send_va.add(8), &[2u8; 8]).unwrap();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.nics[0].stats().au_packets_out, 2);
    }

    #[test]
    fn combine_timer_flushes_lone_write() {
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, true);
        let p0 = r.procs[0].clone();
        let p1 = r.procs[1].clone();
        let done_at = Arc::new(Mutex::new(SimTime::ZERO));
        let d = Arc::clone(&done_at);
        r.kernel.spawn("writer", move |ctx| {
            p0.write_u32(ctx, send_va, 0x1234_5678).unwrap();
            *d.lock() = ctx.now();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(p1.peek(recv_va, 4).unwrap(), 0x1234_5678u32.to_le_bytes());
        // Delivery happened strictly after the combine timeout elapsed.
        let ct = CostModel::shrimp_prototype().au_combine_timeout;
        let delivered = r.kernel.now();
        assert!(delivered >= *done_at.lock() + ct);
    }

    #[test]
    fn deliberate_update_moves_data_and_signals_done() {
        let r = rig(2);
        let src_va = r.procs[0].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let dst_va = r.procs[1].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        let (dst_pa, _) = r.procs[1].aspace().translate(dst_va, true).unwrap();
        r.nics[1].ipt().set(
            dst_pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        r.procs[0].poke(src_va, &vec![0x5A; 2048]).unwrap();
        let done = Arc::new(Mutex::new(None));
        let d = Arc::clone(&done);
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst_pa.0,
                len: 2048,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |t| *d.lock() = Some(t),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(done.lock().is_some());
        assert_eq!(r.procs[1].peek(dst_va, 2048).unwrap(), vec![0x5A; 2048]);
        assert_eq!(r.nics[0].stats().du_packets_out, 1);
    }

    #[test]
    fn large_du_splits_into_max_payload_packets() {
        let r = rig(2);
        let src_va = r.procs[0].alloc(3 * PAGE_SIZE, CacheMode::WriteBack);
        let dst_va = r.procs[1].alloc(3 * PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        let (dst_pa, _) = r.procs[1].aspace().translate(dst_va, true).unwrap();
        for p in 0..3 {
            r.nics[1].ipt().set(
                dst_pa.page() + p,
                IptEntry {
                    enabled: true,
                    interrupt: false,
                    read: false,
                },
            );
        }
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        r.procs[0].poke(src_va, &data).unwrap();
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst_pa.0,
                len: 3 * PAGE_SIZE,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.procs[1].peek(dst_va, 3 * PAGE_SIZE).unwrap(), data);
        let expected = (3 * PAGE_SIZE).div_ceil(CostModel::shrimp_prototype().max_packet_payload);
        assert_eq!(r.nics[0].stats().du_packets_out, expected as u64);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_du_is_rejected_by_hardware() {
        let r = rig(2);
        r.nics[0].du_transfer(
            DuRequest {
                src: PAddr(2),
                dst_node: NodeId(1),
                dst_paddr: 0,
                len: 4,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
    }

    #[test]
    fn packet_to_disabled_page_freezes_and_interrupts() {
        let r = rig(2);
        let src_va = r.procs[0].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        // Destination page 10 on node 1 was never enabled.
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: 10 * PAGE_SIZE as u64,
                len: 64,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(r.nics[1].is_frozen());
        assert_eq!(r.irqs(1), vec![(IRQ_RECV_FREEZE, 10)]);
        assert_eq!(r.nics[1].stats().packets_in, 0);
    }

    #[test]
    fn unfreeze_after_enable_delivers_pending() {
        let r = rig(2);
        let src_va = r.procs[0].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        r.procs[0].poke(src_va, &[7u8; 64]).unwrap();
        let dst = 10 * PAGE_SIZE as u64;
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst,
                len: 64,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(r.nics[1].is_frozen());
        // OS repairs the IPT and unfreezes.
        r.nics[1].ipt().set(
            10,
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        r.nics[1].unfreeze();
        r.kernel.run_until_quiescent().unwrap();
        let mut out = vec![0u8; 64];
        r.nics[1].node().mem().read(PAddr(dst), &mut out);
        assert_eq!(out, [7u8; 64]);
        assert_eq!(r.nics[1].stats().packets_in, 1);
    }

    #[test]
    fn notification_interrupt_requires_both_flags() {
        let r = rig(2);
        let src_va = r.procs[0].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        let dst_va = r.procs[1].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (dst_pa, _) = r.procs[1].aspace().translate(dst_va, true).unwrap();

        // Case 1: sender flag set, receiver flag clear -> no interrupt.
        r.nics[1].ipt().set(
            dst_pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst_pa.0,
                len: 4,
                interrupt: true,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(r.irqs(1).is_empty());

        // Case 2: both flags set -> notification interrupt with the page.
        r.nics[1].ipt().set_interrupt(dst_pa.page(), true);
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst_pa.0,
                len: 4,
                interrupt: true,
                msg: shrimp_obs::MsgId::NONE,
            },
            |_| {},
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.irqs(1), vec![(IRQ_NOTIFICATION, dst_pa.page())]);
    }

    #[test]
    fn explicit_flush_does_not_overtake_pending_packet() {
        // Regression: a non-consecutive write closes the open packet
        // (scheduled with the snoop+packetize lead) and opens a new one;
        // an immediate flush_combining (shorter lead) must not let the
        // new packet overtake the first in the outgoing FIFO.
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, true);
        let p0 = r.procs[0].clone();
        let nic0 = Arc::clone(&r.nics[0]);
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let order = Arc::clone(&order);
            let (recv_pa, _) = r.procs[1].aspace().translate(recv_va, false).unwrap();
            let base = recv_pa.0;
            r.nics[1].set_delivery_hook(move |_ppage, _| {
                order.lock().push(base); // count deliveries in order
            });
        }
        let p1 = r.procs[1].clone();
        r.kernel.spawn("writer", move |ctx| {
            p0.write(ctx, send_va.add(64), b"0123456789abcdef").unwrap();
            // Non-consecutive: closes the 16-byte packet, opens this one.
            p0.write_u32(ctx, send_va.add(4000), 7).unwrap();
            // Explicit flush with the short lead.
            nic0.flush_combining();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(order.lock().len(), 2);
        // In-order delivery: the data must be present once the flag is.
        assert_eq!(p1.peek(recv_va.add(64), 16).unwrap(), b"0123456789abcdef");
        assert_eq!(
            u32::from_le_bytes(p1.peek(recv_va.add(4000), 4).unwrap().try_into().unwrap()),
            7
        );
    }

    #[test]
    fn incoming_dma_stall_delays_delivery_in_order() {
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, false);
        // Incoming DMA on node 1 stalls for 200 us from t=0.
        r.nics[1].stall_incoming_dma(SimTime::ZERO, SimDur::from_us(200.0));
        let times = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&times);
        r.nics[1].set_delivery_hook(move |_p, at| t.lock().push(at));
        let p0 = r.procs[0].clone();
        r.kernel.spawn("writer", move |ctx| {
            p0.write(ctx, send_va, &[1u8; 8]).unwrap();
            p0.write(ctx, send_va.add(8), &[2u8; 8]).unwrap();
        });
        r.kernel.run_until_quiescent().unwrap();
        let v = times.lock().clone();
        assert_eq!(v.len(), 2, "both packets eventually land");
        assert!(
            v[0] >= SimTime::ZERO + SimDur::from_us(200.0),
            "first DMA completes only after the stall: {}",
            v[0]
        );
        assert!(v[0] <= v[1], "held packets stay ordered");
        let p1 = r.procs[1].clone();
        assert_eq!(p1.peek(recv_va, 16).unwrap(), [[1u8; 8], [2u8; 8]].concat());
    }

    #[test]
    fn injected_ipt_violation_freezes_then_recovers() {
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, false);
        // Deterministic victim: the only enabled page.
        let victim = r.nics[1].inject_ipt_violation().expect("one page enabled");
        assert_eq!(
            r.nics[1].inject_ipt_violation(),
            None,
            "no enabled page left"
        );
        let p0 = r.procs[0].clone();
        r.kernel.spawn("writer", move |ctx| {
            p0.write(ctx, send_va, b"recoverme").unwrap();
        });
        r.kernel.run_until_quiescent().unwrap();
        assert!(r.nics[1].is_frozen());
        assert_eq!(r.irqs(1), vec![(IRQ_RECV_FREEZE, victim)]);
        // OS repairs and unfreezes: the held packet lands intact.
        r.nics[1].ipt().set(
            victim,
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        r.nics[1].unfreeze();
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.procs[1].peek(recv_va, 9).unwrap(), b"recoverme");
        assert_eq!(r.nics[1].stats().packets_in, 1);
    }

    /// Export one read-enabled page on `owner`, fill it with `data`,
    /// and return its physical page base address.
    fn export_read_page(r: &Rig, owner: usize, data: &[u8]) -> u64 {
        let va = r.procs[owner].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (pa, _) = r.procs[owner].aspace().translate(va, true).unwrap();
        r.nics[owner].ipt().set(
            pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: true,
            },
        );
        r.procs[owner].poke(va, data).unwrap();
        pa.0
    }

    /// Allocate a reply page on `owner`; returns (va, paddr).
    fn reply_page(r: &Rig, owner: usize) -> (shrimp_node::VAddr, u64) {
        let va = r.procs[owner].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (pa, _) = r.procs[owner].aspace().translate(va, true).unwrap();
        (va, pa.0)
    }

    /// The (offset, bytes) reply pieces of a `len`-byte fetch with
    /// `queued` bytes of other jobs waiting behind it on the responder.
    fn pieces(len: usize, queued: usize) -> Vec<(usize, usize)> {
        let costs = CostModel::shrimp_prototype();
        let (mut out, mut off) = (Vec::new(), 0);
        while off < len {
            let n = fetch_piece(len - off + queued, &costs).min(len - off);
            out.push((off, n));
            off += n;
        }
        out
    }

    #[test]
    fn fetch_pieces_follow_the_pipeline_optimum() {
        let costs = CostModel::shrimp_prototype();
        assert_eq!(fetch_piece(64, &costs), 64, "a 64 B read is one piece");
        assert_eq!(
            fetch_piece(PAGE_SIZE, &costs),
            512,
            "a page starts at 512 B"
        );
        assert_eq!(
            fetch_piece(65_536, &costs),
            2048,
            "64 KiB streams 2 KiB pieces"
        );
        let mut last = 0;
        for to_read in (1..=1 << 20).step_by(4) {
            let piece = fetch_piece(to_read, &costs);
            assert!(
                piece <= costs.max_packet_payload,
                "{to_read} B: {piece} B piece"
            );
            assert!(piece.is_multiple_of(4), "{to_read} B: {piece} B piece");
            assert!(piece >= last, "{to_read} B: {piece} B after {last} B");
            last = piece;
        }
        assert_eq!(pieces(64, 0), [(0, 64)]);
        let page = pieces(PAGE_SIZE, 0);
        assert_eq!(page[..2], [(0, 512), (512, 512)]);
        assert!(
            page.windows(2).all(|w| w[1].1 <= w[0].1),
            "a page's pieces shrink"
        );
    }

    #[test]
    fn remote_fetch_round_trip() {
        let r = rig(2);
        let data: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: 512,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *g.lock() = Some(res),
        );
        r.kernel.run_until_quiescent().unwrap();
        let res = got.lock().take().expect("fetch completed");
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(r.procs[0].peek(dst_va, 512).unwrap(), data);
        let st0 = r.nics[0].stats();
        let replies = pieces(512, 0).len() as u64;
        assert_eq!(st0.fetch_reqs_out, 1);
        assert_eq!(st0.fetch_replies_in, replies);
        let st1 = r.nics[1].stats();
        assert_eq!(st1.fetch_reqs_in, 1);
        assert_eq!(st1.fetch_replies_out, replies);
        assert_eq!(st1.fetch_denials, 0);
        assert_eq!(r.nics[0].in_flight(), 0, "fetch table drained");
        assert_eq!(r.nics[1].in_flight(), 0, "serve counter drained");
    }

    #[test]
    fn large_fetch_streams_multiple_reply_packets() {
        let r = rig(2);
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 249) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let ok = Arc::new(Mutex::new(false));
        let o = Arc::clone(&ok);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: PAGE_SIZE,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *o.lock() = res.is_ok(),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(*ok.lock());
        assert_eq!(r.procs[0].peek(dst_va, PAGE_SIZE).unwrap(), data);
        let expected = pieces(PAGE_SIZE, 0).len();
        assert!(expected > 1);
        assert_eq!(r.nics[1].stats().fetch_replies_out, expected as u64);
        assert_eq!(r.nics[0].stats().fetch_replies_in, expected as u64);
    }

    #[test]
    fn fetch_of_unmapped_page_gets_typed_nak() {
        let r = rig(2);
        let (_, dst_pa) = reply_page(&r, 0);
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: 17 * PAGE_SIZE as u64,
                len: 64,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *g.lock() = Some(res),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(
            got.lock().take(),
            Some(Err(NakReason::Unmapped { ppage: 17 }))
        );
        assert_eq!(r.nics[1].stats().fetch_denials, 1);
        assert_eq!(r.nics[0].stats().fetch_naks_in, 1);
        assert!(!r.nics[1].is_frozen(), "unmapped page does not freeze");
        assert_eq!(r.nics[0].in_flight(), 0, "failed fetch drained");
    }

    #[test]
    fn fetch_without_read_permission_is_denied() {
        let r = rig(2);
        // Page enabled for deposits but exported without read permission.
        let va = r.procs[1].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (pa, _) = r.procs[1].aspace().translate(va, true).unwrap();
        r.nics[1].ipt().set(
            pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        let (_, dst_pa) = reply_page(&r, 0);
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: pa.0,
                len: 64,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *g.lock() = Some(res),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(
            got.lock().take(),
            Some(Err(NakReason::Denied { ppage: pa.page() }))
        );
        assert!(
            !r.nics[1].is_frozen(),
            "missing read permission is refused without a freeze"
        );
    }

    #[test]
    fn fetch_while_daemon_down_naks() {
        let r = rig(2);
        let src = export_read_page(&r, 1, &[9u8; 64]);
        r.nics[1].set_daemon_down(true);
        let (_, dst_pa) = reply_page(&r, 0);
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: 64,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *g.lock() = Some(res),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(got.lock().take(), Some(Err(NakReason::DaemonDown)));
    }

    #[test]
    fn fetch_of_disabled_read_page_freezes_for_repair_then_retries() {
        let r = rig(2);
        let data = vec![0xA5u8; 128];
        let src = export_read_page(&r, 1, &data);
        let ppage = src / PAGE_SIZE as u64;
        // Chaos-style violation: the read-exported page gets disabled.
        r.nics[1].ipt().disable(ppage);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let got = Arc::new(Mutex::new(None));
        let g = Arc::clone(&got);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: 128,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *g.lock() = Some(res),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(got.lock().take(), Some(Err(NakReason::Denied { ppage })));
        assert!(r.nics[1].is_frozen(), "deny of a read export freezes");
        assert_eq!(r.irqs(1), vec![(IRQ_RECV_FREEZE, ppage)]);
        // OS repairs (read permission survives) and unfreezes; the
        // requester's retry then succeeds.
        r.nics[1].ipt().repair(ppage);
        r.nics[1].unfreeze();
        let ok = Arc::new(Mutex::new(false));
        let o = Arc::clone(&ok);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: 128,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *o.lock() = res.is_ok(),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert!(*ok.lock());
        assert_eq!(r.procs[0].peek(dst_va, 128).unwrap(), data);
    }

    /// Issue one fetch of `len` bytes (node 0 <- node 1's `src`) and
    /// return a cell that receives its completion instant.
    fn fetch_into(r: &Rig, src: u64, dst_pa: u64, len: usize) -> Arc<Mutex<Option<SimTime>>> {
        let done_at = Arc::new(Mutex::new(None));
        let d = Arc::clone(&done_at);
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *d.lock() = res.ok(),
        );
        done_at
    }

    /// Every deposit `rec` holds, in completion order, as `(name,
    /// released, dma start, end, bytes)`: the instant the packet was
    /// released to the DMA engine is its `dma_wait` span's start when it
    /// queued for the bus (that span is pushed just before its deposit's
    /// own), else its deposit span's start.
    fn deposits(
        rec: &shrimp_obs::Recorder,
    ) -> Vec<(&'static str, SimTime, SimTime, SimTime, usize)> {
        let mut out = Vec::new();
        let mut waited = None;
        for s in rec.spans() {
            match (s.layer, s.name) {
                (shrimp_obs::Layer::Deposit, "dma_wait") => waited = Some(s),
                (shrimp_obs::Layer::Deposit, name) => {
                    let released = match waited.take() {
                        Some(w) => {
                            assert_eq!(w.end, s.start, "{name}: its wait ends at its grant");
                            w.start
                        }
                        None => s.start,
                    };
                    out.push((name, released, s.start, s.end, s.bytes));
                }
                _ => {}
            }
        }
        assert!(waited.is_none(), "a dma_wait with no deposit behind it");
        out
    }

    /// Send 64 bytes from a fresh page of `proc_` to `dst_paddr` on node
    /// 0 as one deliberate-update packet of `nic`.
    fn du_64_to_node0(nic: &Arc<Nic>, proc_: &UserProc, dst_paddr: u64) {
        let va = proc_.alloc(PAGE_SIZE, CacheMode::WriteBack);
        proc_.poke(va, &[9u8; 64]).unwrap();
        let (src, _) = proc_.aspace().translate(va, false).unwrap();
        let req = DuRequest {
            src,
            dst_node: NodeId(0),
            dst_paddr,
            len: 64,
            interrupt: false,
            msg: shrimp_obs::MsgId::NONE,
        };
        nic.du_transfer(req, |_| {});
    }

    /// One incoming DMA engine, one stall rule: a `Data` packet and a
    /// `FetchReply` chunk that arrive inside an injected stall window
    /// both start their deposit the instant it ends, in arrival order.
    #[test]
    fn dma_stall_holds_data_and_fetch_replies_alike_in_arrival_order() {
        for reply_first in [false, true] {
            let rec = shrimp_obs::Recorder::new();
            let _observed = rec.install();
            let r = rig(2);
            let window = SimDur::from_us(300.0);
            r.nics[0].stall_incoming_dma(SimTime::ZERO, window);
            // Node 0 reads 64 bytes from node 1 while node 1 writes 64
            // bytes into another page of node 0.
            let src = export_read_page(&r, 1, &[7u8; 64]);
            let (read_va, read_pa) = reply_page(&r, 0);
            let (written_va, written_pa) = reply_page(&r, 0);
            let entry = IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            };
            r.nics[0].ipt().set(written_pa / PAGE_SIZE as u64, entry);
            let fetched = fetch_into(&r, src, read_pa, 64);
            // A deliberate update crosses the mesh once, a fetch twice:
            // started together the data packet arrives first, started
            // 100 us late it arrives second.
            let (nic1, p1) = (Arc::clone(&r.nics[1]), r.procs[1].clone());
            let write = move || du_64_to_node0(&nic1, &p1, written_pa);
            let delay = if reply_first { 100.0 } else { 0.0 };
            r.kernel.handle().schedule_in(SimDur::from_us(delay), write);
            r.kernel.run_until_quiescent().unwrap();

            let deposits = deposits(&rec);
            let released: Vec<_> = deposits.iter().map(|d| (d.0, d.1)).collect();
            let held_until = SimTime::ZERO + window;
            let mut want = [("dma_write", held_until), ("fetch_deposit", held_until)];
            if reply_first {
                want.reverse();
            }
            assert_eq!(released, want);
            // Released together, the second queues for the bus until the
            // first's transfer is done: that wait is not deposit time.
            assert_eq!(deposits[0].2, held_until, "the first deposits at once");
            assert!(deposits[1].2 > held_until, "the second waits for the bus");
            assert_eq!(
                deposits[1].3 - deposits[1].2,
                deposits[0].3 - deposits[0].2,
                "equal packets deposit for equal times once granted"
            );
            assert!(
                fetched.lock().is_some(),
                "the held reply completes the fetch"
            );
            assert_eq!(r.procs[0].peek(read_va, 64).unwrap(), [7u8; 64]);
            assert_eq!(r.procs[0].peek(written_va, 64).unwrap(), [9u8; 64]);
        }
    }

    /// The fetch engine is a separate datapath (see `on_incoming`): a
    /// reply that arrives while the receive datapath is frozen does not
    /// queue behind the freeze — it deposits and completes its fetch.
    #[test]
    fn fetch_reply_deposits_while_the_receive_datapath_is_frozen() {
        let r = rig(2);
        // A data packet for a page node 0 never enabled freezes it.
        let (_, disabled_pa) = reply_page(&r, 0);
        du_64_to_node0(&r.nics[1], &r.procs[1], disabled_pa);
        r.kernel.run_until_quiescent().unwrap();
        assert!(r.nics[0].is_frozen());

        let src = export_read_page(&r, 1, &[5u8; 64]);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let fetched = fetch_into(&r, src, dst_pa, 64);
        r.kernel.run_until_quiescent().unwrap();
        assert!(fetched.lock().is_some(), "fetch completed under the freeze");
        assert_eq!(r.procs[0].peek(dst_va, 64).unwrap(), [5u8; 64]);
        let st = r.nics[0].stats();
        assert_eq!((st.fetch_replies_in, st.packets_in), (1, 0));
        assert!(r.nics[0].is_frozen(), "the data packet is still held");
    }

    #[test]
    fn fetch_engine_stall_delays_reply() {
        let r = rig(2);
        let src = export_read_page(&r, 1, &[3u8; 64]);
        r.nics[1].stall_fetch_engine(SimTime::ZERO, SimDur::from_us(150.0));
        let (_, dst_pa) = reply_page(&r, 0);
        // Two requests queue behind the stall; both replies are held,
        // and leave in request order once it passes.
        let first = fetch_into(&r, src, dst_pa, 64);
        let second = fetch_into(&r, src, dst_pa + 64, 64);
        r.kernel.run_until_quiescent().unwrap();
        let t = first.lock().expect("fetch still completes");
        assert!(
            t >= SimTime::ZERO + SimDur::from_us(150.0),
            "reply held by the stall window: {t}"
        );
        assert!(second.lock().expect("queued fetch completes") > t);
        assert_eq!(r.nics[1].stats().fetch_queue_peak, 2);
    }

    #[test]
    fn multi_packet_fetch_overlaps_source_read_with_reply_deposit() {
        // One piece: nothing to overlap, so the completion instant is
        // exactly what the one-shot source read gave. Several pieces:
        // each is read while the one before deposits, so the read lands
        // sooner than it did as one piece (`one_shot_ps`, the instants a
        // 512 B and a 1 KiB read took when each was sent whole).
        for (len, one_shot_ps, piecewise_ps) in [
            (64, 9_310_955, 9_310_955),
            (512, 41_737_621, 29_743_337),
            (1024, 78_796_669, 50_860_005),
        ] {
            let r = rig(2);
            let src = export_read_page(&r, 1, &[5u8; PAGE_SIZE]);
            let (_, dst_pa) = reply_page(&r, 0);
            let done_at = fetch_into(&r, src, dst_pa, len);
            r.kernel.run_until_quiescent().unwrap();
            let (done, one_shot) = (done_at.lock().unwrap(), SimTime(one_shot_ps));
            assert_eq!(done, SimTime(piecewise_ps), "{len} B fetch");
            match pieces(len, 0).len() {
                1 => assert_eq!(done, one_shot, "{len} B fetch"),
                _ => assert!(
                    done < one_shot,
                    "{len} B fetch at {done}, whole at {one_shot}"
                ),
            }
        }
        // A page: each piece is read while the one before is on the wire
        // and depositing, so the page arrives sooner than its source DMA
        // and its deposit DMA laid end to end.
        let r = rig(2);
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 247) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let done_at = fetch_into(&r, src, dst_pa, PAGE_SIZE);
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.procs[0].peek(dst_va, PAGE_SIZE).unwrap(), data);

        let serial = rig(1);
        let both = Arc::new(Mutex::new(None));
        let b = Arc::clone(&both);
        let node = Arc::clone(serial.nics[0].node());
        let n2 = Arc::clone(&node);
        node.dma_read(PAddr(0), PAGE_SIZE, move |_, page| {
            n2.dma_write(PAddr(PAGE_SIZE as u64), page, move |_, t| {
                *b.lock() = Some(t)
            });
        });
        serial.kernel.run_until_quiescent().unwrap();
        let (fetched, in_series) = (done_at.lock().unwrap(), both.lock().unwrap());
        assert!(
            fetched < in_series,
            "4 KiB fetch at {fetched}, read + deposit in series {in_series}"
        );
    }

    #[test]
    fn a_page_fetch_streams_shrinking_pieces_each_deposited_under_the_next_read() {
        // The responder reads the pieces `fetch_piece` cuts back to
        // back; each piece deposits after its own read and while the
        // next is read, so the page lands a small last piece's wire time
        // and deposit after the last read — less than one read of the
        // first piece, where a fixed piece would leave a whole one.
        let rec = shrimp_obs::Recorder::new();
        let _observed = rec.install();
        let r = rig(2);
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 239) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let done_at = fetch_into(&r, src, dst_pa, PAGE_SIZE);
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.procs[0].peek(dst_va, PAGE_SIZE).unwrap(), data);
        let want: Vec<usize> = pieces(PAGE_SIZE, 0).into_iter().map(|p| p.1).collect();
        assert_eq!(r.nics[1].stats().fetch_replies_out, want.len() as u64);
        assert_eq!(r.nics[0].stats().fetch_replies_in, want.len() as u64);

        let reads: Vec<(SimTime, SimTime, usize)> = rec
            .spans()
            .into_iter()
            .filter(|s| s.name == "fetch_read")
            .map(|s| (s.start, s.end, s.bytes))
            .collect();
        // Each piece by the instant it was released to the DMA engine.
        let deposits: Vec<_> = deposits(&rec)
            .into_iter()
            .map(|d| (d.1, d.3, d.4))
            .collect();
        let sizes =
            |spans: &[(SimTime, SimTime, usize)]| spans.iter().map(|s| s.2).collect::<Vec<_>>();
        assert_eq!(sizes(&reads), want);
        assert_eq!(sizes(&deposits), want);
        let last = want.len() - 1;
        for k in 0..=last {
            assert!(
                deposits[k].0 > reads[k].1,
                "piece {k} deposits after its read"
            );
            if k < last {
                assert_eq!(
                    reads[k + 1].0,
                    reads[k].1,
                    "read {} starts as {k} ends",
                    k + 1
                );
                assert!(deposits[k].1 < deposits[k + 1].1, "piece {k} lands first");
                assert!(
                    deposits[k].0 < reads[k + 1].1,
                    "piece {k} deposits from {} before piece {} is read at {}",
                    deposits[k].0,
                    k + 1,
                    reads[k + 1].1
                );
            }
        }
        let done = done_at.lock().unwrap();
        assert_eq!(done, deposits[last].1, "done on the last deposit");
        assert!(
            done - reads[last].1 < reads[0].1 - reads[0].0,
            "fill {:?} after the last read",
            done - reads[last].1
        );
    }

    #[test]
    fn a_fetch_held_between_pieces_completes_on_its_last_deposit() {
        // A requester DMA stall opens while the first piece deposits
        // (from 23.3 to 41.7 µs) and holds every other piece, which all
        // arrive inside it. The fetch completes when the last held
        // piece is in memory, not on the first deposit after the last
        // piece's arrival.
        let rec = shrimp_obs::Recorder::new();
        let _observed = rec.install();
        let r = rig(2);
        let from = SimTime::ZERO + SimDur::from_us(30.0);
        let window = SimDur::from_us(200.0);
        r.nics[0].stall_incoming_dma(from, window);
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 233) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let landed = Arc::new(Mutex::new(None));
        let (l, p0) = (Arc::clone(&landed), r.procs[0].clone());
        r.nics[0].fetch(
            FetchRequest {
                src_node: NodeId(1),
                src_paddr: src,
                len: PAGE_SIZE,
                dst_paddr: dst_pa,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |res| *l.lock() = Some((res, p0.peek(dst_va, PAGE_SIZE).unwrap())),
        );
        r.kernel.run_until_quiescent().unwrap();

        let deposits = deposits(&rec);
        let starts: Vec<_> = deposits.iter().map(|d| d.1).collect();
        assert!(
            starts[0] < from,
            "the first piece deposits before the stall"
        );
        let held = pieces(PAGE_SIZE, 0).len() - 1;
        assert_eq!(starts[1..], vec![from + window; held], "the rest are held");
        // Released at once, they take the bus one after another.
        for w in deposits[1..].windows(2) {
            assert!(w[1].2 > w[0].2, "each held piece waits for the one before");
        }
        let (res, seen) = landed.lock().take().expect("fetch completed");
        assert_eq!(res, Ok(deposits[held].3), "done on the last deposit");
        assert_eq!(seen, data, "every piece was in memory at completion");
    }

    #[test]
    fn concurrent_fetch_replies_stream_in_request_order() {
        // Two page fetches outstanding at once: the responder engine
        // serves them one after the other, so the requester sees each
        // fetch's pieces together and in order — never interleaved.
        let r = rig(2);
        let src = export_read_page(&r, 1, &[9u8; PAGE_SIZE]);
        let (_, dst_a) = reply_page(&r, 0);
        let (_, dst_b) = reply_page(&r, 0);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (s, nic0) = (Arc::clone(&seen), Arc::clone(&r.nics[0]));
        r.net.attach(NodeId(0), move |d| {
            if let PacketKind::FetchReply { fetch, offset, .. } = d.payload.kind {
                s.lock().push((fetch, offset));
            }
            nic0.on_incoming(d);
        });
        let a = fetch_into(&r, src, dst_a, PAGE_SIZE);
        let b = fetch_into(&r, src, dst_b, PAGE_SIZE);
        r.kernel.run_until_quiescent().unwrap();
        // The first job's pieces are cut with the second queued behind
        // it, the second's with nothing behind.
        let offsets = |fetch, queued| {
            pieces(PAGE_SIZE, queued)
                .into_iter()
                .map(move |p| (fetch, p.0))
        };
        let want: Vec<_> = offsets(1, PAGE_SIZE).chain(offsets(2, 0)).collect();
        assert_eq!(*seen.lock(), want);
        assert!(a.lock().unwrap() < b.lock().unwrap());
        assert_eq!(r.nics[1].stats().fetch_queue_peak, 2);
        assert_eq!(r.nics[0].in_flight() + r.nics[1].in_flight(), 0);
    }

    #[test]
    fn du_packet_instants_are_unmoved_by_the_shared_piece_loop() {
        // 2 pages + 400 B to a destination 1000 B into a page: five
        // packets cut at payload and page ends. Instants recorded from
        // the engine before it also served fetch replies.
        let r = rig(2);
        let src_va = r.procs[0].alloc(3 * PAGE_SIZE, CacheMode::WriteBack);
        let dst_va = r.procs[1].alloc(3 * PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        let (dst_pa, _) = r.procs[1].aspace().translate(dst_va, true).unwrap();
        for p in 0..3 {
            r.nics[1].ipt().set(
                dst_pa.page() + p,
                IptEntry {
                    enabled: true,
                    interrupt: false,
                    read: false,
                },
            );
        }
        let landed = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&landed);
        r.nics[1].set_delivery_hook(move |_p, at| l.lock().push(at.0));
        let done = Arc::new(Mutex::new(None));
        let d = Arc::clone(&done);
        r.nics[0].du_transfer(
            DuRequest {
                src: src_pa,
                dst_node: NodeId(1),
                dst_paddr: dst_pa.0 + 1000,
                len: 2 * PAGE_SIZE + 400,
                interrupt: false,
                msg: shrimp_obs::MsgId::NONE,
            },
            move |t| *d.lock() = Some(t.0),
        );
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(*done.lock(), Some(294_250_002));
        assert_eq!(
            *landed.lock(),
            [
                152_581_906,
                187_665_240,
                258_481_907,
                328_098_574,
                374_915_241
            ]
        );
    }

    #[test]
    fn responder_queue_depth_peaks_under_stall() {
        // Three fetches land while the responder engine is stalled:
        // they must queue, and the peak counter (plus the obs depth
        // instants) must expose the backlog.
        let rec = shrimp_obs::Recorder::new();
        let _observed = rec.install();
        let r = rig(2);
        let src = export_read_page(&r, 1, &[7u8; 64]);
        r.nics[1].stall_fetch_engine(SimTime::ZERO, SimDur::from_us(400.0));
        let (_, dst_pa) = reply_page(&r, 0);
        let done = Arc::new(Mutex::new(0usize));
        for i in 0..3 {
            let d = Arc::clone(&done);
            r.nics[0].fetch(
                FetchRequest {
                    src_node: NodeId(1),
                    src_paddr: src,
                    len: 64,
                    dst_paddr: dst_pa + (i * 64) as u64,
                    msg: shrimp_obs::MsgId::NONE,
                },
                move |_| *d.lock() += 1,
            );
        }
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(*done.lock(), 3);
        let peak = r.nics[1].stats().fetch_queue_peak;
        assert_eq!(peak, 3, "all three requests back up behind the stall");
        let depths: Vec<u64> = rec
            .instants()
            .iter()
            .filter_map(|i| i.label.strip_prefix("fetch_queue_depth=")?.parse().ok())
            .collect();
        assert_eq!(depths.len(), 6, "one instant per accept and per drain");
        assert_eq!(depths.iter().copied().max(), Some(peak));
        assert_eq!(*depths.last().unwrap(), 0, "queue drains to empty");
    }

    #[test]
    fn du_after_au_write_keeps_fifo_order() {
        // An AU write held open by the combine timer must be flushed
        // ahead of a subsequent deliberate update (FIFO outgoing order).
        let r = rig(2);
        let (send_va, recv_va) = bind_one_page(&r, 0, 1, true);
        let src_va = r.procs[0].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let dst_va = r.procs[1].alloc(PAGE_SIZE, CacheMode::WriteBack);
        let (src_pa, _) = r.procs[0].aspace().translate(src_va, false).unwrap();
        let (dst_pa, _) = r.procs[1].aspace().translate(dst_va, true).unwrap();
        r.nics[1].ipt().set(
            dst_pa.page(),
            IptEntry {
                enabled: true,
                interrupt: false,
                read: false,
            },
        );
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let order = Arc::clone(&order);
            let recv_page = {
                let (recv_pa, _) = r.procs[1].aspace().translate(recv_va, false).unwrap();
                recv_pa.page()
            };
            let du_page = dst_pa.page();
            r.nics[1].set_delivery_hook(move |ppage, _| {
                if ppage == recv_page {
                    order.lock().push("au");
                } else if ppage == du_page {
                    order.lock().push("du");
                }
            });
        }
        let p0 = r.procs[0].clone();
        let nic0 = Arc::clone(&r.nics[0]);
        r.kernel.spawn("writer", move |ctx| {
            // AU write held in the combining buffer...
            p0.write_u32(ctx, send_va, 99).unwrap();
            // ...then immediately a DU transfer (before the combine timer).
            nic0.du_transfer(
                DuRequest {
                    src: src_pa,
                    dst_node: NodeId(1),
                    dst_paddr: dst_pa.0,
                    len: 4,
                    interrupt: false,
                    msg: shrimp_obs::MsgId::NONE,
                },
                |_| {},
            );
        });
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(*order.lock(), vec!["au", "du"]);
    }
}
