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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;
use shrimp_mesh::{Backplane, Delivery, NodeId};
use shrimp_node::{Interrupt, Node, PAddr, SnoopWrite, PAGE_SIZE};
use shrimp_sim::{SimBuf, SimDur, SimTime, StallWindows};

use crate::packetizer::{OutPacket, OutWrite, Packetizer};
use crate::tables::{IncomingPageTable, OutgoingPageTable};
#[cfg(test)]
use crate::tables::{IptEntry, OptEntry};

/// Interrupt vector: a notification packet landed (info = physical page).
pub const IRQ_NOTIFICATION: u32 = 1;
/// Interrupt vector: the receive datapath froze on a disabled page
/// (info = physical page).
pub const IRQ_RECV_FREEZE: u32 = 2;

/// Largest piece of a fetch reply: the responder's engine reads one
/// piece over its EISA bus while the requester's deposits the one
/// before, so a fetch takes the sum of its piece reads, plus one piece's
/// wire time, plus one deposit (the two buses run at the same rate).
/// The last term is the pipeline's fill, and each extra piece costs
/// `dma_setup` + `eisa_per_txn` = 1.35 µs at each end. Quarter-page
/// pieces cut a page's fill from 69.6 µs (a 2 KiB packet payload) to
/// 35.5 µs for two extra set-ups. 512 B pieces would save more on one
/// page (173.7 µs, not 188.2), but two set-ups per KiB push a 64 KiB
/// fetch to 2 383.7 µs, past the 2 330.0 µs deliberate update that
/// deposits the same bytes — so 1 KiB is the smallest piece that keeps
/// a large read at deposit bandwidth. Deliberate updates keep the full
/// packet payload the paper's curves are calibrated on.
const FETCH_PIECE: usize = PAGE_SIZE / 4;

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

type DeliveryHook = Arc<dyn Fn(u64, SimTime) + Send + Sync>;

/// Requester callback run when a fetch completes or is NAKed.
type FetchDone = Box<dyn FnOnce(Result<SimTime, NakReason>) + Send>;

/// How the incoming DMA engine books a deposit: the name of its
/// `Deposit` span and the packet counter it bumps.
type DepositClass = (&'static str, fn(&mut NicStats) -> &mut u64);
const DATA: DepositClass = ("dma_write", |st| &mut st.packets_in);
const REPLY: DepositClass = ("fetch_deposit", |st| &mut st.fetch_replies_in);

struct FreezeState {
    frozen: bool,
    pending: VecDeque<NicPacket>,
}

/// Requester-side state for one in-flight fetch. Lives from issue until
/// the final reply chunk's DMA completes (or a NAK arrives); the reply
/// deposit address lives here and never crosses the wire.
struct PendingFetch {
    dst_paddr: u64,
    expect: usize,
    received: usize,
    /// Reply-chunk DMAs accepted but not yet completed.
    outstanding: u64,
    saw_last: bool,
    done: Option<FetchDone>,
}

/// The network interface of one node. Construct with [`Nic::install`],
/// which wires the snoop hook and the backplane sink.
pub struct Nic {
    node: Arc<Node>,
    net: Arc<Backplane<NicPacket>>,
    opt: OutgoingPageTable,
    ipt: IncomingPageTable,
    pktz: Mutex<Packetizer>,
    freeze: Mutex<FreezeState>,
    delivery_hook: Mutex<Option<DeliveryHook>>,
    /// Mirrors `delivery_hook.is_some()`; lets the per-packet DMA
    /// completion skip the lock + `Arc` clone when no hook is installed.
    has_delivery_hook: std::sync::atomic::AtomicBool,
    stats: Mutex<NicStats>,
    pending_recv_dma: AtomicU64,
    /// Outgoing-FIFO sequencer: no packet may be injected earlier than a
    /// previously enqueued one, whatever its datapath's processing lead.
    out_tail: Mutex<SimTime>,
    /// Injected incoming-DMA stall windows (see `shrimp_sim::faults`):
    /// the DMA engine holds accepted packets until the window passes.
    recv_stall: Mutex<StallWindows>,
    /// Requester-side fetch engine: in-flight fetches by id.
    fetches: Mutex<HashMap<u64, PendingFetch>>,
    /// Fetch id allocator.
    next_fetch: AtomicU64,
    /// Responder-side reply jobs accepted but not yet fully read out of
    /// memory, in arrival order: (release instant, job, fetch id). The
    /// head is the one the deliberate-update engine is working on.
    fetch_jobs: Mutex<VecDeque<(SimTime, DuRequest, u64)>>,
    /// Whether the local VMMC daemon is down. The fetch engine NAKs
    /// every request while set: validation needs the daemon's mappings.
    daemon_down: AtomicBool,
    /// Injected fetch-engine stall windows: the responder holds accepted
    /// fetch requests (post-IPT-check) until the window passes, stalling
    /// the reply stream.
    fetch_stall: Mutex<StallWindows>,
    /// Observability hook: when attached, the outgoing datapath records
    /// packetize/FIFO spans and the incoming datapath records
    /// IPT-check and deposit spans, all tagged with the packet's
    /// causal message id.
    obs: shrimp_obs::ObsSlot,
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
    pub fn install(node: Arc<Node>, net: Arc<Backplane<NicPacket>>) -> Arc<Nic> {
        let max_payload = node
            .costs()
            .au_combine_limit
            .min(node.costs().max_packet_payload);
        let nic = Arc::new(Nic {
            node: Arc::clone(&node),
            net: Arc::clone(&net),
            opt: OutgoingPageTable::new(),
            ipt: IncomingPageTable::new(),
            pktz: Mutex::new(Packetizer::new(max_payload, PAGE_SIZE as u64)),
            freeze: Mutex::new(FreezeState {
                frozen: false,
                pending: VecDeque::new(),
            }),
            delivery_hook: Mutex::new(None),
            has_delivery_hook: std::sync::atomic::AtomicBool::new(false),
            stats: Mutex::new(NicStats::default()),
            pending_recv_dma: AtomicU64::new(0),
            out_tail: Mutex::new(SimTime::ZERO),
            recv_stall: Mutex::new(StallWindows::new()),
            fetches: Mutex::new(HashMap::new()),
            next_fetch: AtomicU64::new(1),
            fetch_jobs: Mutex::new(VecDeque::new()),
            daemon_down: AtomicBool::new(false),
            fetch_stall: Mutex::new(StallWindows::new()),
            obs: shrimp_obs::ObsSlot::new(),
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
    pub fn set_delivery_hook(&self, hook: impl Fn(u64, SimTime) + Send + Sync + 'static) {
        *self.delivery_hook.lock() = Some(Arc::new(hook));
        self.has_delivery_hook.store(true, Ordering::SeqCst);
    }

    /// Traffic counters.
    pub fn stats(&self) -> NicStats {
        *self.stats.lock()
    }

    /// Attach (or detach) an observability recorder (see `shrimp_obs`).
    pub fn set_obs(&self, rec: Option<Arc<shrimp_obs::Recorder>>) {
        self.obs.set(rec);
    }

    /// Allocate a causal message id from the attached recorder, or
    /// [`shrimp_obs::MsgId::NONE`] on the disabled fast path. The VMMC
    /// send syscall calls this so the id exists before the first packet.
    pub fn alloc_msg(&self) -> shrimp_obs::MsgId {
        match self.obs.get() {
            Some(rec) => rec.alloc_msg(),
            None => shrimp_obs::MsgId::NONE,
        }
    }

    /// Record one span of this node's datapath on the attached recorder
    /// (nothing on the disabled fast path).
    fn span(
        &self,
        msg: shrimp_obs::MsgId,
        layer: shrimp_obs::Layer,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        bytes: usize,
    ) {
        if let Some(rec) = self.obs.get() {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: self.node.id().0,
                layer,
                name,
                start,
                end,
                bytes,
            });
        }
    }

    // ------------------------------------------------------------------
    // Outgoing: automatic update
    // ------------------------------------------------------------------

    fn on_snoop(self: &Arc<Self>, w: SnoopWrite) {
        let entry = match self.opt.lookup(w.paddr.page()) {
            Some(e) => e,
            None => return, // write to an unbound page: not our traffic
        };
        let dst_paddr = entry.dst_ppage * PAGE_SIZE as u64 + w.paddr.offset() as u64;
        let mut data = vec![0u8; w.len];
        self.node.mem().read(w.paddr, &mut data);

        let costs = self.node.costs();
        // Automatic updates have no send syscall: each snooped write run
        // becomes its own causal message (combining keeps the first).
        let msg = self.alloc_msg();
        let flushed = {
            let mut p = self.pktz.lock();
            p.push(OutWrite {
                dst_node: entry.dst_node,
                dst_paddr,
                data: data.into(),
                interrupt: entry.dst_interrupt,
                combine: entry.combine,
                at: w.at,
                msg,
            })
        };
        let lead = costs.nic_snoop + costs.nic_packetize;
        for pkt in flushed {
            self.schedule_inject(lead, pkt, PacketKind::Data, true);
        }
        self.arm_combine_timer();
    }

    /// Arm (or re-arm) the combine timer for the currently open packet.
    fn arm_combine_timer(self: &Arc<Self>) {
        let (gen, deadline) = {
            let p = self.pktz.lock();
            match p.open_last_write_at() {
                None => return,
                Some(at) => (p.generation(), at + self.node.costs().au_combine_timeout),
            }
        };
        let me = Arc::clone(self);
        self.node.sim().schedule_at(deadline, move || {
            let pkt = {
                let mut p = me.pktz.lock();
                if p.generation() != gen {
                    return; // extended or flushed since: stale timer
                }
                p.flush()
            };
            if let Some(pkt) = pkt {
                let costs = me.node.costs();
                me.schedule_inject(
                    costs.nic_snoop + costs.nic_packetize,
                    pkt,
                    PacketKind::Data,
                    true,
                );
            }
        });
    }

    /// Close any held combining packet immediately (ordering flushes and
    /// unbind paths).
    pub fn flush_combining(self: &Arc<Self>) {
        let pkt = self.pktz.lock().flush();
        if let Some(pkt) = pkt {
            self.schedule_inject(self.node.costs().nic_packetize, pkt, PacketKind::Data, true);
        }
    }

    /// Sequence a packet into the outgoing FIFO no earlier than `after`
    /// from now and record its `NicOut` span; returns the injection
    /// instant. A packet never departs before one enqueued earlier, even
    /// when its datapath has a shorter processing lead (ties run in
    /// enqueue order).
    fn enter_out_fifo(
        &self,
        after: SimDur,
        msg: shrimp_obs::MsgId,
        name: &'static str,
        bytes: usize,
    ) -> SimTime {
        let now = self.node.sim().now();
        let at = {
            let mut tail = self.out_tail.lock();
            let at = (now + after).max(*tail);
            *tail = at;
            at
        };
        self.span(msg, shrimp_obs::Layer::NicOut, name, now, at, bytes);
        at
    }

    /// Inject a data-carrying packet through the outgoing FIFO. `kind`
    /// is the header it leaves with: `Data` for an automatic (`is_au`)
    /// or deliberate update, `FetchReply` for a piece the engine read on
    /// behalf of a remote requester.
    fn schedule_inject(
        self: &Arc<Self>,
        after: SimDur,
        pkt: OutPacket,
        kind: PacketKind,
        is_au: bool,
    ) {
        let name = {
            let mut st = self.stats.lock();
            st.bytes_out += pkt.data.len() as u64;
            match kind {
                PacketKind::FetchReply { .. } => {
                    st.fetch_replies_out += 1;
                    "fetch_reply"
                }
                _ if is_au => {
                    st.au_packets_out += 1;
                    "au_packetize"
                }
                _ => {
                    st.du_packets_out += 1;
                    "du_packetize"
                }
            }
        };
        let at = self.enter_out_fifo(after, pkt.msg, name, pkt.data.len());
        let me = Arc::clone(self);
        self.node.sim().schedule_at(at, move || {
            let bytes = pkt.data.len();
            me.net.inject_msg(
                me.node.id(),
                pkt.dst_node,
                bytes,
                NicPacket {
                    dst_paddr: pkt.dst_paddr,
                    data: pkt.data,
                    interrupt: pkt.interrupt,
                    kind,
                    msg: pkt.msg,
                },
                pkt.msg,
            );
        });
    }

    // ------------------------------------------------------------------
    // Outgoing: deliberate update
    // ------------------------------------------------------------------

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
        // FIFO ordering with any held automatic-update packet.
        self.flush_combining();
        let me = Arc::clone(self);
        let setup = self.node.costs().du_engine_setup;
        self.node.sim().schedule_in(setup, move || {
            me.du_chunk(req, None, 0, Box::new(done));
        });
    }

    /// The engine's piece loop, shared by deliberate updates and fetch
    /// replies: DMA one piece out of main memory, hand it to the
    /// outgoing FIFO, start on the next piece. The two job kinds differ
    /// in the header a piece leaves with — `reply` names the fetch a
    /// reply job answers, and such a job's `req.dst_paddr` is 0 because
    /// the *requester* holds the deposit address — and in where a piece
    /// is cut: a deliberate update at the packet payload, a reply at
    /// [`FETCH_PIECE`]. `done` fires when the last piece has been read.
    fn du_chunk(
        self: &Arc<Self>,
        req: DuRequest,
        reply: Option<u64>,
        off: usize,
        done: Box<dyn FnOnce(SimTime) + Send>,
    ) {
        let addr = req.dst_paddr + off as u64;
        let to_page_end = (PAGE_SIZE as u64 - addr % PAGE_SIZE as u64) as usize;
        let payload = self.node.costs().max_packet_payload;
        let cut = match reply {
            None => payload,
            Some(_) => FETCH_PIECE.min(payload),
        };
        let n = (req.len - off).min(cut).min(to_page_end);
        let me = Arc::clone(self);
        let start = self.node.sim().now();
        self.node
            .dma_read(PAddr(req.src.0 + off as u64), n, move |t, data| {
                let is_last = off + n == req.len;
                let kind = match reply {
                    None => PacketKind::Data,
                    Some(fetch) => {
                        me.span(req.msg, shrimp_obs::Layer::NicIn, "fetch_read", start, t, n);
                        PacketKind::FetchReply {
                            fetch,
                            offset: off,
                            last: is_last,
                        }
                    }
                };
                let pkt = OutPacket {
                    dst_node: req.dst_node,
                    dst_paddr: addr,
                    data: data.into(),
                    // The destination interrupt rides on the final packet so
                    // the notification fires after all data has landed.
                    interrupt: req.interrupt && is_last,
                    msg: req.msg,
                };
                me.schedule_inject(me.node.costs().nic_packetize, pkt, kind, false);
                if is_last {
                    done(t);
                } else {
                    me.du_chunk(req, reply, off + n, done);
                }
            });
    }

    // ------------------------------------------------------------------
    // Incoming
    // ------------------------------------------------------------------

    fn on_incoming(self: &Arc<Self>, d: Delivery<NicPacket>) {
        let pkt = d.payload;
        match pkt.kind {
            PacketKind::Data => {
                {
                    let mut fz = self.freeze.lock();
                    if fz.frozen {
                        fz.pending.push_back(pkt);
                        return;
                    }
                }
                self.receive(pkt, false);
            }
            // The fetch engine is a separate datapath: requests do not
            // deposit (no IPT-freeze interaction) and replies land in a
            // region the local fetch engine validated at issue time, so
            // neither class queues behind a receive freeze.
            PacketKind::FetchReq(desc) => self.serve_fetch(desc, pkt.msg),
            PacketKind::FetchReply {
                fetch,
                offset,
                last,
            } => self.on_fetch_reply(fetch, offset, last, pkt.data, pkt.msg),
            PacketKind::FetchNak { fetch, reason } => self.on_fetch_nak(fetch, reason),
        }
    }

    /// The deposit path of a data packet: IPT check, deposit, then the
    /// notification interrupt and the delivery hook. A packet for a
    /// disabled page freezes the datapath instead and is held at the
    /// `front` or back of the pending queue; returns whether the packet
    /// was accepted.
    fn receive(self: &Arc<Self>, pkt: NicPacket, front: bool) -> bool {
        let ppage = pkt.dst_paddr / PAGE_SIZE as u64;
        debug_assert!(
            (pkt.dst_paddr + pkt.data.len() as u64 - 1) / PAGE_SIZE as u64 == ppage,
            "packet crosses a destination page"
        );
        if !self.ipt.get(ppage).enabled {
            self.freeze(ppage, Some((pkt, front)));
            return false;
        }
        self.pending_recv_dma.fetch_add(1, Ordering::SeqCst);
        let now = self.node.sim().now();
        let (want_irq, msg, bytes) = (pkt.interrupt, pkt.msg, pkt.data.len());
        let check = Some(self.node.costs().nic_ipt_check);
        let at = self.deposit(check, pkt.dst_paddr, pkt.data, msg, DATA, move |me, t| {
            if want_irq && me.ipt.get(ppage).interrupt {
                me.node.raise_interrupt(Interrupt {
                    vector: IRQ_NOTIFICATION,
                    info: ppage,
                });
            }
            me.pending_recv_dma.fetch_sub(1, Ordering::SeqCst);
            if me.has_delivery_hook.load(Ordering::Relaxed) {
                // Clone out of the lock before calling: the hook may
                // re-enter the NIC (receiver wakeups can run inline).
                let hook = me.delivery_hook.lock().clone();
                if let Some(h) = hook {
                    h(ppage, t);
                }
            }
        });
        self.span(msg, shrimp_obs::Layer::NicIn, "ipt_check", now, at, bytes);
        true
    }

    /// The incoming DMA engine, the one way bytes from the network reach
    /// main memory: DMA `data` to `dst`, book it as `class` says and call
    /// `then` on this NIC with the completion time. A packet that came through the
    /// IPT-check stage leaves it `check` from now, by an event; one that
    /// bypasses it (`None`) starts its DMA at once. Either is held, in
    /// order, while an injected DMA stall lasts. Returns the DMA's start.
    fn deposit(
        self: &Arc<Self>,
        check: Option<SimDur>,
        dst: u64,
        data: SimBuf,
        msg: shrimp_obs::MsgId,
        (name, count): DepositClass,
        then: impl FnOnce(&Nic, SimTime) + Send + 'static,
    ) -> SimTime {
        let now = self.node.sim().now();
        let at = {
            let w = self.recv_stall.lock();
            w.release(now + check.unwrap_or(SimDur::ZERO))
        };
        let me = Arc::clone(self);
        let start = move || {
            let bytes = data.len();
            let me2 = Arc::clone(&me);
            me.node.dma_write(PAddr(dst), data, move |t| {
                {
                    let mut st = me2.stats.lock();
                    *count(&mut st) += 1;
                    st.bytes_in += bytes as u64;
                }
                me2.span(msg, shrimp_obs::Layer::Deposit, name, at, t, bytes);
                then(&me2, t);
            });
        };
        if check.is_some() || at > now {
            self.node.sim().schedule_at(at, start);
        } else {
            start();
        }
        at
    }

    /// Freeze the receive datapath on a protection fault at `ppage` and
    /// interrupt the CPU, holding the offending data packet (if the
    /// fault was a deposit) at the front or the back of the pending
    /// queue. A datapath that is already frozen takes no second count or
    /// interrupt: only the fetch responder can find it so, data packets
    /// queue in `on_incoming` while it is.
    fn freeze(&self, ppage: u64, held: Option<(NicPacket, bool)>) {
        {
            let mut fz = self.freeze.lock();
            match held {
                Some((pkt, true)) => fz.pending.push_front(pkt),
                Some((pkt, false)) => fz.pending.push_back(pkt),
                None => {}
            }
            if std::mem::replace(&mut fz.frozen, true) {
                return;
            }
            self.stats.lock().freezes += 1;
        }
        self.node.raise_interrupt(Interrupt {
            vector: IRQ_RECV_FREEZE,
            info: ppage,
        });
    }

    // ------------------------------------------------------------------
    // Remote fetch (one-sided read)
    // ------------------------------------------------------------------

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
        let fetch = self.next_fetch.fetch_add(1, Ordering::SeqCst);
        self.fetches.lock().insert(
            fetch,
            PendingFetch {
                dst_paddr: req.dst_paddr,
                expect: req.len,
                received: 0,
                outstanding: 0,
                saw_last: false,
                done: Some(Box::new(done)),
            },
        );
        self.stats.lock().fetch_reqs_out += 1;
        // FIFO ordering with any held automatic-update packet.
        self.flush_combining();
        let desc = FetchDesc {
            from: self.node.id(),
            fetch,
            src_paddr: req.src_paddr,
            len: req.len,
        };
        let me = Arc::clone(self);
        let setup = self.node.costs().fetch_engine_setup;
        let dst_node = req.src_node;
        let msg = req.msg;
        self.node.sim().schedule_in(setup, move || {
            let lead = me.node.costs().nic_packetize;
            me.inject_ctl(lead, dst_node, PacketKind::FetchReq(desc), msg, "fetch_req");
        });
    }

    /// Inject a header-only control packet (fetch request or NAK)
    /// through the outgoing FIFO.
    fn inject_ctl(
        self: &Arc<Self>,
        after: SimDur,
        dst_node: NodeId,
        kind: PacketKind,
        msg: shrimp_obs::MsgId,
        span: &'static str,
    ) {
        let at = self.enter_out_fifo(after, msg, span, 0);
        let me = Arc::clone(self);
        self.node.sim().schedule_at(at, move || {
            me.net.inject_ctl_msg(
                me.node.id(),
                dst_node,
                NicPacket {
                    dst_paddr: 0,
                    data: Vec::new().into(),
                    interrupt: false,
                    kind,
                    msg,
                },
                msg,
            );
        });
    }

    /// Responder datapath: validate an arriving fetch request against
    /// the incoming page table and either NAK it or queue its reply as a
    /// job of the deliberate-update engine.
    fn serve_fetch(self: &Arc<Self>, desc: FetchDesc, msg: shrimp_obs::MsgId) {
        self.stats.lock().fetch_reqs_in += 1;
        let check = self.node.costs().nic_ipt_check;
        let ppage = desc.src_paddr / PAGE_SIZE as u64;
        // The fetch path uses `lookup`, not `get`: an unmapped page is an
        // explicit protocol error, never a silent default entry.
        let reason = match self.ipt.lookup(ppage) {
            // Validation needs the daemon's mappings: refuse while it is down.
            _ if self.daemon_down.load(Ordering::SeqCst) => Some(NakReason::DaemonDown),
            None => Some(NakReason::Unmapped { ppage }),
            Some(e) if !e.enabled || !e.read => {
                // A read-exported page that is merely receive-disabled is
                // a protection fault the OS can repair: freeze and
                // interrupt exactly like the deposit path, so the daemon
                // re-validates the mapping while the requester retries on
                // the NAK. A page exported without read permission is
                // refused outright — no repair would grant it.
                if e.read && !e.enabled {
                    self.freeze(ppage, None);
                }
                Some(NakReason::Denied { ppage })
            }
            Some(_) => None,
        };
        if let Some(reason) = reason {
            self.stats.lock().fetch_denials += 1;
            self.inject_ctl(
                check,
                desc.from,
                PacketKind::FetchNak {
                    fetch: desc.fetch,
                    reason,
                },
                msg,
                "fetch_nak",
            );
            return;
        }
        // An injected fetch-engine stall holds the accepted request
        // (post-IPT-check) until the window passes, delaying the reply.
        let now = self.node.sim().now();
        let at = {
            let w = self.fetch_stall.lock();
            w.release(now + check)
        };
        self.span(
            msg,
            shrimp_obs::Layer::NicIn,
            "fetch_ipt_check",
            now,
            at,
            desc.len,
        );
        // The reply is a job of the deliberate-update engine: the source
        // range, sent to the requester, under the fetch's id.
        let job = DuRequest {
            src: PAddr(desc.src_paddr),
            dst_node: desc.from,
            dst_paddr: 0,
            len: desc.len,
            interrupt: false,
            msg,
        };
        let depth = {
            let mut q = self.fetch_jobs.lock();
            q.push_back((at, job, desc.fetch));
            q.len() as u64
        };
        {
            let mut st = self.stats.lock();
            st.fetch_queue_peak = st.fetch_queue_peak.max(depth);
        }
        self.note_fetch_queue_depth(depth);
        if depth == 1 {
            self.run_fetch_job();
        }
    }

    /// Start the reply job at the head of the responder queue once it is
    /// released. Jobs are served FIFO — the next one's first piece is
    /// read when this one's last piece has been — so the reply streams
    /// of concurrent requests never interleave and complete in request
    /// order at the requester.
    fn run_fetch_job(self: &Arc<Self>) {
        let Some(&(at, job, fetch)) = self.fetch_jobs.lock().front() else {
            return;
        };
        let me = Arc::clone(self);
        let start = move || {
            let me2 = Arc::clone(&me);
            let done = move |_| {
                let depth = {
                    let mut q = me2.fetch_jobs.lock();
                    q.pop_front();
                    q.len() as u64
                };
                me2.note_fetch_queue_depth(depth);
                me2.run_fetch_job();
            };
            me.du_chunk(job, Some(fetch), 0, Box::new(done));
        };
        if at > self.node.sim().now() {
            self.node.sim().schedule_at(at, start);
        } else {
            start();
        }
    }

    fn note_fetch_queue_depth(&self, depth: u64) {
        if let Some(rec) = self.obs.get() {
            rec.instant(
                self.node.sim().now(),
                Some(self.node.id().0),
                format!("fetch_queue_depth={depth}"),
            );
        }
    }

    /// Requester datapath: deposit one arriving reply chunk at the
    /// address recorded in the pending-fetch table.
    fn on_fetch_reply(
        self: &Arc<Self>,
        fetch: u64,
        offset: usize,
        last: bool,
        data: SimBuf,
        msg: shrimp_obs::MsgId,
    ) {
        let dst = {
            let mut g = self.fetches.lock();
            match g.get_mut(&fetch) {
                None => return, // fetch already failed; stale chunk
                Some(p) => {
                    p.outstanding += 1;
                    if last {
                        p.saw_last = true;
                    }
                    p.dst_paddr + offset as u64
                }
            }
        };
        // Reply deposits bypass the IPT check: the local fetch engine
        // validated and pinned the reply region at issue time. Injected
        // incoming-DMA stalls still apply.
        let bytes = data.len();
        self.deposit(None, dst, data, msg, REPLY, move |me, t| {
            me.finish_fetch_chunk(fetch, bytes, t)
        });
    }

    /// Book a completed reply-chunk DMA; completes the fetch when the
    /// final chunk has landed and no DMA is outstanding.
    fn finish_fetch_chunk(&self, fetch: u64, bytes: usize, t: SimTime) {
        let done = {
            let mut g = self.fetches.lock();
            let complete = match g.get_mut(&fetch) {
                None => return,
                Some(p) => {
                    p.outstanding -= 1;
                    p.received += bytes;
                    p.saw_last && p.outstanding == 0 && p.received == p.expect
                }
            };
            if complete {
                g.remove(&fetch).and_then(|mut p| p.done.take())
            } else {
                None
            }
        };
        if let Some(done) = done {
            done(Ok(t));
        }
    }

    /// Requester datapath: a typed NAK fails the whole fetch.
    fn on_fetch_nak(self: &Arc<Self>, fetch: u64, reason: NakReason) {
        self.stats.lock().fetch_naks_in += 1;
        let done = {
            let mut g = self.fetches.lock();
            g.remove(&fetch).and_then(|mut p| p.done.take())
        };
        if let Some(done) = done {
            done(Err(reason));
        }
    }

    /// Mark the local daemon down (or back up). While down, the fetch
    /// engine NAKs every arriving request with
    /// [`NakReason::DaemonDown`].
    pub fn set_daemon_down(&self, down: bool) {
        self.daemon_down.store(down, Ordering::SeqCst);
    }

    /// Whether the local daemon is marked down.
    pub fn is_daemon_down(&self) -> bool {
        self.daemon_down.load(Ordering::SeqCst)
    }

    /// Packets accepted by the incoming datapath whose DMA has not yet
    /// completed, plus any packet held open in the combining buffer,
    /// plus fetches in flight on either side. Zero means this NIC is
    /// quiescent; the VMMC unexport/unimport drain uses this.
    pub fn in_flight(&self) -> u64 {
        let open = if self.pktz.lock().has_open() { 1 } else { 0 };
        self.pending_recv_dma.load(Ordering::SeqCst)
            + open
            + self.fetches.lock().len() as u64
            + self.fetch_jobs.lock().len() as u64
    }

    /// Whether the receive datapath is frozen.
    pub fn is_frozen(&self) -> bool {
        self.freeze.lock().frozen
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks (see `shrimp_sim::faults`)
    // ------------------------------------------------------------------

    /// Fault hook: stall the incoming DMA engine for `dur` starting at
    /// `start`. Accepted packets are held (in order) until the window
    /// passes; nothing is dropped.
    pub fn stall_incoming_dma(&self, start: SimTime, dur: SimDur) {
        self.recv_stall.lock().add_stall(start, dur);
    }

    /// Fault hook: stall the responder-side fetch engine for `dur`
    /// starting at `start`. Accepted fetch requests are held (in order)
    /// until the window passes, so replies to remote requesters stall;
    /// nothing is dropped.
    pub fn stall_fetch_engine(&self, start: SimTime, dur: SimDur) {
        self.fetch_stall.lock().add_stall(start, dur);
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
        loop {
            let pkt = {
                let mut fz = self.freeze.lock();
                fz.frozen = false;
                match fz.pending.pop_front() {
                    None => return,
                    Some(p) => p,
                }
            };
            if !self.receive(pkt, true) {
                return;
            }
        }
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
        for i in 0..n_nodes {
            let node = Node::new(kernel.handle(), NodeId(i), 256, costs.clone());
            node.set_interrupt_hook(|_| {});
            nics.push(Nic::install(Arc::clone(&node), Arc::clone(&net)));
            procs.push(UserProc::new(node, format!("p{i}")));
        }
        Rig {
            kernel,
            net,
            nics,
            procs,
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
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        r.nics[1]
            .node()
            .set_interrupt_hook(move |irq| s.lock().push(irq.vector));
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
        assert_eq!(*seen.lock(), vec![IRQ_RECV_FREEZE]);
        assert_eq!(r.nics[1].stats().packets_in, 0);
    }

    #[test]
    fn unfreeze_after_enable_delivers_pending() {
        let r = rig(2);
        r.nics[1].node().set_interrupt_hook(|_| {});
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
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        r.nics[1]
            .node()
            .set_interrupt_hook(move |irq| s.lock().push((irq.vector, irq.info)));
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
        assert!(seen.lock().is_empty());

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
        assert_eq!(*seen.lock(), vec![(IRQ_NOTIFICATION, dst_pa.page())]);
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
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        r.nics[1]
            .node()
            .set_interrupt_hook(move |irq| s.lock().push(irq.vector));
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
        assert_eq!(*seen.lock(), vec![IRQ_RECV_FREEZE]);
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
        assert_eq!(st0.fetch_reqs_out, 1);
        assert_eq!(st0.fetch_replies_in, 1);
        let st1 = r.nics[1].stats();
        assert_eq!(st1.fetch_reqs_in, 1);
        assert_eq!(st1.fetch_replies_out, 1);
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
        let expected = PAGE_SIZE.div_ceil(FETCH_PIECE);
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
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        r.nics[1]
            .node()
            .set_interrupt_hook(move |irq| s.lock().push(irq.vector));
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
        assert_eq!(*seen.lock(), vec![IRQ_RECV_FREEZE]);
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
            let r = rig(2);
            let rec = shrimp_obs::Recorder::new();
            r.nics[0].set_obs(Some(Arc::clone(&rec)));
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

            let deposits: Vec<_> = rec
                .spans()
                .into_iter()
                .filter(|s| s.layer == shrimp_obs::Layer::Deposit)
                .map(|s| (s.name, s.start))
                .collect();
            let held_until = SimTime::ZERO + window;
            let mut want = [("dma_write", held_until), ("fetch_deposit", held_until)];
            if reply_first {
                want.reverse();
            }
            assert_eq!(deposits, want);
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
        // One piece or less: nothing to overlap, so the completion
        // instant is exactly what the one-shot source read gave.
        for (len, old_ps) in [
            (64, 9_310_955),
            (512, 41_737_621),
            (FETCH_PIECE, 78_796_669),
        ] {
            let r = rig(2);
            let src = export_read_page(&r, 1, &[5u8; PAGE_SIZE]);
            let (_, dst_pa) = reply_page(&r, 0);
            let done_at = fetch_into(&r, src, dst_pa, len);
            r.kernel.run_until_quiescent().unwrap();
            assert_eq!(done_at.lock().unwrap(), SimTime(old_ps), "{len} B fetch");
        }
        // Four pieces: each is read while the one before is on the wire
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
            n2.dma_write(PAddr(PAGE_SIZE as u64), page, move |t| *b.lock() = Some(t));
        });
        serial.kernel.run_until_quiescent().unwrap();
        let (fetched, in_series) = (done_at.lock().unwrap(), both.lock().unwrap());
        assert!(
            fetched < in_series,
            "4 KiB fetch at {fetched}, read + deposit in series {in_series}"
        );
    }

    #[test]
    fn a_page_fetch_is_four_pieces_each_deposited_under_the_next_read() {
        // The responder reads quarter-page pieces back to back; each
        // piece deposits while the next is read, so the page lands one
        // wire time and one deposit after the last read — the fill is a
        // quarter page, not the half page a 2 KiB packet would make it.
        let r = rig(2);
        let rec = shrimp_obs::Recorder::new();
        for nic in &r.nics {
            nic.set_obs(Some(Arc::clone(&rec)));
        }
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 239) as u8).collect();
        let src = export_read_page(&r, 1, &data);
        let (dst_va, dst_pa) = reply_page(&r, 0);
        let done_at = fetch_into(&r, src, dst_pa, PAGE_SIZE);
        r.kernel.run_until_quiescent().unwrap();
        assert_eq!(r.procs[0].peek(dst_va, PAGE_SIZE).unwrap(), data);
        assert_eq!(r.nics[1].stats().fetch_replies_out, 4);
        assert_eq!(r.nics[0].stats().fetch_replies_in, 4);

        let spans = |name| -> Vec<(SimTime, SimTime)> {
            let named = rec.spans().into_iter().filter(|s| s.name == name);
            named.map(|s| (s.start, s.end)).collect()
        };
        let (reads, deposits) = (spans("fetch_read"), spans("fetch_deposit"));
        assert_eq!((reads.len(), deposits.len()), (4, 4));
        // The two buses run at the same rate: every read and every
        // deposit of a piece takes one duration, and the reads abut.
        let piece = reads[0].1 - reads[0].0;
        for (&(start, end), k) in reads.iter().chain(&deposits).zip(0..) {
            assert_eq!(end - start, piece, "span {k}");
        }
        for k in 0..3 {
            assert_eq!(
                reads[k + 1].0,
                reads[k].1,
                "read {} starts as {k} ends",
                k + 1
            );
            assert!(
                deposits[k].0 < reads[k + 1].1,
                "piece {k} deposits from {} before piece {} is read at {}",
                deposits[k].0,
                k + 1,
                reads[k + 1].1
            );
        }
        let wire = deposits[0].0 - reads[0].1;
        assert_eq!(
            done_at.lock().unwrap(),
            reads[0].0 + piece * 4 + wire + piece
        );
    }

    #[test]
    fn a_fetch_held_between_pieces_completes_on_its_last_deposit() {
        // A requester DMA stall opens while the first piece deposits
        // and holds the other three, which all arrive inside it. The
        // fetch completes when the last held piece is in memory, not
        // on the first deposit after the last piece's arrival.
        let r = rig(2);
        let rec = shrimp_obs::Recorder::new();
        r.nics[0].set_obs(Some(Arc::clone(&rec)));
        let from = SimTime::ZERO + SimDur::from_us(60.0);
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

        let deposits: Vec<_> = rec
            .spans()
            .into_iter()
            .filter(|s| s.name == "fetch_deposit")
            .map(|s| (s.start, s.end))
            .collect();
        let starts: Vec<_> = deposits.iter().map(|d| d.0).collect();
        assert!(
            starts[0] < from,
            "the first piece deposits before the stall"
        );
        assert_eq!(starts[1..], [from + window; 3], "the rest are held");
        let (res, seen) = landed.lock().take().expect("fetch completed");
        assert_eq!(res, Ok(deposits[3].1), "done on the last deposit");
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
        let pieces = |fetch| {
            (0..PAGE_SIZE)
                .step_by(FETCH_PIECE)
                .map(move |off| (fetch, off))
        };
        let want: Vec<_> = pieces(1).chain(pieces(2)).collect();
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
        let r = rig(2);
        r.nics[1].set_obs(Some(Arc::clone(&rec)));
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
    fn du_after_au_write_is_not_reordered() {
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
