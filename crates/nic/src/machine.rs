//! Every decision of the NIC as one pure state machine.
//!
//! A [`NicMachine`] holds all the state the two datapaths of paper
//! Figure 2 decide with: the packetizer, the receive freeze and the
//! packets it holds, the outgoing FIFO's tail, the three engines' stall
//! windows, the requester's pending fetches, the responder's reply-job
//! queue, the traffic counters, the fetch-id counter, the daemon-down
//! flag and the count of accepted deposits not yet in memory. Its one
//! decision method, [`NicMachine::step`], takes a [`NicEvent`] at an
//! instant and appends the [`NicAction`]s it calls for. It takes no lock
//! and holds no node, backplane, kernel handle or recorder: what it needs
//! from the page tables (which the daemon shares) comes in with the
//! event, and the cost model is its own copy. A test builds one and
//! steps it with no kernel.
//!
//! `Nic` is its driver. It steps the machine under its one lock, drops
//! the lock, then carries the actions out in the order they came:
//! schedule an injection or a later event, start a DMA (the bus
//! reservation stays in `Node`), raise an interrupt, record a span, or
//! call back into the layer above — which may re-enter the NIC, so
//! nothing runs under the lock but the step.

use std::collections::{HashMap, VecDeque};

use shrimp_mesh::NodeId;
use shrimp_node::{CostModel, Interrupt, PAddr, PAGE_SIZE};
use shrimp_obs::{Layer, MsgId, SpanRec};
use shrimp_sim::{SimBuf, SimDur, SimTime, StallWindows};

use crate::nic::{
    DuRequest, FetchDesc, FetchRequest, NakReason, NicPacket, NicStats, PacketKind,
    IRQ_NOTIFICATION, IRQ_RECV_FREEZE,
};
use crate::packetizer::{OutPacket, OutWrite, Packetizer};
use crate::tables::IptEntry;

/// A send's completion, called with the instant its last piece was read.
pub(crate) type SendDone = Box<dyn FnOnce(SimTime) + Send>;
/// A fetch's completion, called with the instant its last reply piece
/// was in memory, or with the responder's refusal.
pub(crate) type FetchDone = Box<dyn FnOnce(Result<SimTime, NakReason>) + Send>;

/// The piece a fetch reply is cut to while the responder's engine still
/// has `to_read` bytes to read: its job's remainder plus every job
/// queued behind it. The engine reads one piece over its EISA bus while
/// the requester's deposits the one before, so `to_read` bytes in pieces
/// of `p` cost (`to_read`/`p` + 1) × (`s` + `p`/`rate`): every read, plus
/// one piece of pipeline fill, where `s` = `dma_setup` + `eisa_per_txn`
/// is what each piece pays at each end. That is least at
/// `p` = √(`to_read` × `rate` × `s`), taken here to the nearest power of
/// two on a log scale (a word multiple that tiles a page) and clamped to
/// [4, `max_packet_payload`]. Asked again before every piece, it cuts a
/// lone page at 512 B and shrinks toward the tail, a 64 KiB read at
/// 2 KiB, and sends a 64 B read whole. Deliberate updates keep the full
/// packet payload the paper's curves are calibrated on.
pub(crate) fn fetch_piece(to_read: usize, costs: &CostModel) -> usize {
    let setup = (costs.dma_setup + costs.eisa_per_txn).as_secs();
    let best = (to_read as f64 * costs.eisa_bytes_per_sec * setup).sqrt();
    let piece = best.log2().round().exp2();
    piece.clamp(4.0, costs.max_packet_payload as f64) as usize
}

/// One of the three engines a fault can stall: an index into
/// `NicMachine::stalls`.
pub(crate) enum Engine {
    /// The incoming DMA engine: accepted packets wait, in order.
    Deposit,
    /// The outgoing DMA engine: no source read starts in the window.
    SourceRead,
    /// The responder's fetch engine: accepted requests wait, in order.
    Fetch,
}

/// A job of the engine's piece loop at byte `off` of `req`.
pub(crate) struct Piece {
    req: DuRequest,
    job: Job,
    off: usize,
}

/// The two kinds of engine job: they differ in the header a piece
/// leaves with, where a piece is cut and what the last piece finishes.
enum Job {
    /// A deliberate update, and its completion.
    Send(SendDone),
    /// The reply to fetch `.0`, the head of the reply-job queue. Its
    /// `req.dst_paddr` is 0: the requester holds the deposit address.
    Reply(u64),
}

/// A packet in the incoming DMA engine, as its completion needs it.
pub(crate) struct Deposit {
    /// The instant it was released to the engine.
    at: SimTime,
    msg: MsgId,
    bytes: usize,
    to: Landing,
}

/// Where a deposit lands.
enum Landing {
    /// A data packet for page `ppage`, with the sender's interrupt flag.
    Data { ppage: u64, irq: bool },
    /// A piece of the reply to fetch `.0`.
    Reply(u64),
}

impl Deposit {
    /// The page whose receiver interrupt flag decides the notification
    /// interrupt, if the packet carried the sender's flag.
    pub(crate) fn irq_page(&self) -> Option<u64> {
        match self.to {
            Landing::Data { ppage, irq: true } => Some(ppage),
            _ => None,
        }
    }
}

/// What the machine is told; `now` comes with it.
pub(crate) enum NicEvent {
    /// A write run snooped on an automatic-update page, OPT-translated.
    Snoop(OutWrite),
    /// The combine timer armed at packetizer generation `.0` expired.
    CombineTimer(u64),
    /// Close any held combining packet now.
    Flush,
    /// A deliberate-update request, decoded from its initiation.
    Send(DuRequest, SendDone),
    /// The engine may start the piece: its set-up is done, a stall
    /// passed or a reply job was released.
    Piece(Piece),
    /// `Read(piece, start, data)`: the piece's source read, started at
    /// `start`, completed now.
    Read(Piece, SimTime, Vec<u8>),
    /// A packet arrived, with the IPT entry of the page it deposits
    /// into (data) or reads from (a fetch request); `None` for other
    /// kinds or an unmapped page.
    Arrive(NicPacket, Option<IptEntry>),
    /// `Deposited(dep, queued, irq)`: a deposit's DMA completed now
    /// after queueing `queued` for the bus; `irq` is the page's receiver
    /// interrupt flag (read only for packets that carried the sender's).
    Deposited(Deposit, SimDur, bool),
    /// A local fetch request.
    Fetch(FetchRequest, FetchDone),
    /// The fetch engine's set-up is done: send the request descriptor
    /// to node `.0`.
    FetchOut(NodeId, FetchDesc, MsgId),
    /// A stall window added to one engine.
    Stall(Engine, SimTime, SimDur),
    /// The local daemon went down (`true`) or came back.
    DaemonDown(bool),
    /// The OS repaired the IPT: unfreeze and replay the held packets,
    /// the first `.0` of which target enabled pages.
    Unfreeze(usize),
}

/// What the machine decided; the driver carries these out in order.
pub(crate) enum NicAction {
    /// `Inject(at, to, pkt)`: put `pkt` on the backplane at `at`.
    Inject(SimTime, NodeId, NicPacket),
    /// `DmaRead(src, len, piece)`: read the piece's source; step
    /// [`NicEvent::Read`] when done.
    DmaRead(PAddr, usize, Piece),
    /// `DmaWrite(at, dst, data, dep)`: deposit `data` at `dst`, now or
    /// from `at`; step [`NicEvent::Deposited`] when done.
    DmaWrite(Option<SimTime>, u64, SimBuf, Deposit),
    /// Raise an interrupt on the node.
    Interrupt(Interrupt),
    /// Arm a timer: step the event at the instant.
    At(SimTime, NicEvent),
    /// A data packet landed in page `.0` at `.1`: call the delivery hook.
    Delivered(u64, SimTime),
    /// A send's last piece was read at `.1`.
    SendDone(SendDone, SimTime),
    /// A fetch completed or was refused.
    FetchDone(FetchDone, Result<SimTime, NakReason>),
    /// Record a span (only emitted by a traced machine).
    Span(SpanRec),
    /// The reply-job queue is now this deep (only emitted by a traced
    /// machine).
    QueueDepth(u64),
}

/// Requester-side state for one in-flight fetch. Lives from issue until
/// the final reply chunk's DMA completes (or a NAK arrives); the reply
/// deposit address lives here and never crosses the wire.
struct PendingFetch {
    dst_paddr: u64,
    /// Bytes not yet deposited.
    left: usize,
    /// Reply-chunk DMAs accepted but not yet completed.
    outstanding: u64,
    saw_last: bool,
    done: FetchDone,
}

/// One NIC's state; see the module doc.
pub(crate) struct NicMachine {
    node: NodeId,
    costs: CostModel,
    /// Whether the driver records: spans and depth instants are emitted
    /// only then.
    traced: bool,
    /// The instant of the event being stepped.
    now: SimTime,
    /// The actions of the step in progress (the caller's buffer, swapped
    /// in for the step).
    out: Vec<NicAction>,
    pktz: Packetizer,
    /// The packets a write run closed, emptied after each snoop.
    closed: Vec<OutPacket>,
    /// Whether the receive datapath is frozen; `held` is empty unless it
    /// is or an unfreeze is replaying it.
    frozen: bool,
    /// Data packets that arrived while frozen, oldest first.
    held: VecDeque<NicPacket>,
    /// No packet is injected before one enqueued earlier, whatever its
    /// datapath's processing lead.
    out_tail: SimTime,
    /// Each [`Engine`]'s injected stall windows.
    stalls: [StallWindows; 3],
    /// Requester side: in-flight fetches by id.
    fetches: HashMap<u64, PendingFetch>,
    next_fetch: u64,
    /// Responder side: reply jobs accepted but not yet fully read, as
    /// (release instant, job, fetch id); the head is the one the engine
    /// is working on.
    jobs: VecDeque<(SimTime, DuRequest, u64)>,
    /// Traffic counters.
    pub(crate) stats: NicStats,
    /// Whether the local daemon is marked down.
    pub(crate) daemon_down: bool,
    /// Data packets accepted whose deposit has not completed.
    pending_deposits: u64,
}

/// A header-only control packet (a fetch request or NAK) to `dst_node`.
fn ctl(dst_node: NodeId, msg: MsgId) -> OutPacket {
    OutPacket {
        dst_node,
        dst_paddr: 0,
        data: Vec::new().into(),
        interrupt: false,
        msg,
    }
}

impl NicMachine {
    /// The machine of node `node` under `costs`; `traced` when its
    /// driver records spans.
    pub(crate) fn new(node: NodeId, costs: CostModel, traced: bool) -> NicMachine {
        let max_payload = costs.au_combine_limit.min(costs.max_packet_payload);
        NicMachine {
            node,
            pktz: Packetizer::new(max_payload, PAGE_SIZE as u64),
            costs,
            traced,
            now: SimTime::ZERO,
            out: Vec::new(),
            closed: Vec::new(),
            frozen: false,
            held: VecDeque::new(),
            out_tail: SimTime::ZERO,
            stalls: Default::default(),
            fetches: HashMap::new(),
            next_fetch: 1,
            jobs: VecDeque::new(),
            stats: NicStats::default(),
            daemon_down: false,
            pending_deposits: 0,
        }
    }

    /// Whether the receive datapath is frozen.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Deposits accepted and not yet in memory, a held combining packet,
    /// and fetches in flight on either side; zero when quiescent.
    pub(crate) fn in_flight(&self) -> u64 {
        let open = u64::from(self.pktz.has_open());
        self.pending_deposits + open + self.fetches.len() as u64 + self.jobs.len() as u64
    }

    /// How many held packets, oldest first, target pages `enabled` says
    /// are enabled: what an unfreeze replays before it refreezes.
    pub(crate) fn replayable(&self, enabled: impl Fn(u64) -> bool) -> usize {
        let page = |p: &NicPacket| p.dst_paddr / PAGE_SIZE as u64;
        self.held.iter().take_while(|&p| enabled(page(p))).count()
    }

    /// Decide on one event at `now`, appending the actions to `out`.
    pub(crate) fn step(&mut self, now: SimTime, ev: NicEvent, out: &mut Vec<NicAction>) {
        self.now = now;
        std::mem::swap(&mut self.out, out);
        self.decide(ev);
        std::mem::swap(&mut self.out, out);
    }

    fn decide(&mut self, ev: NicEvent) {
        let (now, costs) = (self.now, &self.costs);
        let (au_lead, packetize) = (costs.nic_snoop + costs.nic_packetize, costs.nic_packetize);
        match ev {
            NicEvent::Snoop(w) => {
                let mut closed = std::mem::take(&mut self.closed);
                self.pktz.push_into(w, &mut closed);
                for pkt in closed.drain(..) {
                    self.inject(au_lead, pkt, PacketKind::Data, true);
                }
                self.closed = closed;
                if let Some(at) = self.pktz.open_last_write_at() {
                    let (at, gen) = (at + self.costs.au_combine_timeout, self.pktz.generation());
                    self.out
                        .push(NicAction::At(at, NicEvent::CombineTimer(gen)));
                }
            }
            // A timer whose packet was extended or flushed since is stale.
            NicEvent::CombineTimer(gen) if gen != self.pktz.generation() => {}
            NicEvent::CombineTimer(_) => self.flush(au_lead),
            NicEvent::Flush => self.flush(packetize),
            NicEvent::Send(req, done) => {
                // FIFO ordering with any held automatic-update packet.
                self.flush(packetize);
                let (job, off, at) = (Job::Send(done), 0, now + self.costs.du_engine_setup);
                let piece = NicEvent::Piece(Piece { req, job, off });
                self.out.push(NicAction::At(at, piece));
            }
            NicEvent::Piece(piece) => self.piece(piece),
            NicEvent::Read(piece, start, data) => self.read(piece, start, data),
            NicEvent::Arrive(pkt, entry) => match pkt.kind {
                PacketKind::Data if self.frozen => self.held.push_back(pkt),
                PacketKind::Data => self.receive(pkt, entry.is_some_and(|e| e.enabled), false),
                // The fetch engine is a separate datapath: requests do
                // not deposit and replies land in a region the local
                // engine validated at issue, so neither class queues
                // behind a receive freeze.
                PacketKind::FetchReq(desc) => self.serve(desc, pkt.msg, entry),
                PacketKind::FetchReply {
                    fetch,
                    offset,
                    last,
                } => {
                    // A fetch that already failed drops its stale chunks.
                    let Some(p) = self.fetches.get_mut(&fetch) else {
                        return;
                    };
                    p.outstanding += 1;
                    p.saw_last |= last;
                    // No IPT check: the region was validated at issue.
                    // Injected incoming-DMA stalls still apply.
                    let dst = p.dst_paddr + offset as u64;
                    let at = self.stalls[Engine::Deposit as usize].release(now);
                    let (msg, bytes, to) = (pkt.msg, pkt.data.len(), Landing::Reply(fetch));
                    let dep = Deposit { at, msg, bytes, to };
                    let (start, data) = ((at > now).then_some(at), pkt.data);
                    self.out.push(NicAction::DmaWrite(start, dst, data, dep));
                }
                PacketKind::FetchNak { fetch, reason } => {
                    self.stats.fetch_naks_in += 1;
                    if let Some(p) = self.fetches.remove(&fetch) {
                        self.out.push(NicAction::FetchDone(p.done, Err(reason)));
                    }
                }
            },
            NicEvent::Deposited(dep, queued, page_irq) => self.deposited(dep, queued, page_irq),
            NicEvent::Fetch(req, done) => {
                let fetch = self.next_fetch;
                self.next_fetch += 1;
                let pending = PendingFetch {
                    dst_paddr: req.dst_paddr,
                    left: req.len,
                    outstanding: 0,
                    saw_last: false,
                    done,
                };
                self.fetches.insert(fetch, pending);
                self.stats.fetch_reqs_out += 1;
                // FIFO ordering with any held automatic-update packet.
                self.flush(packetize);
                let desc = FetchDesc {
                    from: self.node,
                    fetch,
                    src_paddr: req.src_paddr,
                    len: req.len,
                };
                let (at, to) = (now + self.costs.fetch_engine_setup, req.src_node);
                self.out
                    .push(NicAction::At(at, NicEvent::FetchOut(to, desc, req.msg)));
            }
            NicEvent::FetchOut(to, desc, msg) => {
                self.inject(packetize, ctl(to, msg), PacketKind::FetchReq(desc), false);
            }
            NicEvent::Stall(engine, start, dur) => {
                self.stalls[engine as usize].add_stall(start, dur)
            }
            NicEvent::DaemonDown(down) => self.daemon_down = down,
            // Replay in order until a packet refreezes the datapath.
            NicEvent::Unfreeze(mut enabled) => {
                self.frozen = false;
                while !self.frozen {
                    let Some(pkt) = self.held.pop_front() else {
                        break;
                    };
                    self.receive(pkt, enabled > 0, true);
                    enabled = enabled.saturating_sub(1);
                }
            }
        }
    }

    /// Record a span of this node's datapath, if traced.
    fn span(
        &mut self,
        msg: MsgId,
        layer: Layer,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        bytes: usize,
    ) {
        if self.traced {
            let node = self.node.0;
            let rec = SpanRec {
                msg,
                node,
                layer,
                name,
                start,
                end,
                bytes,
            };
            self.out.push(NicAction::Span(rec));
        }
    }

    /// Close the held combining packet, if any, and inject it `lead`
    /// from now.
    fn flush(&mut self, lead: SimDur) {
        if let Some(pkt) = self.pktz.flush() {
            self.inject(lead, pkt, PacketKind::Data, true);
        }
    }

    /// Sequence a packet into the outgoing FIFO no earlier than `lead`
    /// from now, count it and record its `NicOut` span. A packet never
    /// departs before one enqueued earlier, even when its datapath has a
    /// shorter lead (ties leave in enqueue order). `kind` is the header
    /// it leaves with; a `Data` packet is an automatic update if `is_au`,
    /// else a deliberate update.
    fn inject(&mut self, lead: SimDur, pkt: OutPacket, kind: PacketKind, is_au: bool) {
        let (st, bytes) = (&mut self.stats, pkt.data.len());
        st.bytes_out += bytes as u64;
        let (name, count) = match kind {
            PacketKind::FetchReq(_) => ("fetch_req", None),
            PacketKind::FetchNak { .. } => ("fetch_nak", None),
            PacketKind::FetchReply { .. } => ("fetch_reply", Some(&mut st.fetch_replies_out)),
            PacketKind::Data if is_au => ("au_packetize", Some(&mut st.au_packets_out)),
            PacketKind::Data => ("du_packetize", Some(&mut st.du_packets_out)),
        };
        if let Some(count) = count {
            *count += 1;
        }
        let at = (self.now + lead).max(self.out_tail);
        self.out_tail = at;
        self.span(pkt.msg, Layer::NicOut, name, self.now, at, bytes);
        let wire = NicPacket {
            dst_paddr: pkt.dst_paddr,
            data: pkt.data,
            interrupt: pkt.interrupt,
            kind,
            msg: pkt.msg,
        };
        self.out.push(NicAction::Inject(at, pkt.dst_node, wire));
    }

    /// The engine's piece loop: cut the next piece of a job — a send at
    /// the packet payload, a reply at [`fetch_piece`] of what the engine
    /// still has to read (this job's remainder and the jobs queued
    /// behind it) — and read it, unless a stall holds the engine.
    fn piece(&mut self, piece: Piece) {
        let (req, off) = (piece.req, piece.off);
        let addr = req.dst_paddr + off as u64;
        let to_page_end = (PAGE_SIZE as u64 - addr % PAGE_SIZE as u64) as usize;
        let cut = match piece.job {
            Job::Send(_) => self.costs.max_packet_payload,
            Job::Reply(_) => {
                let queued = self.jobs.iter().skip(1).map(|j| j.1.len).sum::<usize>();
                fetch_piece(req.len - off + queued, &self.costs)
            }
        };
        let n = (req.len - off).min(cut).min(to_page_end);
        let at = self.stalls[Engine::SourceRead as usize].release(self.now);
        let action = if at > self.now {
            NicAction::At(at, NicEvent::Piece(piece))
        } else {
            NicAction::DmaRead(PAddr(req.src.0 + off as u64), n, piece)
        };
        self.out.push(action);
    }

    /// A piece was read: hand it to the outgoing FIFO, then start on the
    /// next piece or finish the job.
    fn read(&mut self, mut piece: Piece, start: SimTime, data: Vec<u8>) {
        let (req, off, n) = (piece.req, piece.off, data.len());
        let last = off + n == req.len;
        let kind = match piece.job {
            Job::Send(_) => PacketKind::Data,
            Job::Reply(fetch) => {
                self.span(req.msg, Layer::NicIn, "fetch_read", start, self.now, n);
                PacketKind::FetchReply {
                    fetch,
                    offset: off,
                    last,
                }
            }
        };
        let pkt = OutPacket {
            dst_node: req.dst_node,
            dst_paddr: req.dst_paddr + off as u64,
            data: data.into(),
            // The destination interrupt rides on the final packet so the
            // notification fires after all data has landed.
            interrupt: req.interrupt && last,
            msg: req.msg,
        };
        self.inject(self.costs.nic_packetize, pkt, kind, false);
        if !last {
            piece.off += n;
            return self.piece(piece);
        }
        match piece.job {
            Job::Send(done) => self.out.push(NicAction::SendDone(done, self.now)),
            Job::Reply(_) => {
                self.jobs.pop_front();
                self.requeued(true);
            }
        }
    }

    /// The IPT-check stage of a data packet whose page is `enabled`:
    /// release it to the DMA engine `nic_ipt_check` from now (later if a
    /// stall holds the engine), or freeze on it, holding it at the
    /// `front` or back of the queue.
    fn receive(&mut self, pkt: NicPacket, enabled: bool, front: bool) {
        let ppage = pkt.dst_paddr / PAGE_SIZE as u64;
        debug_assert!(
            (pkt.dst_paddr + pkt.data.len() as u64 - 1) / PAGE_SIZE as u64 == ppage,
            "packet crosses a destination page"
        );
        if !enabled {
            return self.freeze(ppage, Some((pkt, front)));
        }
        self.pending_deposits += 1;
        let at = self.stalls[Engine::Deposit as usize].release(self.now + self.costs.nic_ipt_check);
        let (msg, bytes, irq) = (pkt.msg, pkt.data.len(), pkt.interrupt);
        let to = Landing::Data { ppage, irq };
        let (dep, dst) = (Deposit { at, msg, bytes, to }, pkt.dst_paddr);
        self.out
            .push(NicAction::DmaWrite(Some(at), dst, pkt.data, dep));
        self.span(msg, Layer::NicIn, "ipt_check", self.now, at, bytes);
    }

    /// A deposit is in memory: count it, record its span (after a
    /// `dma_wait` span for any time it queued for the EISA bus), then
    /// notify or finish the fetch.
    fn deposited(&mut self, dep: Deposit, queued: SimDur, page_irq: bool) {
        let (name, count) = match dep.to {
            Landing::Data { .. } => ("dma_write", &mut self.stats.packets_in),
            Landing::Reply(_) => ("fetch_deposit", &mut self.stats.fetch_replies_in),
        };
        *count += 1;
        self.stats.bytes_in += dep.bytes as u64;
        let (now, granted, msg, bytes) = (self.now, dep.at + queued, dep.msg, dep.bytes);
        if queued > SimDur::ZERO {
            self.span(msg, Layer::Deposit, "dma_wait", dep.at, granted, bytes);
        }
        self.span(msg, Layer::Deposit, name, granted, now, bytes);
        match dep.to {
            Landing::Data { ppage, irq } => {
                // The notification interrupt needs both flags.
                if irq && page_irq {
                    let irq = Interrupt {
                        vector: IRQ_NOTIFICATION,
                        info: ppage,
                    };
                    self.out.push(NicAction::Interrupt(irq));
                }
                self.pending_deposits -= 1;
                self.out.push(NicAction::Delivered(ppage, now));
            }
            Landing::Reply(fetch) => {
                // Done once the last piece arrived and every accepted
                // piece is in memory.
                let Some(p) = self.fetches.get_mut(&fetch) else {
                    return;
                };
                p.outstanding -= 1;
                p.left -= dep.bytes;
                if p.saw_last && p.outstanding == 0 && p.left == 0 {
                    let p = self.fetches.remove(&fetch).expect("looked up above");
                    self.out.push(NicAction::FetchDone(p.done, Ok(now)));
                }
            }
        }
    }

    /// Freeze the receive datapath on a protection fault at `ppage` and
    /// interrupt the CPU, holding the offending data packet (if the
    /// fault was a deposit) at the front or the back of the queue. A
    /// datapath already frozen takes no second count or interrupt: only
    /// the fetch responder can find it so.
    fn freeze(&mut self, ppage: u64, held: Option<(NicPacket, bool)>) {
        match held {
            Some((pkt, true)) => self.held.push_front(pkt),
            Some((pkt, false)) => self.held.push_back(pkt),
            None => {}
        }
        if !std::mem::replace(&mut self.frozen, true) {
            self.stats.freezes += 1;
            let irq = Interrupt {
                vector: IRQ_RECV_FREEZE,
                info: ppage,
            };
            self.out.push(NicAction::Interrupt(irq));
        }
    }

    /// Responder datapath: check an arriving fetch request against its
    /// page's IPT `entry` and either NAK it or queue its reply as a job
    /// of the engine.
    fn serve(&mut self, desc: FetchDesc, msg: MsgId, entry: Option<IptEntry>) {
        self.stats.fetch_reqs_in += 1;
        let check = self.costs.nic_ipt_check;
        let ppage = desc.src_paddr / PAGE_SIZE as u64;
        let reason = match entry {
            // Validation needs the daemon's mappings: refuse while down.
            _ if self.daemon_down => Some(NakReason::DaemonDown),
            // An unmapped page is an explicit protocol error, never a
            // silent default entry.
            None => Some(NakReason::Unmapped { ppage }),
            Some(e) if !e.enabled || !e.read => {
                // A read-exported page that is merely receive-disabled
                // is a fault the OS can repair: freeze and interrupt like
                // the deposit path while the requester retries on the
                // NAK. No repair grants a missing read permission.
                if e.read && !e.enabled {
                    self.freeze(ppage, None);
                }
                Some(NakReason::Denied { ppage })
            }
            Some(_) => None,
        };
        if let Some(reason) = reason {
            self.stats.fetch_denials += 1;
            let nak = PacketKind::FetchNak {
                fetch: desc.fetch,
                reason,
            };
            self.inject(check, ctl(desc.from, msg), nak, false);
            return;
        }
        // An injected fetch-engine stall holds the accepted request.
        let at = self.stalls[Engine::Fetch as usize].release(self.now + check);
        self.span(msg, Layer::NicIn, "fetch_ipt_check", self.now, at, desc.len);
        let job = DuRequest {
            src: PAddr(desc.src_paddr),
            dst_node: desc.from,
            dst_paddr: 0,
            len: desc.len,
            interrupt: false,
            msg,
        };
        self.jobs.push_back((at, job, desc.fetch));
        let depth = self.jobs.len() as u64;
        self.stats.fetch_queue_peak = self.stats.fetch_queue_peak.max(depth);
        self.requeued(depth == 1);
    }

    /// The reply-job queue took or finished a job: report its depth (if
    /// traced), then start the job at its head if `start`, once that job
    /// is released. Jobs are served FIFO — the next one's first piece is
    /// read when this one's last piece has been — so the reply streams
    /// of concurrent requests never interleave.
    fn requeued(&mut self, start: bool) {
        if self.traced {
            self.out.push(NicAction::QueueDepth(self.jobs.len() as u64));
        }
        let Some(&(at, req, fetch)) = self.jobs.front().filter(|_| start) else {
            return;
        };
        let (job, off) = (Job::Reply(fetch), 0);
        let piece = Piece { req, job, off };
        if at > self.now {
            self.out.push(NicAction::At(at, NicEvent::Piece(piece)));
        } else {
            self.piece(piece);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;

    const PAGE: u64 = PAGE_SIZE as u64;
    const ON: Option<IptEntry> = Some(IptEntry {
        enabled: true,
        interrupt: false,
        read: true,
    });
    const OFF: Option<IptEntry> = Some(IptEntry {
        enabled: false,
        interrupt: false,
        read: true,
    });

    fn machine() -> NicMachine {
        NicMachine::new(NodeId(0), CostModel::shrimp_prototype(), false)
    }

    fn us(t: f64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(t)
    }

    /// Step `ev` at `now` and return what the machine decided.
    fn step(m: &mut NicMachine, now: SimTime, ev: NicEvent) -> Vec<NicAction> {
        let mut out = Vec::new();
        m.step(now, ev, &mut out);
        out
    }

    fn packet(dst_paddr: u64, len: usize, kind: PacketKind) -> NicPacket {
        let (data, interrupt, msg) = (vec![7u8; len].into(), false, MsgId::NONE);
        NicPacket {
            dst_paddr,
            data,
            interrupt,
            kind,
            msg,
        }
    }

    fn reply(fetch: u64, offset: usize, len: usize, last: bool) -> NicEvent {
        let kind = PacketKind::FetchReply {
            fetch,
            offset,
            last,
        };
        NicEvent::Arrive(packet(0, len, kind), None)
    }

    fn write(dst_paddr: u64, len: usize, combine: bool, at: SimTime) -> NicEvent {
        NicEvent::Snoop(OutWrite {
            dst_node: NodeId(1),
            dst_paddr,
            data: vec![1u8; len].into(),
            interrupt: false,
            combine,
            at,
            msg: MsgId::NONE,
        })
    }

    /// A `len`-byte fetch of node 1's page 3 into `dst`, which counts
    /// its completions in `done`.
    fn fetch(len: usize, dst: u64, done: &Arc<Mutex<Vec<Result<SimTime, NakReason>>>>) -> NicEvent {
        let req = FetchRequest {
            src_node: NodeId(1),
            src_paddr: 3 * PAGE,
            len,
            dst_paddr: dst,
            msg: MsgId::NONE,
        };
        let done = Arc::clone(done);
        NicEvent::Fetch(req, Box::new(move |res| done.lock().unwrap().push(res)))
    }

    /// Every injection as (instant, destination node, destination address).
    fn injected(out: &[NicAction]) -> Vec<(SimTime, NodeId, u64)> {
        let inject = |a: &NicAction| match a {
            NicAction::Inject(at, to, pkt) => Some((*at, *to, pkt.dst_paddr)),
            _ => None,
        };
        out.iter().filter_map(inject).collect()
    }

    /// Every deposit started, as (destination, its completion token).
    fn deposits(out: Vec<NicAction>) -> Vec<(u64, Deposit)> {
        let deposit = |a| match a {
            NicAction::DmaWrite(_, dst, _, dep) => Some((dst, dep)),
            _ => None,
        };
        out.into_iter().filter_map(deposit).collect()
    }

    fn irqs(out: &[NicAction]) -> Vec<(u32, u64)> {
        let irq = |a: &NicAction| match a {
            NicAction::Interrupt(irq) => Some((irq.vector, irq.info)),
            _ => None,
        };
        out.iter().filter_map(irq).collect()
    }

    /// The one timer the actions arm.
    fn timer(out: Vec<NicAction>) -> (SimTime, NicEvent) {
        let mut timers = out.into_iter().filter_map(|a| match a {
            NicAction::At(at, ev) => Some((at, ev)),
            _ => None,
        });
        let first = timers.next().expect("a timer is armed");
        assert!(timers.next().is_none(), "one timer");
        first
    }

    /// Run every completion the actions carry; returns how many ran.
    fn complete(out: Vec<NicAction>) -> usize {
        let mut n = 0;
        for a in out {
            match a {
                NicAction::FetchDone(done, res) => done(res),
                NicAction::SendDone(done, t) => done(t),
                _ => continue,
            }
            n += 1;
        }
        n
    }

    #[test]
    fn a_later_packet_with_a_shorter_lead_never_overtakes() {
        let mut m = machine();
        let t = us(10.0);
        // A combining write held open, closed by a non-consecutive one
        // (the snoop lead), which an explicit flush then closes with the
        // shorter packetize lead; then a deliberate-update piece read
        // at the same instant, with the packetize lead too.
        assert!(injected(&step(&mut m, t, write(64, 16, true, t))).is_empty());
        let mut order = injected(&step(&mut m, t, write(4000, 4, true, t)));
        order.extend(injected(&step(&mut m, t, NicEvent::Flush)));
        let req = DuRequest {
            src: PAddr(0),
            dst_node: NodeId(1),
            dst_paddr: 2 * PAGE,
            len: 64,
            interrupt: false,
            msg: MsgId::NONE,
        };
        let piece = Piece {
            req,
            job: Job::Send(Box::new(|_| {})),
            off: 0,
        };
        let read = step(&mut m, t, NicEvent::Read(piece, t, vec![0; 64]));
        order.extend(injected(&read));
        assert_eq!(complete(read), 1, "the one-piece send is done");
        let costs = CostModel::shrimp_prototype();
        let first = t + costs.nic_snoop + costs.nic_packetize;
        let want = [(first, 64), (first, 4000), (first, 2 * PAGE)];
        assert_eq!(order, want.map(|(at, dst)| (at, NodeId(1), dst)));
        assert!(
            t + costs.nic_packetize < first,
            "the later leads are shorter"
        );
        let st = m.stats;
        assert_eq!((st.au_packets_out, st.du_packets_out), (2, 1));
    }

    #[test]
    fn a_frozen_datapath_deposits_nothing_then_replays_in_order_and_refreezes() {
        let mut m = machine();
        let t = us(1.0);
        let data = |page| NicEvent::Arrive(packet(page * PAGE, 64, PacketKind::Data), ON);
        let disabled = NicEvent::Arrive(packet(5 * PAGE, 64, PacketKind::Data), OFF);
        let out = step(&mut m, t, disabled);
        assert_eq!(irqs(&out), [(IRQ_RECV_FREEZE, 5)]);
        assert!(deposits(out).is_empty() && m.frozen);
        // Frozen: packets for enabled pages are held, not deposited, and
        // raise no second interrupt.
        for page in [6, 7] {
            let out = step(&mut m, t, data(page));
            assert!(out.is_empty(), "page {page} deposited while frozen");
        }
        let held = |m: &NicMachine| {
            m.held
                .iter()
                .map(|p| p.dst_paddr / PAGE)
                .collect::<Vec<_>>()
        };
        assert_eq!(held(&m), [5, 6, 7]);
        assert_eq!((m.stats.freezes, m.in_flight()), (1, 0));
        // Repaired up to page 6: pages 5 and 6 deposit in order, page 7
        // refreezes the datapath and stays held.
        let replay = m.replayable(|page| page != 7);
        assert_eq!(replay, 2);
        let out = step(&mut m, us(2.0), NicEvent::Unfreeze(replay));
        assert_eq!(irqs(&out), [(IRQ_RECV_FREEZE, 7)]);
        let dsts: Vec<u64> = deposits(out).into_iter().map(|d| d.0).collect();
        assert_eq!(dsts, [5 * PAGE, 6 * PAGE]);
        assert!(m.frozen);
        assert_eq!(held(&m), [7]);
        assert_eq!((m.stats.freezes, m.in_flight()), (2, 2));
        let out = step(&mut m, us(3.0), NicEvent::Unfreeze(1));
        assert!(irqs(&out).is_empty());
        assert_eq!(deposits(out).len(), 1);
        assert!(!m.frozen && m.held.is_empty());
    }

    #[test]
    fn a_fetch_completes_once_on_its_last_deposit_in_either_order() {
        for last_lands_first in [false, true] {
            let mut m = machine();
            let done = Arc::new(Mutex::new(Vec::new()));
            let dst = 9 * PAGE + 256;
            let (_, out) = timer(step(&mut m, us(1.0), fetch(128, dst, &done)));
            assert!(matches!(out, NicEvent::FetchOut(NodeId(1), _, _)));
            // Both pieces arrive, the `last` one before the first's DMA
            // has finished.
            let mut pieces = deposits(step(&mut m, us(5.0), reply(1, 0, 64, false)));
            pieces.extend(deposits(step(&mut m, us(6.0), reply(1, 64, 64, true))));
            let dsts: Vec<u64> = pieces.iter().map(|p| p.0).collect();
            assert_eq!(dsts, [dst, dst + 64], "deposited where the requester said");
            if last_lands_first {
                pieces.reverse();
            }
            let mut pieces = pieces.into_iter().map(|p| p.1);
            let first = NicEvent::Deposited(pieces.next().unwrap(), SimDur::ZERO, false);
            assert_eq!(
                complete(step(&mut m, us(7.0), first)),
                0,
                "one piece still out"
            );
            assert_eq!(m.in_flight(), 1);
            let second = NicEvent::Deposited(pieces.next().unwrap(), SimDur::ZERO, false);
            assert_eq!(complete(step(&mut m, us(8.0), second)), 1);
            assert_eq!(*done.lock().unwrap(), [Ok(us(8.0))]);
            assert_eq!((m.in_flight(), m.stats.fetch_replies_in), (0, 2));
        }
    }

    #[test]
    fn a_nak_completes_its_fetch_once_and_a_later_chunk_is_dropped() {
        let mut m = machine();
        let done = Arc::new(Mutex::new(Vec::new()));
        step(&mut m, us(1.0), fetch(64, 9 * PAGE, &done));
        let nak = |reason| {
            let kind = PacketKind::FetchNak { fetch: 1, reason };
            NicEvent::Arrive(packet(0, 0, kind), None)
        };
        assert_eq!(
            complete(step(&mut m, us(2.0), nak(NakReason::DaemonDown))),
            1
        );
        assert_eq!(*done.lock().unwrap(), [Err(NakReason::DaemonDown)]);
        assert!(step(&mut m, us(3.0), reply(1, 0, 64, true)).is_empty());
        assert_eq!(
            complete(step(&mut m, us(4.0), nak(NakReason::DaemonDown))),
            0
        );
        assert_eq!(done.lock().unwrap().len(), 1);
        let st = m.stats;
        assert_eq!(
            (st.fetch_naks_in, st.fetch_replies_in, m.in_flight()),
            (2, 0, 0)
        );
    }

    #[test]
    fn every_class_of_work_is_in_flight_until_it_is_done() {
        let mut m = machine();
        // A held combining packet, until its timer sends it.
        let (at, ev) = timer(step(&mut m, us(1.0), write(64, 8, true, us(1.0))));
        assert_eq!(m.in_flight(), 1);
        assert_eq!(injected(&step(&mut m, at, ev)).len(), 1);
        assert_eq!(m.in_flight(), 0);
        // An accepted data packet, until its deposit is in memory.
        let arrive = NicEvent::Arrive(packet(4 * PAGE, 64, PacketKind::Data), ON);
        let (_, dep) = deposits(step(&mut m, us(2.0), arrive)).pop().unwrap();
        assert_eq!(m.in_flight(), 1);
        let out = step(
            &mut m,
            us(3.0),
            NicEvent::Deposited(dep, SimDur::ZERO, false),
        );
        assert!(matches!(out[..], [NicAction::Delivered(4, _)]));
        assert_eq!(m.in_flight(), 0);
        // A pending fetch, until it is answered.
        let done = Arc::new(Mutex::new(Vec::new()));
        step(&mut m, us(4.0), fetch(64, 9 * PAGE, &done));
        assert_eq!(m.in_flight(), 1);
        let kind = PacketKind::FetchNak {
            fetch: 1,
            reason: NakReason::DaemonDown,
        };
        complete(step(
            &mut m,
            us(5.0),
            NicEvent::Arrive(packet(0, 0, kind), None),
        ));
        assert_eq!(m.in_flight(), 0);
        // A queued reply job, until its last piece is read.
        let desc = FetchDesc {
            from: NodeId(1),
            fetch: 7,
            src_paddr: 3 * PAGE,
            len: 64,
        };
        let request = NicEvent::Arrive(packet(0, 0, PacketKind::FetchReq(desc)), ON);
        let (at, ev) = timer(step(&mut m, us(6.0), request));
        assert_eq!(m.in_flight(), 1);
        let read = step(&mut m, at, ev).pop();
        let Some(NicAction::DmaRead(src, len, piece)) = read else {
            panic!("the released job reads its piece");
        };
        assert_eq!((src, len), (PAddr(3 * PAGE), 64));
        assert_eq!(m.in_flight(), 1);
        let out = step(&mut m, us(20.0), NicEvent::Read(piece, at, vec![0; len]));
        assert_eq!(injected(&out).len(), 1);
        assert_eq!((m.in_flight(), m.stats.fetch_replies_out), (0, 1));
    }
}
