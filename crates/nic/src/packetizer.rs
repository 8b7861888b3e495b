//! The packetizing/combining state machine of the outgoing datapath.
//!
//! The hardware builds packets in the Outgoing FIFO. If the source page
//! is configured for combining, the packet is held open and a write to
//! the consecutive destination address is appended; otherwise a new
//! packet is started. A hardware timer sends a held packet if no
//! subsequent automatic update occurs (paper §3.2).
//!
//! This module is the *pure* decision logic, unit-testable without a
//! simulation; `Nic` drives it from snoop events and schedules the
//! timer.

use shrimp_mesh::NodeId;
use shrimp_obs::MsgId;
use shrimp_sim::{SimBuf, SimTime};

/// A write run presented to the packetizer (already OPT-translated).
#[derive(Debug, Clone)]
pub struct OutWrite {
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination physical byte address.
    pub dst_paddr: u64,
    /// The written bytes (a shared view; packetization slices it).
    pub data: SimBuf,
    /// Sender-specified destination-interrupt flag.
    pub interrupt: bool,
    /// Whether the source OPT entry allows combining.
    pub combine: bool,
    /// Completion time of the write run.
    pub at: SimTime,
    /// Causal message id for observability ([`MsgId::NONE`] when
    /// tracing is off). Combining keeps the *first* write's id.
    pub msg: MsgId,
}

/// A closed packet ready for injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutPacket {
    /// Destination node.
    pub dst_node: NodeId,
    /// Destination physical byte address of the first payload byte.
    pub dst_paddr: u64,
    /// Payload — a zero-copy window of the originating write run.
    pub data: SimBuf,
    /// Destination-interrupt request.
    pub interrupt: bool,
    /// Causal message id (first contributing write when combined).
    pub msg: MsgId,
}

#[derive(Debug)]
struct Open {
    pkt: OutPacket,
    last_write_at: SimTime,
    page_size: u64,
}

impl Open {
    fn can_append(&self, w: &OutWrite, max_payload: usize) -> bool {
        self.pkt.dst_node == w.dst_node
            && self.pkt.dst_paddr + self.pkt.data.len() as u64 == w.dst_paddr
            && self.pkt.data.len() + w.data.len() <= max_payload
            // A packet must stay within one destination page: the
            // incoming page table is checked once per packet.
            && (w.dst_paddr + w.data.len() as u64 - 1) / self.page_size
                == self.pkt.dst_paddr / self.page_size
    }
}

/// The combining buffer. Holds at most one open packet.
#[derive(Debug)]
pub struct Packetizer {
    max_payload: usize,
    page_size: u64,
    open: Option<Open>,
    /// Bumped on every mutation; lets stale timer events detect that the
    /// packet they armed for has already been flushed or extended.
    generation: u64,
}

impl Packetizer {
    /// Create a packetizer with the given maximum payload per packet.
    ///
    /// # Panics
    ///
    /// Panics if `max_payload` is zero or exceeds `page_size`.
    pub fn new(max_payload: usize, page_size: u64) -> Packetizer {
        assert!(max_payload > 0, "max payload must be positive");
        assert!(
            max_payload as u64 <= page_size,
            "packets must fit in one page"
        );
        Packetizer {
            max_payload,
            page_size,
            open: None,
            generation: 0,
        }
    }

    /// Current generation counter (for timer validation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether a packet is currently held open.
    pub fn has_open(&self) -> bool {
        self.open.is_some()
    }

    /// Present a write run. Returns the packets that must be injected
    /// *now*, in order. A combining write may be left pending; the caller
    /// should arm the combine timer whenever [`has_open`](Self::has_open)
    /// is true after this call.
    pub fn push(&mut self, w: OutWrite) -> Vec<OutPacket> {
        let mut out = Vec::new();
        self.push_into(w, &mut out);
        out
    }

    /// [`push`](Self::push), appending the packets to `out`: a caller
    /// that reuses `out` allocates nothing per write run.
    pub fn push_into(&mut self, w: OutWrite, out: &mut Vec<OutPacket>) {
        // A zero-length run puts no bytes on the bus: it is a no-op and
        // must not disturb the open packet or its armed combine timer
        // (the generation stays put so the timer remains valid).
        if w.data.is_empty() {
            return;
        }
        self.generation += 1;

        // Try to extend the open packet.
        if let Some(open) = &mut self.open {
            if w.combine && open.can_append(&w, self.max_payload) {
                open.pkt.data.append(&w.data);
                open.pkt.interrupt |= w.interrupt;
                open.last_write_at = w.at;
                return;
            }
            // Not appendable: the open packet closes first (FIFO).
            out.push(self.open.take().expect("open packet vanished").pkt);
        }

        // Split the run into packet-sized, page-confined pieces.
        let mut off = 0usize;
        while off < w.data.len() {
            let addr = w.dst_paddr + off as u64;
            let to_page_end = (self.page_size - addr % self.page_size) as usize;
            let n = (w.data.len() - off).min(self.max_payload).min(to_page_end);
            let piece = OutPacket {
                dst_node: w.dst_node,
                dst_paddr: addr,
                data: w.data.slice(off..off + n),
                interrupt: w.interrupt,
                msg: w.msg,
            };
            off += n;
            let is_last = off == w.data.len();
            if is_last && w.combine {
                self.open = Some(Open {
                    pkt: piece,
                    last_write_at: w.at,
                    page_size: self.page_size,
                });
            } else {
                out.push(piece);
            }
        }
    }

    /// Close and return the open packet, if any (combine timer expiry,
    /// deliberate-update ordering flush, or unbind).
    pub fn flush(&mut self) -> Option<OutPacket> {
        self.generation += 1;
        self.open.take().map(|o| o.pkt)
    }

    /// Timestamp of the last write appended to the open packet.
    pub fn open_last_write_at(&self) -> Option<SimTime> {
        self.open.as_ref().map(|o| o.last_write_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    fn w(addr: u64, len: usize, combine: bool) -> OutWrite {
        OutWrite {
            dst_node: NodeId(1),
            dst_paddr: addr,
            data: vec![0xAA; len].into(),
            interrupt: false,
            combine,
            at: SimTime::ZERO,
            msg: MsgId::NONE,
        }
    }

    #[test]
    fn consecutive_combining_writes_merge() {
        let mut p = Packetizer::new(1024, PAGE);
        assert!(p.push(w(100, 8, true)).is_empty());
        assert!(p.push(w(108, 8, true)).is_empty());
        let pkt = p.flush().unwrap();
        assert_eq!(pkt.dst_paddr, 100);
        assert_eq!(pkt.data.len(), 16);
        assert!(!p.has_open());
    }

    #[test]
    fn non_consecutive_write_closes_previous_packet() {
        let mut p = Packetizer::new(1024, PAGE);
        assert!(p.push(w(100, 8, true)).is_empty());
        let out = p.push(w(200, 4, true));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst_paddr, 100);
        assert_eq!(p.flush().unwrap().dst_paddr, 200);
    }

    #[test]
    fn non_combining_write_is_emitted_immediately() {
        let mut p = Packetizer::new(1024, PAGE);
        let out = p.push(w(100, 8, false));
        assert_eq!(out.len(), 1);
        assert!(!p.has_open());
    }

    #[test]
    fn oversized_run_splits_at_max_payload() {
        let mut p = Packetizer::new(100, PAGE);
        let out = p.push(w(0, 250, false));
        assert_eq!(
            out.iter().map(|o| o.data.len()).collect::<Vec<_>>(),
            vec![100, 100, 50]
        );
        assert_eq!(out[1].dst_paddr, 100);
        assert_eq!(out[2].dst_paddr, 200);
    }

    #[test]
    fn combining_keeps_final_piece_open() {
        let mut p = Packetizer::new(100, PAGE);
        let out = p.push(w(0, 250, true));
        assert_eq!(out.len(), 2);
        let tail = p.flush().unwrap();
        assert_eq!(tail.dst_paddr, 200);
        assert_eq!(tail.data.len(), 50);
    }

    #[test]
    fn packets_never_cross_destination_pages() {
        let mut p = Packetizer::new(4096, PAGE);
        let out = p.push(w(PAGE - 10, 30, false));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].data.len(), 10);
        assert_eq!(out[1].dst_paddr, PAGE);
        assert_eq!(out[1].data.len(), 20);
    }

    #[test]
    fn append_stops_at_page_boundary() {
        let mut p = Packetizer::new(4096, PAGE);
        assert!(p.push(w(PAGE - 8, 8, true)).is_empty());
        // Next consecutive write would land on the next page: must close.
        let out = p.push(w(PAGE, 8, true));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst_paddr, PAGE - 8);
        assert!(p.has_open());
    }

    #[test]
    fn size_cap_forces_close() {
        let mut p = Packetizer::new(16, PAGE);
        assert!(p.push(w(0, 12, true)).is_empty());
        let out = p.push(w(12, 8, true)); // 12 + 8 > 16
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data.len(), 12);
        assert_eq!(p.flush().unwrap().data.len(), 8);
    }

    #[test]
    fn interrupt_flag_is_sticky_across_combining() {
        let mut p = Packetizer::new(1024, PAGE);
        let mut w1 = w(0, 4, true);
        w1.interrupt = false;
        let mut w2 = w(4, 4, true);
        w2.interrupt = true;
        p.push(w1);
        p.push(w2);
        assert!(p.flush().unwrap().interrupt);
    }

    #[test]
    fn generation_bumps_on_mutation() {
        let mut p = Packetizer::new(1024, PAGE);
        let g0 = p.generation();
        p.push(w(0, 4, true));
        assert!(p.generation() > g0);
        let g1 = p.generation();
        p.flush();
        assert!(p.generation() > g1);
    }

    #[test]
    fn zero_length_run_is_a_noop() {
        let mut p = Packetizer::new(1024, PAGE);
        let g0 = p.generation();
        assert!(p.push(w(100, 0, false)).is_empty());
        assert!(p.push(w(100, 0, true)).is_empty());
        assert!(!p.has_open());
        // The generation must not move: an armed combine timer for an
        // open packet stays valid across an empty run.
        assert_eq!(p.generation(), g0);

        p.push(w(0, 8, true));
        let g1 = p.generation();
        assert!(p.push(w(8, 0, true)).is_empty());
        assert_eq!(p.generation(), g1);
        // The open packet is untouched and still appendable.
        assert!(p.push(w(8, 8, true)).is_empty());
        assert_eq!(p.flush().unwrap().data.len(), 16);
    }

    #[test]
    fn payload_exactly_at_max_is_one_packet() {
        let mut p = Packetizer::new(100, PAGE);
        let out = p.push(w(0, 100, false));
        assert_eq!(
            out.iter().map(|o| o.data.len()).collect::<Vec<_>>(),
            vec![100]
        );
    }

    #[test]
    fn payload_one_over_max_splits_in_two() {
        let mut p = Packetizer::new(100, PAGE);
        let out = p.push(w(0, 101, false));
        assert_eq!(
            out.iter().map(|o| o.data.len()).collect::<Vec<_>>(),
            vec![100, 1]
        );
        assert_eq!(out[1].dst_paddr, 100);
    }

    #[test]
    fn append_filling_packet_exactly_to_max_is_allowed() {
        let mut p = Packetizer::new(16, PAGE);
        assert!(p.push(w(0, 12, true)).is_empty());
        assert!(p.push(w(12, 4, true)).is_empty()); // 12 + 4 == 16
        assert_eq!(p.flush().unwrap().data.len(), 16);
    }

    #[test]
    fn different_destination_node_closes_packet() {
        let mut p = Packetizer::new(1024, PAGE);
        p.push(w(0, 4, true));
        let mut w2 = w(4, 4, true);
        w2.dst_node = NodeId(3);
        let out = p.push(w2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst_node, NodeId(1));
        assert_eq!(p.flush().unwrap().dst_node, NodeId(3));
    }
}
