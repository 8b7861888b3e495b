//! The routing backplane: links, routers, injection and delivery.
//!
//! ## Fidelity
//!
//! The model is *pipelined virtual cut-through at packet granularity*, a
//! standard approximation of wormhole routing when networks are not driven
//! into saturation (the SHRIMP microbenchmarks never are — a single EISA
//! bus at 33 MB/s cannot saturate a 175 MB/s mesh link):
//!
//! * every unidirectional channel (injection, router-to-router, ejection)
//!   is a FIFO reservation timeline;
//! * a packet's head advances one router per `router_delay + wire_latency`
//!   (wire latency scaled by the topology's per-link
//!   [`Topology::wire_factor`] — dragonfly global links are longer);
//! * each channel stays busy for the packet's full serialization time, so
//!   later packets queue behind it (contention and HOL blocking on the
//!   path are modelled);
//! * what is **not** modelled is backpressure into upstream routers from a
//!   blocked head (infinite intermediate buffering). Under the traffic in
//!   this repository the difference is unobservable; the property tests
//!   check the invariants the higher layers actually rely on: per-pair
//!   FIFO ordering, minimum-latency lower bounds, and conservation.
//!
//! ## Ordering
//!
//! Routing is delegated to a [`Topology`] from `shrimp-fabric`; every
//! route is a pure function of the (source, destination) pair. Every
//! channel serves packets in reservation order, so the packets of one
//! pair leave each channel of their common path in injection order: the
//! iMRC's in-order contract, which the backplane *asserts* on every
//! delivery.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_fabric::{NodeId, RouterId, TopologyRef};
use shrimp_sim::{SimDur, SimHandle, SimTime, StallWindows};

/// Physical parameters of the mesh channels.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Bandwidth of every mesh channel, bytes/second.
    pub link_bytes_per_sec: f64,
    /// Per-router switching latency for the head of a packet.
    pub router_delay: SimDur,
    /// Wire propagation per hop.
    pub wire_latency: SimDur,
    /// Fixed cost for a NIC to start injecting a packet.
    pub injection_overhead: SimDur,
    /// Bytes of routing header prepended on the wire to every packet.
    pub header_bytes: usize,
    /// Wire size of a header-only *control* packet (remote-fetch
    /// requests and NAKs): routing header plus the descriptor words.
    pub ctl_header_bytes: usize,
    /// Per-input latency of a router's combining stage (in-network
    /// fetch-and-add / reduce — see the `collnet` module). Only paid by
    /// hardware-collective traffic.
    pub combine_delay: SimDur,
}

impl LinkParams {
    /// Parameters approximating the Intel Paragon backplane used by the
    /// prototype: 16-bit-wide channels at 175 MB/s, ~40 ns per router.
    pub fn paragon() -> LinkParams {
        LinkParams {
            link_bytes_per_sec: 175.0e6,
            router_delay: SimDur::from_ns(40.0),
            wire_latency: SimDur::from_ns(10.0),
            injection_overhead: SimDur::from_ns(50.0),
            header_bytes: 8,
            // Routing header plus a 24-byte fetch descriptor.
            ctl_header_bytes: 32,
            // An ALU pass over the combining buffer per arriving input.
            combine_delay: SimDur::from_ns(25.0),
        }
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::paragon()
    }
}

/// A packet presented to the destination sink.
#[derive(Debug)]
pub struct Delivery<P> {
    /// Injecting node.
    pub src: NodeId,
    /// Destination node (always the sink's node).
    pub dst: NodeId,
    /// Per-(src, dst) sequence number, starting at zero.
    pub seq: u64,
    /// Tail arrival time at the destination NIC.
    pub at: SimTime,
    /// Payload size in bytes, as declared at injection.
    pub payload_bytes: usize,
    /// The payload handed to [`Backplane::inject`].
    pub payload: P,
}

/// Aggregate traffic statistics for a backplane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets injected so far (control packets included).
    pub injected: u64,
    /// Packets delivered so far (control packets included).
    pub delivered: u64,
    /// Total payload bytes delivered (headers excluded).
    pub payload_bytes: u64,
    /// Header-only control packets injected (remote-fetch requests and
    /// NAKs), a subset of `injected`.
    pub ctl_packets: u64,
}

/// Injected link faults (see `shrimp_sim::faults`). Faults only delay
/// channel reservations, never drop or reorder them, so the hardware's
/// in-order delivery contract survives every fault plan.
#[derive(Default)]
struct MeshFaults {
    /// Stall/slowdown windows applying to all channels of one router.
    per_router: std::collections::HashMap<usize, StallWindows>,
    /// Windows applying to a single channel (per-link fault plans).
    per_channel: std::collections::HashMap<usize, StallWindows>,
    /// Windows applying to every channel (bandwidth brownouts).
    global: StallWindows,
}

impl MeshFaults {
    fn is_empty(&self) -> bool {
        self.per_router.is_empty() && self.per_channel.is_empty() && self.global.is_empty()
    }
}

struct PairSeq {
    next_inject: u64,
    next_deliver: u64,
}

type Sink<P> = Arc<dyn Fn(Delivery<P>) + Send + Sync + 'static>;

/// The routing backplane, generic over the payload type `P` carried in
/// each packet (the NIC layer uses its own packet struct) and over the
/// fabric [`Topology`](shrimp_fabric::Topology) it routes packets through.
///
/// # Examples
///
/// ```
/// use shrimp_sim::Kernel;
/// use shrimp_mesh::{Backplane, LinkParams, Mesh2D, NodeId};
/// use std::sync::{Arc, Mutex};
///
/// let kernel = Kernel::new();
/// let net: Arc<Backplane<u32>> = Backplane::new(
///     kernel.handle(),
///     Arc::new(Mesh2D::shrimp_prototype()),
///     LinkParams::paragon(),
/// );
/// let got = Arc::new(Mutex::new(Vec::new()));
/// let g = Arc::clone(&got);
/// net.attach(NodeId(3), move |d| g.lock().unwrap().push(d.payload));
/// net.inject(NodeId(0), NodeId(3), 64, 7);
/// kernel.run_until_quiescent()?;
/// assert_eq!(*got.lock().unwrap(), vec![7]);
/// # Ok::<(), shrimp_sim::SimError>(())
/// ```
pub struct Backplane<P> {
    topo: TopologyRef,
    params: LinkParams,
    handle: SimHandle,
    /// Channels per router: `[inject, eject, port 0, port 1, ...]`.
    ch_per_router: usize,
    /// Each channel's timeline, the instant it next falls free;
    /// `ch_per_router` per router.
    channels: Vec<Mutex<SimTime>>,
    /// Cached per-channel wire latency (`wire_latency` scaled by the
    /// topology's [`Topology::wire_factor`]), indexed like `channels`.
    /// `wire_factor` is a pure function of `(router, port)`, so the cache
    /// is exact — same values, computed once instead of per hop.
    wire: Vec<SimDur>,
    sinks: Mutex<Vec<Option<Sink<P>>>>,
    pair_seq: Mutex<std::collections::HashMap<(NodeId, NodeId), PairSeq>>,
    stats: Mutex<MeshStats>,
    faults: Mutex<MeshFaults>,
    /// The recorder current when the backplane was built, if any: every
    /// injection then records a `mesh/route` span from injection to
    /// tail arrival.
    obs: Option<Arc<shrimp_obs::Recorder>>,
}

pub(crate) const CH_INJECT: usize = 0;
pub(crate) const CH_EJECT: usize = 1;

impl<P: Send + 'static> Backplane<P> {
    /// Build a backplane over `topo` with the given channel parameters,
    /// recording into the thread's current `shrimp_obs` recorder, if
    /// one is installed.
    pub fn new(handle: SimHandle, topo: TopologyRef, params: LinkParams) -> Arc<Backplane<P>> {
        let ch_per_router = 2 + topo.ports();
        let n = topo.len();
        let n_channels = n * ch_per_router;
        let wire = (0..n_channels)
            .map(|idx| {
                let (router, ch) = (idx / ch_per_router, idx % ch_per_router);
                if ch < 2 {
                    // Inject/eject slots: NIC-to-router stubs, factor 1.0.
                    return params.wire_latency;
                }
                let f = topo.wire_factor(router, ch - 2);
                if f == 1.0 {
                    params.wire_latency
                } else {
                    SimDur::from_ps((params.wire_latency.as_ps() as f64 * f).ceil() as u64)
                }
            })
            .collect();
        Arc::new(Backplane {
            topo,
            params,
            handle,
            ch_per_router,
            channels: (0..n_channels).map(|_| Mutex::new(SimTime::ZERO)).collect(),
            wire,
            sinks: Mutex::new(vec![None; n]),
            pair_seq: Mutex::new(std::collections::HashMap::new()),
            stats: Mutex::new(MeshStats::default()),
            faults: Mutex::new(MeshFaults::default()),
            obs: shrimp_obs::Recorder::current(),
        })
    }

    /// The topology this backplane routes over.
    pub fn topology(&self) -> &TopologyRef {
        &self.topo
    }

    /// The channel parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Register the delivery sink for `node` (its NIC's incoming side).
    /// Replaces any previous sink.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn attach(&self, node: NodeId, sink: impl Fn(Delivery<P>) + Send + Sync + 'static) {
        let mut sinks = self.sinks.lock();
        assert!(node.0 < sinks.len(), "{node} out of range");
        sinks[node.0] = Some(Arc::new(sink));
    }

    /// Inject a packet of `payload_bytes` (plus the wire header) at the
    /// current time; computes the full path reservation and schedules the
    /// delivery event. Returns the delivery (tail-arrival) time.
    ///
    /// Per-(src, dst) delivery order is guaranteed: injections are
    /// processed atomically in simulation-event order and all packets of
    /// a pair follow the same path.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, or (at delivery time) if no
    /// sink is attached to `dst`.
    pub fn inject(
        self: &Arc<Self>,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        payload: P,
    ) -> SimTime {
        self.inject_msg(src, dst, payload_bytes, payload, shrimp_obs::MsgId::NONE)
    }

    /// [`inject`](Backplane::inject), attributing the packet to a causal
    /// message id for observability. The mesh span runs from injection
    /// to tail arrival on the source node's timeline.
    pub fn inject_msg(
        self: &Arc<Self>,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        payload: P,
        msg: shrimp_obs::MsgId,
    ) -> SimTime {
        let wire_bytes = payload_bytes + self.params.header_bytes;
        self.inject_inner(src, dst, payload_bytes, wire_bytes, payload, msg, false)
    }

    /// Inject a header-only *control* packet (a remote-fetch request or
    /// NAK): zero payload bytes, [`LinkParams::ctl_header_bytes`] on the
    /// wire. Control packets share the data packets' channels and
    /// per-pair FIFO order.
    pub fn inject_ctl_msg(
        self: &Arc<Self>,
        src: NodeId,
        dst: NodeId,
        payload: P,
        msg: shrimp_obs::MsgId,
    ) -> SimTime {
        let wire_bytes = self.params.ctl_header_bytes;
        self.inject_inner(src, dst, 0, wire_bytes, payload, msg, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn inject_inner(
        self: &Arc<Self>,
        src: NodeId,
        dst: NodeId,
        payload_bytes: usize,
        wire_bytes: usize,
        payload: P,
        msg: shrimp_obs::MsgId,
        is_ctl: bool,
    ) -> SimTime {
        let now = self.handle.now();
        let ser = SimDur::per_bytes(wire_bytes, self.params.link_bytes_per_sec);

        let seq = {
            let mut seqs = self.pair_seq.lock();
            let entry = seqs.entry((src, dst)).or_insert(PairSeq {
                next_inject: 0,
                next_deliver: 0,
            });
            let s = entry.next_inject;
            entry.next_inject += 1;
            s
        };

        // Reserve the whole path atomically (we hold no channel lock across
        // packets: the simulation kernel serializes injections).
        let mut head = now + self.params.injection_overhead;
        {
            // Injection channel: NIC -> local router.
            let inj = self.channel_index(src.0, CH_INJECT);
            let (start, _) = self.reserve(inj, head, ser);
            head = start + self.params.router_delay + self.params.wire_latency;
        }
        for hop in self.topo.route(src, dst, 0) {
            let idx = self.channel_index(hop.router, 2 + hop.port);
            let (start, _) = self.reserve(idx, head, ser);
            head = start + self.params.router_delay + self.wire[idx];
        }
        // Ejection channel: router -> destination NIC. The tail arrives
        // when the ejection channel finishes serializing the packet, which
        // under a brownout takes longer than the healthy `ser`.
        let ej = self.channel_index(dst.0, CH_EJECT);
        let (_, tail_arrival) = self.reserve(ej, head, ser);

        {
            let mut st = self.stats.lock();
            st.injected += 1;
            if is_ctl {
                st.ctl_packets += 1;
            }
        }

        if let Some(rec) = &self.obs {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: src.0,
                layer: shrimp_obs::Layer::Mesh,
                name: "route",
                start: now,
                end: tail_arrival,
                bytes: payload_bytes,
            });
        }

        let me = Arc::clone(self);
        self.handle.schedule_at(tail_arrival, move || {
            me.deliver(Delivery {
                src,
                dst,
                seq,
                at: tail_arrival,
                payload_bytes,
                payload,
            });
        });
        tail_arrival
    }

    fn deliver(&self, d: Delivery<P>) {
        {
            let mut seqs = self.pair_seq.lock();
            let entry = seqs
                .get_mut(&(d.src, d.dst))
                .expect("delivery without injection");
            assert_eq!(
                entry.next_deliver, d.seq,
                "mesh ordering violated for {} -> {}",
                d.src, d.dst
            );
            entry.next_deliver += 1;
        }
        {
            let mut st = self.stats.lock();
            st.delivered += 1;
            st.payload_bytes += d.payload_bytes as u64;
        }
        let sink = {
            let sinks = self.sinks.lock();
            sinks[d.dst.0].clone()
        };
        let sink = sink.unwrap_or_else(|| panic!("no sink attached to {}", d.dst));
        sink(d);
    }

    pub(crate) fn channel_index(&self, router: RouterId, ch: usize) -> usize {
        router * self.ch_per_router + ch
    }

    /// Wire propagation for one hop, scaled by the topology's per-link
    /// factor (precomputed per channel at build time — the common
    /// factor-1.0 path is bit-identical to the pre-trait mesh).
    pub(crate) fn hop_wire(&self, router: RouterId, port: usize) -> SimDur {
        self.wire[self.channel_index(router, 2 + port)]
    }

    pub(crate) fn reserve(&self, idx: usize, at: SimTime, ser: SimDur) -> (SimTime, SimTime) {
        let (at, ser) = self.apply_faults(idx, at, ser);
        let mut next_free = self.channels[idx].lock();
        // Tail-append: the channel serves packets in reservation order,
        // which (per pair) is injection order — the FIFO discipline
        // VMMC's in-order contract rides on.
        let start = at.max(*next_free);
        *next_free = start + ser;
        (start, start + ser)
    }

    /// Delay `at` past any active stall window on channel `idx` and
    /// dilate `ser` by any active brownout. Channel timelines remain
    /// FIFO because both effects only move reservations later.
    fn apply_faults(&self, idx: usize, at: SimTime, ser: SimDur) -> (SimTime, SimDur) {
        let f = self.faults.lock();
        if f.is_empty() {
            return (at, ser);
        }
        let router = idx / self.ch_per_router;
        let mut t = f.global.release(at);
        let mut factor = f.global.factor_at(t);
        if let Some(w) = f.per_router.get(&router) {
            t = w.release(t);
            factor = factor.max(w.factor_at(t));
        }
        if let Some(w) = f.per_channel.get(&idx) {
            t = w.release(t);
            factor = factor.max(w.factor_at(t));
        }
        let ser = if factor > 1.0 {
            SimDur::from_ps((ser.as_ps() as f64 * factor).ceil() as u64)
        } else {
            ser
        };
        (t, ser)
    }

    /// Fault hook: stall all channels of `node`'s router (injection,
    /// ejection, and every routing port) for `dur` starting at `start`.
    pub fn stall_node_links(&self, node: NodeId, start: SimTime, dur: SimDur) {
        self.faults
            .lock()
            .per_router
            .entry(node.0)
            .or_default()
            .add_stall(start, dur);
    }

    /// Fault hook: stall the single link leaving `router` through `port`
    /// for `dur` starting at `start` — per-link fault plans for the
    /// topology-parameterized chaos workloads. Unlike
    /// [`stall_node_links`](Backplane::stall_node_links) this can target
    /// individual wraparound or global links.
    pub fn stall_link(&self, router: RouterId, port: usize, start: SimTime, dur: SimDur) {
        assert!(router < self.topo.len(), "router {router} out of range");
        let idx = self.channel_index(router, 2 + port);
        self.faults
            .lock()
            .per_channel
            .entry(idx)
            .or_default()
            .add_stall(start, dur);
    }

    /// Fault hook: slow every channel's serialization by `factor` for
    /// `dur` starting at `start` (a mesh-wide bandwidth brownout).
    pub fn brownout(&self, start: SimTime, dur: SimDur, factor: f64) {
        self.faults.lock().global.add_slowdown(start, dur, factor);
    }

    /// Snapshot of traffic statistics.
    pub fn stats(&self) -> MeshStats {
        *self.stats.lock()
    }

    /// The simulation handle this backplane schedules on.
    pub(crate) fn sim(&self) -> &SimHandle {
        &self.handle
    }

    /// Unloaded tail-arrival latency for a packet of `payload_bytes` from
    /// `src` to `dst` — the analytic lower bound used by tests. Assumes
    /// factor-1.0 wires, so it is a bound, not an exact prediction, on a
    /// fabric with longer wires.
    pub fn unloaded_latency(&self, src: NodeId, dst: NodeId, payload_bytes: usize) -> SimDur {
        let ser = SimDur::per_bytes(
            payload_bytes + self.params.header_bytes,
            self.params.link_bytes_per_sec,
        );
        let hops = self.topo.min_distance(src, dst) as u64 + 1; // + injection hop
        self.params.injection_overhead
            + (self.params.router_delay + self.params.wire_latency) * hops
            + ser
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_fabric::Mesh2D;
    use shrimp_sim::Kernel;

    fn net(kernel: &Kernel) -> Arc<Backplane<u64>> {
        Backplane::new(
            kernel.handle(),
            Arc::new(Mesh2D::shrimp_prototype()),
            LinkParams::paragon(),
        )
    }

    #[test]
    fn single_packet_latency_matches_analytic_bound() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        let at = net.inject(NodeId(0), NodeId(3), 100, 1);
        let expect = net.unloaded_latency(NodeId(0), NodeId(3), 100);
        assert_eq!(at, SimTime::ZERO + expect);
    }

    #[test]
    fn deliveries_are_in_order_per_pair() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        net.attach(NodeId(1), move |d| g.lock().push(d.payload));
        for i in 0..20 {
            net.inject(NodeId(0), NodeId(1), (i as usize % 7) * 100 + 4, i);
        }
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*got.lock(), (0..20).collect::<Vec<u64>>());
        let st = net.stats();
        assert_eq!(st.injected, 20);
        assert_eq!(st.delivered, 20);
    }

    #[test]
    fn contention_serializes_on_shared_channel() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        net.attach(NodeId(1), |_| {});
        // Two back-to-back packets on the same path: second tail arrives
        // at least one serialization time after the first.
        let t1 = net.inject(NodeId(0), NodeId(1), 1000, 1);
        let t2 = net.inject(NodeId(0), NodeId(1), 1000, 2);
        let ser = SimDur::per_bytes(1008, LinkParams::paragon().link_bytes_per_sec);
        assert!(t2 >= t1 + ser, "t1={t1} t2={t2} ser={ser}");
        kernel.run_until_quiescent().unwrap();
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        net.attach(NodeId(1), |_| {});
        net.attach(NodeId(2), |_| {});
        let a = net.inject(NodeId(0), NodeId(1), 500, 1); // east
        let b = net.inject(NodeId(3), NodeId(2), 500, 2); // west, bottom row
                                                          // Same unloaded latency; identical because paths share no channel.
        assert_eq!(a, b);
        kernel.run_until_quiescent().unwrap();
    }

    #[test]
    #[should_panic(expected = "no sink attached")]
    fn delivery_without_sink_panics() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        net.inject(NodeId(0), NodeId(1), 4, 9);
        // The panic surfaces via the event closure on the kernel thread.
        let _ = kernel.run_until_quiescent();
    }

    #[test]
    fn stalled_links_delay_but_preserve_order() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        net.attach(NodeId(1), move |d| g.lock().push((d.payload, d.at)));
        // Node 0's links stall for 30 us right from t=0.
        net.stall_node_links(NodeId(0), SimTime::ZERO, SimDur::from_us(30.0));
        let healthy = net.unloaded_latency(NodeId(0), NodeId(1), 64);
        for i in 0..5 {
            net.inject(NodeId(0), NodeId(1), 64, i);
        }
        kernel.run_until_quiescent().unwrap();
        let v = got.lock().clone();
        assert_eq!(
            v.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(
            v[0].1 >= SimTime::ZERO + SimDur::from_us(30.0),
            "first delivery {} must wait out the stall",
            v[0].1
        );
        assert!(v[0].1 < SimTime::ZERO + SimDur::from_us(31.0) + healthy);
        assert!(
            v.windows(2).all(|w| w[0].1 <= w[1].1),
            "deliveries stay time-ordered"
        );
    }

    #[test]
    fn stalled_single_link_reroutes_nothing_but_delays() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        net.attach(NodeId(1), |_| {});
        net.attach(NodeId(2), |_| {});
        // Stall only node 0's east link (port 0). 0->1 rides it; 0->2
        // goes south (port 2) and must be unaffected. Inject south first
        // so it does not queue behind east on the shared inject channel.
        net.stall_link(0, 0, SimTime::ZERO, SimDur::from_us(20.0));
        let south = net.inject(NodeId(0), NodeId(2), 64, 2);
        let east = net.inject(NodeId(0), NodeId(1), 64, 1);
        assert!(east >= SimTime::ZERO + SimDur::from_us(20.0));
        assert_eq!(
            south,
            SimTime::ZERO + net.unloaded_latency(NodeId(0), NodeId(2), 64)
        );
        kernel.run_until_quiescent().unwrap();
    }

    #[test]
    fn brownout_dilates_serialization() {
        let kernel = Kernel::new();
        let slow = net(&kernel);
        slow.attach(NodeId(1), |_| {});
        slow.brownout(SimTime::ZERO, SimDur::from_us(1_000.0), 4.0);
        let t_slow = slow.inject(NodeId(0), NodeId(1), 4096, 1);
        kernel.run_until_quiescent().unwrap();

        let kernel2 = Kernel::new();
        let fast = net(&kernel2);
        fast.attach(NodeId(1), |_| {});
        let t_fast = fast.inject(NodeId(0), NodeId(1), 4096, 1);
        kernel2.run_until_quiescent().unwrap();
        assert!(
            t_slow > t_fast + (t_fast - SimTime::ZERO),
            "4x brownout should more than double the 4 KB latency: {t_slow} vs {t_fast}"
        );
    }

    #[test]
    fn header_bytes_are_charged_on_every_packet() {
        // A network configured with zero header bytes must be faster by
        // exactly the header's serialization time — per packet, on every
        // channel of the (unloaded) path: the tail arrival differs by one
        // header serialization because the tail is delayed only by the
        // last channel's finish time.
        let kernel = Kernel::new();
        let with_header = net(&kernel);
        let mut p = LinkParams::paragon();
        p.header_bytes = 0;
        let headerless: Arc<Backplane<u64>> =
            Backplane::new(kernel.handle(), Arc::new(Mesh2D::shrimp_prototype()), p);
        with_header.attach(NodeId(3), |_| {});
        headerless.attach(NodeId(3), |_| {});

        // per_bytes rounds up once per call, so compute the expected gap
        // as the difference of the two wire serializations.
        let rate = LinkParams::paragon().link_bytes_per_sec;
        let h = LinkParams::paragon().header_bytes;
        let header_ser = |payload: usize| {
            SimDur::per_bytes(payload + h, rate) - SimDur::per_bytes(payload, rate)
        };
        assert!(header_ser(256) > SimDur::ZERO);

        let t_with = with_header.inject(NodeId(0), NodeId(3), 256, 1);
        let t_without = headerless.inject(NodeId(0), NodeId(3), 256, 1);
        assert_eq!(t_with, t_without + header_ser(256));

        // And the analytic bound accounts for it identically, for any
        // payload size (headers are per packet, not per byte).
        for bytes in [0usize, 1, 64, 4096] {
            let a = with_header.unloaded_latency(NodeId(0), NodeId(3), bytes);
            let b = headerless.unloaded_latency(NodeId(0), NodeId(3), bytes);
            assert_eq!(a, b + header_ser(bytes), "payload {bytes}");
        }
        kernel.run_until_quiescent().unwrap();
    }

    #[test]
    fn self_send_uses_injection_and_ejection_only() {
        let kernel = Kernel::new();
        let net = net(&kernel);
        let got = Arc::new(Mutex::new(0u64));
        let g = Arc::clone(&got);
        net.attach(NodeId(2), move |d| *g.lock() = d.payload);
        let at = net.inject(NodeId(2), NodeId(2), 64, 42);
        assert_eq!(
            at,
            SimTime::ZERO + net.unloaded_latency(NodeId(2), NodeId(2), 64)
        );
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*got.lock(), 42);
    }
}
