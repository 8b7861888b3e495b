#![allow(clippy::type_complexity)]

//! Property tests for the mesh backplane: the invariants the VMMC layer
//! and every library protocol rely on.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_mesh::{
    Backplane, DeliveryOrder, Dragonfly, FatTree, LinkParams, Mesh2D, NodeId, TopologyRef, Torus2D,
};
use shrimp_sim::{Kernel, SimDur, SimTime};

#[derive(Debug, Clone)]
struct Injection {
    src: usize,
    dst: usize,
    bytes: usize,
    delay_ns: u64,
}

fn injection_strategy(nodes: usize) -> impl Strategy<Value = Injection> {
    (0..nodes, 0..nodes, 1usize..4096, 0u64..5_000).prop_map(|(src, dst, bytes, delay_ns)| {
        Injection {
            src,
            dst,
            bytes,
            delay_ns,
        }
    })
}

fn run_workload(
    topo: TopologyRef,
    injections: Vec<Injection>,
) -> Vec<(usize, usize, u64, SimTime, usize)> {
    let kernel = Kernel::new();
    let net: Arc<Backplane<u64>> =
        Backplane::new(kernel.handle(), Arc::clone(&topo), LinkParams::paragon());
    let log: Arc<Mutex<Vec<(usize, usize, u64, SimTime, usize)>>> =
        Arc::new(Mutex::new(Vec::new()));
    for node in topo.nodes() {
        let log = Arc::clone(&log);
        net.attach(node, move |d| {
            log.lock()
                .push((d.src.0, d.dst.0, d.seq, d.at, d.payload_bytes));
        });
    }
    // Stagger injections through time via scheduled events.
    let mut t = SimDur::ZERO;
    for (i, inj) in injections.iter().enumerate() {
        t += SimDur::from_ns(inj.delay_ns as f64);
        let net = Arc::clone(&net);
        let inj = inj.clone();
        kernel.schedule_in(t, move || {
            net.inject(NodeId(inj.src), NodeId(inj.dst), inj.bytes, i as u64);
        });
    }
    kernel.run_until_quiescent().unwrap();
    let stats = net.stats();
    assert_eq!(
        stats.injected,
        injections.len() as u64,
        "conservation: all injected"
    );
    assert_eq!(
        stats.delivered,
        injections.len() as u64,
        "conservation: all delivered"
    );
    assert_eq!(stats.reordered, 0, "{} counted an overtake", topo.name());
    let v = log.lock().clone();
    v
}

/// Per pair, sequence numbers rise by one in delivery order, from 0, and
/// delivery instants never go back.
fn assert_pair_fifo(deliveries: &[(usize, usize, u64, SimTime, usize)]) {
    let mut last: std::collections::HashMap<(usize, usize), (u64, SimTime)> =
        std::collections::HashMap::new();
    for &(src, dst, seq, at, _bytes) in deliveries {
        match last.insert((src, dst), (seq, at)) {
            Some((prev, prev_at)) => {
                assert_eq!(seq, prev + 1, "FIFO violated for {src}->{dst}");
                assert!(at >= prev_at);
            }
            None => assert_eq!(seq, 0),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every packet is delivered exactly once, to the right node, in
    /// per-pair FIFO order, and no earlier than the unloaded latency bound.
    #[test]
    fn mesh_delivery_invariants(
        injections in proptest::collection::vec(injection_strategy(4), 1..60)
    ) {
        let topo: TopologyRef = Arc::new(Mesh2D::shrimp_prototype());
        let deliveries = run_workload(topo, injections.clone());
        prop_assert_eq!(deliveries.len(), injections.len());
        assert_pair_fifo(&deliveries);
    }

    /// On every in-order fabric, dense traffic of mixed sizes among four
    /// of its sixteen nodes (sixteen pairs, many packets each) arrives
    /// per pair in injection order, and the backplane counts no
    /// overtake.
    #[test]
    fn in_order_fabrics_keep_each_pairs_order(
        injections in proptest::collection::vec(injection_strategy(4), 1..120)
    ) {
        let fabrics: [TopologyRef; 4] = [
            Arc::new(Mesh2D::new(4, 4)),
            Arc::new(Torus2D::new(4, 4)),
            Arc::new(FatTree::new(16, 4, 2)),
            Arc::new(Dragonfly::new(4, 4)),
        ];
        for topo in fabrics {
            prop_assert_eq!(topo.ordering(), DeliveryOrder::InOrder);
            assert_pair_fifo(&run_workload(topo, injections.clone()));
        }
    }

    /// Delivery on a 4x4 mesh also respects the analytic unloaded bound
    /// when a single packet travels alone.
    #[test]
    fn single_packet_never_beats_light(
        src in 0usize..16, dst in 0usize..16, bytes in 1usize..8192
    ) {
        let topo: TopologyRef = Arc::new(Mesh2D::new(4, 4));
        let kernel = Kernel::new();
        let net: Arc<Backplane<()>> = Backplane::new(kernel.handle(), topo, LinkParams::paragon());
        net.attach(NodeId(dst), |_| {});
        let at = net.inject(NodeId(src), NodeId(dst), bytes, ());
        let bound = net.unloaded_latency(NodeId(src), NodeId(dst), bytes);
        prop_assert_eq!(at, SimTime::ZERO + bound);
        kernel.run_until_quiescent().unwrap();
    }

    /// Total payload bytes delivered equals total injected.
    #[test]
    fn payload_byte_conservation(
        injections in proptest::collection::vec(injection_strategy(4), 1..40)
    ) {
        let topo: TopologyRef = Arc::new(Mesh2D::shrimp_prototype());
        let deliveries = run_workload(topo, injections.clone());
        let injected: usize = injections.iter().map(|i| i.bytes).sum();
        let delivered: usize = deliveries.iter().map(|d| d.4).sum();
        prop_assert_eq!(injected, delivered);
    }
}
