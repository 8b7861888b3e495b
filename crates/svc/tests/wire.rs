//! The KV fast path on the wire: a warmed remote `get`, `put` or `del`
//! is one automatic-update packet to the shard primary and one back —
//! the whole request one store run, the whole reply another. Counted at
//! the NICs of an unreplicated cluster, where SRPC is the only traffic.
//! The handlers are the real ones, so a procedure that set its results
//! out of `KV_IDL`'s declaration order would show here as extra packets.

use std::sync::Arc;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::Kernel;
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

#[test]
fn every_kv_procedure_is_one_packet_each_way() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let mut cfg = SvcConfig::chained(system.len());
    cfg.replication = false;
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(1);

    let (cl, sys) = (Arc::clone(&cluster), Arc::clone(&system));
    kernel.spawn("client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "wire");
        let key = (0..64)
            .map(|i| format!("wire-key-{i}").into_bytes())
            .find(|k| cl.route(cli.shard_of(k)).primary != 0)
            .expect("some key lives on a remote shard");
        let primary = cl.route(cli.shard_of(&key)).primary;
        // Warm the binding and both directions' pages.
        cli.put(ctx, &key, b"first value").unwrap();
        assert_eq!(
            cli.get(ctx, &key).unwrap().1.as_deref(),
            Some(&b"first value"[..])
        );

        let mut packets = |what: &str, op: &mut dyn FnMut(&mut SvcClient)| {
            let (c0, p0) = (sys.nic(0).stats(), sys.nic(primary).stats());
            op(&mut cli);
            let (c1, p1) = (sys.nic(0).stats(), sys.nic(primary).stats());
            let out = c1.au_packets_out - c0.au_packets_out;
            let back = p1.au_packets_out - p0.au_packets_out;
            assert_eq!((out, back), (1, 1), "{what}: packets out, back");
            // Each side saw its flag only once the whole run had landed.
            assert_eq!(p1.packets_in - p0.packets_in, 1, "{what}: at the primary");
            assert_eq!(c1.packets_in - c0.packets_in, 1, "{what}: at the client");
            assert_eq!(c1.du_packets_out + p1.du_packets_out, 0, "{what}");
        };
        packets("get", &mut |cli| {
            let (seq, val) = cli.get(ctx, &key).unwrap();
            assert!(seq > 0);
            assert_eq!(val.as_deref(), Some(&b"first value"[..]));
        });
        packets("put", &mut |cli| {
            assert!(cli.put(ctx, &key, b"second value").unwrap().existed);
        });
        packets("del", &mut |cli| {
            assert!(cli.del(ctx, &key).unwrap().existed);
        });
        packets("get of a tombstone", &mut |cli| {
            let (seq, val) = cli.get(ctx, &key).unwrap();
            assert!(seq > 0 && val.is_none());
        });
        cl.client_done();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}
