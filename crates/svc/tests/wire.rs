//! The KV service on the wire, counted at the NICs.
//!
//! On an unreplicated cluster SRPC is the only traffic: a warmed remote
//! `get`, `put` or `del` is one automatic-update packet to the shard
//! primary and one back — the whole request one store run, the whole
//! reply another — and each carries only the bytes the call uses: a key
//! or a value is its bytes, padded to a word, then a length word. The
//! handlers are the real ones, so a `put` or `del` that set its
//! fixed-size results out of `KV_IDL`'s declaration order would show
//! here as extra packets.
//!
//! On a chained cluster a `put` adds the replication stream and nothing
//! else: from the primary the record, one deliberate-update packet of
//! the record's own bytes, and the flag word, one automatic-update
//! packet; from the backup the ack word, one automatic-update packet.

use std::sync::Arc;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Ctx, Kernel};
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig, MAX_KEY, MAX_VAL};

/// Run `body` as a client on node 0 of a 2×2 cluster, holding a warmed
/// key whose shard's primary and backup both live on other nodes.
fn with_warm_remote_key(
    replication: bool,
    body: impl FnOnce(&Ctx, &ShrimpSystem, &SvcCluster, &mut SvcClient, &[u8]) + Send + 'static,
) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let mut cfg = SvcConfig::chained(system.len());
    cfg.replication = replication;
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(1);

    let (cl, sys) = (Arc::clone(&cluster), Arc::clone(&system));
    kernel.spawn("client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "wire");
        let key = (0..64)
            .map(|i| format!("wire-key-{i}").into_bytes())
            .find(|k| {
                let route = cl.route(cli.shard_of(k));
                route.primary != 0 && route.backup != Some(0)
            })
            .expect("some key lives on a remote shard");
        // Warm the binding and both directions' pages.
        cli.put(ctx, &key, b"first value").unwrap();
        assert_eq!(
            cli.get(ctx, &key).unwrap().1.as_deref(),
            Some(&b"first value"[..])
        );
        body(ctx, &sys, &cl, &mut cli, &key);
        cl.client_done();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

/// `node`'s NIC counters so far: `[au out, du out, bytes out, packets in]`.
fn counts(sys: &ShrimpSystem, node: usize) -> [u64; 4] {
    let st = sys.nic(node).stats();
    [
        st.au_packets_out,
        st.du_packets_out,
        st.bytes_out,
        st.packets_in,
    ]
}

/// Bytes an `opaque<N>` holding `len` bytes puts on the wire.
fn opaque(len: usize) -> u64 {
    (len.div_ceil(4) * 4 + 4) as u64
}

/// What `op` adds to the [`counts`] of each of `nodes`.
fn added<const N: usize>(
    sys: &ShrimpSystem,
    nodes: [usize; N],
    op: impl FnOnce(),
) -> [[u64; 4]; N] {
    let before = nodes.map(|n| counts(sys, n));
    op();
    let mut after = nodes.map(|n| counts(sys, n));
    for (a, b) in after.iter_mut().zip(before) {
        for (a, b) in a.iter_mut().zip(b) {
            *a -= b;
        }
    }
    after
}

#[test]
fn every_kv_procedure_is_one_packet_each_way() {
    with_warm_remote_key(false, |ctx, sys, cl, cli, key| {
        let primary = cl.route(cli.shard_of(key)).primary;
        // Bytes out, then back: the request's fields and flag, the
        // reply's fields and flag.
        let (k, first, second) = (opaque(key.len()), opaque(11), opaque(12));
        let mut packets = |what: &str, bytes: [u64; 2], op: &mut dyn FnMut(&mut SvcClient)| {
            let [c, p] = added(sys, [0, primary], || op(cli));
            assert_eq!((c[0], p[0]), (1, 1), "{what}: packets out, back");
            assert_eq!([c[2], p[2]], bytes, "{what}: bytes out, back");
            // Each side saw its flag only once the whole run had landed.
            assert_eq!(p[3], 1, "{what}: at the primary");
            assert_eq!(c[3], 1, "{what}: at the client");
            assert_eq!(counts(sys, 0)[1] + counts(sys, primary)[1], 0, "{what}");
        };
        packets("get", [k + 4, 4 + 4 + first + 4], &mut |cli| {
            let (seq, val) = cli.get(ctx, key).unwrap();
            assert!(seq > 0);
            assert_eq!(val.as_deref(), Some(&b"first value"[..]));
        });
        packets("put", [k + second + 4, 12], &mut |cli| {
            assert!(cli.put(ctx, key, b"second value").unwrap().existed);
        });
        packets("del", [k + 4, 12], &mut |cli| {
            assert!(cli.del(ctx, key).unwrap().existed);
        });
        packets("get of a tombstone", [k + 4, 4 + 4 + 4 + 4], &mut |cli| {
            let (seq, val) = cli.get(ctx, key).unwrap();
            assert!(seq > 0 && val.is_none());
        });
    });
}

#[test]
fn the_widest_key_and_value_are_still_one_packet_each_way() {
    with_warm_remote_key(false, |ctx, sys, cl, cli, _| {
        let key = (0..64)
            .map(|i| format!("{i:0>width$}", width = MAX_KEY).into_bytes())
            .find(|k| cl.route(cli.shard_of(k)).primary != 0)
            .expect("some key lives on a remote shard");
        let primary = cl.route(cli.shard_of(&key)).primary;
        let val = [0xA5; MAX_VAL];
        // Warm this shard's binding.
        cli.put(ctx, &key, &val).unwrap();
        let [c, p] = added(sys, [0, primary], || {
            assert!(cli.put(ctx, &key, &val).unwrap().existed);
        });
        assert_eq!((c[0], p[0]), (1, 1), "put: packets out, back");
        assert_eq!((c[2], p[2]), (36 + 68 + 4, 12), "put: bytes out, back");
        let [c, p] = added(sys, [0, primary], || {
            assert_eq!(cli.get(ctx, &key).unwrap().1.as_deref(), Some(&val[..]));
        });
        assert_eq!((c[0], p[0]), (1, 1), "get: packets out, back");
        assert_eq!(
            (c[2], p[2]),
            (36 + 4, 4 + 4 + 68 + 4),
            "get: bytes out, back"
        );
    });
}

#[test]
fn a_replicated_put_adds_one_record_one_flag_and_one_ack() {
    with_warm_remote_key(true, |ctx, sys, cl, cli, key| {
        let route = cl.route(cli.shard_of(key));
        let (primary, backup) = (route.primary, route.backup.expect("chained"));
        let [c, p, b] = added(sys, [0, primary, backup], || {
            assert!(cli.put(ctx, key, b"second value").unwrap().existed);
        });
        // The client's side is the unreplicated fast path, unchanged.
        assert_eq!((c[0], c[1], c[3]), (1, 0, 1), "client");
        // The primary: its one reply packet (three words: seq, existed,
        // flag), the record stored into the backup's eager slot and the
        // flag word, all three by automatic update. A live record is
        // packed — a 24-byte header, then the key and value each padded
        // to a word.
        let record = (24 + key.len().div_ceil(4) * 4 + b"second value".len()) as u64;
        assert_eq!((p[0], p[1]), (3, 0), "primary: au, du out");
        assert_eq!(p[2], 12 + record + 4, "primary: bytes out");
        assert_eq!(p[3], 2, "primary in: the request, the ack word");
        // The backup: the ack word out; the record and the flag in.
        assert_eq!((b[0], b[1], b[2]), (1, 0, 4), "backup out");
        assert_eq!(b[3], 2, "backup in: the record, the flag word");
    });
}
