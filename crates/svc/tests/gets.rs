//! Client `get`s end to end over the RPC path: a remote primary's
//! answer carries its write's sequence and value, a deleted key answers
//! with its tombstone's sequence and no value, and a planned migration
//! moves the shard under a new epoch — the client re-binds to the new
//! generation and reads the latest acknowledged value.

use std::sync::Arc;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel};
use shrimp_svc::{ClusterEvent, SvcClient, SvcCluster, SvcConfig, WATCH_INTERVAL};

/// The value the `i`-th write of a key stores.
fn value(key: usize, i: usize) -> Vec<u8> {
    format!("key {key} value {i}").into_bytes()
}

#[test]
fn gets_answer_writes_tombstones_and_the_latest_value_across_a_migration() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let nodes = system.len();
    let cluster = SvcCluster::spawn(&system, SvcConfig::chained(nodes));
    cluster.register_clients(1);

    let cl = Arc::clone(&cluster);
    kernel.spawn("client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "gets");
        // Keys whose primary is another node, so every get crosses the
        // mesh.
        let keys: Vec<Vec<u8>> = (0..)
            .map(|i| format!("get-key-{i:02}").into_bytes())
            .filter(|k| cl.route(cli.shard_of(k)).primary != 0)
            .take(12)
            .collect();
        assert_eq!(cli.get(ctx, b"never-written").unwrap(), (0, None));

        let mut seqs = Vec::new();
        for (k, key) in keys.iter().enumerate() {
            seqs.push(cli.put(ctx, key, &value(k, 0)).unwrap().seq);
        }
        for (k, key) in keys.iter().enumerate() {
            let got = cli.get(ctx, key).unwrap();
            assert_eq!(got, (seqs[k], Some(value(k, 0))), "key {k}");
        }

        let del = cli.del(ctx, &keys[3]).unwrap();
        assert!(del.existed && del.seq > seqs[3], "{del:?}");
        assert_eq!(cli.get(ctx, &keys[3]).unwrap(), (del.seq, None));

        // A fault-plan directive, fired now, migrates one key's shard to
        // another node. The client keeps writing that key until the
        // handoff activates, then reads the last write it saw acked.
        let (k, probe) = (7, keys[7].clone());
        let shard = cli.shard_of(&probe);
        let before = cl.route(shard);
        let target = (before.primary + 1) % nodes;
        let migrate = FaultKind::Directive {
            op: "migrate",
            a: shard as u64,
            b: target as u64,
        };
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: ctx.now(),
            kind: migrate,
        }]);
        cl.system().apply_faults(&plan);
        let mut last = (seqs[k], value(k, 0));
        let mut writes = 0;
        while cl.route(shard).epoch == before.epoch {
            writes += 1;
            assert!(writes < 500, "migration never activated");
            let val = value(k, writes);
            last = (cli.put(ctx, &probe, &val).unwrap().seq, val);
            ctx.advance(WATCH_INTERVAL / 4);
        }
        let after = cl.route(shard);
        assert_eq!(after.primary, target, "the shard moved");
        assert!(writes > 1, "writes ran while the handoff was under way");
        assert_eq!(cli.get(ctx, &probe).unwrap(), (last.0, Some(last.1)));

        // The new generation serves writes and reads too.
        let fresh = value(k, writes + 1);
        let seq = cli.put(ctx, &probe, &fresh).unwrap().seq;
        assert!(seq > last.0);
        assert_eq!(cli.get(ctx, &probe).unwrap(), (seq, Some(fresh)));
        cl.client_done();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty(), "{:?}", system.violations());
    assert!(
        cluster
            .events()
            .iter()
            .any(|e| matches!(e, ClusterEvent::Migrated { .. })),
        "the migration must have been recorded: {}",
        cluster.event_log()
    );
}
