//! Zero-copy read-through end to end: with `read_through` on, gets of
//! cache-resident keys are answered by one-sided fetches of the
//! primary's slot table, every answer matches the RPC path's, and an
//! epoch bump (a planned migration) invalidates the stale table —
//! clients re-import the new generation's and keep reading correctly.

use std::sync::Arc;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel};
use shrimp_svc::{ClusterEvent, SvcClient, SvcCluster, SvcConfig, WATCH_INTERVAL};

#[test]
fn read_through_gets_hit_and_survive_epoch_bump() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let nodes = system.len();
    let mut cfg = SvcConfig::chained(nodes);
    cfg.read_through = true;
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(1);

    let cl = Arc::clone(&cluster);
    kernel.spawn("client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "rt");
        let keys: Vec<Vec<u8>> = (0..24)
            .map(|i| format!("rt-key-{i:02}").into_bytes())
            .collect();
        for (i, key) in keys.iter().enumerate() {
            let val = format!("value-{i:02}-payload").into_bytes();
            cli.put(ctx, key, &val).unwrap();
        }
        // First pass may fall back while tables come up; the answers
        // must be right either way.
        for pass in 0..2 {
            for (i, key) in keys.iter().enumerate() {
                let (seq, val) = cli.get(ctx, key).unwrap();
                assert!(seq > 0, "pass {pass}: key {i} must carry its write's seq");
                assert_eq!(
                    val.as_deref(),
                    Some(format!("value-{i:02}-payload").as_bytes()),
                    "pass {pass}: key {i} read back wrong"
                );
            }
        }
        let warm = cli.stats();
        assert!(
            warm.fetch_hits > 0,
            "warm gets must be served by one-sided fetches: {warm:?}"
        );

        // A deleted key answers through the slot's tombstone.
        cli.del(ctx, &keys[3]).unwrap();
        let (seq, val) = cli.get(ctx, &keys[3]).unwrap();
        assert!(seq > 0 && val.is_none(), "tombstone read: ({seq}, {val:?})");

        // Epoch bump: a fault-plan directive, fired now, migrates one
        // key's shard to another node. The old table's epoch no longer
        // matches, so the client re-imports the new generation's table
        // and keeps reading correctly.
        let probe = keys[7].clone();
        let shard = cli.shard_of(&probe);
        let before = cl.route(shard);
        let target = (before.primary + 1) % nodes;
        let migrate = FaultKind::Directive {
            op: "migrate",
            a: shard as u64,
            b: target as u64,
        };
        let at = ctx.now();
        let plan = FaultPlan::scripted(vec![FaultEvent { at, kind: migrate }]);
        cl.system().apply_faults(&plan);
        let mut waited = 0;
        while cl.route(shard).epoch == before.epoch {
            ctx.advance(WATCH_INTERVAL);
            waited += 1;
            assert!(waited < 500, "migration never activated");
        }
        let (seq, val) = cli.get(ctx, &probe).unwrap();
        assert!(seq > 0, "post-migration read lost the entry");
        assert_eq!(val.as_deref(), Some(b"value-07-payload".as_ref()));
        // Warm the new generation's table, then require a fetched hit.
        let h0 = cli.stats().fetch_hits;
        for _ in 0..3 {
            let (_, v) = cli.get(ctx, &probe).unwrap();
            assert_eq!(v.as_deref(), Some(b"value-07-payload".as_ref()));
        }
        assert!(
            cli.stats().fetch_hits > h0,
            "the migrated shard's new table must serve fetches: {:?}",
            cli.stats()
        );
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
