//! A key-value store served by `shrimp-svc`: one shard server per
//! node, primary–backup replication chained over VMMC deposits, and
//! consistent-hash routing — the whole server side is
//! [`SvcCluster::spawn`]; clients are a [`SvcClient`] each.
//!
//! Run with: `cargo run --example kv_server`

use shrimp::prelude::*;
use shrimp::svc::{SvcClient, SvcCluster, SvcConfig};

/// When the run ends, in virtual picoseconds.
const FINISH_PS: u64 = 155_040_000_000;

pub(crate) fn main() {
    let kernel = Kernel::new();
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());

    // One shard primary per node, each chained to a backup replica on
    // the next node; a put's ack means the write reached the backup.
    let cluster = SvcCluster::spawn(&system, SvcConfig::chained(system.len()));
    cluster.register_clients(2);

    // --- Writer client on node 0 --------------------------------------
    {
        let cluster = std::sync::Arc::clone(&cluster);
        kernel.spawn("writer", move |ctx| {
            let mut c = SvcClient::new(&cluster, 0, "writer");
            for i in 0..10u32 {
                let key = format!("sensor/{i}");
                let val = vec![i as u8; 20 + i as usize];
                let ack = c.put(ctx, key.as_bytes(), &val).unwrap();
                assert!(!ack.existed);
            }
            println!("[{}] writer: stored 10 keys", ctx.now());
            cluster.client_done();
        });
    }

    // --- Reader client on node 1 (starts after the writer) ------------
    {
        let cluster = std::sync::Arc::clone(&cluster);
        kernel.spawn("reader", move |ctx| {
            // Crude coordination: let the writer finish first.
            ctx.advance(SimDur::from_us(50_000.0));
            let mut c = SvcClient::new(&cluster, 1, "reader");
            let mut found = 0;
            for i in 0..12u32 {
                let key = format!("sensor/{i}");
                let (_seq, val) = c.get(ctx, key.as_bytes()).unwrap();
                if let Some(v) = val {
                    assert_eq!(v.len(), 20 + i as usize);
                    found += 1;
                }
            }
            let deleted = c.del(ctx, b"sensor/0").unwrap();
            println!(
                "[{}] reader: found {found}/12 keys, delete(sensor/0)={}",
                ctx.now(),
                deleted.existed
            );
            assert_eq!((found, deleted.existed), (10, true));
            let (_seq, gone) = c.get(ctx, b"sensor/0").unwrap();
            assert_eq!(gone, None, "a deleted key reads back as absent");
            cluster.client_done();
        });
    }

    kernel.run_until_quiescent().expect("kv example failed");
    assert!(system.violations().is_empty());
    println!("done at simulated time {}", kernel.now());
    // Virtual time is exact: tests/examples.rs runs this `main`.
    assert_eq!(kernel.now().as_ps(), FINISH_PS);
}
