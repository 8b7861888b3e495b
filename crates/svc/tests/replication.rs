//! The live record stream under faults, end to end.
//!
//! A replicated `put` sends its record by deliberate update, then
//! stores the flag word by automatic update; the backup applies the
//! record and stores the ack word back. Two properties rest on that:
//!
//! * **Data before its flag.** The flag is stored only after the
//!   record's blocking send completed, so it lands behind the record
//!   however the primary's links and DMA engines are held up. A flag
//!   that overtook its record would make the backup decode a stale or
//!   empty slot and unwind; the put would then never be acked.
//! * **A dead backup is found by the fenced ack wait.** A store cannot
//!   fail the way a transfer can, so nothing on the send side notices a
//!   dead backup. The primary's bounded ack wait does, one
//!   [`WATCH_INTERVAL`] slice at a time, and degrades the put.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_obs::{Layer, Recorder, SpanRec};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel, SimDur, SimTime};
use shrimp_svc::{Applied, ClusterEvent, SvcClient, SvcCluster, SvcConfig, WATCH_INTERVAL};

/// One timed put: when it was issued, when it returned, what came back.
type Put = (SimTime, SimTime, Result<Applied, shrimp_svc::SvcError>);

/// What one [`run`] saw.
struct Run {
    cluster: Arc<SvcCluster>,
    key: Vec<u8>,
    shard: usize,
    primary: usize,
    backup: usize,
    puts: Vec<Put>,
    spans: Vec<SpanRec>,
}

/// The value the `i`-th timed put writes.
fn value(i: usize) -> Vec<u8> {
    format!("value number {i}").into_bytes()
}

/// On a 2×2 chained cluster under `plan`, a client on node 0 warms a
/// key whose primary and backup both live elsewhere, then puts `n`
/// values to it back to back.
fn run(n: usize, plan: &FaultPlan) -> Run {
    let rec = Recorder::new();
    let _g = rec.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    system.apply_faults(plan);
    let cluster = SvcCluster::spawn(&system, SvcConfig::chained(system.len()));
    cluster.register_clients(1);
    let key = (0..64)
        .map(|i| format!("repl-key-{i}").into_bytes())
        .find(|k| {
            let route = cluster.route(cluster.ring().shard_of(k));
            route.primary != 0 && route.backup != Some(0)
        })
        .expect("some key lives on a remote shard");
    let shard = cluster.ring().shard_of(&key);
    let route = cluster.route(shard);

    let puts = Arc::new(Mutex::new(Vec::new()));
    let (cl, log, k) = (Arc::clone(&cluster), Arc::clone(&puts), key.clone());
    kernel.spawn("client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "repl");
        cli.put(ctx, &k, b"warm").unwrap();
        for i in 0..n {
            let start = ctx.now();
            let done = cli.put(ctx, &k, &value(i));
            log.lock().push((start, ctx.now(), done));
        }
        cl.client_done();
    });
    kernel.run_until_quiescent().unwrap();
    let puts = std::mem::take(&mut *puts.lock());
    assert_eq!(puts.len(), n, "the client never finished");
    Run {
        cluster,
        key,
        shard,
        primary: route.primary,
        backup: route.backup.expect("the chained layout replicates"),
        puts,
        spans: rec.spans(),
    }
}

impl Run {
    /// Whether the shard's backup was ever dropped, and when.
    fn backup_lost(&self) -> Option<SimTime> {
        self.cluster.events().iter().find_map(|e| match e {
            ClusterEvent::BackupLost { at, shard, .. } if *shard == self.shard => Some(*at),
            _ => None,
        })
    }

    /// The one `raise` span `node` recorded during the `i`-th put.
    fn raise(&self, i: usize, node: usize) -> SpanRec {
        let (start, end, _) = self.puts[i];
        let hits: Vec<&SpanRec> = self
            .spans
            .iter()
            .filter(|s| (s.layer, s.name, s.node) == (Layer::User, "raise", node))
            .filter(|s| s.start >= start && s.end <= end)
            .collect();
        assert_eq!(hits.len(), 1, "node {node}: {hits:?}");
        hits[0].clone()
    }
}

#[test]
fn replicated_puts_keep_data_before_flag_under_stalls() {
    const PUTS: usize = 24;
    let clear = run(PUTS, &FaultPlan::empty());
    let (from, to) = (clear.puts[0].0, clear.puts[PUTS - 1].1);
    // A 2 µs stall every 5 µs across the timed puts, taking turns:
    // the primary's incoming DMA, the primary's links, and the
    // backup's incoming DMA, where a flag that overtook its record
    // would be read first. Every leg of every put meets some of them.
    let dur = SimDur::from_us(2.0);
    let kinds = [
        FaultKind::DmaStall {
            node: clear.primary,
            dur,
        },
        FaultKind::LinkStall {
            node: clear.primary,
            dur,
        },
        FaultKind::DmaStall {
            node: clear.backup,
            dur,
        },
    ];
    let events: Vec<FaultEvent> = (0..)
        .map(|k| from + SimDur::from_us(5.0) * k as u64)
        .take_while(|at| *at < to)
        .zip(kinds.iter().cycle())
        .map(|(at, kind)| FaultEvent {
            at,
            kind: kind.clone(),
        })
        .collect();
    let stalled = run(PUTS, &FaultPlan::scripted(events));

    assert_eq!(
        (stalled.primary, stalled.backup),
        (clear.primary, clear.backup)
    );
    assert!(
        stalled.puts[PUTS - 1].1 > to,
        "the stalls held up no put: they missed the stream"
    );
    for (i, (_, _, done)) in stalled.puts.iter().enumerate() {
        assert!(done.is_ok(), "put {i}: {done:?}");
    }
    // No put degraded: the receiver never unwound on a bad decode (an
    // unwound receiver acks nothing, and the put it strands either
    // degrades or runs out its budget).
    assert_eq!(
        stalled.backup_lost(),
        None,
        "{}",
        stalled.cluster.event_log()
    );
    assert_eq!(
        stalled.cluster.route(stalled.shard).backup,
        Some(stalled.backup)
    );
    let primary = stalled.cluster.authoritative_store(stalled.shard);
    let backup = stalled.cluster.backup_store(stalled.shard).unwrap();
    let (primary, backup) = (primary.lock().digest(), backup.lock().digest());
    assert_eq!(
        primary, backup,
        "the backup store diverged from the primary's"
    );
}

#[test]
fn a_backup_dead_between_flag_and_ack_degrades_the_put_on_the_fenced_wait() {
    let clear = run(1, &FaultPlan::empty());
    let flag = clear.raise(0, clear.primary);
    let ack = clear.raise(0, clear.backup);
    let window = ack.start.since(flag.end);
    assert!(window > SimDur::ZERO, "the ack came before the flag");
    // From the flag's store to just before the ack's: while the flag is
    // in flight, as it lands, and while the backup applies the record.
    for k in 0..4 {
        let crash = flag.end + window * k / 4;
        let plan = FaultPlan::scripted(vec![FaultEvent {
            at: crash,
            kind: FaultKind::DaemonCrash {
                node: clear.backup,
                downtime: SimDur::from_us(10_000.0),
            },
        }]);
        let r = run(1, &plan);
        let (_, end, done) = &r.puts[0];
        let acked = done.as_ref().expect("a degraded put is still acked");
        let lost = r.backup_lost().expect("the put must degrade");
        assert!(
            lost <= *end && *end <= crash + WATCH_INTERVAL * 2,
            "crash at {crash:?}: demoted at {lost:?}, put returned at {end:?}"
        );
        assert_eq!(r.cluster.route(r.shard).backup, None);
        // Zero lost acks: the primary holds exactly what it acked.
        let store = r.cluster.authoritative_store(r.shard);
        let (seq, val) = {
            let g = store.lock();
            let (seq, val) = g.get(&r.key);
            (seq, val.map(<[u8]>::to_vec))
        };
        assert_eq!(
            (seq, val),
            (acked.seq, Some(value(0))),
            "crash at {crash:?}"
        );
    }
}
