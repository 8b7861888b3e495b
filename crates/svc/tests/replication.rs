//! The live record stream under faults and under load, end to end.
//!
//! A replicated `put` is queued to its shard's live replicator, which
//! packs it with every put queued behind it while the image fits the
//! backup's eager slot, stores that group there by automatic update,
//! then stores the flag word the same way; the backup applies every
//! record the flag admits and stores one ack word back, and only then
//! does any grouped put reply. Three properties rest on that:
//!
//! * **One flag and one ack per group, each reply after its ack.**
//!   Concurrent puts to one shard share chunks, but none is answered
//!   before the backup holds its record, and a record too wide to share
//!   the slot rides alone.
//! * **Data before its flag.** The flag is stored after the record, and
//!   automatic-update packets leave in store order, so it lands behind
//!   the record however the primary's links and DMA engines are held
//!   up. A flag
//!   that overtook its record would make the backup decode a stale or
//!   empty slot and unwind; the put would then never be acked.
//! * **A dead backup is found by the fenced ack wait.** A store cannot
//!   fail the way a transfer can, so nothing on the send side notices a
//!   dead backup. The primary's bounded ack wait does, one
//!   [`WATCH_INTERVAL`] slice at a time, and degrades the put and every
//!   put grouped or queued with it.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_obs::{Layer, Recorder, SpanRec};
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel, SimDur, SimTime};
use shrimp_svc::{
    Applied, ClusterEvent, SvcClient, SvcCluster, SvcConfig, MAX_KEY, MAX_VAL, WATCH_INTERVAL,
};

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

/// What one [`burst`] saw.
struct Burst {
    cluster: Arc<SvcCluster>,
    shard: usize,
    /// Puts the burst made: one live record each.
    records: usize,
    /// Flags the shard's primary stored during the burst: one a chunk.
    flags: usize,
    /// Puts whose reply came while the route still named a backup that
    /// did not hold their record.
    early: Vec<String>,
    /// Each client's key, and the sequence and value of its last put.
    last: Vec<(Vec<u8>, u64, Vec<u8>)>,
}

/// Concurrent clients in [`burst`], each bound to its own serve worker.
const CLIENTS: usize = 4;
/// Puts each client makes in [`burst`], back to back.
const ROUNDS: usize = 6;

/// On a 2×2 chained cluster, [`CLIENTS`] clients on node 0 each warm a
/// `key_len`-byte key of one remote shard, then from one virtual
/// instant on put [`ROUNDS`] `val_len`-byte values to it back to back,
/// so records queue behind the one in flight. At each reply, while the
/// route still names a backup, the client reads the backup's store:
/// the put must already be there. With `crash`, the backup's daemon
/// dies that long after the burst starts.
fn burst(key_len: usize, val_len: usize, crash: Option<SimDur>) -> Burst {
    let rec = Recorder::new();
    let _g = rec.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    // Past every client's bind and warm-up put.
    let start = SimTime::ZERO + SimDur::from_us(5_000.0);
    let cluster = SvcCluster::spawn(&system, SvcConfig::chained(system.len()));
    cluster.register_clients(CLIENTS);
    let shard = (0..system.len())
        .find(|&s| {
            let route = cluster.route(s);
            route.primary != 0 && route.backup != Some(0)
        })
        .expect("some shard lives off the clients' node");
    let route = cluster.route(shard);
    if let Some(after) = crash {
        system.apply_faults(&FaultPlan::scripted(vec![FaultEvent {
            at: start + after,
            kind: FaultKind::DaemonCrash {
                node: route.backup.expect("the chained layout replicates"),
                downtime: SimDur::from_us(10_000.0),
            },
        }]));
    }
    let key_of = |c: usize| {
        (0..)
            .map(|i| {
                let mut k = format!("c{c}k{i}-").into_bytes();
                k.resize(key_len, b'x');
                k
            })
            .find(|k| cluster.ring().shard_of(k) == shard)
            .expect("some key routes to the shard")
    };
    let early = Arc::new(Mutex::new(Vec::new()));
    let last = Arc::new(Mutex::new(Vec::new()));
    for c in 0..CLIENTS {
        let (cl, key) = (Arc::clone(&cluster), key_of(c));
        let (early, last) = (Arc::clone(&early), Arc::clone(&last));
        kernel.spawn(format!("client{c}"), move |ctx| {
            let mut cli = SvcClient::new(&cl, 0, format!("burst{c}"));
            cli.put(ctx, &key, b"warm").unwrap();
            assert!(ctx.now() < start, "client {c} warmed up late");
            ctx.sleep_until(start);
            let mut acked = None;
            for i in 0..ROUNDS {
                let val = vec![b'a' + i as u8; val_len];
                let seq = cli.put(ctx, &key, &val).unwrap().seq;
                if let Some(backup) = cl.backup_store(shard) {
                    let held = {
                        let g = backup.lock();
                        let (held, v) = g.get(&key);
                        held >= seq && v == Some(&val[..])
                    };
                    if !held {
                        early
                            .lock()
                            .push(format!("client {c} put {i} at {}", ctx.now()));
                    }
                }
                acked = Some((seq, val));
            }
            let (seq, val) = acked.expect("at least one round");
            last.lock().push((key, seq, val));
            cl.client_done();
        });
    }
    kernel.run_until_quiescent().unwrap();
    let flags = rec
        .spans()
        .iter()
        .filter(|s| (s.layer, s.name, s.node) == (Layer::User, "raise", route.primary))
        .filter(|s| s.start >= start)
        .count();
    let early = std::mem::take(&mut *early.lock());
    let last = std::mem::take(&mut *last.lock());
    assert_eq!(last.len(), CLIENTS, "a client never finished");
    Burst {
        cluster,
        shard,
        records: CLIENTS * ROUNDS,
        flags,
        early,
        last,
    }
}

#[test]
fn concurrent_puts_share_a_chunk_and_reply_after_its_ack() {
    // Two records of this size fill one eager slot.
    let b = burst(16, 16, None);
    let backup = b.cluster.backup_store(b.shard).expect("no put degraded");
    assert_eq!(
        b.cluster.authoritative_store(b.shard).lock().digest(),
        backup.lock().digest(),
        "the backup store diverged from the primary's"
    );
    assert!(
        b.flags < b.records,
        "{} flags for {} records",
        b.flags,
        b.records
    );
    assert!(
        b.flags >= b.records / 2,
        "{} flags for {} records: more than two shared a slot",
        b.flags,
        b.records
    );
    assert!(
        b.early.is_empty(),
        "replied before the backup held it: {:?}",
        b.early
    );
}

#[test]
fn a_widest_record_rides_its_chunk_alone() {
    let b = burst(MAX_KEY, MAX_VAL, None);
    assert!(b.cluster.backup_store(b.shard).is_some(), "no put degraded");
    assert_eq!(b.flags, b.records, "every widest record is its own chunk");
    assert!(
        b.early.is_empty(),
        "replied before the backup held it: {:?}",
        b.early
    );
}

#[test]
fn a_group_whose_backup_dies_degrades_every_put_it_holds() {
    // The backup dies with records grouped in flight and one carried
    // behind them: every waiting put is answered, as degraded, only
    // after the backup left the route, and none of them is lost.
    let b = burst(16, 16, Some(SimDur::from_us(30.0)));
    assert_eq!(b.cluster.route(b.shard).backup, None, "the put degraded");
    assert!(
        b.early.is_empty(),
        "replied before the backup held it: {:?}",
        b.early
    );
    let store = b.cluster.authoritative_store(b.shard);
    for (key, seq, val) in &b.last {
        let g = store.lock();
        assert_eq!(g.get(key), (*seq, Some(&val[..])), "an acked put was lost");
    }
}
