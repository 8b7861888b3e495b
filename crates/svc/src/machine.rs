//! One shard's recovery decisions as a pure state machine.
//!
//! A [`ShardMachine`] holds a shard's route, the store handles that
//! route serves, the status of every sync it claimed and its queue of
//! planned handoffs. Its one decision method, [`ShardMachine::step`],
//! takes an [`Event`] and returns the [`Action`]s it calls for. It
//! holds no `Ctx`, VMMC endpoint or system and takes no lock: daemon
//! liveness comes in as a per-node [`Liveness`] snapshot and time as
//! `now`, and the store handles are data it hands on, never locks. A
//! test builds one and drives it with no kernel.
//!
//! `SvcCluster` keeps every shard's machine under one lock, and the
//! service processes are its interpreters: they step a machine, drop
//! the lock, then run the actions in order — record a
//! [`ClusterEvent`], spawn a serve generation or a sync. The watchdog
//! steps `Tick`, `Migrate`, `Claim` and `Rearm`; a sync's orchestrator
//! `Failed` and `Committed`; the live replicator `Degraded`. A sync's receiver only reads its [`Status`]. Per-put
//! admission (`frozen`, `writers`) is read and written in place under
//! the same lock rather than stepped: it runs on every put and must
//! not allocate.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_sim::{SimChannel, SimDur, SimTime};

use crate::cluster::{ClusterEvent, ShardRoute};
use crate::server::{ReplReq, Sync, SyncKind};
use crate::store::ShardStore;

/// A shard's store, shared by the generations that serve it.
pub(crate) type Store = Arc<Mutex<ShardStore>>;

/// Cooldown after a setback — a backup lost, a transition failed or
/// deposed — before the watchdog re-arms or migrates, so crash-loops
/// don't thrash the sync path: three watchdog polls.
pub(crate) const REARM_GRACE: SimDur = SimDur::from_ps(300_000_000); // 300 us

/// One node's mapping daemon as a watchdog poll saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Liveness {
    /// The daemon is down.
    pub(crate) down: bool,
    /// Its restarts so far: one the route has not seen is a crash the
    /// poll may have missed entirely.
    pub(crate) restarts: u64,
}

/// The receiving end of a sync: once the sync commits (an epoch-0
/// sync's from the start), the shard's live backup.
#[derive(Debug, Clone)]
pub(crate) struct BackupLink {
    /// Backup node index.
    pub(crate) node: usize,
    /// The replica store (authoritative after promotion).
    pub(crate) store: Store,
    /// The sync that arms it, by its place in the machine's sync
    /// table: the key of its [`Status`].
    pub(crate) gen: usize,
}

/// Where a sync stands; its receiver polls this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Claimed; its cut not yet committed.
    Pending,
    /// Installed by the activation CAS (an epoch-0 sync starts here).
    Active,
    /// Failed, or lost the activation CAS: the receiver unwinds.
    Aborted,
    /// Its backup was promoted: the receiver serves under this epoch.
    Promoted(u32),
}

/// What a machine is told. `now` is the event's instant, `live` every
/// node's daemon at that instant.
pub(crate) enum Event<'a> {
    /// `Tick(now, live)`: a watchdog poll's first pass — promote the
    /// backup over a primary whose daemon is down or restarted, else
    /// revive an unreplicated primary whose daemon restarted.
    Tick(SimTime, &'a [Liveness]),
    /// `Migrate(ticket, to)`: a fault-plan `migrate` directive, the
    /// `ticket`-th directive of the run, queues a handoff of the
    /// primary to node `to`.
    Migrate(usize, usize),
    /// `Claim(now, live, ticket)`: the poll's second pass, once per
    /// `migrate` directive of the run in firing order — claim handoff
    /// `ticket` if it is still queued here and can start now.
    Claim(SimTime, &'a [Liveness], usize),
    /// `Rearm(now, live)`: the poll's last pass — claim a re-arm of a
    /// lost backup.
    Rearm(SimTime, &'a [Liveness]),
    /// `Degraded(now)`: the live record stream degraded — demote the
    /// backup so no promotion trusts the stale replica.
    Degraded(SimTime),
    /// `Failed(now, gen)`: sync `gen` failed before its cut's ack.
    Failed(SimTime, usize),
    /// `Committed(now, live, sync)`: `sync`'s cut was acked — the
    /// activation CAS.
    Committed(SimTime, &'a [Liveness], &'a Sync),
}

/// What a machine decided; its interpreter runs these in order.
pub(crate) enum Action {
    /// Append to the cluster's transition trail.
    Record(ClusterEvent),
    /// `Serve(shard, epoch, node, store, repl)`: spawn a serve
    /// generation of `shard` under `epoch` on `node`, serving `store`,
    /// chained through the live replicator's queue `repl` if it has one.
    Serve(usize, u32, usize, Store, Option<SimChannel<ReplReq>>),
    /// `Sync(shard, sync)`: spawn the orchestrator of a claimed sync.
    Sync(usize, Sync),
}

/// One shard's routing and transition state.
pub(crate) struct ShardMachine {
    shard: usize,
    /// Born replicated: re-arm a backup whenever it is lost.
    rearms: bool,
    route: ShardRoute,
    /// The primary node's daemon restart count when the route was
    /// established.
    primary_restarts: u64,
    /// The authoritative store of the current generation.
    store: Store,
    /// The live backup attachment, if any.
    backup: Option<BackupLink>,
    /// A write freeze is in force (migration/re-arm delta drain).
    pub(crate) frozen: bool,
    /// Mutations currently inside apply+replicate.
    pub(crate) writers: usize,
    /// A sync owns this shard right now.
    busy: bool,
    /// No re-arm/migration before this instant.
    not_before: SimTime,
    /// Every sync so far, by `BackupLink::gen`.
    syncs: Vec<Status>,
    /// Planned handoffs awaiting a healthy window: `(ticket, to)`,
    /// oldest first.
    migrations: VecDeque<(usize, usize)>,
}

impl ShardMachine {
    /// Shard `shard`'s epoch-0 machine: its primary on `primary`, whose
    /// daemon has restarted `restarts` times, and — chained — its
    /// backup on `backup`, live from the start as sync 0.
    pub(crate) fn new(
        shard: usize,
        primary: usize,
        backup: Option<usize>,
        restarts: u64,
    ) -> ShardMachine {
        let mut m = ShardMachine {
            shard,
            rearms: backup.is_some(),
            route: ShardRoute {
                primary,
                backup: None,
                epoch: 0,
            },
            primary_restarts: restarts,
            store: Store::default(),
            backup: None,
            frozen: false,
            writers: 0,
            busy: false,
            not_before: SimTime::ZERO,
            syncs: Vec::new(),
            migrations: VecDeque::new(),
        };
        if let Some(node) = backup {
            m.route.backup = Some(node);
            m.backup = Some(m.link(node, Status::Active));
        }
        m
    }

    /// The current route.
    pub(crate) fn route(&self) -> ShardRoute {
        self.route
    }

    /// The store currently authoritative.
    pub(crate) fn store(&self) -> &Store {
        &self.store
    }

    /// The live backup attachment.
    pub(crate) fn backup(&self) -> Option<&BackupLink> {
        self.backup.as_ref()
    }

    /// Where sync `gen` stands.
    pub(crate) fn status(&self, gen: usize) -> Status {
        self.syncs[gen]
    }

    /// Whether the primary's daemon is up and has not restarted since
    /// the route was established.
    fn healthy(&self, live: &[Liveness]) -> bool {
        let d = live[self.route.primary];
        !d.down && d.restarts == self.primary_restarts
    }

    /// Whether a sync may start: the primary healthy, the shard idle,
    /// un-frozen and past its cooldown.
    fn idle(&self, now: SimTime, live: &[Liveness]) -> bool {
        !self.busy && !self.frozen && now >= self.not_before && self.healthy(live)
    }

    /// A new sync's receiving end: an empty store on `node`, its status
    /// starting at `status`.
    fn link(&mut self, node: usize, status: Status) -> BackupLink {
        self.syncs.push(status);
        let (store, gen) = (Store::default(), self.syncs.len() - 1);
        BackupLink { node, store, gen }
    }

    /// Claim the shard for a sync of `kind` from the primary into an
    /// empty store on node `to`: busy until the sync commits or fails.
    pub(crate) fn claim(&mut self, kind: SyncKind, to: usize) -> Sync {
        self.busy = true;
        let target = self.link(to, Status::Pending);
        Sync::new(kind, self.route.epoch, self.route.primary, target)
    }

    /// Make `node` the unreplicated primary under `epoch`, serving
    /// `store`: a promotion's or a migration's new route.
    fn move_primary(&mut self, node: usize, store: Store, epoch: u32, live: &[Liveness]) {
        (self.route.primary, self.route.backup, self.route.epoch) = (node, None, epoch);
        self.primary_restarts = live[node].restarts;
        self.store = store;
        self.backup = None;
    }

    /// Decide on one event.
    pub(crate) fn step(&mut self, ev: Event<'_>) -> Vec<Action> {
        let shard = self.shard;
        let mut out = Vec::new();
        // Each arm says whether it was a setback — a backup lost, a
        // sync failed or deposed — and when.
        let setback = match ev {
            Event::Tick(now, live) if self.backup.is_some() && !self.healthy(live) => {
                let link = self.backup.take().expect("checked above");
                let (from, to, epoch) = (self.route.primary, link.node, self.route.epoch + 1);
                self.move_primary(to, link.store, epoch, live);
                self.syncs[link.gen] = Status::Promoted(epoch);
                out.push(Action::Record(ClusterEvent::Promoted {
                    at: now,
                    shard,
                    from,
                    to,
                    epoch,
                }));
                Some(now)
            }
            Event::Tick(now, live) => {
                // The shard's mappings died with the daemon but its
                // store did not: a fresh generation re-exports it.
                let (node, d) = (self.route.primary, live[self.route.primary]);
                let restarted = !d.down && d.restarts != self.primary_restarts;
                if self.backup.is_none() && !self.busy && restarted {
                    self.route.epoch += 1;
                    self.primary_restarts = d.restarts;
                    let (at, epoch) = (now, self.route.epoch);
                    let revived = ClusterEvent::Revived {
                        at,
                        shard,
                        node,
                        epoch,
                    };
                    let store = Arc::clone(&self.store);
                    out.push(Action::Record(revived));
                    out.push(Action::Serve(shard, epoch, node, store, None));
                }
                None
            }
            Event::Migrate(ticket, to) => {
                self.migrations.push_back((ticket, to));
                None
            }
            Event::Claim(now, live, ticket) => {
                let Some(i) = self.migrations.iter().position(|&(t, _)| t == ticket) else {
                    return out;
                };
                let to = self.migrations[i].1;
                // A handoff to the primary is already done; one that
                // cannot start yet stays queued.
                if to != self.route.primary {
                    if !self.idle(now, live) || live[to].down {
                        return out;
                    }
                    out.push(Action::Sync(shard, self.claim(SyncKind::Migrate, to)));
                }
                self.migrations.remove(i);
                None
            }
            Event::Rearm(now, live) => {
                // The new backup: the next alive node after the primary.
                let (p, n) = (self.route.primary, live.len());
                let to = (1..n).map(|i| (p + i) % n).find(|&node| !live[node].down);
                let wanted = self.rearms && self.backup.is_none() && self.idle(now, live);
                if let Some(to) = to.filter(|_| wanted) {
                    let sync = self.claim(SyncKind::Rearm(SimChannel::new()), to);
                    out.push(Action::Sync(shard, sync));
                }
                None
            }
            Event::Degraded(now) => {
                if let Some(link) = self.backup.take() {
                    self.route.backup = None;
                    let (at, node) = (now, link.node);
                    out.push(Action::Record(ClusterEvent::BackupLost { at, shard, node }));
                }
                Some(now)
            }
            Event::Failed(now, gen) => {
                self.syncs[gen] = Status::Aborted;
                self.busy = false;
                Some(now)
            }
            // The activation CAS: a promotion (or revival) since the
            // claim bumped the epoch it saw, and the sync fails.
            Event::Committed(now, _, sync) if self.route.epoch != sync.epoch => {
                return self.step(Event::Failed(now, sync.target.gen));
            }
            Event::Committed(now, live, sync) => {
                self.busy = false;
                let (at, epoch, target) = (now, sync.epoch + 1, &sync.target);
                let to = target.node;
                self.syncs[target.gen] = Status::Active;
                if let SyncKind::Rearm(rx) = &sync.kind {
                    // The source serves on, chained to the new backup.
                    let primary = self.route.primary;
                    self.route.epoch = epoch;
                    self.route.backup = Some(to);
                    self.backup = Some(target.clone());
                    out.push(Action::Record(ClusterEvent::Rearmed {
                        at,
                        shard,
                        primary,
                        backup: to,
                        epoch,
                    }));
                    let (source, repl) = (Arc::clone(&self.store), Some(rx.clone()));
                    out.push(Action::Serve(shard, epoch, primary, source, repl));
                } else {
                    // The target serves the synced store, unreplicated
                    // until the watchdog re-arms.
                    let (from, store) = (self.route.primary, Arc::clone(&target.store));
                    self.move_primary(to, Arc::clone(&store), epoch, live);
                    out.push(Action::Record(ClusterEvent::Migrated {
                        at,
                        shard,
                        from,
                        to,
                        epoch,
                    }));
                    out.push(Action::Serve(shard, epoch, to, store, None));
                }
                None
            }
        };
        // The one cooldown rule: after a setback, no sync is claimed
        // for `REARM_GRACE`.
        if let Some(now) = setback {
            self.not_before = now + REARM_GRACE;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four nodes, every daemon up and never restarted.
    const UP: [Liveness; 4] = [Liveness {
        down: false,
        restarts: 0,
    }; 4];

    /// The same, with node 0's daemon down.
    fn node0_down() -> [Liveness; 4] {
        let mut live = UP;
        live[0].down = true;
        live
    }

    fn at(us: f64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(us)
    }

    /// The transitions `acts` record.
    fn records(acts: &[Action]) -> Vec<ClusterEvent> {
        (acts.iter())
            .filter_map(|a| match a {
                Action::Record(e) => Some(*e),
                _ => None,
            })
            .collect()
    }

    /// The sync `acts` spawn, if any.
    fn claimed(acts: Vec<Action>) -> Option<Sync> {
        acts.into_iter().find_map(|a| match a {
            Action::Sync(_, sync) => Some(sync),
            _ => None,
        })
    }

    /// Shard 0, primary on node 0, backup on node 1.
    fn chained() -> ShardMachine {
        ShardMachine::new(0, 0, Some(1), 0)
    }

    /// The activation CAS refuses a sync whose claim saw an older epoch:
    /// a migration claimed before its source primary died, then
    /// committed after the promotion, installs nothing. Installed, it
    /// would hand the shard to a target synced from a deposed primary.
    #[test]
    fn a_sync_claimed_under_a_deposed_epoch_never_activates() {
        let mut m = chained();
        m.step(Event::Migrate(0, 2));
        let claim = m.step(Event::Claim(at(100.0), &UP, 0));
        let sync = claimed(claim).expect("a healthy shard is claimable");
        let down = node0_down();
        let promoted = m.step(Event::Tick(at(200.0), &down));
        assert!(matches!(
            records(&promoted)[..],
            [ClusterEvent::Promoted { to: 1, .. }]
        ));
        let route = m.route();
        assert_eq!(route.epoch, sync.epoch + 1);
        let acts = m.step(Event::Committed(at(300.0), &down, &sync));
        assert!(acts.is_empty(), "{:?}", records(&acts));
        assert_eq!(m.route(), route);
        assert_eq!(m.status(sync.target.gen), Status::Aborted);
    }

    /// A degraded stream demotes the backup for good: a poll that finds
    /// the primary dead afterwards promotes nothing. Promoted, the stale
    /// replica would serve without the writes acked since it fell
    /// behind.
    #[test]
    fn a_demoted_backup_is_never_promoted() {
        let mut m = chained();
        let lost = m.step(Event::Degraded(at(100.0)));
        assert!(matches!(
            records(&lost)[..],
            [ClusterEvent::BackupLost { node: 1, .. }]
        ));
        let acts = m.step(Event::Tick(at(200.0), &node0_down()));
        assert!(records(&acts).is_empty(), "{:?}", records(&acts));
        let route = m.route();
        assert_eq!((route.primary, route.backup, route.epoch), (0, None, 0));
        assert_eq!(m.status(0), Status::Active, "its receiver finds it deposed");
    }

    /// A degraded stream and a failed sync are each a setback: no re-arm
    /// is claimed until `REARM_GRACE` after it, and one is claimed then.
    #[test]
    fn a_degraded_stream_and_a_failed_sync_each_hold_rearm_off_for_the_grace() {
        let rearm = |m: &mut ShardMachine, now| claimed(m.step(Event::Rearm(now, &UP)));
        let just_before = |t: SimTime| t - SimDur::from_ps(1);
        let mut m = chained();
        m.step(Event::Degraded(at(100.0)));
        let t = at(100.0) + REARM_GRACE;
        assert!(rearm(&mut m, just_before(t)).is_none());
        let sync = rearm(&mut m, t).expect("re-armed once the grace is over");
        assert_eq!((sync.target.node, sync.epoch), (1, 0));
        assert!(rearm(&mut m, t).is_none(), "one sync at a time");

        let gen = sync.target.gen;
        m.step(Event::Failed(at(500.0), gen));
        assert_eq!(m.status(gen), Status::Aborted);
        let t = at(500.0) + REARM_GRACE;
        assert!(rearm(&mut m, just_before(t)).is_none());
        assert!(rearm(&mut m, t).is_some());
    }

    /// A committed re-arm installs its target as the live backup, and a
    /// later poll that finds the primary dead promotes it — the status
    /// its receiver reads says under which epoch to serve.
    #[test]
    fn a_rearmed_backup_is_promoted_when_its_primary_dies() {
        let mut m = chained();
        m.step(Event::Degraded(at(0.0)));
        let rearm = m.step(Event::Rearm(at(0.0) + REARM_GRACE, &UP));
        let sync = claimed(rearm).expect("re-armed");
        assert_eq!(m.status(sync.target.gen), Status::Pending);
        let acts = m.step(Event::Committed(at(400.0), &UP, &sync));
        assert!(matches!(
            acts[..],
            [
                Action::Record(ClusterEvent::Rearmed { epoch: 1, .. }),
                Action::Serve(0, 1, 0, _, Some(_)),
            ]
        ));
        let route = ShardRoute {
            primary: 0,
            backup: Some(1),
            epoch: 1,
        };
        assert_eq!(m.route(), route);
        assert_eq!(m.status(sync.target.gen), Status::Active);

        let acts = m.step(Event::Tick(at(500.0), &node0_down()));
        assert!(matches!(
            records(&acts)[..],
            [ClusterEvent::Promoted {
                from: 0,
                to: 1,
                epoch: 2,
                ..
            }]
        ));
        assert_eq!(m.status(sync.target.gen), Status::Promoted(2));
        assert!(Arc::ptr_eq(m.store(), &sync.target.store));
    }
}
