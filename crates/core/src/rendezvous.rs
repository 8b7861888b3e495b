//! The set-up rendezvous: how the parties of a channel learn each
//! other's buffer names.
//!
//! Every library of the paper sets up its channels in the same steps: each
//! party exports its receive buffers, makes their names known through a
//! trusted third party (NX's loader), waits until every peer has done
//! the same, then imports the peers' buffers. [`Rendezvous`] is the
//! third party: a table of published names and a gate that opens when
//! the last party arrives. Exporting and importing stay with the caller,
//! which knows what a channel is made of.
//!
//! Two rules make a bounded wait safe to retry:
//!
//! * a party is counted **once**, however often it arrives, so a retry
//!   cannot stand in for a peer that never came;
//! * a party whose wait runs out **leaves**, so a late peer cannot pass
//!   the gate on the strength of an attempt that was abandoned (and
//!   import the names it left behind).
//!
//! A caller publishes its names before every arrival, so once the gate
//! opens every name in the table is one its owner is still waiting on.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use shrimp_sim::{Ctx, SimDur, WaitQueue};

/// A rendezvous of a fixed number of parties, numbered `0..parties`,
/// that publish values (buffer names, typically) under keys of type
/// `K`.
#[derive(Debug)]
pub struct Rendezvous<K, V> {
    parties: usize,
    published: Mutex<HashMap<K, V>>,
    /// The parties waiting now, each counted once.
    present: Mutex<HashSet<usize>>,
    /// Set by the last arrival and never cleared: a party that arrives
    /// later passes at once.
    opened: AtomicBool,
    waiting: WaitQueue,
}

impl<K: Eq + Hash, V: Clone> Rendezvous<K, V> {
    /// A rendezvous that opens when all `parties` are present.
    pub fn new(parties: usize) -> Rendezvous<K, V> {
        Rendezvous {
            parties,
            published: Mutex::default(),
            present: Mutex::default(),
            opened: AtomicBool::new(false),
            waiting: WaitQueue::new(),
        }
    }

    /// Publish `value` under `key`, replacing what an earlier attempt
    /// left there.
    pub fn publish(&self, key: K, value: V) {
        self.published.lock().insert(key, value);
    }

    /// Arrive as `party` and wait up to `budget` for every other party.
    /// The last to arrive opens the gate for all, at its arrival
    /// instant. Returns `false` if the budget ran out first; the party
    /// has then left, and must arrive again to be counted.
    pub fn arrive(&self, ctx: &Ctx, party: usize, budget: SimDur) -> bool {
        let arrived = {
            let mut present = self.present.lock();
            present.insert(party);
            present.len()
        };
        if arrived == self.parties {
            self.opened.store(true, Ordering::Relaxed);
            self.waiting.notify_all(&ctx.handle());
        }
        if self.opened.load(Ordering::Relaxed) || self.waiting.wait(ctx, Some(ctx.now() + budget)) {
            return true;
        }
        self.present.lock().remove(&party);
        false
    }

    /// The value published under `key`.
    ///
    /// # Panics
    ///
    /// Panics if nothing was: every party publishes before it arrives,
    /// so after a successful [`arrive`](Rendezvous::arrive) a missing
    /// key is the caller's bug.
    pub fn published(&self, key: &K) -> V {
        self.published.lock()[key].clone()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;
    use shrimp_sim::{Kernel, SimTime};

    use super::*;

    fn us(t: f64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(t)
    }

    /// Runs one process per party on a bare kernel. Party `p` arrives at
    /// each `(at, budget)` of `tries[p]` in turn, stopping at the first
    /// that passes the gate. Returns every arrival's outcome and
    /// instant, by party.
    fn run(tries: Vec<Vec<(f64, f64)>>) -> Vec<Vec<(bool, SimTime)>> {
        let (kernel, n) = (Kernel::new(), tries.len());
        let meet = Arc::new(Rendezvous::<usize, usize>::new(n));
        let seen = Arc::new(Mutex::new(vec![Vec::new(); n]));
        for (party, tries) in tries.into_iter().enumerate() {
            let (meet, seen) = (Arc::clone(&meet), Arc::clone(&seen));
            kernel.spawn(format!("party{party}"), move |ctx| {
                for (at, budget) in tries {
                    ctx.sleep_until(us(at));
                    meet.publish(party, party);
                    let passed = meet.arrive(ctx, party, SimDur::from_us(budget));
                    seen.lock()[party].push((passed, ctx.now()));
                    if passed {
                        assert!((0..n).all(|p| meet.published(&p) == p));
                        return;
                    }
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
        let seen = seen.lock().clone();
        seen
    }

    /// Party 0 gives up at 110 µs and retries at 200 µs while party 2
    /// still waits: counted twice, its retry would open the gate alone.
    /// Counted once, the gate opens when party 1 arrives at 1 000 µs.
    #[test]
    fn a_retried_party_is_counted_once() {
        let seen = run(vec![
            vec![(10.0, 100.0), (200.0, 5_000.0)],
            vec![(1_000.0, 5_000.0)],
            vec![(0.0, 5_000.0)],
        ]);
        assert_eq!(seen[0], [(false, us(110.0)), (true, us(1_000.0))]);
        assert_eq!(seen[1], [(true, us(1_000.0))]);
        assert_eq!(seen[2], [(true, us(1_000.0))]);
    }

    /// Party 0 gives up before party 1 arrives, so party 1 waits alone
    /// and gives up too.
    #[test]
    fn a_party_that_gave_up_is_not_counted() {
        let seen = run(vec![vec![(0.0, 100.0)], vec![(1_000.0, 100.0)]]);
        assert_eq!(seen[0], [(false, us(100.0))]);
        assert_eq!(seen[1], [(false, us(1_100.0))]);
    }

    /// Every party passes the gate at the instant the last one arrives.
    #[test]
    fn the_gate_opens_at_the_last_arrival() {
        let seen = run(vec![
            vec![(30.0, 100.0)],
            vec![(10.0, 100.0)],
            vec![(20.0, 100.0)],
        ]);
        assert!(seen.iter().all(|s| s[..] == [(true, us(30.0))]), "{seen:?}");
    }

    /// The gate stays open once the last party opens it: a party that
    /// arrives again afterwards passes at its own arrival instant, with
    /// budget to spare, and its arrival opens the gate a second time
    /// harmlessly.
    #[test]
    fn a_party_arriving_after_the_open_passes_at_its_arrival() {
        let kernel = Kernel::new();
        let meet = Arc::new(Rendezvous::<usize, usize>::new(2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        for (party, arrivals) in [(0, [10.0, 50.0]), (1, [20.0, 70.0])] {
            let (meet, seen) = (Arc::clone(&meet), Arc::clone(&seen));
            kernel.spawn(format!("party{party}"), move |ctx| {
                for at in arrivals {
                    ctx.sleep_until(us(at));
                    let passed = meet.arrive(ctx, party, SimDur::from_us(100.0));
                    seen.lock().push((party, passed, ctx.now()));
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
        let seen = seen.lock().clone();
        assert_eq!(
            seen,
            [
                (1, true, us(20.0)),
                (0, true, us(20.0)),
                (0, true, us(50.0)),
                (1, true, us(70.0)),
            ]
        );
    }

    /// A party alone gives up exactly at its arrival plus its budget.
    #[test]
    fn a_lone_party_gives_up_at_its_budget() {
        let seen = run(vec![vec![(5.0, 100.0)], vec![]]);
        assert_eq!(seen[0], [(false, us(105.0))]);
        assert!(seen[1].is_empty());
    }
}
