//! Deterministic, scriptable fault injection.
//!
//! The SHRIMP hardware's reliability contract is strong — in-order
//! wormhole delivery, freeze-and-interrupt on protection violations,
//! trusted daemons — but a production-scale descendant has to survive
//! the contract *bending*: links stalling, DMA engines pausing, daemons
//! restarting. This module provides the substrate every layer's fault
//! hooks share:
//!
//! * [`FaultPlan`] — a schedule of [`FaultEvent`]s, either scripted or
//!   generated from a seed ([`FaultPlan::generate`]). Generation is
//!   driven by [`SplitMix64`], so the same `(seed, spec)` always yields
//!   the same plan, and — because the kernel itself is deterministic —
//!   the same simulation.
//! * [`StallWindows`] — time windows during which a resource is fully
//!   stalled or slowed by a factor. Layers consult these when computing
//!   service times; stalls only ever *delay* work, so FIFO ordering is
//!   preserved by construction (the network never corrupts, it only
//!   slows — the hardware contract).
//! * [`FaultLog`] — a timestamped record of every injected fault and
//!   every recovery action, rendered deterministically so two runs of
//!   the same plan can be compared byte-for-byte.
//! * [`RetryPolicy`] — bounded retry with exponential backoff for the
//!   libraries' control/bootstrap paths, in virtual time.
//!
//! The kernel-side hook is [`FaultPlan::schedule`]: it arms one
//! simulation event per fault, dispatching to a caller-supplied
//! injector (in this workspace, `ShrimpSystem::apply_faults`).

use parking_lot::Mutex;

use crate::process::SimHandle;
use crate::rng::SplitMix64;
use crate::time::{SimDur, SimTime};

/// One kind of injectable fault. Node indices refer to the flat node
/// numbering of the system the plan is applied to.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// All mesh channels touching `node` stop moving flits for `dur`
    /// (backpressure; in-flight packets are delayed, never dropped).
    LinkStall {
        /// Node whose injection/ejection/routing channels stall.
        node: usize,
        /// How long the stall lasts.
        dur: SimDur,
    },
    /// The single fabric link leaving `router` through output `port`
    /// stops moving flits for `dur` (backpressure; in-flight packets
    /// are delayed, never dropped). Unlike [`FaultKind::LinkStall`]
    /// this targets one physical link by its topology coordinates —
    /// including switch-only routers (fat-tree spines) and wraparound
    /// or global links — so topology-parameterized chaos plans can be
    /// built from `Topology::links()` enumeration. Scripted only:
    /// [`FaultPlan::generate`] never draws these (router/port spaces
    /// are topology-specific, and generated-plan digests must stay
    /// stable across fabrics).
    PortStall {
        /// Router the stalled link leaves.
        router: usize,
        /// Output port on that router.
        port: usize,
        /// How long the stall lasts.
        dur: SimDur,
    },
    /// Every mesh link's serialization slows by `factor` for `dur`
    /// (a bandwidth brownout, e.g. congestion from outside traffic).
    Brownout {
        /// Service-time multiplier (≥ 1.0).
        factor: f64,
        /// How long the brownout lasts.
        dur: SimDur,
    },
    /// The receiving NIC at `node` pauses its incoming-DMA engine for
    /// `dur`; arriving packets queue and complete late, in order.
    DmaStall {
        /// Node whose NIC stalls.
        node: usize,
        /// How long the DMA engine pauses.
        dur: SimDur,
    },
    /// The sending NIC at `node` pauses its outgoing-DMA engine, the
    /// source reads of deliberate updates and fetch replies, for `dur`;
    /// pieces wait and leave late, in order, while automatic-update
    /// stores go on. [`FaultPlan::generate`] never draws these.
    SendDmaStall {
        /// Node whose NIC stalls.
        node: usize,
        /// How long the DMA engine pauses.
        dur: SimDur,
    },
    /// Disable the incoming-page-table entry of an active export on
    /// `node`, so the next arriving packet takes the paper's
    /// freeze-and-interrupt path and must be repaired by the OS.
    IptViolation {
        /// Node whose IPT is sabotaged.
        node: usize,
    },
    /// The VMMC daemon on `node` crashes and restarts after
    /// `downtime`, re-validating its export table on the way up.
    /// Imports during the outage see `DaemonUnavailable`.
    DaemonCrash {
        /// Node whose daemon crashes.
        node: usize,
        /// Time until restart.
        downtime: SimDur,
    },
    /// The responder-side remote-fetch engine at `node` pauses for
    /// `dur`; accepted fetch requests are held (in order) and their
    /// replies stall, so requesters see late completions, never drops.
    FetchStall {
        /// Node whose fetch engine stalls.
        node: usize,
        /// How long the engine pauses.
        dur: SimDur,
    },
    /// A control-plane directive for a higher layer (e.g. `"migrate"`
    /// shard `a` to node `b` for the serving layer's planned handoff):
    /// the injector records and forwards it; the simulated hardware is
    /// untouched. Lets a fault plan script membership changes alongside
    /// real faults under the same deterministic schedule.
    Directive {
        /// Operation name the consuming layer dispatches on.
        op: &'static str,
        /// First operand (layer-defined).
        a: u64,
        /// Second operand (layer-defined).
        b: u64,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::LinkStall { node, dur } => write!(f, "link-stall node={node} dur={dur}"),
            FaultKind::PortStall { router, port, dur } => {
                write!(f, "port-stall router={router} port={port} dur={dur}")
            }
            FaultKind::Brownout { factor, dur } => write!(f, "brownout x{factor:.2} dur={dur}"),
            FaultKind::DmaStall { node, dur } => write!(f, "dma-stall node={node} dur={dur}"),
            FaultKind::SendDmaStall { node, dur } => {
                write!(f, "send-dma-stall node={node} dur={dur}")
            }
            FaultKind::IptViolation { node } => write!(f, "ipt-violation node={node}"),
            FaultKind::DaemonCrash { node, downtime } => {
                write!(f, "daemon-crash node={node} downtime={downtime}")
            }
            FaultKind::FetchStall { node, dur } => {
                write!(f, "fetch-stall node={node} dur={dur}")
            }
            FaultKind::Directive { op, a, b } => {
                write!(f, "directive op={op} a={a} b={b}")
            }
        }
    }
}

/// A fault and the virtual time it fires.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// How many of each fault kind [`FaultPlan::generate`] draws, and from
/// what ranges.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Number of nodes in the target system (faults pick nodes below
    /// this bound).
    pub nodes: usize,
    /// Fault times are drawn uniformly from `[0, horizon)`.
    pub horizon: SimDur,
    /// Number of link-stall events.
    pub link_stalls: usize,
    /// Longest link stall drawn.
    pub max_link_stall: SimDur,
    /// Number of brownout events.
    pub brownouts: usize,
    /// Longest brownout drawn.
    pub max_brownout: SimDur,
    /// Strongest brownout slowdown drawn (≥ 1.0).
    pub max_brownout_factor: f64,
    /// Number of incoming-DMA stalls.
    pub dma_stalls: usize,
    /// Longest DMA stall drawn.
    pub max_dma_stall: SimDur,
    /// Number of injected IPT protection violations.
    pub ipt_violations: usize,
    /// Number of daemon crash/restart cycles.
    pub daemon_crashes: usize,
    /// Longest daemon downtime drawn.
    pub max_daemon_downtime: SimDur,
    /// Number of remote-fetch engine stalls.
    pub fetch_stalls: usize,
    /// Longest fetch-engine stall drawn.
    pub max_fetch_stall: SimDur,
}

impl FaultSpec {
    /// A light mix of every fault kind: one of each, short durations,
    /// suitable as a smoke-test default.
    pub fn light(nodes: usize, horizon: SimDur) -> FaultSpec {
        FaultSpec {
            nodes,
            horizon,
            link_stalls: 1,
            max_link_stall: SimDur::from_us(50.0),
            brownouts: 1,
            max_brownout: SimDur::from_us(200.0),
            max_brownout_factor: 4.0,
            dma_stalls: 1,
            max_dma_stall: SimDur::from_us(50.0),
            ipt_violations: 1,
            daemon_crashes: 1,
            max_daemon_downtime: SimDur::from_us(100.0),
            fetch_stalls: 1,
            max_fetch_stall: SimDur::from_us(50.0),
        }
    }

    /// A heavier mix for stress runs: several of each kind.
    pub fn heavy(nodes: usize, horizon: SimDur) -> FaultSpec {
        FaultSpec {
            link_stalls: 4,
            brownouts: 3,
            dma_stalls: 4,
            ipt_violations: 3,
            daemon_crashes: 2,
            fetch_stalls: 3,
            ..FaultSpec::light(nodes, horizon)
        }
    }
}

/// A deterministic schedule of fault injections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for scripted plans).
    pub seed: u64,
    /// Events in firing order (ties keep insertion order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (the healthy baseline).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A hand-written plan; events are (stably) sorted by time.
    pub fn scripted(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { seed: 0, events }
    }

    /// Draw a plan from `seed`. Identical `(seed, spec)` pairs yield
    /// identical plans — the replay guarantee the chaos harness's
    /// bit-identical-report assertion rests on.
    pub fn generate(seed: u64, spec: &FaultSpec) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::new();
        let horizon = spec.horizon.as_ps().max(1);
        let draw_at =
            |rng: &mut SplitMix64| SimTime::ZERO + SimDur::from_ps(rng.next_below(horizon));
        let draw_dur = |rng: &mut SplitMix64, max: SimDur| {
            SimDur::from_ps(rng.next_below(max.as_ps().max(1)).max(1))
        };
        // `count` faults on drawn nodes, each an instant, a node and, for
        // a kind that lasts, a duration up to `max`.
        let on_nodes = |rng: &mut SplitMix64,
                        events: &mut Vec<FaultEvent>,
                        (count, max): (usize, Option<SimDur>),
                        kind: fn(usize, SimDur) -> FaultKind| {
            for _ in 0..count {
                let at = draw_at(rng);
                let node = rng.next_below(spec.nodes.max(1) as u64) as usize;
                let dur = max.map_or(SimDur::ZERO, |max| draw_dur(rng, max));
                let kind = kind(node, dur);
                events.push(FaultEvent { at, kind });
            }
        };
        use FaultKind::{DaemonCrash, DmaStall, FetchStall, IptViolation, LinkStall};
        let link = (spec.link_stalls, Some(spec.max_link_stall));
        on_nodes(&mut rng, &mut events, link, |node, dur| LinkStall {
            node,
            dur,
        });
        for _ in 0..spec.brownouts {
            // Quantized so the drawn factor is exactly reproducible.
            let steps = rng.next_below(64);
            let factor = 1.0 + (spec.max_brownout_factor - 1.0).max(0.0) * (steps as f64 / 63.0);
            events.push(FaultEvent {
                at: draw_at(&mut rng),
                kind: FaultKind::Brownout {
                    factor,
                    dur: draw_dur(&mut rng, spec.max_brownout),
                },
            });
        }
        let dma = (spec.dma_stalls, Some(spec.max_dma_stall));
        on_nodes(&mut rng, &mut events, dma, |node, dur| DmaStall {
            node,
            dur,
        });
        let ipt = (spec.ipt_violations, None);
        on_nodes(&mut rng, &mut events, ipt, |node, _| IptViolation { node });
        let crash = (spec.daemon_crashes, Some(spec.max_daemon_downtime));
        on_nodes(&mut rng, &mut events, crash, |node, downtime| DaemonCrash {
            node,
            downtime,
        });
        let fetch = (spec.fetch_stalls, Some(spec.max_fetch_stall));
        on_nodes(&mut rng, &mut events, fetch, |node, dur| FetchStall {
            node,
            dur,
        });
        events.sort_by_key(|e| e.at);
        FaultPlan { seed, events }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Arm one kernel event per fault: at each event's time, `inject`
    /// is called with the event. This is the generic kernel-side hook;
    /// the system layer supplies the dispatch into mesh/NIC/daemon.
    pub fn schedule<F>(&self, h: &SimHandle, inject: F)
    where
        F: Fn(&FaultEvent) + Send + Sync + 'static,
    {
        let inject = std::sync::Arc::new(inject);
        for ev in &self.events {
            let ev = ev.clone();
            let inject = std::sync::Arc::clone(&inject);
            h.schedule_at(ev.at, move || inject(&ev));
        }
    }

    /// A deterministic, human-readable rendering of the plan.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "fault plan (seed {}): {} events\n",
            self.seed,
            self.events.len()
        );
        for ev in &self.events {
            out.push_str(&format!("  {} {}\n", ev.at, ev.kind));
        }
        out
    }
}

/// Windows of full stall and of slowdown applied to a timed resource.
///
/// All effects are *delays*: `release` pushes a start time past any
/// enclosing stall window, and `factor_at` scales a service time. A
/// resource applying these to an already-FIFO timeline (a mesh
/// channel, a NIC's DMA engine) stays FIFO.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StallWindows {
    stalls: Vec<(SimTime, SimTime)>,
    slowdowns: Vec<(SimTime, SimTime, f64)>,
}

impl StallWindows {
    /// No windows.
    pub fn new() -> StallWindows {
        StallWindows::default()
    }

    /// Add a full stall over `[start, start + dur)`.
    pub fn add_stall(&mut self, start: SimTime, dur: SimDur) {
        self.stalls.push((start, start + dur));
    }

    /// Add a service-time slowdown of `factor` over `[start, start + dur)`.
    pub fn add_slowdown(&mut self, start: SimTime, dur: SimDur, factor: f64) {
        self.slowdowns.push((start, start + dur, factor.max(1.0)));
    }

    /// The earliest time at or after `at` outside every stall window.
    pub fn release(&self, at: SimTime) -> SimTime {
        let mut t = at;
        // Windows may chain or overlap; iterate to a fixed point. Each
        // pass only moves forward, so this terminates.
        loop {
            let mut moved = false;
            for &(s, e) in &self.stalls {
                if t >= s && t < e {
                    t = e;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// The strongest slowdown factor active at `at` (1.0 when none).
    pub fn factor_at(&self, at: SimTime) -> f64 {
        self.slowdowns
            .iter()
            .filter(|&&(s, e, _)| at >= s && at < e)
            .map(|&(_, _, f)| f)
            .fold(1.0, f64::max)
    }

    /// True when no windows are present.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.slowdowns.is_empty()
    }
}

/// A timestamped record of injected faults and recovery actions,
/// shared between the injector and the layers that react.
#[derive(Debug, Default)]
pub struct FaultLog {
    entries: Mutex<Vec<(SimTime, String)>>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Append one entry.
    pub fn record(&self, at: SimTime, what: impl Into<String>) {
        self.entries.lock().push((at, what.into()));
    }

    /// Copy of the entries in insertion order.
    pub fn snapshot(&self) -> Vec<(SimTime, String)> {
        self.entries.lock().clone()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Deterministic rendering, one line per entry in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (at, what) in self.entries.lock().iter() {
            out.push_str(&format!("  {at} {what}\n"));
        }
        out
    }
}

/// Bounded retry with exponential backoff, in virtual time: attempt
/// `i` waits up to `timeout(i)` (doubling from `base`, capped at
/// `cap`) before the caller retries or gives up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (≥ 1).
    pub attempts: u32,
    /// Timeout of the first attempt.
    pub base: SimDur,
    /// Upper bound on any single attempt's timeout.
    pub cap: SimDur,
}

impl RetryPolicy {
    /// A policy with explicit parameters.
    pub fn new(attempts: u32, base: SimDur, cap: SimDur) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            base,
            cap,
        }
    }

    /// Default for connection/bootstrap paths (Ethernet handshakes,
    /// VRPC binds, NX rendezvous): 5 attempts from 5 ms, so transient
    /// outages shorter than ~150 ms of virtual time are ridden out.
    pub fn bootstrap() -> RetryPolicy {
        RetryPolicy::new(5, SimDur::from_us(5_000.0), SimDur::from_us(100_000.0))
    }

    /// A single bounded wait with no retry, for non-idempotent
    /// operations (e.g. an RPC call already in flight).
    pub fn no_retry(timeout: SimDur) -> RetryPolicy {
        RetryPolicy::new(1, timeout, timeout)
    }

    /// The timeout for attempt `attempt` (0-based): `base * 2^attempt`,
    /// capped.
    pub fn timeout(&self, attempt: u32) -> SimDur {
        let scaled = SimDur::from_ps(
            self.base
                .as_ps()
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX)),
        );
        scaled.min(self.cap)
    }

    /// Total virtual time the policy may spend waiting.
    pub fn total_budget(&self) -> SimDur {
        (0..self.attempts).fold(SimDur::ZERO, |acc, i| acc + self.timeout(i))
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::bootstrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FaultSpec {
        FaultSpec::heavy(4, SimDur::from_us(1_000.0))
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = FaultPlan::generate(42, &spec());
        let b = FaultPlan::generate(42, &spec());
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        let c = FaultPlan::generate(43, &spec());
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    /// `describe()` of three heavy plans, pinned whole: every draw's
    /// order, range and kind.
    #[test]
    fn heavy_plans_are_pinned() {
        let spec = FaultSpec::heavy(4, SimDur::from_us(4_000.0));
        let got: String = (1..=3)
            .map(|seed| FaultPlan::generate(seed, &spec).describe())
            .collect();
        let want = [
            "fault plan (seed 1): 19 events",
            "  325.659us dma-stall node=1 dur=6.155us",
            "  526.340us fetch-stall node=1 dur=47.009us",
            "  945.442us daemon-crash node=2 downtime=86.891us",
            "  1147.645us dma-stall node=0 dur=25.776us",
            "  1755.947us ipt-violation node=1",
            "  1777.437us link-stall node=1 dur=38.145us",
            "  2119.030us ipt-violation node=2",
            "  2120.316us brownout x2.38 dur=87.193us",
            "  2266.246us link-stall node=2 dur=48.550us",
            "  2391.409us dma-stall node=2 dur=19.858us",
            "  2581.339us brownout x1.48 dur=163.070us",
            "  2674.294us daemon-crash node=3 downtime=70.818us",
            "  2855.083us dma-stall node=0 dur=49.887us",
            "  2992.941us ipt-violation node=3",
            "  3175.986us link-stall node=1 dur=30.271us",
            "  3357.325us fetch-stall node=1 dur=7.959us",
            "  3509.395us link-stall node=2 dur=14.275us",
            "  3537.298us brownout x3.05 dur=13.192us",
            "  3575.756us fetch-stall node=3 dur=15.093us",
            "fault plan (seed 2): 19 events",
            "  32.876us daemon-crash node=2 downtime=83.881us",
            "  42.839us ipt-violation node=3",
            "  701.040us fetch-stall node=2 dur=23.558us",
            "  800.538us brownout x1.62 dur=72.846us",
            "  840.755us brownout x2.14 dur=9.640us",
            "  892.391us daemon-crash node=3 downtime=16.881us",
            "  1371.613us ipt-violation node=3",
            "  1395.366us ipt-violation node=1",
            "  1495.214us brownout x2.67 dur=186.400us",
            "  1744.764us fetch-stall node=3 dur=42.549us",
            "  2109.648us dma-stall node=1 dur=16.534us",
            "  2364.759us link-stall node=2 dur=29.782us",
            "  2479.086us dma-stall node=0 dur=15.044us",
            "  2905.414us link-stall node=2 dur=12.516us",
            "  2910.464us link-stall node=1 dur=21.891us",
            "  3006.453us fetch-stall node=1 dur=29.732us",
            "  3061.677us link-stall node=1 dur=17.331us",
            "  3468.558us dma-stall node=2 dur=13.339us",
            "  3664.779us dma-stall node=2 dur=26.262us",
            "fault plan (seed 3): 19 events",
            "  291.467us link-stall node=0 dur=31.811us",
            "  453.801us link-stall node=2 dur=30.649us",
            "  483.737us dma-stall node=2 dur=43.597us",
            "  540.583us link-stall node=3 dur=24.553us",
            "  848.018us ipt-violation node=1",
            "  1224.217us brownout x3.43 dur=20.781us",
            "  1344.002us brownout x2.43 dur=143.477us",
            "  1478.757us daemon-crash node=0 downtime=50.800us",
            "  2179.666us fetch-stall node=0 dur=34.216us",
            "  2292.253us fetch-stall node=3 dur=0.867us",
            "  2351.973us brownout x1.52 dur=163.885us",
            "  2489.741us dma-stall node=3 dur=10.789us",
            "  2678.434us ipt-violation node=1",
            "  2780.648us dma-stall node=2 dur=9.451us",
            "  2787.370us fetch-stall node=2 dur=27.024us",
            "  2827.005us daemon-crash node=3 downtime=31.735us",
            "  3554.118us link-stall node=2 dur=35.594us",
            "  3595.224us ipt-violation node=1",
            "  3742.801us dma-stall node=2 dur=9.555us",
        ];
        assert_eq!(got.lines().collect::<Vec<_>>(), want);
    }

    #[test]
    fn generated_events_respect_spec_bounds() {
        let s = spec();
        let plan = FaultPlan::generate(7, &s);
        let expected = s.link_stalls
            + s.brownouts
            + s.dma_stalls
            + s.ipt_violations
            + s.daemon_crashes
            + s.fetch_stalls;
        assert_eq!(plan.events.len(), expected);
        assert!(
            plan.events.windows(2).all(|w| w[0].at <= w[1].at),
            "sorted by time"
        );
        for ev in &plan.events {
            assert!(ev.at < SimTime::ZERO + s.horizon);
            match &ev.kind {
                FaultKind::LinkStall { node, dur } => {
                    assert!(*node < s.nodes && *dur <= s.max_link_stall);
                }
                FaultKind::Brownout { factor, dur } => {
                    assert!((1.0..=s.max_brownout_factor).contains(factor));
                    assert!(*dur <= s.max_brownout);
                }
                FaultKind::DmaStall { node, dur } => {
                    assert!(*node < s.nodes && *dur <= s.max_dma_stall);
                }
                FaultKind::IptViolation { node } => assert!(*node < s.nodes),
                FaultKind::DaemonCrash { node, downtime } => {
                    assert!(*node < s.nodes && *downtime <= s.max_daemon_downtime);
                }
                FaultKind::FetchStall { node, dur } => {
                    assert!(*node < s.nodes && *dur <= s.max_fetch_stall);
                }
                FaultKind::Directive { .. } => {
                    panic!("generate never draws directives; they are scripted only")
                }
                FaultKind::PortStall { .. } | FaultKind::SendDmaStall { .. } => {
                    panic!("generate never draws port or send-DMA stalls; they are scripted only")
                }
            }
        }
    }

    #[test]
    fn schedule_fires_each_event_at_its_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let plan = FaultPlan::scripted(vec![
            FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(3.0),
                kind: FaultKind::IptViolation { node: 0 },
            },
            FaultEvent {
                at: SimTime::ZERO + SimDur::from_us(1.0),
                kind: FaultKind::LinkStall {
                    node: 1,
                    dur: SimDur::from_us(2.0),
                },
            },
        ]);
        assert_eq!(
            plan.events[0].at.as_us(),
            1.0,
            "scripted plans sort by time"
        );
        let k = crate::Kernel::new();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        let log = Arc::new(FaultLog::new());
        let log2 = Arc::clone(&log);
        let h = k.handle();
        plan.schedule(&k.handle(), move |ev| {
            fired2.fetch_add(1, Ordering::SeqCst);
            log2.record(h.now(), format!("{}", ev.kind));
        });
        let end = k.run_until_quiescent().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        assert_eq!(end.as_us(), 3.0);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0.as_us(), 1.0);
        assert!(snap[1].1.contains("ipt-violation"));
        assert_eq!(log.render(), log.render(), "rendering is deterministic");
    }

    #[test]
    fn stall_windows_release_and_factor() {
        let mut w = StallWindows::new();
        let t = |us: f64| SimTime::ZERO + SimDur::from_us(us);
        w.add_stall(t(10.0), SimDur::from_us(5.0));
        w.add_stall(t(15.0), SimDur::from_us(5.0)); // chains with the first
        w.add_slowdown(t(30.0), SimDur::from_us(10.0), 3.0);
        w.add_slowdown(t(35.0), SimDur::from_us(10.0), 2.0);
        assert_eq!(w.release(t(9.0)), t(9.0));
        assert_eq!(
            w.release(t(10.0)),
            t(20.0),
            "chained windows release at the last end"
        );
        assert_eq!(w.release(t(14.9)), t(20.0));
        assert_eq!(w.release(t(20.0)), t(20.0));
        assert_eq!(w.factor_at(t(29.0)), 1.0);
        assert_eq!(w.factor_at(t(36.0)), 3.0, "strongest active slowdown wins");
        assert_eq!(w.factor_at(t(42.0)), 2.0);
        assert!(!w.is_empty());
        assert!(StallWindows::new().is_empty());
    }

    #[test]
    fn retry_policy_backs_off_exponentially_with_cap() {
        let p = RetryPolicy::new(4, SimDur::from_us(10.0), SimDur::from_us(35.0));
        assert_eq!(p.timeout(0).as_us(), 10.0);
        assert_eq!(p.timeout(1).as_us(), 20.0);
        assert_eq!(p.timeout(2).as_us(), 35.0, "capped");
        assert_eq!(p.timeout(3).as_us(), 35.0);
        assert_eq!(p.total_budget().as_us(), 100.0);
        let single = RetryPolicy::no_retry(SimDur::from_us(7.0));
        assert_eq!(single.attempts, 1);
        assert_eq!(single.timeout(0).as_us(), 7.0);
    }
}
