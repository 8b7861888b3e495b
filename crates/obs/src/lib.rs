//! # shrimp-obs — virtual-time observability for the VMMC stack
//!
//! The paper's evaluation is an instrumentation exercise: Fig. 5
//! decomposes a null VRPC call into header-prep / return /
//! header-processing / transfer budgets, and §5 attributes the <1 µs of
//! software overhead in SHRIMP RPC. This crate makes that attribution a
//! first-class subsystem instead of ad-hoc `--breakdown` flags:
//!
//! * a causal [`MsgId`] allocated at the send syscall and carried on
//!   every packet so each hop of a transfer is attributable;
//! * a span model ([`SpanRec`]) recording virtual-time enter/exit at
//!   each [`Layer`] of the stack, collected by a [`Recorder`];
//! * per-message latency [`breakdown`]s whose segments sum *exactly*
//!   (in integer picoseconds) to end-to-end latency;
//! * a [`perfetto`] exporter emitting Chrome trace-event JSON with one
//!   track per (node, layer) and fault-injection instants overlaid.
//!
//! Recording is pull-free and passive: layers push [`SpanRec`]s into
//! the recorder and never schedule events or advance virtual time, so
//! enabling observability cannot perturb simulated results (the
//! determinism tests in `tests/` assert bit-identical golden-trace
//! hashes and workload digests either way). Each component binds the
//! recorder once, when it is built: it keeps [`Recorder::current`] in a
//! plain `Option<Arc<Recorder>>`, so a span site is one branch on a
//! field and a component built with no recorder installed records
//! nothing.
//!
//! Because the simulation kernel serializes execution (one token, one
//! running thread), the push order into a recorder is deterministic.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_sim::{SimDur, SimTime};

pub mod breakdown;
pub mod hist;
pub mod perfetto;

pub use breakdown::{breakdown, Breakdown, LayerStats, Segment};
pub use hist::Log2Hist;

/// A causal message/transfer id, allocated at the send syscall and
/// carried on every packet derived from that send.
///
/// `MsgId::NONE` (zero) marks untraced traffic; real ids start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

impl MsgId {
    /// The null id: traffic sent while observability is disabled.
    pub const NONE: MsgId = MsgId(0);

    /// True for any id other than [`MsgId::NONE`].
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The stack layer a span was recorded from, ordered outermost →
/// innermost along the send path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// User-level library: NX, sockets, VRPC, SRPC, collectives.
    User,
    /// VMMC endpoint: the send syscall and mapping checks.
    Endpoint,
    /// Outgoing NIC: packetizer, deliberate-update DMA read, FIFO.
    NicOut,
    /// Mesh backplane traversal (injection to tail arrival).
    Mesh,
    /// Incoming NIC: page-table check, stall windows.
    NicIn,
    /// Receive-side deposit: incoming DMA write into memory.
    Deposit,
    /// Serving-layer overlay (shrimp-svc): one span per client request,
    /// from its arrival to its reply, emitted by the svc load engine
    /// and by simprof's svc profiles. Shard migrations, syncs and
    /// re-arms emit none. Not part of the message path, so conservation
    /// breakdowns never see it (service spans carry [`MsgId::NONE`]).
    Service,
}

impl Layer {
    /// All layers, in path order (the [`Layer::Service`] overlay
    /// last).
    pub const ALL: [Layer; 7] = [
        Layer::User,
        Layer::Endpoint,
        Layer::NicOut,
        Layer::Mesh,
        Layer::NicIn,
        Layer::Deposit,
        Layer::Service,
    ];

    /// Stable display name (also the Perfetto track name).
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::User => "user",
            Layer::Endpoint => "endpoint",
            Layer::NicOut => "nic-out",
            Layer::Mesh => "mesh",
            Layer::NicIn => "nic-in",
            Layer::Deposit => "deposit",
            Layer::Service => "service",
        }
    }

    /// Path depth: higher is closer to the wire / destination memory.
    pub fn depth(self) -> u8 {
        match self {
            Layer::User => 0,
            Layer::Endpoint => 1,
            Layer::NicOut => 2,
            Layer::Mesh => 3,
            Layer::NicIn => 4,
            Layer::Deposit => 5,
            Layer::Service => 6,
        }
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded span: virtual-time enter/exit of a named phase at one
/// layer on one node, attributed to a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// The causal id this work belongs to ([`MsgId::NONE`] when the
    /// layer could not attribute it).
    pub msg: MsgId,
    /// Node index the work ran on.
    pub node: usize,
    /// Stack layer.
    pub layer: Layer,
    /// Phase name within the layer (e.g. `"header_prep"`).
    pub name: &'static str,
    /// Virtual-time entry.
    pub start: SimTime,
    /// Virtual-time exit (`end >= start`).
    pub end: SimTime,
    /// Payload bytes attributed to the span (0 when not meaningful).
    pub bytes: usize,
}

impl SpanRec {
    /// Span length.
    pub fn dur(&self) -> SimDur {
        self.end.since(self.start)
    }
}

/// A timeline instant (no duration): fault injections, repairs,
/// workload phase markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantRec {
    /// When it happened.
    pub at: SimTime,
    /// Node it applies to, if any (`None` renders on a global track).
    pub node: Option<usize>,
    /// Description, e.g. the `FaultLog` line.
    pub label: String,
}

/// Collects spans and instants for one observed run.
///
/// A `Recorder` is shared (`Arc`) between every instrumented layer of a
/// system. It allocates [`MsgId`]s and stores records; it never touches
/// the simulation, so recording cannot perturb virtual time.
#[derive(Debug, Default)]
pub struct Recorder {
    next_msg: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    instants: Mutex<Vec<InstantRec>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            next_msg: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            instants: Mutex::new(Vec::new()),
        })
    }

    /// Allocate the next causal message id (1, 2, 3, …).
    pub fn alloc_msg(&self) -> MsgId {
        MsgId(self.next_msg.fetch_add(1, Ordering::Relaxed).max(1))
    }

    /// Record a span.
    pub fn push(&self, rec: SpanRec) {
        debug_assert!(rec.end >= rec.start, "span ends before it starts");
        self.spans.lock().push(rec);
    }

    /// Record a timeline instant.
    pub fn instant(&self, at: SimTime, node: Option<usize>, label: impl Into<String>) {
        self.instants.lock().push(InstantRec {
            at,
            node,
            label: label.into(),
        });
    }

    /// Copy out every span recorded so far, in push (deterministic
    /// execution) order.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().clone()
    }

    /// Copy out every instant recorded so far.
    pub fn instants(&self) -> Vec<InstantRec> {
        self.instants.lock().clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Drop all recorded spans and instants (keeps the id counter, so
    /// ids stay unique across a recorder's lifetime).
    pub fn clear(&self) {
        self.spans.lock().clear();
        self.instants.lock().clear();
    }

    /// Install this recorder as the thread's *current* recorder until
    /// the returned guard drops. Every instrumented component built
    /// while it is installed (`ShrimpSystem::build`, `Nic::install`,
    /// `Backplane::new`) keeps it for life, so existing workload
    /// functions gain observability without signature changes.
    pub fn install(self: &Arc<Self>) -> InstallGuard {
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(self))));
        InstallGuard { prev }
    }

    /// The thread's current recorder, if one is installed.
    pub fn current() -> Option<Arc<Recorder>> {
        CURRENT.with(|c| c.borrow().clone())
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Restores the previously-installed recorder on drop. Returned by
/// [`Recorder::install`]; hold it for the scope you want observed.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<Arc<Recorder>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: f64) -> SimTime {
        SimTime::ZERO + SimDur::from_us(us)
    }

    #[test]
    fn msg_ids_are_unique_and_nonzero() {
        let r = Recorder::new();
        let a = r.alloc_msg();
        let b = r.alloc_msg();
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b);
        assert!(!MsgId::NONE.is_some());
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(Recorder::current().is_none());
        let outer = Recorder::new();
        let inner = Recorder::new();
        {
            let _g1 = outer.install();
            assert!(Arc::ptr_eq(&Recorder::current().unwrap(), &outer));
            {
                let _g2 = inner.install();
                assert!(Arc::ptr_eq(&Recorder::current().unwrap(), &inner));
            }
            assert!(Arc::ptr_eq(&Recorder::current().unwrap(), &outer));
        }
        assert!(Recorder::current().is_none());
    }

    #[test]
    fn recorder_stores_spans_in_push_order() {
        let r = Recorder::new();
        let m = r.alloc_msg();
        r.push(SpanRec {
            msg: m,
            node: 0,
            layer: Layer::User,
            name: "a",
            start: t(0.0),
            end: t(1.0),
            bytes: 4,
        });
        r.push(SpanRec {
            msg: m,
            node: 1,
            layer: Layer::Deposit,
            name: "b",
            start: t(1.0),
            end: t(2.0),
            bytes: 4,
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[1].layer, Layer::Deposit);
        assert_eq!(spans[1].dur(), SimDur::from_us(1.0));
        r.clear();
        assert!(r.is_empty());
    }
}
