//! The two point-to-point workloads, on nodes 0 and 1 of the 2×2
//! prototype: `msg_small` (ping-pong, per-message cost) and `msg_bulk`
//! (one-way streams, one-sided fetches and a remote pager, per-byte
//! cost). Both drive the libraries only through their `pub` items.
//!
//! One system is built per rep and the sections run on it one after
//! another, in an order drawn from the seed, so a rep is one machine
//! being used by six libraries in turn rather than six fresh machines.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use shrimp_core::{BufferName, ExportOpts, ImportHandle, ShrimpSystem, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_nx::{NxConfig, NxWorld};
use shrimp_rmc::{MemoryServer, RemotePager};
use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::{Ctx, Kernel, MetricsRegistry, SimChannel, SimTime};
use shrimp_sockets::SocketVariant;
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcServer, Val};
use shrimp_sunrpc::{AcceptStat, RpcDirectory, StreamVariant, VrpcClient, VrpcServer};

use crate::rep::Phase;
use crate::stats::{checksum, Rng};

/// Poll iterations before a flag wait blocks, as in the repo's own
/// ping-pong figures.
const POLL_BUDGET: usize = 10_000;
/// Slots in the VMMC stream ring: the sender runs at most this many
/// messages ahead of the receiver's credits.
const STREAM_WINDOW: usize = 4;

const VRPC_PROG: u32 = 0x2000_0001;
const VRPC_VERS: u32 = 1;

/// A library under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lib {
    /// Raw VMMC, automatic update, one copy (the copy is the send).
    VmmcAu,
    /// Raw VMMC, deliberate update, zero copies.
    VmmcDu,
    /// The NX message-passing library, default protocol.
    Nx,
    /// Stream sockets.
    Sockets,
    /// SunRPC-compatible VRPC over the automatic-update stream.
    Vrpc,
    /// The specialized SHRIMP RPC.
    Srpc,
}

impl Lib {
    /// Short name used in span and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Lib::VmmcAu => "vmmc_au",
            Lib::VmmcDu => "vmmc_du",
            Lib::Nx => "nx",
            Lib::Sockets => "sockets",
            Lib::Vrpc => "vrpc",
            Lib::Srpc => "srpc",
        }
    }

    /// True for the libraries whose measured operation is a call
    /// (round trip) rather than a one-way message.
    pub fn is_rpc(self) -> bool {
        matches!(self, Lib::Vrpc | Lib::Srpc)
    }
}

/// One message: a slice of the plan's seeded byte pool.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Payload length, a multiple of 4.
    pub size: usize,
    /// Offset of the payload in the pool.
    pub off: usize,
    /// Checksum of the whole payload.
    pub sum_full: u64,
    /// Checksum of the payload without its last word, which the raw
    /// VMMC sections overwrite with the arrival flag.
    pub sum_body: u64,
}

/// A seeded pool of payload bytes; messages are slices of it, so making
/// a payload at run time is one copy, not a generator loop.
#[derive(Debug)]
pub struct Pool(Vec<u8>);

impl Pool {
    /// A pool that can hold any message of up to `max_size` bytes.
    pub fn new(rng: &mut Rng, max_size: usize) -> Pool {
        let mut bytes = vec![0u8; max_size + PAGE_SIZE];
        rng.fill(&mut bytes);
        Pool(bytes)
    }

    /// Draw a message of `size` bytes.
    pub fn msg(&self, rng: &mut Rng, size: usize) -> Msg {
        let off = 4 * rng.below(((self.0.len() - size) / 4 + 1) as u64) as usize;
        let data = &self.0[off..off + size];
        Msg {
            size,
            off,
            sum_full: checksum(data),
            sum_body: checksum(&data[..size - 4]),
        }
    }

    /// The bytes of a message.
    pub fn bytes(&self, m: &Msg) -> &[u8] {
        &self.0[m.off..m.off + m.size]
    }
}

/// One size class of a section: its messages in the order sent. In a
/// ping-pong, `back[i]` answers `msgs[i]` and has the same size.
#[derive(Debug)]
pub struct ClassPlan {
    /// Class label (`4`, `64`, `1k`, `64k`, …).
    pub label: &'static str,
    /// Leading messages (or trips) that are not measured.
    pub warmup: usize,
    /// Forward messages.
    pub msgs: Vec<Msg>,
    /// Replies (ping-pong only; RPC replies echo the argument).
    pub back: Vec<Msg>,
}

impl ClassPlan {
    /// Draw a class: `warmup + measured` messages whose sizes come from
    /// `distinct` seeded sizes within `spread_pct` percent of `nominal`.
    /// A handful of distinct sizes keeps the SRPC interface (one
    /// procedure per size) small.
    #[allow(clippy::too_many_arguments)]
    pub fn draw(
        rng: &mut Rng,
        pool: &Pool,
        label: &'static str,
        nominal: usize,
        spread_pct: usize,
        distinct: usize,
        warmup: usize,
        measured: usize,
    ) -> ClassPlan {
        let sizes: Vec<usize> = (0..distinct)
            .map(|_| rng.size_near(nominal, spread_pct))
            .collect();
        let mut msgs = Vec::new();
        let mut back = Vec::new();
        for _ in 0..warmup + measured {
            let size = sizes[rng.below(sizes.len() as u64) as usize];
            msgs.push(pool.msg(rng, size));
            back.push(pool.msg(rng, size));
        }
        ClassPlan {
            label,
            warmup,
            msgs,
            back,
        }
    }

    fn max_size(&self) -> usize {
        self.msgs.iter().map(|m| m.size).max().unwrap_or(4)
    }
}

/// What one section does: a library, ping-pong or one-way, its classes.
#[derive(Debug)]
pub struct SectionPlan {
    /// The library.
    pub lib: Lib,
    /// One-way stream when true, ping-pong (or RPC) when false.
    pub stream: bool,
    /// Size classes, visited in order.
    pub classes: Vec<ClassPlan>,
}

impl SectionPlan {
    fn max_size(&self) -> usize {
        self.classes
            .iter()
            .map(ClassPlan::max_size)
            .max()
            .unwrap_or(4)
    }
}

/// What one section measured.
#[derive(Clone, Debug, Default)]
pub struct SectionOut {
    /// Section name (`nx`, `stream:vmmc_du`, `fetch`, `pager`).
    pub name: String,
    /// Host seconds spent before the first warm-up operation:
    /// endpoints, export/import, connects, binds.
    pub setup_host_s: f64,
    /// Virtual picoseconds of the same.
    pub setup_virt_ps: u64,
    /// Per-class results, in plan order.
    pub classes: Vec<Phase>,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations that returned `Err` or failed verification.
    pub failed: u64,
    /// First few failures, for the report.
    pub errors: Vec<String>,
    /// Pager only: accesses served from a local frame.
    pub pager_hits: u64,
    /// Pager only: accesses that faulted to the memory server.
    pub pager_faults: u64,
}

type Sink = Arc<Mutex<SectionOut>>;

/// The receiver's arrival stamps of a stream section, all classes in
/// order; the sender reads its class's slice back from index `first`.
type Arrivals = Arc<Mutex<Vec<SimTime>>>;

fn stamp(arrivals: &Arrivals, at: SimTime) {
    arrivals.lock().expect("arrivals").push(at);
}

fn stamps_from(arrivals: &Arrivals, first: usize) -> Vec<SimTime> {
    arrivals.lock().expect("arrivals")[first..].to_vec()
}

fn fail(sink: &Sink, what: String) {
    let mut out = sink.lock().expect("section sink");
    out.failed += 1;
    if out.errors.len() < 4 {
        out.errors.push(what);
    }
}

/// Times one class from inside the client process: `Instant` reads and
/// engine-counter snapshots at the class's first measured operation and
/// at its end.
struct ClassTimer {
    reg: MetricsRegistry,
    out: Phase,
    h0: Instant,
    v0: SimTime,
    s0: MetricsSnapshot,
}

impl ClassTimer {
    fn start(reg: &MetricsRegistry, label: &'static str, ctx: &Ctx) -> ClassTimer {
        let h0 = Instant::now();
        ClassTimer {
            reg: reg.clone(),
            out: Phase {
                name: label.into(),
                host_t0: Some(h0),
                ..Phase::default()
            },
            h0,
            v0: ctx.now(),
            s0: reg.snapshot(),
        }
    }

    /// Restart the clocks: the warm-up is over.
    fn measured_from_here(&mut self, ctx: &Ctx) {
        self.h0 = Instant::now();
        self.out.host_t0 = Some(self.h0);
        self.v0 = ctx.now();
        self.s0 = self.reg.snapshot();
    }

    fn sample(&mut self, lat_ps: u64, bytes: usize) {
        self.out.lat_ps.push(lat_ps);
        self.out.bytes += bytes as u64;
    }

    /// Close the class. `arrivals` (streams) are the receiver's
    /// stamps of every message of the class: the samples become the
    /// gaps between them and the span runs from the last warm-up
    /// arrival to the last arrival, so bytes over span is what the
    /// receiver saw delivered.
    fn finish(mut self, ctx: &Ctx, arrivals: Option<(&ClassPlan, &[SimTime])>, sink: &Sink) {
        self.out.host_s = self.h0.elapsed().as_secs_f64();
        self.out.span_ps = ctx.now().since(self.v0).as_ps();
        if let Some((class, at)) = arrivals {
            let first = class.warmup.max(1);
            for (i, m) in class.msgs.iter().enumerate().skip(first) {
                self.sample(at[i].since(at[i - 1]).as_ps(), m.size);
            }
            self.out.span_ps = at[at.len() - 1].since(at[first - 1]).as_ps();
        }
        self.out.sim = self.reg.snapshot().delta(&self.s0);
        sink.lock().expect("section sink").classes.push(self.out);
    }
}

fn note_setup(sink: &Sink, h0: Instant, v0: SimTime, ctx: &Ctx) {
    let mut out = sink.lock().expect("section sink");
    out.setup_host_s = h0.elapsed().as_secs_f64();
    out.setup_virt_ps = ctx.now().since(v0).as_ps();
}

fn attempt(sink: &Sink) {
    sink.lock().expect("section sink").attempted += 1;
}

/// Unwrap a library result inside a process closure: on `Err`, count
/// one failed operation and leave the closure.
macro_rules! try_op {
    ($sink:expr, $what:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => {
                fail($sink, format!("{}: {err:?}", $what));
                return;
            }
        }
    };
}

fn page_round(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE
}

/// What a section's process closures share with the harness.
#[derive(Clone)]
pub struct Env {
    /// The rep's engine counters.
    pub reg: MetricsRegistry,
    /// The payload pool the section's messages slice.
    pub pool: Arc<Pool>,
}

/// Everything a section needs from the rep.
pub struct Rig<'k> {
    /// The rep's kernel.
    pub kernel: &'k Kernel,
    /// The rep's 2×2 prototype.
    pub system: Arc<ShrimpSystem>,
    /// Shared with the process closures.
    pub env: Env,
}

impl Rig<'_> {
    /// Run the simulation until the section's processes finish, and
    /// hand back what they recorded. A process that panicked counts as
    /// one failed operation.
    fn finish(&self, sink: Sink) -> SectionOut {
        if let Err(e) = self.kernel.run_until_quiescent() {
            fail(&sink, format!("simulation: {e}"));
        }
        let out = sink.lock().expect("section sink").clone();
        out
    }
}

fn new_sink(name: String) -> Sink {
    Arc::new(Mutex::new(SectionOut {
        name,
        ..SectionOut::default()
    }))
}

// ---------------------------------------------------------------------
// Raw VMMC
// ---------------------------------------------------------------------

struct VmmcSide {
    vmmc: Vmmc,
    /// Exported receive buffer.
    recv: VAddr,
    /// Local user buffer the payload is sent from.
    user: VAddr,
    /// Automatic-update window onto the peer's receive buffer.
    au: Option<VAddr>,
    peer: ImportHandle,
}

impl VmmcSide {
    /// Export a receive buffer, swap names with the peer, import the
    /// peer's, and (AU) bind a local window onto it.
    fn setup(
        vmmc: Vmmc,
        ctx: &Ctx,
        bytes: usize,
        au: bool,
        mine: &SimChannel<BufferName>,
        theirs: &SimChannel<BufferName>,
        peer_node: usize,
    ) -> Result<VmmcSide, String> {
        let bytes = page_round(bytes);
        let p = vmmc.proc_();
        let recv = p.alloc(bytes, CacheMode::WriteBack);
        let user = p.alloc(bytes, CacheMode::WriteBack);
        let name = vmmc
            .export(ctx, recv, bytes, ExportOpts::default())
            .map_err(|e| format!("export: {e:?}"))?;
        mine.send(&ctx.handle(), name);
        let peer = vmmc
            .import(ctx, NodeId(peer_node), theirs.recv(ctx))
            .map_err(|e| format!("import: {e:?}"))?;
        let au = if au {
            let win = vmmc.proc_().alloc(bytes, CacheMode::WriteBack);
            vmmc.bind_au(ctx, win, &peer, 0, bytes / PAGE_SIZE, true, false)
                .map_err(|e| format!("bind_au: {e:?}"))?;
            Some(win)
        } else {
            None
        };
        Ok(VmmcSide {
            vmmc,
            recv,
            user,
            au,
            peer,
        })
    }

    /// Send `payload` to offset `off` of the peer's buffer with `seq`
    /// in its last word: in-order delivery makes that word the arrival
    /// flag for the whole message.
    fn send(&self, ctx: &Ctx, payload: &[u8], off: usize, seq: u32) -> Result<(), String> {
        let n = payload.len();
        let p = self.vmmc.proc_();
        p.poke(self.user, payload).map_err(|e| format!("{e:?}"))?;
        p.write_u32(ctx, self.user.add(n - 4), seq)
            .map_err(|e| format!("{e:?}"))?;
        match self.au {
            Some(win) => p
                .copy(ctx, self.user, win.add(off), n)
                .map_err(|e| format!("{e:?}")),
            None => self
                .vmmc
                .send(ctx, self.user, &self.peer, off, n)
                .map_err(|e| format!("{e:?}")),
        }
    }

    /// Wait for message `seq` of `m`'s size at offset `off`; true when
    /// the bytes before the flag word are the expected ones.
    fn recv(&self, ctx: &Ctx, m: &Msg, off: usize, seq: u32) -> Result<bool, String> {
        self.vmmc
            .wait_u32(ctx, self.recv.add(off + m.size - 4), POLL_BUDGET, |v| {
                v == seq
            })
            .map_err(|e| format!("{e:?}"))?;
        let got = self
            .vmmc
            .proc_()
            .peek(self.recv.add(off), m.size - 4)
            .map_err(|e| format!("{e:?}"))?;
        Ok(checksum(&got) == m.sum_body)
    }
}

fn vmmc_ping(rig: &Rig, plan: Arc<SectionPlan>) -> SectionOut {
    let sink = new_sink(plan.lib.name().into());
    let au = plan.lib == Lib::VmmcAu;
    let bytes = plan.max_size();
    let (a_names, b_names) = (SimChannel::new(), SimChannel::new());
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let (mine, theirs) = (a_names.clone(), b_names.clone());
        let vmmc = rig.system.endpoint(0, format!("{}-ping", plan.lib.name()));
        rig.kernel.spawn("ping", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let side = try_op!(
                &sink,
                "setup",
                VmmcSide::setup(vmmc, ctx, bytes, au, &mine, &theirs, 1)
            );
            note_setup(&sink, h0, v0, ctx);
            let mut seq = 0u32;
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    try_op!(&sink, "send", side.send(ctx, env.pool.bytes(m), 0, seq + 1));
                    let ok = try_op!(&sink, "recv", side.recv(ctx, back, 0, seq + 2));
                    seq += 2;
                    if !ok {
                        fail(&sink, format!("{} reply {i} corrupt", class.label));
                    }
                    if i >= class.warmup {
                        timer.sample(ctx.now().since(t0).as_ps(), 2 * m.size);
                    }
                }
                timer.finish(ctx, None, &sink);
            }
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let vmmc = rig.system.endpoint(1, format!("{}-pong", plan.lib.name()));
        rig.kernel.spawn("pong", move |ctx| {
            let side = try_op!(
                &sink,
                "setup",
                VmmcSide::setup(vmmc, ctx, bytes, au, &b_names, &a_names, 0)
            );
            let mut seq = 0u32;
            for class in &plan.classes {
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    let ok = try_op!(&sink, "recv", side.recv(ctx, m, 0, seq + 1));
                    if !ok {
                        fail(&sink, format!("{} message {i} corrupt", class.label));
                    }
                    try_op!(
                        &sink,
                        "send",
                        side.send(ctx, env.pool.bytes(back), 0, seq + 2)
                    );
                    seq += 2;
                }
            }
        });
    }
    rig.finish(sink)
}

/// One-way VMMC stream through a ring of [`STREAM_WINDOW`] slots in the
/// receiver's buffer; the receiver returns one credit word per message
/// and the sender never runs more than the ring ahead. Raw VMMC has no
/// flow control of its own; this is the least a user of it must do.
fn vmmc_stream(rig: &Rig, plan: Arc<SectionPlan>) -> SectionOut {
    let sink = new_sink(format!("stream:{}", plan.lib.name()));
    let au = plan.lib == Lib::VmmcAu;
    let slot = page_round(plan.max_size());
    let (a_names, b_names) = (SimChannel::new(), SimChannel::new());
    // The receiver stamps each arrival; the sender owns the class clock.
    let arrivals = Arrivals::default();
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let (mine, theirs) = (a_names.clone(), b_names.clone());
        let arrivals = Arc::clone(&arrivals);
        let vmmc = rig.system.endpoint(0, format!("{}-src", plan.lib.name()));
        rig.kernel.spawn("stream-src", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let side = try_op!(
                &sink,
                "setup",
                VmmcSide::setup(vmmc, ctx, slot * STREAM_WINDOW, au, &mine, &theirs, 1)
            );
            note_setup(&sink, h0, v0, ctx);
            // Credits land in the first word of this side's buffer.
            let mut sent = 0u32;
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                let first = arrivals.lock().expect("arrivals").len();
                for (i, m) in class.msgs.iter().enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    if sent as usize >= STREAM_WINDOW {
                        let need = sent + 1 - STREAM_WINDOW as u32;
                        try_op!(
                            &sink,
                            "credit",
                            side.vmmc
                                .wait_u32(ctx, side.recv, POLL_BUDGET, |v| v >= need)
                        );
                    }
                    let off = (sent as usize % STREAM_WINDOW) * slot;
                    try_op!(
                        &sink,
                        "send",
                        side.send(ctx, env.pool.bytes(m), off, sent + 1)
                    );
                    sent += 1;
                }
                // The class ends when the receiver has credited its
                // last message.
                try_op!(
                    &sink,
                    "drain",
                    side.vmmc
                        .wait_u32(ctx, side.recv, POLL_BUDGET, |v| v >= sent)
                );
                let at = stamps_from(&arrivals, first);
                timer.finish(ctx, Some((class, &at)), &sink);
            }
        });
    }
    {
        let (plan, sink) = (Arc::clone(&plan), Arc::clone(&sink));
        let vmmc = rig.system.endpoint(1, format!("{}-dst", plan.lib.name()));
        rig.kernel.spawn("stream-dst", move |ctx| {
            let side = try_op!(
                &sink,
                "setup",
                VmmcSide::setup(
                    vmmc,
                    ctx,
                    slot * STREAM_WINDOW,
                    false,
                    &b_names,
                    &a_names,
                    0
                )
            );
            let p = side.vmmc.proc_().clone();
            let mut got = 0u32;
            for class in &plan.classes {
                for (i, m) in class.msgs.iter().enumerate() {
                    let off = (got as usize % STREAM_WINDOW) * slot;
                    let ok = try_op!(&sink, "recv", side.recv(ctx, m, off, got + 1));
                    stamp(&arrivals, ctx.now());
                    if !ok {
                        fail(&sink, format!("{} message {i} corrupt", class.label));
                    }
                    got += 1;
                    try_op!(&sink, "credit", p.write_u32(ctx, side.user, got));
                    try_op!(
                        &sink,
                        "credit",
                        side.vmmc.send(ctx, side.user, &side.peer, 0, 4)
                    );
                }
            }
        });
    }
    rig.finish(sink)
}

// ---------------------------------------------------------------------
// NX
// ---------------------------------------------------------------------

fn nx_section(rig: &Rig, plan: Arc<SectionPlan>) -> SectionOut {
    let stream = plan.stream;
    let sink = new_sink(if stream {
        "stream:nx".into()
    } else {
        "nx".into()
    });
    let world = NxWorld::new(
        Arc::clone(&rig.system),
        NxConfig::paper_default(),
        vec![0, 1],
    );
    let bytes = page_round(plan.max_size());
    let arrivals = Arrivals::default();
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let (world, arrivals) = (Arc::clone(&world), Arc::clone(&arrivals));
        rig.kernel.spawn("nx-rank0", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let mut nx = world.join(ctx, 0);
            let p = nx.vmmc().proc_().clone();
            let sbuf = p.alloc(bytes, CacheMode::WriteBack);
            let rbuf = p.alloc(bytes, CacheMode::WriteBack);
            note_setup(&sink, h0, v0, ctx);
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                let first = arrivals.lock().expect("arrivals").len();
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    try_op!(&sink, "poke", p.poke(sbuf, env.pool.bytes(m)));
                    try_op!(&sink, "csend", nx.csend(ctx, 1, sbuf, m.size, 1));
                    if stream {
                        continue;
                    }
                    let n = try_op!(&sink, "crecv", nx.crecv(ctx, 2, rbuf, bytes));
                    let got = try_op!(&sink, "peek", p.peek(rbuf, n));
                    if checksum(&got) != back.sum_full {
                        fail(&sink, format!("{} reply {i} corrupt", class.label));
                    }
                    if i >= class.warmup {
                        timer.sample(ctx.now().since(t0).as_ps(), 2 * m.size);
                    }
                }
                if stream {
                    // One word back closes the class.
                    try_op!(&sink, "crecv", nx.crecv(ctx, 2, rbuf, bytes));
                    let at = stamps_from(&arrivals, first);
                    timer.finish(ctx, Some((class, &at)), &sink);
                } else {
                    timer.finish(ctx, None, &sink);
                }
            }
            try_op!(&sink, "flush", nx.flush(ctx));
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        rig.kernel.spawn("nx-rank1", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let p = nx.vmmc().proc_().clone();
            let sbuf = p.alloc(bytes, CacheMode::WriteBack);
            let rbuf = p.alloc(bytes, CacheMode::WriteBack);
            for class in &plan.classes {
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    let n = try_op!(&sink, "crecv", nx.crecv(ctx, 1, rbuf, bytes));
                    if stream {
                        stamp(&arrivals, ctx.now());
                    }
                    let got = try_op!(&sink, "peek", p.peek(rbuf, n));
                    if checksum(&got) != m.sum_full {
                        fail(&sink, format!("{} message {i} corrupt", class.label));
                    }
                    if !stream {
                        try_op!(&sink, "poke", p.poke(sbuf, env.pool.bytes(back)));
                        try_op!(&sink, "csend", nx.csend(ctx, 2, sbuf, back.size, 0));
                    }
                }
                if stream {
                    try_op!(&sink, "csend", nx.csend(ctx, 2, sbuf, 4, 0));
                }
            }
            try_op!(&sink, "flush", nx.flush(ctx));
        });
    }
    rig.finish(sink)
}

// ---------------------------------------------------------------------
// Stream sockets
// ---------------------------------------------------------------------

fn sockets_section(rig: &Rig, plan: Arc<SectionPlan>, port: u16) -> SectionOut {
    let stream = plan.stream;
    let sink = new_sink(if stream {
        "stream:sockets".into()
    } else {
        "sockets".into()
    });
    // The paper's fastest variant in each regime: automatic update for
    // small-message latency, deliberate update for bandwidth.
    let variant = if stream {
        SocketVariant::Du1Copy
    } else {
        SocketVariant::Au2Copy
    };
    let arrivals = Arrivals::default();
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let arrivals = Arc::clone(&arrivals);
        let vmmc = rig.system.endpoint(1, format!("sock-server-{port}"));
        let eth = Arc::clone(rig.system.ethernet());
        rig.kernel.spawn("sock-server", move |ctx| {
            let listener = shrimp_sockets::listen(vmmc, eth, port);
            let mut sock = try_op!(&sink, "accept", listener.accept(ctx));
            for class in &plan.classes {
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    let got = try_op!(&sink, "recv", sock.recv_exact(ctx, m.size));
                    if stream {
                        stamp(&arrivals, ctx.now());
                    }
                    if checksum(&got) != m.sum_full {
                        fail(&sink, format!("{} message {i} corrupt", class.label));
                    }
                    if !stream {
                        try_op!(&sink, "send", sock.send(ctx, env.pool.bytes(back)));
                    }
                }
                if stream {
                    try_op!(&sink, "send", sock.send(ctx, &[0u8; 4]));
                }
            }
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let vmmc = rig.system.endpoint(0, format!("sock-client-{port}"));
        let eth = Arc::clone(rig.system.ethernet());
        rig.kernel.spawn("sock-client", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let mut sock = try_op!(
                &sink,
                "connect",
                shrimp_sockets::connect(vmmc, ctx, &eth, NodeId(1), port, variant)
            );
            note_setup(&sink, h0, v0, ctx);
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                let first = arrivals.lock().expect("arrivals").len();
                for (i, (m, back)) in class.msgs.iter().zip(&class.back).enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    try_op!(&sink, "send", sock.send(ctx, env.pool.bytes(m)));
                    if stream {
                        continue;
                    }
                    let got = try_op!(&sink, "recv", sock.recv_exact(ctx, back.size));
                    if checksum(&got) != back.sum_full {
                        fail(&sink, format!("{} reply {i} corrupt", class.label));
                    }
                    if i >= class.warmup {
                        timer.sample(ctx.now().since(t0).as_ps(), 2 * m.size);
                    }
                }
                if stream {
                    try_op!(&sink, "recv", sock.recv_exact(ctx, 4));
                    let at = stamps_from(&arrivals, first);
                    timer.finish(ctx, Some((class, &at)), &sink);
                } else {
                    timer.finish(ctx, None, &sink);
                }
            }
            try_op!(&sink, "close", sock.close(ctx));
        });
    }
    rig.finish(sink)
}

// ---------------------------------------------------------------------
// VRPC and SRPC: a null procedure with one INOUT opaque argument
// ---------------------------------------------------------------------

fn vrpc_section(rig: &Rig, plan: Arc<SectionPlan>) -> SectionOut {
    let sink = new_sink("vrpc".into());
    let dir = RpcDirectory::new();
    {
        let (sink, dir) = (Arc::clone(&sink), Arc::clone(&dir));
        let vmmc = rig.system.endpoint(1, "vrpc-server");
        rig.kernel.spawn("vrpc-server", move |ctx| {
            let mut server = VrpcServer::new(vmmc, VRPC_PROG, VRPC_VERS);
            server.register(
                1,
                Box::new(|_ctx, args, out| match args.get_opaque() {
                    Ok(data) => {
                        out.put_opaque(data);
                        AcceptStat::Success
                    }
                    Err(_) => AcceptStat::GarbageArgs,
                }),
            );
            let mut conn = try_op!(&sink, "accept", server.accept(ctx, &dir));
            try_op!(&sink, "serve", server.serve(ctx, &mut conn));
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let vmmc = rig.system.endpoint(0, "vrpc-client");
        rig.kernel.spawn("vrpc-client", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let mut client = try_op!(
                &sink,
                "bind",
                VrpcClient::bind(
                    vmmc,
                    ctx,
                    &dir,
                    VRPC_PROG,
                    VRPC_VERS,
                    StreamVariant::AutomaticUpdate
                )
            );
            note_setup(&sink, h0, v0, ctx);
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                for (i, m) in class.msgs.iter().enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    let arg = env.pool.bytes(m);
                    let sum = try_op!(
                        &sink,
                        "call",
                        client.call(
                            ctx,
                            1,
                            |e| e.put_opaque(arg),
                            |d| Ok(checksum(d.get_opaque()?))
                        )
                    );
                    if sum != m.sum_full {
                        fail(&sink, format!("{} result {i} corrupt", class.label));
                    }
                    if i >= class.warmup {
                        timer.sample(ctx.now().since(t0).as_ps(), 2 * m.size);
                    }
                }
                timer.finish(ctx, None, &sink);
            }
            try_op!(&sink, "close", client.close(ctx));
        });
    }
    rig.finish(sink)
}

fn srpc_section(rig: &Rig, plan: Arc<SectionPlan>) -> SectionOut {
    let sink = new_sink("srpc".into());
    // Arguments are fixed-size in the SRPC IDL: one procedure per
    // distinct message size in the plan.
    let mut sizes: Vec<usize> = plan
        .classes
        .iter()
        .flat_map(|c| c.msgs.iter().map(|m| m.size))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let procs: String = sizes
        .iter()
        .map(|s| format!(" ping{s}(inout data: opaque[{s}]);"))
        .collect();
    let iface = parse_interface(&format!("interface Null {{{procs} }}"))
        .expect("generated IDL is well-formed");
    let dir = SrpcDirectory::new();
    {
        let (sink, dir, iface) = (Arc::clone(&sink), Arc::clone(&dir), iface.clone());
        let vmmc = rig.system.endpoint(1, "srpc-server");
        rig.kernel.spawn("srpc-server", move |ctx| {
            let mut server = SrpcServer::new(vmmc, &iface);
            for s in &sizes {
                server.register(
                    &format!("ping{s}"),
                    Box::new(|ctx, ins, out| {
                        out.set(ctx, "data", &ins[0])
                            .expect("echo of a declared INOUT parameter");
                    }),
                );
            }
            let mut conn = try_op!(&sink, "accept", server.accept(ctx, &dir, "null"));
            try_op!(&sink, "serve", server.serve(ctx, &mut conn));
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let vmmc = rig.system.endpoint(0, "srpc-client");
        rig.kernel.spawn("srpc-client", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let mut client = try_op!(
                &sink,
                "bind",
                SrpcClient::bind(vmmc, ctx, &dir, "null", &iface)
            );
            note_setup(&sink, h0, v0, ctx);
            for class in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, class.label, ctx);
                for (i, m) in class.msgs.iter().enumerate() {
                    if i == class.warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    let arg = Val::Bytes(env.pool.bytes(m).to_vec());
                    let outs = try_op!(
                        &sink,
                        "call",
                        client.call(ctx, &format!("ping{}", m.size), &[arg])
                    );
                    let ok =
                        matches!(outs.first(), Some(Val::Bytes(b)) if checksum(b) == m.sum_full);
                    if !ok {
                        fail(&sink, format!("{} result {i} corrupt", class.label));
                    }
                    if i >= class.warmup {
                        timer.sample(ctx.now().since(t0).as_ps(), 2 * m.size);
                    }
                }
                timer.finish(ctx, None, &sink);
            }
            try_op!(&sink, "close", client.close(ctx));
        });
    }
    rig.finish(sink)
}

/// Run one library section on the rep's system.
pub fn run_section(rig: &Rig, plan: Arc<SectionPlan>, port: u16) -> SectionOut {
    match (plan.lib, plan.stream) {
        (Lib::VmmcAu | Lib::VmmcDu, false) => vmmc_ping(rig, plan),
        (Lib::VmmcAu | Lib::VmmcDu, true) => vmmc_stream(rig, plan),
        (Lib::Nx, _) => nx_section(rig, plan),
        (Lib::Sockets, _) => sockets_section(rig, plan, port),
        (Lib::Vrpc, _) => vrpc_section(rig, plan),
        (Lib::Srpc, _) => srpc_section(rig, plan),
    }
}

// ---------------------------------------------------------------------
// The read side: one-sided fetch and the remote pager
// ---------------------------------------------------------------------

/// One fetch: `len` bytes at offset `off` of the owner's export.
#[derive(Clone, Debug)]
pub struct FetchOp {
    /// Source offset, word-aligned.
    pub off: usize,
    /// Length, a multiple of 4.
    pub len: usize,
    /// Checksum of the exported bytes the fetch must return.
    pub sum: u64,
}

/// The fetch section's inputs.
#[derive(Debug)]
pub struct FetchPlan {
    /// What the owner exports, read-enabled.
    pub exported: Vec<u8>,
    /// `(label, warm-up count, fetches)` per size class.
    pub classes: Vec<(&'static str, usize, Vec<FetchOp>)>,
}

impl FetchPlan {
    /// Draw `(label, nominal, warmup, measured)` classes over an export
    /// big enough for the largest.
    pub fn draw(
        rng: &mut Rng,
        spread_pct: usize,
        classes: &[(&'static str, usize, usize, usize)],
    ) -> FetchPlan {
        let largest = classes.iter().map(|c| c.1).max().unwrap_or(4);
        let mut exported = vec![0u8; page_round(largest * 5 / 4) + PAGE_SIZE];
        rng.fill(&mut exported);
        let classes = classes
            .iter()
            .map(|&(label, nominal, warmup, measured)| {
                let ops = (0..warmup + measured)
                    .map(|_| {
                        let len = rng.size_near(nominal, spread_pct);
                        let off = 4 * rng.below(((exported.len() - len) / 4 + 1) as u64) as usize;
                        FetchOp {
                            off,
                            len,
                            sum: checksum(&exported[off..off + len]),
                        }
                    })
                    .collect();
                (label, warmup, ops)
            })
            .collect();
        FetchPlan { exported, classes }
    }
}

/// `Vmmc::fetch` from node 1's read-enabled export into node 0.
pub fn fetch_section(rig: &Rig, plan: Arc<FetchPlan>) -> SectionOut {
    let sink = new_sink("fetch".into());
    let names: SimChannel<BufferName> = SimChannel::new();
    {
        let (plan, sink, names) = (Arc::clone(&plan), Arc::clone(&sink), names.clone());
        let owner = rig.system.endpoint(1, "fetch-owner");
        rig.kernel.spawn("fetch-owner", move |ctx| {
            let p = owner.proc_();
            let buf = p.alloc(plan.exported.len(), CacheMode::WriteBack);
            try_op!(&sink, "fill", p.poke(buf, &plan.exported));
            let opts = ExportOpts {
                read: true,
                ..ExportOpts::default()
            };
            let name = try_op!(
                &sink,
                "export",
                owner.export(ctx, buf, plan.exported.len(), opts)
            );
            names.send(&ctx.handle(), name);
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let reader = rig.system.endpoint(0, "fetch-reader");
        rig.kernel.spawn("fetch-reader", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let src = try_op!(
                &sink,
                "import",
                reader.import(ctx, NodeId(1), names.recv(ctx))
            );
            let dst = reader
                .proc_()
                .alloc(plan.exported.len(), CacheMode::WriteBack);
            note_setup(&sink, h0, v0, ctx);
            for (label, warmup, ops) in &plan.classes {
                let mut timer = ClassTimer::start(&env.reg, label, ctx);
                for (i, op) in ops.iter().enumerate() {
                    if i == *warmup {
                        timer.measured_from_here(ctx);
                    }
                    attempt(&sink);
                    let t0 = ctx.now();
                    try_op!(&sink, "fetch", reader.fetch(ctx, dst, &src, op.off, op.len));
                    let lat = ctx.now().since(t0).as_ps();
                    let got = try_op!(&sink, "peek", reader.proc_().peek(dst, op.len));
                    if checksum(&got) != op.sum {
                        fail(&sink, format!("{label} fetch {i} differs from the export"));
                    }
                    if i >= *warmup {
                        timer.sample(lat, op.len);
                    }
                }
                timer.finish(ctx, None, &sink);
            }
        });
    }
    rig.finish(sink)
}

/// One pager access: 64 bytes at `addr` of far memory.
#[derive(Clone, Debug)]
pub struct PagerOp {
    /// Far-memory address.
    pub addr: usize,
    /// Bytes to write, or `None` to read.
    pub write: Option<[u8; 64]>,
}

/// The pager section's inputs: a cold sweep over every page, then a
/// seeded hot/cold re-reference pass, over more pages than frames.
#[derive(Debug)]
pub struct PagerPlan {
    /// Far-memory pages.
    pub vpages: usize,
    /// Local frames (fewer than `vpages`).
    pub frames: usize,
    /// The cold sweep.
    pub sweep: Vec<PagerOp>,
    /// The re-reference pass.
    pub rerefs: Vec<PagerOp>,
}

impl PagerPlan {
    /// Draw the plan: 80% of re-references go to the first quarter of
    /// the pages, 30% are writes.
    pub fn draw(rng: &mut Rng, vpages: usize, frames: usize, rerefs: usize) -> PagerPlan {
        let mut order: Vec<usize> = (0..vpages).collect();
        rng.shuffle(&mut order);
        let access = |rng: &mut Rng, page: usize| {
            let addr = page * PAGE_SIZE + 4 * rng.below(((PAGE_SIZE - 64) / 4) as u64) as usize;
            let write = (rng.below(100) < 30).then(|| {
                let mut b = [0u8; 64];
                rng.fill(&mut b);
                b
            });
            PagerOp { addr, write }
        };
        let sweep = order.iter().map(|&p| access(rng, p)).collect();
        let hot = (vpages / 4).max(1);
        let rerefs = (0..rerefs)
            .map(|_| {
                let page = if rng.below(100) < 80 {
                    rng.below(hot as u64)
                } else {
                    rng.below(vpages as u64)
                };
                access(rng, page as usize)
            })
            .collect();
        PagerPlan {
            vpages,
            frames,
            sweep,
            rerefs,
        }
    }
}

/// A `RemotePager` on node 0 over a `MemoryServer` pool on node 1.
/// Every read is checked against a host-side model of far memory.
pub fn pager_section(rig: &Rig, plan: Arc<PagerPlan>) -> SectionOut {
    let sink = new_sink("pager".into());
    let names: SimChannel<BufferName> = SimChannel::new();
    {
        let (sink, names, vpages) = (Arc::clone(&sink), names.clone(), plan.vpages);
        let server = rig.system.endpoint(1, "pager-memserver");
        rig.kernel.spawn("pager-memserver", move |ctx| {
            let srv = try_op!(&sink, "export", MemoryServer::export(server, ctx, vpages));
            names.send(&ctx.handle(), srv.name());
        });
    }
    {
        let (env, plan, sink) = (rig.env.clone(), Arc::clone(&plan), Arc::clone(&sink));
        let client = rig.system.endpoint(0, "pager-client");
        rig.kernel.spawn("pager-client", move |ctx| {
            let (h0, v0) = (Instant::now(), ctx.now());
            let pool = try_op!(
                &sink,
                "import",
                client.import(ctx, NodeId(1), names.recv(ctx))
            );
            let mut pager = RemotePager::new(client, pool, plan.vpages, plan.frames);
            note_setup(&sink, h0, v0, ctx);
            let mut model = vec![0u8; plan.vpages * PAGE_SIZE];
            // Accesses that went to the memory server, over both passes.
            let mut faults = Phase {
                name: "fault".into(),
                ..Phase::default()
            };
            for (label, ops) in [("sweep", &plan.sweep), ("reref", &plan.rerefs)] {
                let mut timer = ClassTimer::start(&env.reg, label, ctx);
                for (i, op) in ops.iter().enumerate() {
                    attempt(&sink);
                    let t0 = ctx.now();
                    let misses = pager.stats().misses;
                    match &op.write {
                        Some(data) => {
                            try_op!(&sink, "write", pager.write(ctx, op.addr, data));
                            model[op.addr..op.addr + 64].copy_from_slice(data);
                        }
                        None => {
                            let got = try_op!(&sink, "read", pager.read(ctx, op.addr, 64));
                            if got != model[op.addr..op.addr + 64] {
                                fail(&sink, format!("{label} read {i} differs from far memory"));
                            }
                        }
                    }
                    let lat = ctx.now().since(t0).as_ps();
                    timer.sample(lat, 64);
                    if pager.stats().misses > misses {
                        faults.lat_ps.push(lat);
                        faults.bytes += PAGE_SIZE as u64;
                        faults.span_ps += lat;
                    }
                }
                timer.finish(ctx, None, &sink);
            }
            try_op!(&sink, "flush", pager.flush(ctx));
            let stats = pager.stats();
            let mut out = sink.lock().expect("section sink");
            out.classes.push(faults);
            out.pager_hits = stats.hits;
            out.pager_faults = stats.misses;
        });
    }
    rig.finish(sink)
}
