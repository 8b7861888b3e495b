//! The VMMC endpoint: the user-level API of virtual memory-mapped
//! communication.
//!
//! A [`Vmmc`] belongs to one user process. It provides the calls of the
//! VMMC model (paper §2):
//!
//! * **import-export mappings** — [`Vmmc::export`] /
//!   [`Vmmc::import`] / [`Vmmc::unexport`] / [`Vmmc::unimport`];
//! * **deliberate update** — [`Vmmc::send`], the blocking explicit
//!   transfer from any local memory into an imported receive buffer;
//! * **automatic update** — [`Vmmc::bind_au`] binds local pages to an
//!   imported buffer so ordinary stores propagate in hardware;
//! * **notifications** — per-buffer handlers with signal-like blocking
//!   semantics ([`Vmmc::wait_notification`], queued while blocked);
//! * **receive-side waiting** — there is *no receive operation* in VMMC;
//!   receivers check memory. [`Vmmc::wait_u32`] polls a flag and falls
//!   back to blocking, the polling/blocking switch of paper §6.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_mesh::NodeId;
use shrimp_nic::{DuRequest, FetchRequest, NakReason, OptEntry};
use shrimp_node::{CacheMode, PAddr, UserProc, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, ProcessId, RetryPolicy, SimHandle, SimTime, WaitQueue};

use crate::daemon::{BufferName, ExportPerms, ExportRecord, MappingInfo};
use crate::error::VmmcError;
use crate::system::ShrimpSystem;

/// A notification delivered to an exported buffer's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotifyEvent {
    /// The buffer whose pages received data.
    pub buffer: BufferName,
    /// When the triggering packet's DMA completed.
    pub at: SimTime,
}

/// A user-level notification handler (paper §2.3). Runs in the receiving
/// process's context when notifications are consumed.
pub type NotifyHandler = Box<dyn FnMut(&Ctx, NotifyEvent) + Send>;

/// Options for [`Vmmc::export`].
#[derive(Default)]
pub struct ExportOpts {
    /// Import permissions.
    pub perms: ExportPerms,
    /// Optional notification handler; attaching one sets the
    /// receiver-specified interrupt flag on the buffer's pages.
    pub handler: Option<NotifyHandler>,
    /// Allow importers to *fetch* (one-sided remote read) from this
    /// buffer: programs the read-permission bit on every backing page.
    /// Off by default — a plain VMMC export stays write-only.
    pub read: bool,
}

impl std::fmt::Debug for ExportOpts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExportOpts")
            .field("perms", &self.perms)
            .field("handler", &self.handler.as_ref().map(|_| "<fn>"))
            .field("read", &self.read)
            .finish()
    }
}

/// A handle to an imported remote receive buffer. Cheap to clone; all
/// clones are invalidated together by [`Vmmc::unimport`].
#[derive(Debug, Clone)]
pub struct ImportHandle {
    info: Arc<MappingInfo>,
    alive: Arc<AtomicBool>,
}

impl ImportHandle {
    /// The exporting node.
    pub fn node(&self) -> NodeId {
        self.info.node
    }

    /// The exported buffer's name.
    pub fn name(&self) -> BufferName {
        self.info.name
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.info.len
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.info.len == 0
    }

    /// The one liveness-and-range check of every call that names a
    /// window of this buffer: the handle must be alive and
    /// `[off, off + len)` must end within the buffer plus `slack` bytes
    /// (an automatic-update binding covers whole pages, so its window may
    /// overhang a partial last page). The sum is checked: once this
    /// passes, no later `first_offset + off` or page lookup can wrap.
    fn check(&self, off: usize, len: usize, slack: usize) -> Result<(), VmmcError> {
        if !self.alive.load(Ordering::SeqCst) {
            return Err(VmmcError::StaleImport);
        }
        match off.checked_add(len) {
            Some(end) if end <= self.len() + slack => Ok(()),
            _ => Err(VmmcError::OutOfRange {
                offset: off,
                len,
                buffer_len: self.len(),
            }),
        }
    }

    /// Destination physical byte address for a byte offset into the
    /// buffer.
    fn locate(&self, off: usize) -> u64 {
        let abs = self.info.first_offset + off;
        let page_idx = abs / PAGE_SIZE;
        let within = abs % PAGE_SIZE;
        self.info.ppages[page_idx] * PAGE_SIZE as u64 + within as u64
    }

    /// Bytes from `off` to the end of the destination physical page it
    /// falls in.
    fn bytes_to_page_end(&self, off: usize) -> usize {
        PAGE_SIZE - (self.info.first_offset + off) % PAGE_SIZE
    }
}

/// The completion latch of one transfer: page chunks outstanding and the
/// earliest refusal among them (by offset into the transfer). The
/// issuing process is unparked once, when nothing is outstanding.
#[derive(Debug)]
struct Latch {
    state: Mutex<(usize, Option<(usize, NakReason)>)>,
    waiter: (SimHandle, ProcessId),
}

impl Latch {
    /// Count the chunk at `off` as outstanding; the returned callback
    /// settles it, with the responder's refusal if there was one.
    fn arm(self: &Arc<Self>, off: usize) -> impl FnOnce(Option<NakReason>) + Send {
        self.state.lock().0 += 1;
        let me = Arc::clone(self);
        move |refusal| {
            let mut g = me.state.lock();
            g.0 -= 1;
            if let Some(why) = refusal {
                if g.1.is_none_or(|(first, _)| off < first) {
                    g.1 = Some((off, why));
                }
            }
            if g.0 == 0 {
                me.waiter.0.unpark(me.waiter.1);
            }
        }
    }

    /// Block until nothing is outstanding; returns the earliest refusal.
    fn wait(&self, ctx: &Ctx) -> Option<NakReason> {
        loop {
            let g = self.state.lock();
            if g.0 == 0 {
                return g.1.map(|(_, why)| why);
            }
            drop(g);
            ctx.park();
        }
    }
}

/// A checked transfer between a local range and a window of an imported
/// buffer — what [`Vmmc::plan`] leaves for the issue policies.
struct Plan<'a> {
    t0: SimTime,
    msg: shrimp_obs::MsgId,
    latch: Arc<Latch>,
    len: usize,
    remote: &'a ImportHandle,
    remote_off: usize,
    /// The local range as physical page runs.
    local: Vec<(PAddr, usize, CacheMode)>,
}

impl Plan<'_> {
    /// The page cutter: `(local paddr, remote paddr, offset, length)` of
    /// each chunk, cut where either side reaches a page end.
    fn chunks(&self) -> impl Iterator<Item = (PAddr, u64, usize, usize)> + '_ {
        let (mut run, mut used, mut off) = (0, 0, 0);
        std::iter::from_fn(move || {
            let &(pa, run_len, _) = self.local.get(run)?;
            let at = self.remote_off + off;
            let n = (run_len - used).min(self.remote.bytes_to_page_end(at));
            let chunk = (PAddr(pa.0 + used as u64), self.remote.locate(at), off, n);
            (used, off) = (used + n, off + n);
            if used == run_len {
                (run, used) = (run + 1, 0);
            }
            Some(chunk)
        })
    }
}

/// Tracks an in-flight non-blocking send
/// ([`Vmmc::send_nonblocking`]).
#[derive(Debug, Clone)]
pub struct SendHandle {
    /// `None` for a zero-length send: nothing was ever in flight.
    latch: Option<Arc<Latch>>,
}

impl SendHandle {
    /// True once the source buffer is reusable.
    pub fn is_complete(&self) -> bool {
        self.latch.as_ref().is_none_or(|l| l.state.lock().0 == 0)
    }
}

/// An active automatic-update binding created by [`Vmmc::bind_au`].
#[derive(Debug)]
pub struct AuBinding {
    local_va: VAddr,
    pages: usize,
    local_ppages: Vec<u64>,
    local_vpages: Vec<u64>,
}

impl AuBinding {
    /// First bound local address.
    pub fn local_va(&self) -> VAddr {
        self.local_va
    }

    /// Number of bound pages.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

struct EpState {
    notify_blocked: bool,
    pending_notifies: VecDeque<NotifyEvent>,
    handlers: HashMap<BufferName, NotifyHandler>,
    exports: HashMap<BufferName, (VAddr, usize, Arc<Vec<u64>>)>,
    ppage_to_buffer: HashMap<u64, BufferName>,
}

/// State shared between the owning process and the system's hook
/// closures (delivery, notification interrupts).
pub(crate) struct EndpointShared {
    handle: SimHandle,
    state: Mutex<EpState>,
    /// Processes waiting for a packet to land in an exported page.
    activity: WaitQueue,
    /// Processes waiting for a notification.
    notified: WaitQueue,
}

impl EndpointShared {
    pub(crate) fn on_delivery(&self, _ppage: u64, _at: SimTime) {
        self.activity.notify_all(&self.handle);
    }

    pub(crate) fn on_notification(&self, ppage: u64) {
        {
            let mut st = self.state.lock();
            let Some(&buffer) = st.ppage_to_buffer.get(&ppage) else {
                return;
            };
            // Notifications only take effect when a handler is attached
            // (paper §2.3).
            if !st.handlers.contains_key(&buffer) {
                return;
            }
            let at = self.handle.now();
            st.pending_notifies.push_back(NotifyEvent { buffer, at });
            if st.notify_blocked {
                return; // queued while blocked
            }
        }
        self.notified.notify_all(&self.handle);
    }
}

/// The one retry loop: run `attempt` until it returns anything but a
/// transient refusal — the daemon is down, or (a fetch only) an injected
/// violation froze the page and the OS repair has yet to re-enable it —
/// backing off per `policy` after each refused attempt.
fn retry<T>(
    ctx: &Ctx,
    policy: RetryPolicy,
    op: &'static str,
    mut attempt: impl FnMut() -> Result<T, VmmcError>,
) -> Result<T, VmmcError> {
    for n in 0..policy.attempts {
        match attempt() {
            Err(VmmcError::DaemonUnavailable { .. } | VmmcError::FetchDenied { .. }) => {
                ctx.advance(policy.timeout(n));
            }
            other => return other,
        }
    }
    Err(VmmcError::Timeout {
        op,
        waited: policy.total_budget(),
    })
}

fn flag_word(proc_: &UserProc, va: VAddr) -> u32 {
    let b = proc_.peek(va, 4).expect("fetch flag word is mapped");
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// One process's VMMC endpoint. See the crate documentation for the API
/// overview and the crate examples for usage.
pub struct Vmmc {
    system: Arc<ShrimpSystem>,
    node_index: usize,
    proc_: UserProc,
    shared: Arc<EndpointShared>,
    /// Lazily allocated completion flag word for remote fetches: the
    /// count of chunks completed so far, bumped by the reply engine.
    fetch_flag: Mutex<Option<VAddr>>,
}

impl std::fmt::Debug for Vmmc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vmmc")
            .field("node", &self.node_index)
            .field("proc", &self.proc_.name())
            .finish()
    }
}

impl Vmmc {
    pub(crate) fn new(system: Arc<ShrimpSystem>, node_index: usize, proc_: UserProc) -> Vmmc {
        let shared = Arc::new(EndpointShared {
            handle: system.sim().clone(),
            state: Mutex::new(EpState {
                notify_blocked: false,
                pending_notifies: VecDeque::new(),
                handlers: HashMap::new(),
                exports: HashMap::new(),
                ppage_to_buffer: HashMap::new(),
            }),
            activity: WaitQueue::new(),
            notified: WaitQueue::new(),
        });
        Vmmc {
            system,
            node_index,
            proc_,
            shared,
            fetch_flag: Mutex::new(None),
        }
    }

    /// The user process this endpoint belongs to (for memory operations).
    pub fn proc_(&self) -> &UserProc {
        &self.proc_
    }

    /// The node index this endpoint lives on.
    pub fn node_index(&self) -> usize {
        self.node_index
    }

    /// This node's mesh id.
    pub fn node_id(&self) -> NodeId {
        self.proc_.node().id()
    }

    /// The system this endpoint is part of.
    pub fn system(&self) -> &Arc<ShrimpSystem> {
        &self.system
    }

    /// The observability recorder this endpoint's system was built
    /// under, if any. User-level libraries use this to record
    /// [`shrimp_obs::Layer::User`] spans around their protocol phases.
    pub fn obs(&self) -> Option<&Arc<shrimp_obs::Recorder>> {
        self.system.obs()
    }

    /// Record one [`shrimp_obs::Layer::User`] span on this endpoint's
    /// node: what a library above VMMC calls around each of its protocol
    /// phases. Nothing happens without an installed recorder.
    pub fn user_span(
        &self,
        msg: shrimp_obs::MsgId,
        name: &'static str,
        start: SimTime,
        end: SimTime,
        bytes: usize,
    ) {
        if let Some(rec) = self.system.obs() {
            rec.push(shrimp_obs::SpanRec {
                msg,
                node: self.node_index,
                layer: shrimp_obs::Layer::User,
                name,
                start,
                end,
                bytes,
            });
        }
    }

    // ------------------------------------------------------------------
    // Import-export mappings
    // ------------------------------------------------------------------

    /// Export `[va, va+len)` as a receive buffer with the given options;
    /// returns the buffer name importers use. The local daemon pins the
    /// pages and enables them in the incoming page table.
    ///
    /// # Errors
    ///
    /// Fails if the range is not mapped writable in this process.
    pub fn export(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        mut opts: ExportOpts,
    ) -> Result<BufferName, VmmcError> {
        self.export_once(ctx, va, len, &mut opts)
    }

    /// Like [`Vmmc::export`], but rides out daemon outages the way
    /// [`Vmmc::import_retry`] does — setup code must survive a crash
    /// landing mid-bootstrap.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt found the daemon down;
    /// otherwise as for [`Vmmc::export`].
    pub fn export_retry(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        mut opts: ExportOpts,
        policy: RetryPolicy,
    ) -> Result<BufferName, VmmcError> {
        retry(ctx, policy, "export", || {
            self.export_once(ctx, va, len, &mut opts)
        })
    }

    /// One export attempt; takes the handler out of `opts` only once the
    /// daemon has accepted the registration.
    fn export_once(
        &self,
        ctx: &Ctx,
        va: VAddr,
        len: usize,
        opts: &mut ExportOpts,
    ) -> Result<BufferName, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_export);
        let chunks = self.proc_.aspace().translate_range(va, len, true)?;
        // One page list, shared by the daemon record, the page registry,
        // and this endpoint's export table.
        let ppages: Arc<Vec<u64>> = Arc::new(chunks.iter().map(|(pa, _, _)| pa.page()).collect());
        let record = ExportRecord {
            ppages: Arc::clone(&ppages),
            first_offset: va.offset(),
            len,
            perms: opts.perms.clone(),
            read: opts.read,
        };
        let name = self
            .system
            .daemon(self.node_index)
            .register_export(record)?;
        self.system
            .registry
            .register_pages(self.node_index, &ppages, &self.shared);
        {
            let mut st = self.shared.state.lock();
            st.exports.insert(name, (va, len, Arc::clone(&ppages)));
            for &p in ppages.iter() {
                st.ppage_to_buffer.insert(p, name);
            }
            if let Some(h) = opts.handler.take() {
                st.handlers.insert(name, h);
            }
        }
        if self.shared.state.lock().handlers.contains_key(&name) {
            self.system
                .daemon(self.node_index)
                .set_export_interrupt(name, true)
                .expect("export just registered");
        }
        Ok(name)
    }

    /// Destroy an export. Blocks until all pending messages using the
    /// mapping have been delivered (paper §2.1), then disables the pages.
    ///
    /// # Errors
    ///
    /// Fails if `name` was not exported by this endpoint.
    pub fn unexport(&self, ctx: &Ctx, name: BufferName) -> Result<(), VmmcError> {
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        let pages = {
            let mut st = self.shared.state.lock();
            let (_va, _len, pages) = st.exports.remove(&name).ok_or(VmmcError::UnknownBuffer {
                node: self.node_id(),
                name: name.0,
            })?;
            for p in pages.iter() {
                st.ppage_to_buffer.remove(p);
            }
            st.handlers.remove(&name);
            pages
        };
        self.system.daemon(self.node_index).unregister_export(name);
        self.system
            .registry
            .unregister_pages(self.node_index, &pages);
        Ok(())
    }

    /// Import the buffer `name` exported on `node`.
    ///
    /// # Errors
    ///
    /// Fails if the buffer does not exist, permissions exclude this
    /// node, or the remote daemon is down
    /// ([`VmmcError::DaemonUnavailable`] — see [`Vmmc::import_retry`]).
    pub fn import(
        &self,
        ctx: &Ctx,
        node: NodeId,
        name: BufferName,
    ) -> Result<ImportHandle, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_import);
        let info = self
            .system
            .daemon(node.0)
            .resolve_import(self.node_id(), name)?;
        Ok(ImportHandle {
            info: Arc::new(info),
            alive: Arc::new(AtomicBool::new(true)),
        })
    }

    /// Like [`Vmmc::import`], but rides out daemon outages: on
    /// [`VmmcError::DaemonUnavailable`] the call backs off (exponentially,
    /// per `policy`) and retries until the daemon answers or the policy's
    /// attempts are exhausted. Other errors surface immediately.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt found the daemon down;
    /// otherwise as for [`Vmmc::import`].
    pub fn import_retry(
        &self,
        ctx: &Ctx,
        node: NodeId,
        name: BufferName,
        policy: RetryPolicy,
    ) -> Result<ImportHandle, VmmcError> {
        retry(ctx, policy, "import", || self.import(ctx, node, name))
    }

    /// Destroy an import mapping. Blocks until pending messages are
    /// delivered; afterwards every clone of the handle is dead.
    pub fn unimport(&self, ctx: &Ctx, handle: &ImportHandle) {
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        handle.alive.store(false, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Deliberate update
    // ------------------------------------------------------------------

    /// Blocking deliberate-update send: transfer `len` bytes from local
    /// `src` into the imported buffer at byte `dst_off`. Returns when the
    /// source buffer is reusable and every packet is ordered into the
    /// network (in-order delivery is then guaranteed; §2.2).
    ///
    /// # Errors
    ///
    /// * [`VmmcError::Misaligned`] unless source address, destination
    ///   offset, and length are word-aligned (the hardware restriction);
    /// * [`VmmcError::OutOfRange`] if the transfer exceeds the buffer;
    /// * [`VmmcError::StaleImport`] after unimport;
    /// * [`VmmcError::Fault`] if the source range is not readable.
    pub fn send(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        self.send_du(ctx, src, dst, dst_off, len, false, true)
            .map(drop)
    }

    /// Like [`Vmmc::send`], also requesting a destination notification on
    /// the final packet (the sender-specified interrupt flag).
    ///
    /// # Errors
    ///
    /// As for [`Vmmc::send`].
    pub fn send_notify(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        self.send_du(ctx, src, dst, dst_off, len, true, true)
            .map(drop)
    }

    /// The non-blocking deliberate-update send (paper §2.2 mentions it;
    /// the compatibility libraries use only the blocking form). All
    /// transfer chunks are initiated immediately and the call returns a
    /// [`SendHandle`]; complete it with [`Vmmc::send_wait`]. Until then
    /// the source buffer must not be modified.
    ///
    /// The in-order guarantee is weaker than the blocking send's: later
    /// transfers initiated *after this call returns* may interleave with
    /// this one's chunks in the outgoing FIFO, which is exactly the
    /// complication the paper alludes to. Chunks of a single
    /// non-blocking send remain in order with each other.
    ///
    /// # Errors
    ///
    /// As for [`Vmmc::send`].
    pub fn send_nonblocking(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
    ) -> Result<SendHandle, VmmcError> {
        let latch = self.send_du(ctx, src, dst, dst_off, len, false, false)?;
        Ok(SendHandle { latch })
    }

    /// Block until a non-blocking send's source buffer is reusable (all
    /// chunks handed to the network in order).
    pub fn send_wait(&self, ctx: &Ctx, handle: &SendHandle) {
        if let Some(latch) = &handle.latch {
            latch.wait(ctx);
        }
    }

    /// Every deliberate-update send: plan, then hand each chunk to the
    /// engine. The two kinds differ only in issue policy — a `blocking`
    /// send waits out each chunk before presenting the next, keeping one
    /// in flight; a non-blocking one presents them all and leaves the
    /// latch (`None` if zero-length) to the caller.
    #[allow(clippy::too_many_arguments)] // the VMMC call's own, plus the two policy bits
    fn send_du(
        &self,
        ctx: &Ctx,
        src: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        len: usize,
        interrupt: bool,
        blocking: bool,
    ) -> Result<Option<Arc<Latch>>, VmmcError> {
        let Some(plan) = self.plan(ctx, src, dst, dst_off, len, false)? else {
            return Ok(None);
        };
        let nic = self.system.nic(self.node_index);
        for (src, dst_paddr, off, n) in plan.chunks() {
            let req = DuRequest {
                src,
                dst_node: dst.node(),
                dst_paddr,
                len: n,
                // The notification rides on the transfer's final chunk.
                interrupt: interrupt && off + n == len,
                msg: plan.msg,
            };
            let settle = plan.latch.arm(off);
            nic.du_transfer(req, move |_t| settle(None));
            if blocking {
                plan.latch.wait(ctx);
            }
        }
        let name = if blocking { "send" } else { "send_nonblocking" };
        self.span(&plan, name, ctx.now());
        Ok(Some(plan.latch))
    }

    /// The front door of every transfer. Charges the library call (and,
    /// for a `pull`, presenting the fetch descriptor), checks the
    /// arguments — stale handle, range, zero length (`None`: nothing to
    /// do), the hardware's word alignment, the MMU's verdict on the
    /// whole local range — then charges the two-access initiation
    /// sequence the NIC decodes on the EISA bus and allocates the causal
    /// id every packet of the transfer carries. Nothing reaches the NIC
    /// before all of it has passed.
    fn plan<'a>(
        &self,
        ctx: &Ctx,
        local: VAddr,
        remote: &'a ImportHandle,
        remote_off: usize,
        len: usize,
        pull: bool,
    ) -> Result<Option<Plan<'a>>, VmmcError> {
        let t0 = ctx.now();
        let costs = self.proc_.node().costs();
        ctx.advance(if pull {
            costs.lib_call + costs.fetch_issue
        } else {
            costs.lib_call
        });
        remote.check(remote_off, len, 0)?;
        if len == 0 {
            return Ok(None);
        }
        if !local.0.is_multiple_of(4)
            || !(remote.info.first_offset + remote_off).is_multiple_of(4)
            || !len.is_multiple_of(4)
        {
            return Err(VmmcError::Misaligned);
        }
        // A pull deposits into the local range; a push only reads it.
        let local = self.proc_.aspace().translate_range(local, len, pull)?;
        ctx.advance(costs.eisa_pio_access * 2);
        Ok(Some(Plan {
            t0,
            msg: self.system.nic(self.node_index).alloc_msg(),
            latch: Arc::new(Latch {
                state: Mutex::new((0, None)),
                waiter: (ctx.handle(), ctx.pid()),
            }),
            len,
            remote,
            remote_off,
            local,
        }))
    }

    /// Record the endpoint's span of a finished (or fully issued) call.
    fn span(&self, plan: &Plan<'_>, name: &'static str, end: SimTime) {
        if let Some(rec) = self.system.obs() {
            rec.push(shrimp_obs::SpanRec {
                msg: plan.msg,
                node: self.node_index,
                layer: shrimp_obs::Layer::Endpoint,
                name,
                start: plan.t0,
                end,
                bytes: plan.len,
            });
        }
    }

    // ------------------------------------------------------------------
    // Remote fetch (one-sided read)
    // ------------------------------------------------------------------

    /// Blocking one-sided remote read: fetch `len` bytes starting at
    /// byte `src_off` of the imported buffer into local memory at
    /// `dst`. The local NIC emits one fetch descriptor per page chunk,
    /// all before the call waits; the exporting NIC validates each
    /// against its incoming page table (the export must have been made
    /// with [`ExportOpts::read`]), DMAs the data out of remote memory
    /// and streams reply packets back that deposit directly into `dst`
    /// — the exporting *processor* never runs. Replies leave in pieces
    /// the exporting NIC sizes from its cost model (512 B shrinking to
    /// 64 B over a lone page), so one piece deposits here while the next
    /// is read there, and a page lands one small piece's wire time and
    /// deposit after its last read (169.8 µs on the prototype). The call returns
    /// when no chunk is outstanding (on refusal: the earliest refused
    /// chunk's error). Each completed chunk bumps a monotone flag word
    /// ([`Vmmc::fetch_completions`]).
    ///
    /// # Errors
    ///
    /// * [`VmmcError::Misaligned`] unless destination address, source
    ///   offset, and length are word-aligned (the hardware restriction,
    ///   shared with deliberate update);
    /// * [`VmmcError::OutOfRange`] if the read exceeds the buffer;
    /// * [`VmmcError::StaleImport`] after unimport;
    /// * [`VmmcError::Fault`] if `dst` is not mapped writable;
    /// * [`VmmcError::FetchDenied`] if a target page is receive-disabled
    ///   or exported without read permission (transient when an injected
    ///   violation froze the page — the OS repair re-enables it; see
    ///   [`Vmmc::fetch_retry`]);
    /// * [`VmmcError::FetchUnmapped`] if a target page has no incoming
    ///   page-table entry at all;
    /// * [`VmmcError::DaemonUnavailable`] while the exporting node's
    ///   daemon is down.
    pub fn fetch(
        &self,
        ctx: &Ctx,
        dst: VAddr,
        src: &ImportHandle,
        src_off: usize,
        len: usize,
    ) -> Result<(), VmmcError> {
        let Some(plan) = self.plan(ctx, dst, src, src_off, len, true)? else {
            return Ok(());
        };
        // Present every descriptor before waiting, so the responder reads
        // chunk k+1 while chunk k is still on the wire.
        let nic = self.system.nic(self.node_index);
        let flag_va = self.fetch_flag_va();
        for (dst_pa, src_paddr, off, n) in plan.chunks() {
            let req = FetchRequest {
                src_node: src.node(),
                src_paddr,
                len: n,
                dst_paddr: dst_pa.0,
                msg: plan.msg,
            };
            let (settle, writer) = (plan.latch.arm(off), self.proc_.clone());
            nic.fetch(req, move |res| {
                // A chunk's final deposit bumps the completion flag word
                // — a count, so it is monotone whatever order chunks
                // finish in; user code may poll it.
                if res.is_ok() {
                    let c = flag_word(&writer, flag_va) + 1;
                    let _ = writer.poke(flag_va, &c.to_le_bytes());
                }
                settle(res.err());
            });
        }
        // Wait out every chunk, refused or not: once this call returns no
        // reply can still deposit into `dst`.
        if let Some(why) = plan.latch.wait(ctx) {
            let node = src.node();
            return Err(match why {
                NakReason::Unmapped { ppage } => VmmcError::FetchUnmapped { node, ppage },
                NakReason::Denied { ppage } => VmmcError::FetchDenied { node, ppage },
                NakReason::DaemonDown => VmmcError::DaemonUnavailable { node },
            });
        }
        self.span(&plan, "fetch", ctx.now());
        Ok(())
    }

    /// Like [`Vmmc::fetch`], but rides out transient refusals: on
    /// [`VmmcError::FetchDenied`] (an injected violation froze the page;
    /// the OS repair re-enables it) or [`VmmcError::DaemonUnavailable`]
    /// the call backs off per `policy` and retries. Other errors surface
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once every attempt was refused; otherwise
    /// as for [`Vmmc::fetch`].
    pub fn fetch_retry(
        &self,
        ctx: &Ctx,
        dst: VAddr,
        src: &ImportHandle,
        src_off: usize,
        len: usize,
        policy: RetryPolicy,
    ) -> Result<(), VmmcError> {
        retry(ctx, policy, "fetch", || {
            self.fetch(ctx, dst, src, src_off, len)
        })
    }

    /// The monotone fetch-completion count: how many fetch chunks this
    /// endpoint has completed, as deposited in the completion flag word
    /// by the reply engine. Zero before the first fetch.
    pub fn fetch_completions(&self) -> u32 {
        match *self.fetch_flag.lock() {
            Some(va) => flag_word(&self.proc_, va),
            None => 0,
        }
    }

    fn fetch_flag_va(&self) -> VAddr {
        *self
            .fetch_flag
            .lock()
            .get_or_insert_with(|| self.proc_.alloc(4, CacheMode::WriteBack))
    }

    // ------------------------------------------------------------------
    // Automatic update
    // ------------------------------------------------------------------

    /// Bind `pages` local pages starting at `local_va` (page-aligned) to
    /// the imported buffer starting at byte `dst_off` (page-aligned
    /// within the export). The pages become write-through and every
    /// store to them propagates to the destination in hardware.
    ///
    /// # Errors
    ///
    /// * [`VmmcError::UnalignedBinding`] for non-page-aligned arguments;
    /// * [`VmmcError::OutOfRange`] if the window exceeds the buffer;
    /// * [`VmmcError::Fault`] if local pages are not mapped writable.
    #[allow(clippy::too_many_arguments)] // mirrors the VMMC call's signature
    pub fn bind_au(
        &self,
        ctx: &Ctx,
        local_va: VAddr,
        dst: &ImportHandle,
        dst_off: usize,
        pages: usize,
        combine: bool,
        dst_interrupt: bool,
    ) -> Result<AuBinding, VmmcError> {
        ctx.advance(self.proc_.node().costs().os_export);
        dst.check(dst_off, pages.saturating_mul(PAGE_SIZE), PAGE_SIZE - 1)?;
        if local_va.offset() != 0 || !(dst.info.first_offset + dst_off).is_multiple_of(PAGE_SIZE) {
            return Err(VmmcError::UnalignedBinding);
        }
        let aspace = self.proc_.aspace();
        let nic = self.system.nic(self.node_index);
        let mut local_ppages = Vec::with_capacity(pages);
        let mut local_vpages = Vec::with_capacity(pages);
        for i in 0..pages {
            let va = local_va.add(i * PAGE_SIZE);
            let (pa, _) = aspace.translate(va, true)?;
            aspace.set_cache_mode(va.page(), CacheMode::WriteThrough)?;
            let dst_ppage = dst.locate(dst_off + i * PAGE_SIZE) / PAGE_SIZE as u64;
            nic.opt().bind(
                pa.page(),
                OptEntry {
                    dst_node: dst.node(),
                    dst_ppage,
                    combine,
                    dst_interrupt,
                },
            );
            local_ppages.push(pa.page());
            local_vpages.push(va.page());
        }
        Ok(AuBinding {
            local_va,
            pages,
            local_ppages,
            local_vpages,
        })
    }

    /// Destroy an automatic-update binding: flushes any held combining
    /// packet, waits for in-flight traffic, unbinds the pages and
    /// restores them to write-back.
    pub fn unbind_au(&self, ctx: &Ctx, binding: AuBinding) {
        let nic = self.system.nic(self.node_index);
        nic.flush_combining();
        self.drain(ctx);
        ctx.advance(self.proc_.node().costs().os_export);
        for (&ppage, &vpage) in binding.local_ppages.iter().zip(&binding.local_vpages) {
            nic.opt().unbind(ppage);
            let _ = self
                .proc_
                .aspace()
                .set_cache_mode(vpage, CacheMode::WriteBack);
        }
    }

    // ------------------------------------------------------------------
    // Receive-side waiting and notifications
    // ------------------------------------------------------------------

    /// Wait until the word at `va` satisfies `pred`, first polling
    /// (`poll_budget` iterations), then blocking until incoming data
    /// activity, then polling again — the polling/blocking switch of
    /// paper §6. Returns the satisfying value. `pred` must be pure: it
    /// is called once per observed value.
    ///
    /// Each missed poll that another simulation item interrupts costs
    /// the host one thread handoff; [`Vmmc::wait_u32_watched`] is this
    /// wait without them.
    ///
    /// # Errors
    ///
    /// Fails if `va` is unmapped.
    pub fn wait_u32(
        &self,
        ctx: &Ctx,
        va: VAddr,
        poll_budget: usize,
        pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        self.wait_word(ctx, va, poll_budget, None, false, pred)
    }

    /// [`Vmmc::wait_u32`], with its polls watched
    /// ([`UserProc::poll_u32_watched`](shrimp_node::UserProc::poll_u32_watched))
    /// and, given a `deadline`, bounded: the serving layers need a call
    /// into a crashed peer to surface as a typed error instead of
    /// blocking forever. Whichever thread takes a missed poll's step
    /// re-reads the word, and the token comes back to this process only
    /// when the word changed or the poll budget ran out. Same results,
    /// virtual instants, trace and item counts as the unwatched wait —
    /// the deadline is checked only after each poll phase, and a phase
    /// that misses arms one timer at it and blocks; `pred` must be pure.
    ///
    /// **Which waits stay unwatched.** The benchmark harness keeps every
    /// rep's samples, so a wait made faster under its message-passing
    /// workloads (`msg_small`, `msg_bulk`) fits more reps and grows their
    /// memory with them. A wait those workloads spend their time in stays
    /// on `wait_u32` until the harness keeps a fixed-size summary per rep
    /// (ROADMAP 1(a)); any other wait is watched, once a pair of benchmark
    /// runs shows those two workloads' reps and memory unmoved. After
    /// 1(a) this becomes `wait_u32`'s only body (1(d)).
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] once virtual time reaches `deadline`
    /// without the predicate holding; fails if `va` is unmapped.
    pub fn wait_u32_watched(
        &self,
        ctx: &Ctx,
        va: VAddr,
        poll_budget: usize,
        deadline: Option<SimTime>,
        pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        self.wait_word(ctx, va, poll_budget, deadline, true, pred)
    }

    /// The polling/blocking switch behind both waits. Without a
    /// deadline no timer is scheduled; `watched` polls through
    /// [`UserProc::poll_u32_watched`](shrimp_node::UserProc::poll_u32_watched).
    fn wait_word(
        &self,
        ctx: &Ctx,
        va: VAddr,
        poll_budget: usize,
        deadline: Option<SimTime>,
        watched: bool,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Result<u32, VmmcError> {
        let start = ctx.now();
        let mut timer = deadline;
        loop {
            let polled = if watched {
                self.proc_.poll_u32_watched(ctx, va, poll_budget, &mut pred)
            } else {
                self.proc_.poll_u32(ctx, va, poll_budget, &mut pred)
            };
            if let Some(v) = polled? {
                return Ok(v);
            }
            if deadline.is_some_and(|d| ctx.now() >= d) {
                return Err(VmmcError::Timeout {
                    op: "wait_u32",
                    waited: ctx.now().since(start),
                });
            }
            if let Some(d) = timer.take() {
                // One scheduled wake at the deadline; spurious unparks
                // are latched, so the activity wait below re-checks.
                let (pid, h) = (ctx.pid(), ctx.handle());
                ctx.schedule_at(d, move || h.unpark(pid));
            }
            self.wait_activity(ctx, || {
                // Re-check after registering to close the wake-up race.
                matches!(self.proc_.poll_u32(ctx, va, 1, &mut pred), Ok(Some(_)))
            });
        }
    }

    /// Block until any packet lands in one of this endpoint's exported
    /// pages. `recheck` runs after the waiter is registered; returning
    /// `true` skips the sleep (avoids the lost-wakeup race). Spurious
    /// returns are possible; callers loop.
    pub fn wait_activity(&self, ctx: &Ctx, recheck: impl FnOnce() -> bool) {
        self.shared.activity.wait_once(ctx, recheck);
    }

    /// Block or unblock notifications. While blocked, notifications
    /// queue instead of waking the process (paper §2.3).
    pub fn set_notifications_blocked(&self, ctx: &Ctx, blocked: bool) {
        let wake = {
            let mut st = self.shared.state.lock();
            st.notify_blocked = blocked;
            !blocked && !st.pending_notifies.is_empty()
        };
        if wake {
            self.shared.notified.notify_all(&ctx.handle());
        }
    }

    /// Consume one queued notification, blocking until one arrives (and
    /// notifications are unblocked). Charges the signal-delivery cost and
    /// runs the buffer's handler before returning the event.
    pub fn wait_notification(&self, ctx: &Ctx) -> NotifyEvent {
        loop {
            if let Some(ev) = self.take_notification(ctx) {
                return ev;
            }
            self.shared.notified.wait_once(ctx, || false);
        }
    }

    /// Consume any queued notifications without blocking; returns how
    /// many handlers ran.
    pub fn poll_notifications(&self, ctx: &Ctx) -> usize {
        std::iter::from_fn(|| self.take_notification(ctx)).count()
    }

    /// Take the next queued notification, if notifications are unblocked
    /// and one is queued: charge the signal delivery, run the buffer's
    /// handler.
    fn take_notification(&self, ctx: &Ctx) -> Option<NotifyEvent> {
        let ev = {
            let mut st = self.shared.state.lock();
            if st.notify_blocked {
                return None;
            }
            st.pending_notifies.pop_front()?
        };
        ctx.advance(self.proc_.node().costs().signal_delivery);
        self.run_handler(ctx, ev);
        Some(ev)
    }

    fn run_handler(&self, ctx: &Ctx, ev: NotifyEvent) {
        // Take the handler out so it can borrow the endpoint if it wants.
        let handler = self.shared.state.lock().handlers.remove(&ev.buffer);
        if let Some(mut h) = handler {
            h(ctx, ev);
            self.shared
                .state
                .lock()
                .handlers
                .entry(ev.buffer)
                .or_insert(h);
        }
    }

    /// Wait until the whole machine has no packet in flight. Used by the
    /// unexport/unimport/unbind drains; stronger than strictly necessary
    /// (it waits for *all* traffic, not just this mapping's) but simple
    /// and correct.
    pub fn drain(&self, ctx: &Ctx) {
        let gap = self.proc_.node().costs().poll_gap;
        while !self.system.quiescent() {
            ctx.advance(gap);
        }
    }
}
