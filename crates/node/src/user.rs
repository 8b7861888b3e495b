//! User processes: timed access to simulated virtual memory.
//!
//! A [`UserProc`] ties together a node, an address space, and the cost
//! model. Message *payloads and flags* live in simulated DRAM and are
//! moved with the timed operations here; library bookkeeping (queue
//! indices, descriptors held in Rust structures) is charged through the
//! abstract `lib_*` costs of the [`CostModel`](crate::CostModel).

use std::sync::Arc;

use shrimp_sim::{Ctx, SimTime};

use crate::memory::{PAddr, VAddr, PAGE_SIZE};

/// Granularity at which long store runs and copies report to the snoop
/// logic, letting the NIC stream packets while the run continues.
const STREAM_QUANTUM: usize = 512;
use crate::mmu::{AddressSpace, CacheMode, MemFault, Pte};
use crate::node::{Node, SnoopWrite};

/// Where and when a store run ended: what [`UserProc::write_after`]
/// returns, and takes back to continue the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreEnd {
    va: VAddr,
    at: SimTime,
}

/// A user-level process on one node.
///
/// Cloning is cheap and shares the same address space (threads of one
/// process).
#[derive(Clone)]
pub struct UserProc {
    name: Arc<String>,
    node: Arc<Node>,
    aspace: Arc<AddressSpace>,
}

impl std::fmt::Debug for UserProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserProc")
            .field("name", &self.name)
            .field("node", &self.node.id())
            .finish()
    }
}

impl UserProc {
    /// Create a process with an empty address space on `node`.
    pub fn new(node: Arc<Node>, name: impl Into<String>) -> UserProc {
        UserProc {
            name: Arc::new(name.into()),
            node,
            aspace: Arc::new(AddressSpace::new()),
        }
    }

    /// Process name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node this process runs on.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// The process's page table.
    pub fn aspace(&self) -> &Arc<AddressSpace> {
        &self.aspace
    }

    /// Allocate a writable buffer of `bytes`, page-aligned, with the
    /// given cache mode. Fresh physical frames are mapped for it.
    pub fn alloc(&self, bytes: usize, cache: CacheMode) -> VAddr {
        self.alloc_at_offset(bytes, 0, cache)
    }

    /// Allocate a writable buffer whose start is `offset` bytes into its
    /// first page — used to exercise the word-alignment restrictions of
    /// the deliberate-update engine.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= PAGE_SIZE` or `bytes == 0`.
    pub fn alloc_at_offset(&self, bytes: usize, offset: usize, cache: CacheMode) -> VAddr {
        assert!(offset < PAGE_SIZE, "offset must be within one page");
        assert!(bytes > 0, "cannot allocate an empty buffer");
        let pages = (offset + bytes).div_ceil(PAGE_SIZE) as u64;
        let vfirst = self.aspace.reserve_vpages(pages);
        let pfirst = self.node.alloc_frames(pages);
        for i in 0..pages {
            self.aspace.map(
                vfirst + i,
                Pte {
                    ppage: pfirst + i,
                    writable: true,
                    cache,
                },
            );
        }
        VAddr(vfirst * PAGE_SIZE as u64 + offset as u64)
    }

    /// Timed CPU store of `data` at `va`: charges the per-word store cost
    /// for each page run, contends on the memory bus for write-through and
    /// uncached pages, and reports those runs to the NIC snoop logic.
    ///
    /// # Errors
    ///
    /// Fails without side effects if any page is unmapped or read-only.
    pub fn write(&self, ctx: &Ctx, va: VAddr, data: &[u8]) -> Result<(), MemFault> {
        self.write_after(ctx, None, va, data).map(drop)
    }

    /// [`write`](Self::write), able to *continue* a store run: when
    /// `prev` is where and when this process's previous store ended —
    /// `va` is the next byte and no virtual time has passed — the CPU is
    /// still streaming one ascending run, so the first word costs a
    /// streaming store, not a first store. The hardware snoops such a
    /// run word by word, each word re-arming the combine timer of the
    /// packet it extends; a continuation therefore reports to the snoop
    /// logic once per combine window rather than once per
    /// `STREAM_QUANTUM`, or the packet it continues would be sent
    /// before it is heard from. Anything else is a fresh run, stored
    /// exactly as `write` stores it.
    ///
    /// Returns where the run now ends, to hand to the next store (`prev`
    /// itself when `data` is empty: nothing was stored).
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write).
    pub fn write_after(
        &self,
        ctx: &Ctx,
        prev: Option<StoreEnd>,
        va: VAddr,
        data: &[u8],
    ) -> Result<Option<StoreEnd>, MemFault> {
        if data.is_empty() {
            return Ok(prev);
        }
        let continues = prev == Some(StoreEnd { va, at: ctx.now() });
        let chunks = self.aspace.translate_range(va, data.len(), true)?;
        let costs = self.node.costs();
        let mut off = 0usize;
        let mut first_run = !continues;
        for (pa, len, cache) in chunks {
            // Sub-chunk so a long store run *streams*: the NIC sees (and
            // can forward) earlier stores while later ones are still
            // executing, as the real snooping hardware does. The
            // first-store cost is charged once for the whole run.
            let quantum = if continues {
                let word = costs.store_word_of(cache).as_ps().max(1);
                let window = costs.au_combine_timeout.as_ps().saturating_sub(1) / word;
                (window as usize * 4).clamp(4, STREAM_QUANTUM)
            } else {
                STREAM_QUANTUM
            };
            let mut sub = 0usize;
            while sub < len {
                let n = (len - sub).min(quantum);
                let words = n.div_ceil(4);
                let mut cpu = costs.store_run(cache, words);
                if !first_run {
                    cpu = cpu - costs.store_first(cache) + costs.store_word_of(cache);
                }
                first_run = false;
                let mut end = ctx.now() + cpu;
                if !matches!(cache, CacheMode::WriteBack) {
                    end = end.max(self.node.charge_membus(ctx.now(), n));
                }
                ctx.sleep_until(end);
                let pa_sub = PAddr(pa.0 + sub as u64);
                self.node
                    .mem()
                    .write(pa_sub, &data[off + sub..off + sub + n]);
                if !matches!(cache, CacheMode::WriteBack) {
                    self.node.snoop(SnoopWrite {
                        paddr: pa_sub,
                        len: n,
                        at: ctx.now(),
                    });
                }
                sub += n;
            }
            off += len;
        }
        Ok(Some(StoreEnd {
            va: va.add(data.len()),
            at: ctx.now(),
        }))
    }

    /// Timed CPU load of `len` bytes at `va`.
    ///
    /// # Errors
    ///
    /// Fails without side effects if any page is unmapped.
    pub fn read(&self, ctx: &Ctx, va: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        let chunks = self.aspace.translate_range(va, len, false)?;
        let costs = self.node.costs();
        let mut out = vec![0u8; len];
        let mut off = 0usize;
        for (pa, n, _cache) in chunks {
            let words = n.div_ceil(4);
            ctx.advance(costs.load_word * words as u64);
            self.node.mem().read(pa, &mut out[off..off + n]);
            off += n;
        }
        Ok(out)
    }

    /// Timed `memcpy` from `src` to `dst` within this address space,
    /// charged at the copy bandwidth of the destination's cache mode
    /// (this is how an "extra copy" becomes the automatic-update send
    /// operation: the destination is a write-through AU-bound region and
    /// each chunk is snooped).
    ///
    /// # Errors
    ///
    /// Fails if either range faults. Partial time may have been charged
    /// for earlier chunks, but no bytes of a faulting chunk are moved.
    pub fn copy(&self, ctx: &Ctx, src: VAddr, dst: VAddr, len: usize) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let costs = self.node.costs().clone();
        // Chunk by destination pages, then sub-chunk so long copies
        // stream through the snooping NIC instead of arriving as one
        // late burst.
        let dst_chunks = self.aspace.translate_range(dst, len, true)?;
        ctx.advance(costs.copy_setup + costs.store_first(dst_chunks[0].2));
        let mut off = 0usize;
        for (dpa, page_n, dcache) in dst_chunks {
            let mut sub = 0usize;
            while sub < page_n {
                let n = (page_n - sub).min(STREAM_QUANTUM);
                let data = {
                    // Source read is untimed here: its cost is folded
                    // into the copy bandwidth.
                    let schunks = self.aspace.translate_range(src.add(off + sub), n, false)?;
                    let mut buf = vec![0u8; n];
                    let mut so = 0usize;
                    for (spa, sn, _) in schunks {
                        self.node.mem().read(spa, &mut buf[so..so + sn]);
                        so += sn;
                    }
                    buf
                };
                let cpu = shrimp_sim::SimDur::per_bytes(n, costs.copy_rate(dcache));
                let mut end = ctx.now() + cpu;
                end = end.max(self.node.charge_membus(ctx.now(), 2 * n));
                ctx.sleep_until(end);
                let dpa_sub = PAddr(dpa.0 + sub as u64);
                self.node.mem().write(dpa_sub, &data);
                if !matches!(dcache, CacheMode::WriteBack) {
                    self.node.snoop(SnoopWrite {
                        paddr: dpa_sub,
                        len: n,
                        at: ctx.now(),
                    });
                }
                sub += n;
            }
            off += page_n;
        }
        Ok(())
    }

    /// Timed store of a little-endian word (flags, descriptors).
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped or read-only.
    pub fn write_u32(&self, ctx: &Ctx, va: VAddr, v: u32) -> Result<(), MemFault> {
        self.write(ctx, va, &v.to_le_bytes())
    }

    /// Timed load of a little-endian word.
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    pub fn read_u32(&self, ctx: &Ctx, va: VAddr) -> Result<u32, MemFault> {
        let b = self.read(ctx, va, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Poll the word at `va` until `pred` is true, charging one
    /// [`poll_gap`](crate::CostModel::poll_gap) per missed iteration.
    /// Returns the satisfying value.
    ///
    /// The poll budget is bounded by `max_polls`; returns `None` if
    /// exhausted, letting callers fall back to blocking (the paper's
    /// libraries switch between polling and blocking; §6).
    ///
    /// `pred` must be pure. Consecutive misses that no other simulation
    /// item interrupts would re-read the same word, so they are charged
    /// in one [`Ctx::advance_repeat`] and `pred` is called once per
    /// *observed* value, not once per charged poll.
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped.
    pub fn poll_u32(
        &self,
        ctx: &Ctx,
        va: VAddr,
        max_polls: usize,
        mut pred: impl FnMut(u32) -> bool,
    ) -> Result<Option<u32>, MemFault> {
        let (pa, _cache) = self.aspace.translate(va, false)?;
        let costs = self.node.costs();
        let mut left = max_polls as u64;
        while left > 0 {
            let v = self.node.mem().read_u32(pa);
            if pred(v) {
                ctx.advance(costs.load_word);
                return Ok(Some(v));
            }
            left -= ctx.advance_repeat(costs.poll_gap, left);
        }
        Ok(None)
    }

    /// Untimed read for assertions and test setup.
    ///
    /// # Errors
    ///
    /// Fails if any page is unmapped.
    pub fn peek(&self, va: VAddr, len: usize) -> Result<Vec<u8>, MemFault> {
        let chunks = self.aspace.translate_range(va, len, false)?;
        let mut out = vec![0u8; len];
        let mut off = 0usize;
        for (pa, n, _) in chunks {
            self.node.mem().read(pa, &mut out[off..off + n]);
            off += n;
        }
        Ok(out)
    }

    /// Untimed write for test setup (does not snoop).
    ///
    /// # Errors
    ///
    /// Fails if any page is unmapped or read-only.
    pub fn poke(&self, va: VAddr, data: &[u8]) -> Result<(), MemFault> {
        let chunks = self.aspace.translate_range(va, data.len(), true)?;
        let mut off = 0usize;
        for (pa, n, _) in chunks {
            self.node.mem().write(pa, &data[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Charge the cost of one library procedure call.
    pub fn charge_call(&self, ctx: &Ctx) {
        ctx.advance(self.node.costs().lib_call);
    }

    /// Charge the cost of building or parsing a descriptor/header.
    pub fn charge_descriptor(&self, ctx: &Ctx) {
        ctx.advance(self.node.costs().lib_descriptor);
    }

    /// Charge the cost of buffer-management bookkeeping.
    pub fn charge_bookkeeping(&self, ctx: &Ctx) {
        ctx.advance(self.node.costs().lib_bookkeeping);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;
    use parking_lot::Mutex;
    use shrimp_mesh::NodeId;
    use shrimp_sim::{Kernel, SimDur, SimTime};

    #[test]
    fn write_then_read_round_trips_data() {
        let kernel = Kernel::new();
        let done = Arc::new(Mutex::new(false));
        let d = Arc::clone(&done);
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let buf = p.alloc(10_000, CacheMode::WriteBack);
            let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            p.write(ctx, buf, &data).unwrap();
            assert_eq!(p.read(ctx, buf, 10_000).unwrap(), data);
            *d.lock() = true;
        });
        kernel.run_until_quiescent().unwrap();
        assert!(*done.lock());
    }

    fn setup_in_proc(ctx: &Ctx) -> UserProc {
        let node = Node::new(ctx.handle(), NodeId(0), 256, CostModel::shrimp_prototype());
        UserProc::new(node, "tester")
    }

    #[test]
    fn writethrough_stores_are_snooped_writeback_not() {
        let kernel = Kernel::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let s2 = Arc::clone(&s);
            p.node().set_snoop_hook(move |w| s2.lock().push(w.len));
            let wt = p.alloc(64, CacheMode::WriteThrough);
            let wb = p.alloc(64, CacheMode::WriteBack);
            p.write(ctx, wt, &[1u8; 64]).unwrap();
            p.write(ctx, wb, &[2u8; 64]).unwrap();
        });
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*seen.lock(), vec![64]);
    }

    #[test]
    fn write_to_unmapped_address_faults() {
        let kernel = Kernel::new();
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let err = p.write(ctx, VAddr(0), &[1]).unwrap_err();
            assert!(matches!(err, MemFault::NotMapped { .. }));
        });
        kernel.run_until_quiescent().unwrap();
    }

    #[test]
    fn writethrough_write_takes_longer_than_writeback() {
        let kernel = Kernel::new();
        let times = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&times);
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let wt = p.alloc(4096, CacheMode::WriteThrough);
            let wb = p.alloc(4096, CacheMode::WriteBack);
            let t0 = ctx.now();
            p.write(ctx, wb, &[1u8; 4096]).unwrap();
            let t1 = ctx.now();
            p.write(ctx, wt, &[1u8; 4096]).unwrap();
            let t2 = ctx.now();
            t.lock().push((t1 - t0, t2 - t1));
        });
        kernel.run_until_quiescent().unwrap();
        let g = times.lock();
        let (wb_time, wt_time) = g[0];
        assert!(wt_time > wb_time * 3, "wt={wt_time} wb={wb_time}");
    }

    #[test]
    fn a_store_that_continues_a_run_streams_and_anything_else_starts_one() {
        let kernel = Kernel::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let s2 = Arc::clone(&s);
            p.node().set_snoop_hook(move |w| s2.lock().push(w.len));
            let c = CostModel::shrimp_prototype();
            let buf = p.alloc(256, CacheMode::WriteThrough);
            let timed = |prev, off: usize, len: usize| {
                let t0 = ctx.now();
                let end = p.write_after(ctx, prev, buf.add(off), &vec![7u8; len]);
                (end.unwrap(), ctx.now() - t0)
            };
            // A fresh run, then its continuation: one first store in all.
            let (end, d) = timed(None, 0, 8);
            assert_eq!(d, c.store_first_wt + c.store_word_wt);
            let (end, d) = timed(end, 8, 64);
            assert_eq!(d, c.store_word_wt * 16);
            // Not the next byte, or not the same instant: a fresh run.
            let (_, d) = timed(end, 80, 4);
            assert_eq!(d, c.store_first_wt);
            let (end, _) = timed(None, 84, 4);
            ctx.advance(SimDur::from_ns(1.0));
            let (end, d) = timed(end, 88, 4);
            assert_eq!(d, c.store_first_wt);
            // An empty store is no store: the run is where it was.
            assert_eq!(p.write_after(ctx, end, buf.add(92), &[]).unwrap(), end);
            assert_eq!(p.write_after(ctx, None, buf.add(92), &[]).unwrap(), None);
        });
        kernel.run_until_quiescent().unwrap();
        // The 64-byte continuation reported once per combine window
        // (four 190 ns words fit inside the 800 ns timer).
        assert_eq!(*seen.lock(), vec![8, 16, 16, 16, 16, 4, 4, 4]);
    }

    /// Run `body` in a process of its own — alone, or beside a
    /// neighbour that steps every 100 ns for 80 us, so the poller's idle
    /// horizon is never more than one step away and some of its polls
    /// land on the same instant as a neighbour step — and return what it
    /// produced.
    fn run_beside<T: Send + 'static>(
        busy_neighbour: bool,
        body: impl FnOnce(&Ctx) -> T + Send + 'static,
    ) -> T {
        let kernel = Kernel::new();
        let out = Arc::new(Mutex::new(None));
        let o = Arc::clone(&out);
        kernel.spawn("t", move |ctx| *o.lock() = Some(body(ctx)));
        if busy_neighbour {
            kernel.spawn("busy", |ctx| {
                for _ in 0..800 {
                    ctx.advance(SimDur::from_ns(100.0));
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = out.lock().take();
        v.expect("body ran to completion")
    }

    #[test]
    fn poll_sees_concurrent_dma_flag() {
        for busy_neighbour in [false, true] {
            let (v, at) = run_beside(busy_neighbour, |ctx| {
                let p = setup_in_proc(ctx);
                let flag = p.alloc(4, CacheMode::WriteBack);
                let (pa, _) = p.aspace().translate(flag, false).unwrap();
                // Simulated device sets the flag via DMA after 50 us.
                let node = Arc::clone(p.node());
                ctx.schedule_in(SimDur::from_us(50.0), move || {
                    node.dma_write(pa, 1u32.to_le_bytes().to_vec(), |_, _| {});
                });
                let v = p.poll_u32(ctx, flag, 100_000, |v| v != 0).unwrap();
                (v, ctx.now())
            });
            assert_eq!(v, Some(1));
            // Polls fall every 250 ns from 0; the one at 51.5 us is the
            // first to see the DMA's commit, and the hit costs one 35 ns
            // load. Recorded with the one-resume-per-miss poll loop this
            // one replaced.
            assert_eq!(at, SimTime(51_535_000), "busy_neighbour={busy_neighbour}");
        }
    }

    #[test]
    fn poll_budget_exhaustion_returns_none() {
        for busy_neighbour in [false, true] {
            let (v, spent) = run_beside(busy_neighbour, |ctx| {
                let p = setup_in_proc(ctx);
                let flag = p.alloc(4, CacheMode::WriteBack);
                // Start off the neighbour's 100 ns grid.
                ctx.advance(SimDur::from_ns(130.0));
                let t0 = ctx.now();
                let v = p.poll_u32(ctx, flag, 10, |v| v != 0).unwrap();
                (v, ctx.now() - t0)
            });
            assert_eq!(v, None);
            // Ten misses, one poll gap each, and nothing else.
            assert_eq!(
                spent,
                SimDur::from_ns(2500.0),
                "busy_neighbour={busy_neighbour}"
            );
        }
    }

    #[test]
    fn copy_to_writethrough_snoops_and_is_slower() {
        let kernel = Kernel::new();
        let result = Arc::new(Mutex::new((SimDur::ZERO, SimDur::ZERO, 0usize)));
        let r = Arc::clone(&result);
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let snoops = Arc::new(Mutex::new(0usize));
            let sn = Arc::clone(&snoops);
            p.node().set_snoop_hook(move |_| *sn.lock() += 1);
            let src = p.alloc(8192, CacheMode::WriteBack);
            let dst_wb = p.alloc(8192, CacheMode::WriteBack);
            let dst_wt = p.alloc(8192, CacheMode::WriteThrough);
            p.poke(src, &vec![7u8; 8192]).unwrap();
            let t0 = ctx.now();
            p.copy(ctx, src, dst_wb, 8192).unwrap();
            let t1 = ctx.now();
            p.copy(ctx, src, dst_wt, 8192).unwrap();
            let t2 = ctx.now();
            assert_eq!(p.peek(dst_wt, 8192).unwrap(), vec![7u8; 8192]);
            *r.lock() = (t1 - t0, t2 - t1, *snoops.lock());
        });
        kernel.run_until_quiescent().unwrap();
        let (wb, wt, snoops) = *result.lock();
        assert!(wt > wb, "wt copy {wt} should exceed wb copy {wb}");
        assert_eq!(snoops, 16); // 8 KB streamed in 512-byte quanta
    }

    #[test]
    fn alloc_at_offset_gives_unaligned_buffer() {
        let kernel = Kernel::new();
        kernel.spawn("t", move |ctx| {
            let p = setup_in_proc(ctx);
            let v = p.alloc_at_offset(100, 3, CacheMode::WriteBack);
            assert!(!v.is_word_aligned());
            p.write(ctx, v, &[9u8; 100]).unwrap();
            assert_eq!(p.peek(v, 100).unwrap(), vec![9u8; 100]);
        });
        kernel.run_until_quiescent().unwrap();
    }
}
