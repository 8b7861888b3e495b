//! The client side of disaggregated memory: a small local frame cache
//! over a remote page pool, with LRU replacement and dirty write-back.

use std::collections::HashMap;

use shrimp_core::{ImportHandle, Vmmc, VmmcError};
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_obs::Log2Hist;
use shrimp_sim::{Ctx, RetryPolicy};

/// Accounting the paper's remote-paging sketch calls for: how often the
/// frame cache hit, how often a page had to be fetched from the memory
/// server, and how long those faults took end to end.
#[derive(Debug, Clone, Default)]
pub struct PagerStats {
    /// Accesses satisfied by a resident frame.
    pub hits: u64,
    /// Accesses that faulted and fetched the page remotely.
    pub misses: u64,
    /// Frames recycled to make room.
    pub evictions: u64,
    /// Evicted frames that were dirty and were deposited back first.
    pub writebacks: u64,
    /// End-to-end fault latency (fetch issue to last reply deposit),
    /// in picoseconds.
    pub fault_latency: Log2Hist,
}

impl PagerStats {
    /// Hit rate over all accesses, in `[0, 1]`; 1.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU pager over a remote page pool (see [`crate::MemoryServer`]).
///
/// The pager presents `vpages * PAGE_SIZE` bytes of byte-addressable
/// "far memory", cached in `frames` local page frames. A miss evicts
/// the least-recently-used resident page (depositing it back to the
/// pool if dirty) and faults the wanted page in with a one-sided
/// remote fetch — the memory server's processor is never involved.
pub struct RemotePager {
    vmmc: Vmmc,
    pool: ImportHandle,
    vpages: usize,
    frames_va: VAddr,
    frames: usize,
    /// vpage -> resident frame index.
    resident: HashMap<usize, usize>,
    /// frame index -> (vpage, dirty).
    frame_state: Vec<Option<(usize, bool)>>,
    /// Resident vpages, least recently used first.
    lru: Vec<usize>,
    free: Vec<usize>,
    stats: PagerStats,
}

impl RemotePager {
    /// Build a pager over `vpages` pages of the imported pool, cached
    /// in `frames` local frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero or the pool is smaller than
    /// `vpages` pages.
    pub fn new(vmmc: Vmmc, pool: ImportHandle, vpages: usize, frames: usize) -> RemotePager {
        assert!(frames > 0, "the pager needs at least one local frame");
        assert!(
            vpages * PAGE_SIZE <= pool.len(),
            "pool of {} bytes cannot back {vpages} pages",
            pool.len()
        );
        let frames_va = vmmc.proc_().alloc(frames * PAGE_SIZE, CacheMode::WriteBack);
        RemotePager {
            vmmc,
            pool,
            vpages,
            frames_va,
            frames,
            resident: HashMap::new(),
            frame_state: vec![None; frames],
            lru: Vec::new(),
            free: (0..frames).rev().collect(),
            stats: PagerStats::default(),
        }
    }

    /// Size of the paged address space in bytes.
    pub fn len(&self) -> usize {
        self.vpages * PAGE_SIZE
    }

    /// True for a zero-page pager (never constructible).
    pub fn is_empty(&self) -> bool {
        self.vpages == 0
    }

    /// Accounting so far.
    pub fn stats(&self) -> &PagerStats {
        &self.stats
    }

    /// The endpoint driving this pager.
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    fn frame_va(&self, frame: usize) -> VAddr {
        self.frames_va.add(frame * PAGE_SIZE)
    }

    /// Make `vpage` resident and return its frame, evicting (and
    /// writing back) the LRU page if the cache is full.
    fn fault_in(&mut self, ctx: &Ctx, vpage: usize) -> Result<usize, VmmcError> {
        if let Some(&f) = self.resident.get(&vpage) {
            self.stats.hits += 1;
            self.lru.retain(|&v| v != vpage);
            self.lru.push(vpage);
            return Ok(f);
        }
        self.stats.misses += 1;
        let f = match self.free.pop() {
            Some(f) => f,
            None => {
                let victim = self.lru.remove(0);
                let vf = self.resident.remove(&victim).expect("LRU page is resident");
                let (_, dirty) = self.frame_state[vf].take().expect("frame is occupied");
                self.stats.evictions += 1;
                if dirty {
                    self.stats.writebacks += 1;
                    self.vmmc.send(
                        ctx,
                        self.frame_va(vf),
                        &self.pool,
                        victim * PAGE_SIZE,
                        PAGE_SIZE,
                    )?;
                }
                vf
            }
        };
        let t0 = ctx.now();
        self.vmmc.fetch_retry(
            ctx,
            self.frame_va(f),
            &self.pool,
            vpage * PAGE_SIZE,
            PAGE_SIZE,
            RetryPolicy::bootstrap(),
        )?;
        self.stats.fault_latency.record(ctx.now().since(t0).as_ps());
        self.resident.insert(vpage, f);
        self.frame_state[f] = Some((vpage, false));
        self.lru.push(vpage);
        Ok(f)
    }

    /// Read `len` bytes at byte address `addr` of the far-memory space,
    /// faulting pages in as needed.
    ///
    /// # Errors
    ///
    /// Surfaces fetch errors (after the retry policy is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the paged space.
    pub fn read(&mut self, ctx: &Ctx, addr: usize, len: usize) -> Result<Vec<u8>, VmmcError> {
        assert!(addr + len <= self.len(), "read past end of paged space");
        let mut out = Vec::with_capacity(len);
        let mut off = 0usize;
        while off < len {
            let a = addr + off;
            let (vpage, within) = (a / PAGE_SIZE, a % PAGE_SIZE);
            let n = (len - off).min(PAGE_SIZE - within);
            let f = self.fault_in(ctx, vpage)?;
            let chunk = self
                .vmmc
                .proc_()
                .read(ctx, self.frame_va(f).add(within), n)?;
            out.extend_from_slice(&chunk);
            off += n;
        }
        Ok(out)
    }

    /// Write `data` at byte address `addr`, faulting pages in as needed
    /// and marking the touched frames dirty (they deposit back to the
    /// pool on eviction or [`RemotePager::flush`]).
    ///
    /// # Errors
    ///
    /// Surfaces fetch errors (after the retry policy is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the paged space.
    pub fn write(&mut self, ctx: &Ctx, addr: usize, data: &[u8]) -> Result<(), VmmcError> {
        assert!(
            addr + data.len() <= self.len(),
            "write past end of paged space"
        );
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off;
            let (vpage, within) = (a / PAGE_SIZE, a % PAGE_SIZE);
            let n = (data.len() - off).min(PAGE_SIZE - within);
            let f = self.fault_in(ctx, vpage)?;
            self.vmmc
                .proc_()
                .write(ctx, self.frame_va(f).add(within), &data[off..off + n])?;
            if let Some(state) = self.frame_state[f].as_mut() {
                state.1 = true;
            }
            off += n;
        }
        Ok(())
    }

    /// Deposit every dirty resident frame back to the pool; afterwards
    /// the pool holds the pager's full state.
    ///
    /// # Errors
    ///
    /// As for [`Vmmc::send`].
    pub fn flush(&mut self, ctx: &Ctx) -> Result<(), VmmcError> {
        for f in 0..self.frames {
            if let Some((vpage, dirty)) = self.frame_state[f] {
                if dirty {
                    self.stats.writebacks += 1;
                    self.vmmc.send(
                        ctx,
                        self.frame_va(f),
                        &self.pool,
                        vpage * PAGE_SIZE,
                        PAGE_SIZE,
                    )?;
                    self.frame_state[f] = Some((vpage, false));
                }
            }
        }
        Ok(())
    }
}
