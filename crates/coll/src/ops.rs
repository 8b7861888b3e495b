//! The collective operations: two algorithms per collective (three for
//! allreduce), chunked pipelining, and the size/node-count selector.
//!
//! All algorithms run over the persistent channels of
//! [`CollComm`](crate::CollComm); a collective call never exports or
//! imports. Reductions use 8-byte elements ([`ReduceOp`]); byte-count
//! collectives (broadcast, allgather) accept arbitrary lengths — the
//! chunk engine copies small chunks into the control page as they are,
//! and word-pads the deliberate updates of larger ones, bouncing
//! unaligned sources through a staging buffer.

use shrimp_node::VAddr;
use shrimp_sim::Ctx;

use crate::comm::{CollComm, CollError};
use crate::geometry::BinomialTree;

/// Element-wise combining operator over 8-byte elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of `f64` values.
    SumF64,
    /// Sum of `i64` values.
    SumI64,
    /// Maximum of `f64` values.
    MaxF64,
}

impl ReduceOp {
    /// Bytes per element (always 8 for the supported types).
    pub fn elem_bytes(self) -> usize {
        8
    }

    /// `acc[i] = acc[i] ⊕ other[i]` over 8-byte lanes.
    pub fn fold(self, acc: &mut [u8], other: &[u8]) {
        debug_assert_eq!(acc.len(), other.len());
        debug_assert_eq!(acc.len() % 8, 0);
        for (a, b) in acc.chunks_exact_mut(8).zip(other.chunks_exact(8)) {
            let bb: [u8; 8] = b.try_into().expect("8-byte lane");
            let aa: [u8; 8] = (&*a).try_into().expect("8-byte lane");
            let r = match self {
                ReduceOp::SumF64 => (f64::from_le_bytes(aa) + f64::from_le_bytes(bb)).to_le_bytes(),
                ReduceOp::SumI64 => i64::from_le_bytes(aa)
                    .wrapping_add(i64::from_le_bytes(bb))
                    .to_le_bytes(),
                ReduceOp::MaxF64 => f64::from_le_bytes(aa)
                    .max(f64::from_le_bytes(bb))
                    .to_le_bytes(),
            };
            a.copy_from_slice(&r);
        }
    }
}

/// Barrier algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAlg {
    /// Dissemination: `ceil(log2 n)` rounds, every rank sends+receives
    /// one flag per round.
    Dissemination,
    /// Flag-only reduce to rank 0 then broadcast, both binomial.
    Tree,
}

/// Broadcast algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlg {
    /// Binomial spanning tree (root sends `log2 n` times).
    Binomial,
    /// Root sends to every rank directly (needs all-pairs channels).
    Flat,
}

/// Reduce-to-root algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceAlg {
    /// Binomial tree, combining up toward the root.
    Binomial,
    /// Every rank sends to the root (needs all-pairs channels).
    Flat,
}

/// Allgather algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlg {
    /// Snake-ring: `n-1` single-hop steps, bandwidth-optimal.
    Ring,
    /// Binomial gather to rank 0 plus binomial broadcast: latency
    /// `O(log n)`, better for tiny payloads.
    GatherBcast,
}

/// Reduce-scatter algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceScatterAlg {
    /// Snake-ring, combining as blocks travel.
    Ring,
    /// Direct exchange of each block with its owner (needs all-pairs
    /// channels).
    Pairwise,
}

/// Allreduce algorithm.
///
/// Within one algorithm every rank returns byte-identical results, for
/// any operand: a reduced element is either computed once and copied
/// (ring, halving-doubling) or computed by both partners of an exchange
/// from the same two values, and IEEE addition commutes (recursive
/// doubling). *Between* algorithms a `SumF64` result may differ in its
/// last bits, because each associates the ranks' terms differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlg {
    /// Ring reduce-scatter followed by ring allgather:
    /// `2(n-1)` single-hop steps moving `2·(n-1)/n` of the vector —
    /// bandwidth-optimal on the mesh.
    RingRsAg,
    /// Recursive doubling: `log2 n` rounds exchanging the full vector —
    /// latency-optimal for small payloads.
    RecursiveDoubling,
    /// Recursive-halving reduce-scatter followed by a recursive-doubling
    /// allgather: `2·log2 n` rounds moving the same `2·(n-1)/n` of the
    /// vector as the ring, over the `me ± 2^k` channels.
    HalvingDoubling,
}

/// Where recursive doubling stops beating halving-doubling on eight
/// ranks, in bytes, and how far that falls each time the communicator
/// doubles: recursive doubling saves `log2 n` rounds but moves the whole
/// vector in each one it keeps, where halving-doubling moves under two
/// vectors in all, so what a saved round buys in bytes shrinks as `n`
/// grows. Measured crossings (`bench collectives` sweeps on a 16-byte
/// grid, interpolated): 126 B at 8 ranks, 113 B at 16, 101 B at 32, 93 B
/// at 64.
const RD_CUTOFF_8_RANKS_BYTES: usize = 126;
const RD_CUTOFF_STEP_BYTES: usize = 11;

/// The largest allreduce, in bytes, that recursive doubling wins against
/// halving-doubling on `n` ranks: `usize::MAX` through four ranks, where
/// it always does, then `RD_CUTOFF_8_RANKS_BYTES` less
/// `RD_CUTOFF_STEP_BYTES` per doubling of the power-of-two core beyond
/// eight — 126 / 115 / 104 / 93 B at 8 / 16 / 32 / 64 ranks. A
/// communicator that folds extra ranks into its core keeps recursive
/// doubling a fifth longer (measured crossings 164 B at 12 ranks, ≈ 150
/// at 15, 136 at 24, 116 at 48: 1.15–1.30 × their cores'); see
/// EXPERIMENTS.md, and there for the 9- and 10-rank communicators this
/// does not model.
pub fn rd_cutoff_bytes(n: usize) -> usize {
    if n <= 4 {
        return usize::MAX;
    }
    let doublings = n.ilog2() as usize;
    let core = (RD_CUTOFF_8_RANKS_BYTES + 3 * RD_CUTOFF_STEP_BYTES)
        .saturating_sub(RD_CUTOFF_STEP_BYTES * doublings);
    if n.is_power_of_two() {
        core
    } else {
        core * 6 / 5
    }
}

/// Where the ring takes over from the doubling algorithms on a
/// communicator whose size is not a power of two: once each rank's
/// block, `bytes / n`, reaches `n` plus this many bytes. Folding the
/// extra ranks in and out costs the doubling algorithms two more
/// whole-vector transfers, which the ring repays with `2(n-1)`
/// latency-bound steps, so the block that breaks even grows with `n`:
/// measured ≈ 27 B at 5 ranks (a 136 B vector), 28 B at 6, 26 B at 7,
/// 32 B at 9, 29 B at 10, 31 B at 12 (370 B), 37 B at 15 (560 B), 39 B
/// at 21, 43 B at 24 (1 KiB), 50 B at 40 (2 KiB) and ≈ 62 B at 48
/// (3 KiB). On a power of two there is no fold and the ring never leads
/// by more than 0.2 % (swept to 64 KiB).
const FOLD_RING_BLOCK_BYTES: usize = 20;

/// Total allgather bytes, per rank beyond the third, at or below which
/// gather+bcast's `2·log2 n` rounds beat the ring's `n-1` steps: the
/// ring moves a `1/n` block per step where the broadcast moves the whole
/// vector, so past a few bytes per rank it wins. Measured crossings
/// (`bench collectives` allgather sweeps): 28 B at 6 ranks, 40 B at 8,
/// 95 B at 12, 120 B at 16, 257 B at 32, 540 B at 64; through five ranks
/// the ring wins every size. Just past a power of two the tree pays a
/// whole level for a few ranks and crosses early (44 B at 9 ranks, where
/// this gives 54), half-way to the next it crosses late (208 B at 24,
/// where this gives 189).
const GATHER_BCAST_BYTES_PER_RANK: usize = 9;

/// The contiguous element block rank `i` owns when a `count`-element
/// vector is split across `n` ranks: `count/n` elements each, with the
/// first `count % n` blocks one element longer. Returns
/// `(start, len)` in elements.
pub fn block_range(i: usize, n: usize, count: usize) -> (usize, usize) {
    let base = count / n;
    let rem = count % n;
    let start = i * base + i.min(rem);
    (start, base + usize::from(i < rem))
}

/// One round of the halving reduce-scatter as one rank saw it: the
/// byte ranges `(offset, len)` it gave to `partner` and kept.
struct HalvingSplit {
    partner: usize,
    give: (usize, usize),
    keep: (usize, usize),
}

fn nchunks(len: usize, chunk: usize) -> usize {
    if len == 0 {
        1
    } else {
        len.div_ceil(chunk)
    }
}

impl CollComm {
    // ------------------------------------------------------------------
    // Selector
    // ------------------------------------------------------------------

    /// Pick the barrier algorithm (dissemination: fewer rounds of
    /// waiting than the tree's up-then-down pass).
    pub fn select_barrier(&self) -> BarrierAlg {
        BarrierAlg::Dissemination
    }

    /// Pick a broadcast algorithm for `len` bytes.
    pub fn select_broadcast(&self, _len: usize) -> BcastAlg {
        if self.has_flat && self.n <= 4 {
            BcastAlg::Flat
        } else {
            BcastAlg::Binomial
        }
    }

    /// Pick a reduce algorithm for `count` 8-byte elements.
    pub fn select_reduce(&self, count: usize) -> ReduceAlg {
        if self.has_flat && self.n <= 4 && count * 8 <= self.layout.chunk {
            ReduceAlg::Flat
        } else {
            ReduceAlg::Binomial
        }
    }

    /// Pick an allgather algorithm for `total` bytes across all ranks.
    pub fn select_allgather(&self, total: usize) -> AllgatherAlg {
        if self.n > 5 && total <= GATHER_BCAST_BYTES_PER_RANK * (self.n - 3) {
            AllgatherAlg::GatherBcast
        } else {
            AllgatherAlg::Ring
        }
    }

    /// Pick a reduce-scatter algorithm.
    pub fn select_reduce_scatter(&self, _count: usize) -> ReduceScatterAlg {
        ReduceScatterAlg::Ring
    }

    /// Pick an allreduce algorithm for `count` 8-byte elements:
    /// recursive doubling through [`rd_cutoff_bytes`], halving-doubling
    /// above — except that a communicator whose size is not a power of
    /// two hands vectors past the fold's break-even to the ring.
    pub fn select_allreduce(&self, count: usize) -> AllreduceAlg {
        let bytes = count * 8;
        let folds = self.n > 4 && !self.n.is_power_of_two();
        if folds && bytes >= self.n * (self.n + FOLD_RING_BLOCK_BYTES) {
            AllreduceAlg::RingRsAg
        } else if bytes <= rd_cutoff_bytes(self.n) {
            AllreduceAlg::RecursiveDoubling
        } else {
            AllreduceAlg::HalvingDoubling
        }
    }

    // ------------------------------------------------------------------
    // Barrier
    // ------------------------------------------------------------------

    /// Global barrier with the selected algorithm.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn barrier(&mut self, ctx: &Ctx) -> Result<(), CollError> {
        let obs_t0 = ctx.now();
        let r = if self.hw.is_some() {
            self.hw_barrier(ctx)
        } else {
            self.barrier_with(ctx, self.select_barrier())
        };
        if r.is_ok() {
            self.obs_span(ctx, "coll_barrier", obs_t0, 0);
        }
        r
    }

    /// Record a [`shrimp_obs::Layer::User`] span for a completed
    /// collective call (no-op without an installed recorder).
    fn obs_span(&self, ctx: &Ctx, name: &'static str, start: shrimp_sim::SimTime, bytes: usize) {
        if let Some(rec) = self.vmmc().obs() {
            rec.push(shrimp_obs::SpanRec {
                msg: shrimp_obs::MsgId::NONE,
                node: self.vmmc().node_index(),
                layer: shrimp_obs::Layer::User,
                name,
                start,
                end: ctx.now(),
                bytes,
            });
        }
    }

    /// Global barrier with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn barrier_with(&mut self, ctx: &Ctx, alg: BarrierAlg) -> Result<(), CollError> {
        if self.n == 1 {
            return Ok(());
        }
        match alg {
            BarrierAlg::Dissemination => {
                let (n, me) = (self.n, self.rank);
                let mut dist = 1;
                while dist < n {
                    let to = (me + dist) % n;
                    let from = (me + n - dist) % n;
                    self.send_flag(ctx, to)?;
                    self.recv_flag(ctx, from)?;
                    dist *= 2;
                }
            }
            BarrierAlg::Tree => {
                let tree = BinomialTree { n: self.n };
                let me = self.rank;
                for c in tree.children(me) {
                    self.recv_flag(ctx, c)?;
                }
                if let Some(p) = tree.parent(me) {
                    self.send_flag(ctx, p)?;
                    self.recv_flag(ctx, p)?;
                }
                for c in tree.children(me).into_iter().rev() {
                    self.send_flag(ctx, c)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcast `len` bytes from `root`'s `buf` into every rank's
    /// `buf`, algorithm selected by size.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn broadcast(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
    ) -> Result<(), CollError> {
        let obs_t0 = ctx.now();
        let r = if self.hw.is_some() {
            self.hw_broadcast(ctx, root, buf, len)
        } else {
            self.broadcast_with(ctx, root, buf, len, self.select_broadcast(len))
        };
        if r.is_ok() {
            self.obs_span(ctx, "coll_broadcast", obs_t0, len);
        }
        r
    }

    /// Broadcast with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// [`CollError::Unsupported`] for [`BcastAlg::Flat`] without
    /// all-pairs channels; channel faults otherwise.
    pub fn broadcast_with(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
        alg: BcastAlg,
    ) -> Result<(), CollError> {
        if self.n == 1 {
            return Ok(());
        }
        match alg {
            BcastAlg::Binomial => self.binomial_bcast(ctx, root, buf, 0, len),
            BcastAlg::Flat => {
                if !self.has_flat {
                    return Err(CollError::Unsupported("flat broadcast"));
                }
                let (n, me) = (self.n, self.rank);
                if me == root {
                    for j in 1..n {
                        self.send_range(ctx, (root + j) % n, buf, 0, len)?;
                    }
                } else {
                    self.recv_range(ctx, root, buf, 0, len)?;
                }
                Ok(())
            }
        }
    }

    /// Binomial-tree broadcast of `buf[off..off+len]` rooted anywhere.
    fn binomial_bcast(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        off: usize,
        len: usize,
    ) -> Result<(), CollError> {
        let (n, me) = (self.n, self.rank);
        let tree = BinomialTree { n };
        let v = (me + n - root) % n;
        if let Some(pv) = tree.parent(v) {
            self.recv_range(ctx, (pv + root) % n, buf, off, len)?;
        }
        // Farthest child first: it roots the largest subtree.
        for cv in tree.children(v).into_iter().rev() {
            self.send_range(ctx, (cv + root) % n, buf, off, len)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reduce
    // ------------------------------------------------------------------

    /// Reduce `count` elements of `buf` element-wise onto `root`.
    /// `root`'s `buf` holds the result; other ranks' `buf` is clobbered
    /// with partial results.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn reduce(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        let obs_t0 = ctx.now();
        let r = self.reduce_with(ctx, root, buf, count, op, self.select_reduce(count));
        if r.is_ok() {
            self.obs_span(ctx, "coll_reduce", obs_t0, count * op.elem_bytes());
        }
        r
    }

    /// Reduce with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// [`CollError::Unsupported`] for [`ReduceAlg::Flat`] without
    /// all-pairs channels; channel faults otherwise.
    pub fn reduce_with(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
        alg: ReduceAlg,
    ) -> Result<(), CollError> {
        if self.n == 1 {
            return Ok(());
        }
        let len = count * op.elem_bytes();
        let (n, me) = (self.n, self.rank);
        match alg {
            ReduceAlg::Binomial => {
                let tree = BinomialTree { n };
                let v = (me + n - root) % n;
                // Nearest child first: it finishes its subtree first.
                for cv in tree.children(v) {
                    self.recv_combine_range(ctx, (cv + root) % n, buf, 0, len, op)?;
                }
                if let Some(pv) = tree.parent(v) {
                    self.send_range(ctx, (pv + root) % n, buf, 0, len)?;
                }
            }
            ReduceAlg::Flat => {
                if !self.has_flat {
                    return Err(CollError::Unsupported("flat reduce"));
                }
                if me == root {
                    for j in 1..n {
                        self.recv_combine_range(ctx, (root + j) % n, buf, 0, len, op)?;
                    }
                } else {
                    self.send_range(ctx, root, buf, 0, len)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allgather
    // ------------------------------------------------------------------

    /// In-place allgather over a `total`-byte vector in `buf`: rank `i`
    /// contributes the byte block `block_range(i, n, total)`; on return
    /// every rank holds all blocks.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allgather(&mut self, ctx: &Ctx, buf: VAddr, total: usize) -> Result<(), CollError> {
        let obs_t0 = ctx.now();
        let r = self.allgather_with(ctx, buf, total, self.select_allgather(total));
        if r.is_ok() {
            self.obs_span(ctx, "coll_allgather", obs_t0, total);
        }
        r
    }

    /// Allgather with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allgather_with(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        total: usize,
        alg: AllgatherAlg,
    ) -> Result<(), CollError> {
        if self.n == 1 {
            return Ok(());
        }
        let blocks: Vec<(usize, usize)> =
            (0..self.n).map(|i| block_range(i, self.n, total)).collect();
        match alg {
            AllgatherAlg::Ring => self.ring_allgather(ctx, buf, &blocks),
            AllgatherAlg::GatherBcast => self.gather_bcast(ctx, buf, &blocks),
        }
    }

    /// Snake-ring allgather over explicit byte blocks (indexed by
    /// rank). Virtual block `v` is the block of rank `ring[(v-1) mod
    /// n]`, so ring position `p` starts owning virtual `p+1` and after
    /// `n-1` single-hop steps holds everything.
    fn ring_allgather(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        blocks: &[(usize, usize)],
    ) -> Result<(), CollError> {
        let n = self.n;
        let p = self.ring.pos_of[self.rank];
        let next = self.ring.next(self.rank);
        let prev = self.ring.prev(self.rank);
        let order = self.ring.ring.clone();
        let actual = |v: usize| order[(v + n - 1) % n];
        for step in 0..n - 1 {
            let sv = (p + 1 + n - step % n) % n;
            let rv = (p + n - step % n) % n;
            let (s_off, s_len) = blocks[actual(sv)];
            let (r_off, r_len) = blocks[actual(rv)];
            self.exchange_ranges(ctx, next, prev, buf, s_off, s_len, r_off, r_len, None)?;
        }
        Ok(())
    }

    /// Binomial gather of contiguous block ranges to rank 0, then a
    /// binomial broadcast of the whole vector.
    fn gather_bcast(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        blocks: &[(usize, usize)],
    ) -> Result<(), CollError> {
        let me = self.rank;
        let tree = BinomialTree { n: self.n };
        let span = |lo: usize, hi: usize| {
            let start = blocks[lo].0;
            let end = blocks[hi - 1].0 + blocks[hi - 1].1;
            (start, end - start)
        };
        for c in tree.children(me) {
            let (clo, chi) = tree.subtree(c);
            let (off, len) = span(clo, chi);
            self.recv_range(ctx, c, buf, off, len)?;
        }
        if let Some(parent) = tree.parent(me) {
            let (lo, hi) = tree.subtree(me);
            let (off, len) = span(lo, hi);
            self.send_range(ctx, parent, buf, off, len)?;
        }
        let total = blocks[self.n - 1].0 + blocks[self.n - 1].1;
        self.binomial_bcast(ctx, 0, buf, 0, total)
    }

    // ------------------------------------------------------------------
    // Reduce-scatter
    // ------------------------------------------------------------------

    /// Reduce a `count`-element vector in `buf` element-wise across all
    /// ranks, leaving each rank the fully reduced block
    /// `block_range(rank, n, count)` of it (returned as
    /// `(start, len)` in elements). Other parts of `buf` are clobbered
    /// with partial results.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn reduce_scatter(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
    ) -> Result<(usize, usize), CollError> {
        let alg = self.select_reduce_scatter(count);
        let obs_t0 = ctx.now();
        let r = self.reduce_scatter_with(ctx, buf, count, op, alg);
        if r.is_ok() {
            self.obs_span(ctx, "coll_reduce_scatter", obs_t0, count * op.elem_bytes());
        }
        r
    }

    /// Reduce-scatter with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// [`CollError::Unsupported`] for [`ReduceScatterAlg::Pairwise`]
    /// without all-pairs channels; channel faults otherwise.
    pub fn reduce_scatter_with(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
        alg: ReduceScatterAlg,
    ) -> Result<(usize, usize), CollError> {
        let mine = block_range(self.rank, self.n, count);
        if self.n == 1 {
            return Ok(mine);
        }
        let eb = op.elem_bytes();
        let blocks: Vec<(usize, usize)> = (0..self.n)
            .map(|i| {
                let (s, l) = block_range(i, self.n, count);
                (s * eb, l * eb)
            })
            .collect();
        match alg {
            ReduceScatterAlg::Ring => self.ring_reduce_scatter(ctx, buf, &blocks, op)?,
            ReduceScatterAlg::Pairwise => {
                if !self.has_flat {
                    return Err(CollError::Unsupported("pairwise reduce-scatter"));
                }
                let (n, me) = (self.n, self.rank);
                let (m_off, m_len) = blocks[me];
                for j in 1..n {
                    let to = (me + j) % n;
                    let from = (me + n - j) % n;
                    let (s_off, s_len) = blocks[to];
                    self.exchange_ranges(ctx, to, from, buf, s_off, s_len, m_off, m_len, Some(op))?;
                }
            }
        }
        Ok(mine)
    }

    /// Snake-ring reduce-scatter over explicit byte blocks: `n-1`
    /// single-hop steps, each forwarding the partially reduced virtual
    /// block while combining the one arriving — the chunk engine
    /// overlaps the transfer of chunk `k+1` with the reduction of
    /// chunk `k`.
    fn ring_reduce_scatter(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        blocks: &[(usize, usize)],
        op: ReduceOp,
    ) -> Result<(), CollError> {
        let n = self.n;
        let p = self.ring.pos_of[self.rank];
        let next = self.ring.next(self.rank);
        let prev = self.ring.prev(self.rank);
        let order = self.ring.ring.clone();
        let actual = |v: usize| order[(v + n - 1) % n];
        for step in 0..n - 1 {
            let sv = (p + n - step % n) % n;
            let rv = (p + n - 1 - step % n) % n;
            let (s_off, s_len) = blocks[actual(sv)];
            let (r_off, r_len) = blocks[actual(rv)];
            self.exchange_ranges(ctx, next, prev, buf, s_off, s_len, r_off, r_len, Some(op))?;
        }
        Ok(())
    }

    /// Recursive-halving reduce-scatter of `buf[..len]` among ranks
    /// `0..pow2`: `log2 pow2` rounds with partner `me ^ dist` for
    /// `dist = pow2/2 … 1`, each halving the range this rank is still
    /// reducing — the rank with the `dist` bit clear keeps the lower
    /// half and gives the upper one away. Partners share every higher
    /// bit, so they cut the same range at the same element. Returns the
    /// rounds' splits in order; the last `keep` is fully reduced.
    fn halving_reduce_scatter(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        pow2: usize,
        len: usize,
        op: ReduceOp,
    ) -> Result<Vec<HalvingSplit>, CollError> {
        let eb = op.elem_bytes();
        let mut held = (0, len);
        let mut splits = Vec::new();
        let mut dist = pow2 / 2;
        while dist > 0 {
            let (off, len) = held;
            let low = len / eb / 2 * eb;
            let (lower, upper) = ((off, low), (off + low, len - low));
            let (keep, give) = if self.rank & dist == 0 {
                (lower, upper)
            } else {
                (upper, lower)
            };
            let partner = self.rank ^ dist;
            self.exchange_ranges(
                ctx,
                partner,
                partner,
                buf,
                give.0,
                give.1,
                keep.0,
                keep.1,
                Some(op),
            )?;
            splits.push(HalvingSplit {
                partner,
                give,
                keep,
            });
            held = keep;
            dist /= 2;
        }
        Ok(splits)
    }

    /// Recursive-doubling allgather that undoes
    /// [`halving_reduce_scatter`](Self::halving_reduce_scatter): the
    /// same splits replayed last to first, each round trading the range
    /// this rank holds for the one it gave away.
    fn doubling_allgather(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        splits: &[HalvingSplit],
    ) -> Result<(), CollError> {
        for s in splits.iter().rev() {
            let (p, keep, give) = (s.partner, s.keep, s.give);
            self.exchange_ranges(ctx, p, p, buf, keep.0, keep.1, give.0, give.1, None)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Allreduce
    // ------------------------------------------------------------------

    /// Allreduce `count` elements of `buf` in place: every rank ends
    /// with the element-wise combination across all ranks.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allreduce(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        let obs_t0 = ctx.now();
        let r = if self.hw.is_some() {
            self.hw_allreduce(ctx, buf, count, op)
        } else {
            self.allreduce_with(ctx, buf, count, op, self.select_allreduce(count))
        };
        if r.is_ok() {
            self.obs_span(ctx, "coll_allreduce", obs_t0, count * op.elem_bytes());
        }
        r
    }

    /// Allreduce with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allreduce_with(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
        alg: AllreduceAlg,
    ) -> Result<(), CollError> {
        if self.n == 1 {
            return Ok(());
        }
        let eb = op.elem_bytes();
        match alg {
            AllreduceAlg::RingRsAg => {
                let blocks: Vec<(usize, usize)> = (0..self.n)
                    .map(|i| {
                        let (s, l) = block_range(i, self.n, count);
                        (s * eb, l * eb)
                    })
                    .collect();
                self.ring_reduce_scatter(ctx, buf, &blocks, op)?;
                self.ring_allgather(ctx, buf, &blocks)
            }
            AllreduceAlg::RecursiveDoubling | AllreduceAlg::HalvingDoubling => {
                let (n, me) = (self.n, self.rank);
                let len = count * eb;
                let pow2 = if n.is_power_of_two() {
                    n
                } else {
                    n.next_power_of_two() / 2
                };
                if me >= pow2 {
                    // Fold into the partner, then receive the result.
                    self.send_range(ctx, me - pow2, buf, 0, len)?;
                    self.recv_range(ctx, me - pow2, buf, 0, len)?;
                    return Ok(());
                }
                if me + pow2 < n {
                    self.recv_combine_range(ctx, me + pow2, buf, 0, len, op)?;
                }
                if alg == AllreduceAlg::HalvingDoubling {
                    let splits = self.halving_reduce_scatter(ctx, buf, pow2, len, op)?;
                    self.doubling_allgather(ctx, buf, &splits)?;
                } else {
                    let mut dist = 1;
                    while dist < pow2 {
                        let partner = me ^ dist;
                        self.exchange_ranges(ctx, partner, partner, buf, 0, len, 0, len, Some(op))?;
                        dist *= 2;
                    }
                }
                if me + pow2 < n {
                    self.send_range(ctx, me + pow2, buf, 0, len)?;
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Value-based convenience forms (back the NX wrappers)
    // ------------------------------------------------------------------

    /// Allreduce-sum a slice of `f64` values through the communicator's
    /// own scratch buffer; every rank returns the element-wise sums.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allreduce_f64(&mut self, ctx: &Ctx, vals: &[f64]) -> Result<Vec<f64>, CollError> {
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let out = self.allreduce_raw(ctx, &raw, ReduceOp::SumF64)?;
        Ok(out
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Allreduce-sum a slice of `i64` values; every rank returns the
    /// element-wise sums.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allreduce_i64(&mut self, ctx: &Ctx, vals: &[i64]) -> Result<Vec<i64>, CollError> {
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let out = self.allreduce_raw(ctx, &raw, ReduceOp::SumI64)?;
        Ok(out
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn allreduce_raw(&mut self, ctx: &Ctx, raw: &[u8], op: ReduceOp) -> Result<Vec<u8>, CollError> {
        if raw.is_empty() || self.n == 1 {
            return Ok(raw.to_vec());
        }
        let va = self.scratch(raw.len());
        self.vmmc.proc_().write(ctx, va, raw)?;
        self.allreduce(ctx, va, raw.len() / 8, op)?;
        Ok(self.vmmc.proc_().read(ctx, va, raw.len())?)
    }

    // ------------------------------------------------------------------
    // Chunked range engine
    // ------------------------------------------------------------------

    /// Send a zero-payload flag chunk (barrier edge).
    fn send_flag(&mut self, ctx: &Ctx, peer: usize) -> Result<(), CollError> {
        let base = self.channels[&peer].staging;
        self.send_chunk(ctx, peer, base, 0)
    }

    /// Consume a zero-payload flag chunk.
    fn recv_flag(&mut self, ctx: &Ctx, peer: usize) -> Result<(), CollError> {
        self.recv_chunk_with(ctx, peer, 0, |_, _, _| Ok(()))
    }

    /// Send `buf[off..off+len]` to `peer` as pipeline chunks (one empty
    /// chunk for an empty range, keeping both sides in lockstep).
    fn send_range(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        buf: VAddr,
        off: usize,
        len: usize,
    ) -> Result<(), CollError> {
        let chunk = self.layout.chunk;
        for c in 0..nchunks(len, chunk) {
            let o = c * chunk;
            let l = (len - o).min(chunk);
            self.send_chunk(ctx, peer, buf.add(off + o), l)?;
        }
        Ok(())
    }

    /// Receive a chunked range from `peer` into `buf[off..off+len]`.
    fn recv_range(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        buf: VAddr,
        off: usize,
        len: usize,
    ) -> Result<(), CollError> {
        let chunk = self.layout.chunk;
        for c in 0..nchunks(len, chunk) {
            let o = c * chunk;
            let l = (len - o).min(chunk);
            self.recv_chunk(ctx, peer, buf.add(off + o), l)?;
        }
        Ok(())
    }

    /// Receive a chunked range and combine it element-wise into
    /// `buf[off..off+len]`.
    fn recv_combine_range(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        buf: VAddr,
        off: usize,
        len: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        let chunk = self.layout.chunk;
        for c in 0..nchunks(len, chunk) {
            let o = c * chunk;
            let l = (len - o).min(chunk);
            self.recv_combine_chunk(ctx, peer, buf.add(off + o), l, op)?;
        }
        Ok(())
    }

    fn recv_combine_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        dst: VAddr,
        len: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        self.recv_chunk_with(ctx, peer, len, |comm, ctx, slot_va| {
            if len == 0 {
                return Ok(());
            }
            let other = comm.vmmc.proc_().read(ctx, slot_va, len)?;
            let mut acc = comm.vmmc.proc_().read(ctx, dst, len)?;
            op.fold(&mut acc, &other);
            comm.vmmc.proc_().write(ctx, dst, &acc)?;
            Ok(())
        })
    }

    /// Chunk-interleaved bidirectional transfer: per pipeline step,
    /// send chunk `c` of the outgoing range to `to`, then consume chunk
    /// `c` of the incoming range from `from` (copying, or combining
    /// under `op`). The interleave keeps acks flowing both ways, so
    /// symmetric exchanges (recursive doubling) and ring steps never
    /// deadlock and double-buffered slots overlap transfer with the
    /// local reduction.
    #[allow(clippy::too_many_arguments)]
    fn exchange_ranges(
        &mut self,
        ctx: &Ctx,
        to: usize,
        from: usize,
        buf: VAddr,
        s_off: usize,
        s_len: usize,
        r_off: usize,
        r_len: usize,
        op: Option<ReduceOp>,
    ) -> Result<(), CollError> {
        let chunk = self.layout.chunk;
        let sc = nchunks(s_len, chunk);
        let rc = nchunks(r_len, chunk);
        for c in 0..sc.max(rc) {
            if c < sc {
                let o = c * chunk;
                let l = (s_len - o).min(chunk);
                self.send_chunk(ctx, to, buf.add(s_off + o), l)?;
            }
            if c < rc {
                let o = c * chunk;
                let l = (r_len - o).min(chunk);
                match op {
                    Some(op) => self.recv_combine_chunk(ctx, from, buf.add(r_off + o), l, op)?,
                    None => self.recv_chunk(ctx, from, buf.add(r_off + o), l)?,
                }
            }
        }
        Ok(())
    }
}
