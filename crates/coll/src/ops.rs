//! The collective operations: the algorithms (two each for broadcast,
//! reduce and allgather, three for allreduce, one for barrier and
//! reduce-scatter), the size/node-count selector, and the one chunked
//! `transfer` they are all calls of.
//!
//! All algorithms run over the persistent channels of
//! [`CollComm`](crate::CollComm); a collective call never exports or
//! imports. Reductions use 8-byte elements ([`ReduceOp`]); byte-count
//! collectives (broadcast, allgather) accept arbitrary lengths — the
//! chunk engine copies small chunks into the control page as they are,
//! and sends larger ones as a head stored through the automatic-update
//! mirror plus a word-padded deliberate-update tail, bouncing an
//! unaligned tail through a staging buffer.

use shrimp_node::VAddr;
use shrimp_obs::MsgId;
use shrimp_sim::Ctx;

use crate::comm::{CollComm, CollError, CHUNK_BYTES};
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
    pub(crate) fn elem_bytes(self) -> usize {
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
/// grid, interpolated): 113 B at 8 ranks, 93 B at 16, 86 B at 32, 78 B
/// at 64. (126 / 113 / 101 / 93 B while a transfer's last payload ack
/// was stored before the next round's post: halving-doubling runs twice
/// the rounds, so it gained twice the store.)
const RD_CUTOFF_8_RANKS_BYTES: usize = 110;
const RD_CUTOFF_STEP_BYTES: usize = 11;

/// The largest allreduce, in bytes, that recursive doubling wins against
/// halving-doubling on `n` ranks: `usize::MAX` through seven ranks, then
/// `RD_CUTOFF_8_RANKS_BYTES` less `RD_CUTOFF_STEP_BYTES` per doubling of
/// the power-of-two core beyond eight — 110 / 99 / 88 / 77 B at 8 / 16 /
/// 32 / 64 ranks. A communicator that folds extra ranks into its core
/// keeps recursive doubling a fifteenth longer (measured crossings 126 B
/// at 12 ranks, 109 at 15 and at 24, 91 at 48: 0.99–1.15 × their
/// cores'). Below eight ranks the core is four, where recursive doubling
/// always wins, and folding one or two ranks keeps it ahead until the
/// ring takes over (5 and 6 ranks); at 7 halving-doubling leads by at
/// most 3 % from ≈ 139 B. See EXPERIMENTS.md, and there for the 9- and
/// 10-rank communicators this does not model.
pub fn rd_cutoff_bytes(n: usize) -> usize {
    if n < 8 {
        return usize::MAX;
    }
    let doublings = n.ilog2() as usize;
    let core = (RD_CUTOFF_8_RANKS_BYTES + 3 * RD_CUTOFF_STEP_BYTES)
        .saturating_sub(RD_CUTOFF_STEP_BYTES * doublings);
    if n.is_power_of_two() {
        core
    } else {
        core * 16 / 15
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

/// A byte range `(offset, len)` of the caller's buffer.
type Range = (usize, usize);

/// One round of the halving reduce-scatter as one rank saw it: the
/// ranges it gave to `partner` and kept.
struct HalvingSplit {
    partner: usize,
    give: Range,
    keep: Range,
}

impl CollComm {
    // ------------------------------------------------------------------
    // Selector
    // ------------------------------------------------------------------

    /// Pick a broadcast algorithm.
    fn select_broadcast(&self) -> BcastAlg {
        if self.has_flat && self.n <= 4 {
            BcastAlg::Flat
        } else {
            BcastAlg::Binomial
        }
    }

    /// Pick a reduce algorithm for `count` 8-byte elements.
    fn select_reduce(&self, count: usize) -> ReduceAlg {
        if self.has_flat && self.n <= 4 && count * 8 <= CHUNK_BYTES {
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
    // Entry points: each is `call` around one algorithm
    // ------------------------------------------------------------------

    /// What every public entry point shares: a single-rank communicator
    /// answers `alone` without running anything, and a call that
    /// succeeds is one [`shrimp_obs::Layer::User`] span of `bytes`.
    fn call<T>(
        &mut self,
        ctx: &Ctx,
        name: &'static str,
        bytes: usize,
        alone: T,
        run: impl FnOnce(&mut Self) -> Result<T, CollError>,
    ) -> Result<T, CollError> {
        let start = ctx.now();
        let r = if self.n == 1 { Ok(alone) } else { run(self) };
        if r.is_ok() {
            self.vmmc
                .user_span(MsgId::NONE, name, start, ctx.now(), bytes);
        }
        r
    }

    /// Global barrier: in the network when offloaded, else
    /// dissemination — `ceil(log2 n)` rounds, every rank sends and
    /// receives one empty chunk per round.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn barrier(&mut self, ctx: &Ctx) -> Result<(), CollError> {
        self.call(ctx, "coll_barrier", 0, (), |c| {
            if c.hw.is_some() {
                return c.hw_barrier(ctx);
            }
            let (n, me) = (c.n, c.rank);
            let edge = |peer: usize| Some((peer, (0, 0)));
            let mut dist = 1;
            while dist < n {
                let (to, from) = ((me + dist) % n, (me + n - dist) % n);
                c.transfer(ctx, VAddr(0), edge(to), edge(from), None)?;
                dist *= 2;
            }
            Ok(())
        })
    }

    /// Broadcast `len` bytes from `root`'s `buf` into every rank's
    /// `buf`, algorithm selected by size.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a rank of this communicator.
    pub fn broadcast(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
    ) -> Result<(), CollError> {
        self.call(ctx, "coll_broadcast", len, (), |c| {
            if c.hw.is_some() {
                c.hw_broadcast(ctx, root, buf, len)
            } else {
                c.broadcast_with(ctx, root, buf, len, c.select_broadcast())
            }
        })
    }

    /// Reduce `count` elements of `buf` element-wise onto `root`.
    /// `root`'s `buf` holds the result; other ranks' `buf` is clobbered
    /// with partial results.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a rank of this communicator.
    pub fn reduce(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        self.call(ctx, "coll_reduce", count * op.elem_bytes(), (), |c| {
            c.reduce_with(ctx, root, buf, count, op, c.select_reduce(count))
        })
    }

    /// In-place allgather over a `total`-byte vector in `buf`: rank `i`
    /// contributes the byte block `block_range(i, n, total)`; on return
    /// every rank holds all blocks.
    ///
    /// # Errors
    ///
    /// Propagates channel faults.
    pub fn allgather(&mut self, ctx: &Ctx, buf: VAddr, total: usize) -> Result<(), CollError> {
        self.call(ctx, "coll_allgather", total, (), |c| {
            c.allgather_with(ctx, buf, total, c.select_allgather(total))
        })
    }

    /// Reduce a `count`-element vector in `buf` element-wise across all
    /// ranks, leaving each rank the fully reduced block
    /// `block_range(rank, n, count)` of it (returned as
    /// `(start, len)` in elements). Other parts of `buf` are clobbered
    /// with partial results. One snake-ring pass, combining as blocks
    /// travel.
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
        let mine = block_range(self.rank, self.n, count);
        let bytes = count * op.elem_bytes();
        self.call(ctx, "coll_reduce_scatter", bytes, mine, |c| {
            let blocks = c.blocks(count, op.elem_bytes());
            c.ring_pass(ctx, buf, &blocks, Some(op))?;
            c.settle(ctx)?;
            Ok(mine)
        })
    }

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
        self.call(ctx, "coll_allreduce", count * op.elem_bytes(), (), |c| {
            if c.hw.is_some() {
                c.hw_allreduce(ctx, buf, count, op)
            } else {
                c.allreduce_with(ctx, buf, count, op, c.select_allreduce(count))
            }
        })
    }

    // ------------------------------------------------------------------
    // The algorithms, pinned explicitly
    // ------------------------------------------------------------------

    /// A root that is not a rank is a caller bug, named before any
    /// chunk moves.
    pub(crate) fn check_root(&self, root: usize) {
        assert!(root < self.n, "root {root} out of range");
    }

    /// This rank's `(parent, children)` in the binomial tree rooted at
    /// `root`, as real ranks, children nearest first.
    fn tree(&self, root: usize) -> (Option<usize>, Vec<usize>) {
        let (n, me) = (self.n, self.rank);
        self.check_root(root);
        let tree = BinomialTree { n };
        let v = (me + n - root) % n;
        let real = |v: usize| (v + root) % n;
        let children = tree.children(v).into_iter().map(real).collect();
        (tree.parent(v).map(real), children)
    }

    /// The flat variants' tree: every rank a child of `root`, in
    /// `(root + j) % n` order for `j` ascending.
    fn star(
        &self,
        root: usize,
        what: &'static str,
    ) -> Result<(Option<usize>, Vec<usize>), CollError> {
        let (n, me) = (self.n, self.rank);
        self.check_root(root);
        if !self.has_flat {
            return Err(CollError::Unsupported(what));
        }
        Ok(if me == root {
            (None, (1..n).map(|j| (root + j) % n).collect())
        } else {
            (Some(root), Vec::new())
        })
    }

    /// Broadcast with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// [`CollError::Unsupported`] for [`BcastAlg::Flat`] without
    /// all-pairs channels; channel faults otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a rank of this communicator.
    pub fn broadcast_with(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
        alg: BcastAlg,
    ) -> Result<(), CollError> {
        let (parent, children) = match alg {
            BcastAlg::Binomial => {
                // Farthest child first: it roots the largest subtree.
                let (parent, mut children) = self.tree(root);
                children.reverse();
                (parent, children)
            }
            BcastAlg::Flat => self.star(root, "flat broadcast")?,
        };
        if let Some(p) = parent {
            self.transfer(ctx, buf, None, Some((p, (0, len))), None)?;
        }
        for c in children {
            self.transfer(ctx, buf, Some((c, (0, len))), None, None)?;
        }
        self.settle(ctx)
    }

    /// Reduce with an explicit algorithm.
    ///
    /// # Errors
    ///
    /// [`CollError::Unsupported`] for [`ReduceAlg::Flat`] without
    /// all-pairs channels; channel faults otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a rank of this communicator.
    pub fn reduce_with(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
        alg: ReduceAlg,
    ) -> Result<(), CollError> {
        let (parent, children) = match alg {
            ReduceAlg::Binomial => self.tree(root),
            ReduceAlg::Flat => self.star(root, "flat reduce")?,
        };
        let all = (0, count * op.elem_bytes());
        // Nearest child first: it finishes its subtree first.
        for c in children {
            self.transfer(ctx, buf, None, Some((c, all)), Some(op))?;
        }
        if let Some(p) = parent {
            self.transfer(ctx, buf, Some((p, all)), None, None)?;
        }
        self.settle(ctx)
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
        if alg == AllgatherAlg::Ring {
            self.ring_pass(ctx, buf, &self.blocks(total, 1), None)?;
            return self.settle(ctx);
        }
        // Binomial gather to rank 0 — a subtree's blocks are one
        // contiguous range — then a binomial broadcast of the whole
        // vector.
        let n = self.n;
        let span = |v: usize| {
            let (lo, hi) = BinomialTree { n }.subtree(v);
            let (start, end) = (block_range(lo, n, total).0, block_range(hi, n, total).0);
            (start, end - start)
        };
        let (parent, children) = self.tree(0);
        for c in children {
            self.transfer(ctx, buf, None, Some((c, span(c))), None)?;
        }
        if let Some(p) = parent {
            self.transfer(ctx, buf, Some((p, span(self.rank))), None, None)?;
        }
        self.broadcast_with(ctx, 0, buf, total, BcastAlg::Binomial)
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
        if alg == AllreduceAlg::RingRsAg {
            let blocks = self.blocks(count, op.elem_bytes());
            self.ring_pass(ctx, buf, &blocks, Some(op))?;
            self.ring_pass(ctx, buf, &blocks, None)?;
            return self.settle(ctx);
        }
        let (n, me) = (self.n, self.rank);
        let all = (0, count * op.elem_bytes());
        let pow2 = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
        if me >= pow2 {
            // Fold into the partner, then receive the result.
            self.transfer(ctx, buf, Some((me - pow2, all)), None, None)?;
            self.transfer(ctx, buf, None, Some((me - pow2, all)), None)?;
            return self.settle(ctx);
        }
        if me + pow2 < n {
            self.transfer(ctx, buf, None, Some((me + pow2, all)), Some(op))?;
        }
        if alg == AllreduceAlg::HalvingDoubling {
            // The doubling allgather undoes the halving: the same splits
            // replayed last to first, each round trading the range this
            // rank holds for the one it gave away.
            let splits = self.halving_reduce_scatter(ctx, buf, pow2, all.1, op)?;
            for s in splits.iter().rev() {
                let (send, recv) = (Some((s.partner, s.keep)), Some((s.partner, s.give)));
                self.transfer(ctx, buf, send, recv, None)?;
            }
        } else {
            let mut dist = 1;
            while dist < pow2 {
                let partner = Some((me ^ dist, all));
                self.transfer(ctx, buf, partner, partner, Some(op))?;
                dist *= 2;
            }
        }
        if me + pow2 < n {
            self.transfer(ctx, buf, Some((me + pow2, all)), None, None)?;
        }
        self.settle(ctx)
    }

    /// The byte block of each rank when `count` elements of `eb` bytes
    /// are split by [`block_range`].
    fn blocks(&self, count: usize, eb: usize) -> Vec<Range> {
        (0..self.n)
            .map(|i| {
                let (s, l) = block_range(i, self.n, count);
                (s * eb, l * eb)
            })
            .collect()
    }

    /// One pass round the snake ring over per-rank byte `blocks`: `n-1`
    /// single-hop steps, each forwarding one block to the next ring
    /// position while the previous one's arrives. Virtual block `v` is
    /// the block of rank `ring[(v-1) mod n]`. Under `op` the arriving
    /// block is combined into this rank's copy and ring position `p`
    /// starts by forwarding virtual `p`, so it ends holding virtual
    /// `p+1` — its own block — fully reduced (reduce-scatter); without,
    /// it starts by forwarding virtual `p+1` and ends holding
    /// everything (allgather).
    fn ring_pass(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        blocks: &[Range],
        op: Option<ReduceOp>,
    ) -> Result<(), CollError> {
        let n = self.n;
        let (next, prev) = (self.ring.next(self.rank), self.ring.prev(self.rank));
        let first = self.ring.pos_of[self.rank] + usize::from(op.is_none());
        for step in 0..n - 1 {
            let block = |v: usize| blocks[self.ring.ring[(v + n - 1) % n]];
            let (send, recv) = (block(first + n - step), block(first + n - 1 - step));
            self.transfer(ctx, buf, Some((next, send)), Some((prev, recv)), op)?;
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
            self.transfer(
                ctx,
                buf,
                Some((partner, give)),
                Some((partner, keep)),
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
    // Chunk engine
    // ------------------------------------------------------------------

    /// The one chunked transfer every algorithm is made of: cut the
    /// `send` range of `buf` and the `recv` range into pipeline chunks
    /// and run them skewed by one: per step, post chunk `c` to its peer,
    /// consume chunk `c-1` from its peer — copying, or combining under
    /// `op` — while chunk `c`'s deliberate-update tail is in flight, then
    /// flag chunk `c`; the last chunk received is consumed after the loop. An
    /// eager or empty chunk has nothing in flight and is flagged as soon
    /// as it is posted. An empty range is one empty chunk (a barrier
    /// edge; it also keeps both sides of an exchange in lockstep). The
    /// interleave keeps acks flowing both ways: chunk `c+1`'s credit is
    /// chunk `c-1`'s ack, which the peer stores before it waits on
    /// anything of chunk `c`, so symmetric exchanges (recursive doubling)
    /// and ring steps never deadlock on two slots.
    ///
    /// The ack of the *final* consume, the one after the loop, is owed
    /// rather than stored: in a latency-bound round it would sit between
    /// the combine and the next round's post, and nothing waits on it
    /// before the rank's next flag wait. The rank stores it at the start
    /// of its next [`CollComm::recv_chunk`], before the first poll; here,
    /// before a send range of two or more chunks, whose posts past the
    /// first may wait on a credit a peer owes back the same way; and
    /// before every public entry point returns. A consume inside the
    /// loop is acked at once, because this transfer's own post of chunk
    /// `c+2` waits on it.
    fn transfer(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        send: Option<(usize, Range)>,
        recv: Option<(usize, Range)>,
        op: Option<ReduceOp>,
    ) -> Result<(), CollError> {
        let chunk = CHUNK_BYTES;
        // The chunk of a direction that starts `o` bytes into its range,
        // if the range reaches that far.
        let cut = |o: usize, dir: Option<(usize, Range)>| {
            let (peer, (off, len)) = dir?;
            (o == 0 || o < len).then(|| (peer, buf.add(off + o), (len - o).min(chunk)))
        };
        let len_of = |dir: Option<(usize, Range)>| dir.map_or(0, |(_, (_, len))| len);
        if len_of(send) > chunk {
            self.settle(ctx)?;
        }
        let longest = len_of(send).max(len_of(recv));
        let mut unread = None;
        for o in (0..longest.max(1)).step_by(chunk) {
            let mut in_flight = None;
            if let Some((to, src, l)) = cut(o, send) {
                let (vmmc, ch) = self.chan(to);
                let posted = ch.post(vmmc, ctx, src, l, 1)?;
                if posted.in_flight() {
                    in_flight = Some((to, posted));
                } else {
                    ch.flag(vmmc, ctx, posted)?;
                }
            }
            if let Some((from, dst, l)) = unread.take() {
                self.recv_chunk(ctx, from, dst, l, op, false)?;
            }
            if let Some((to, posted)) = in_flight {
                let (vmmc, ch) = self.chan(to);
                ch.flag(vmmc, ctx, posted)?;
            }
            unread = cut(o, recv);
        }
        if let Some((from, dst, l)) = unread {
            self.recv_chunk(ctx, from, dst, l, op, true)?;
        }
        Ok(())
    }
}
