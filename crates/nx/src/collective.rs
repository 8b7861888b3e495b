//! NX global (collective) operations: `gsync`, `gdsum`, `gisum`,
//! `gbcast`, `gcol` — thin wrappers over the `shrimp-coll`
//! communicator each rank carries.
//!
//! The heavy lifting (persistent VMMC channel geometry, ring and
//! binomial-tree algorithms, chunked pipelining, the size selector)
//! lives in `shrimp-coll`; these entry points only adapt NX's calling
//! conventions. The one exception is [`NxProc::gbcast_naive`], kept as
//! a point-to-point ablation baseline for the §6 co-design argument.

use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::Ctx;

use crate::proc::{NxError, NxProc, INTERNAL_TYPE_BASE};

impl NxProc {
    /// Global barrier (NX `gsync`).
    ///
    /// # Errors
    ///
    /// Propagates collective-channel errors.
    pub fn gsync(&mut self, ctx: &Ctx) -> Result<(), NxError> {
        self.coll.barrier(ctx)?;
        Ok(())
    }

    /// Global sum of one `f64` across all ranks (NX `gdsum` with a
    /// single element).
    ///
    /// # Errors
    ///
    /// Propagates collective-channel errors.
    pub fn gdsum(&mut self, ctx: &Ctx, x: f64) -> Result<f64, NxError> {
        Ok(self.coll.allreduce_f64(ctx, &[x])?[0])
    }

    /// Global sum of one `i64` across all ranks (NX `gisum` with a
    /// single element).
    ///
    /// # Errors
    ///
    /// Propagates collective-channel errors.
    pub fn gisum(&mut self, ctx: &Ctx, x: i64) -> Result<i64, NxError> {
        Ok(self.coll.allreduce_i64(ctx, &[x])?[0])
    }

    /// Broadcast `len` bytes from `root`'s `buf` into every other
    /// rank's `buf` — the software multicast of paper §6: the hardware
    /// multicast feature was removed during co-design because a
    /// software spanning tree performs acceptably.
    ///
    /// # Errors
    ///
    /// Propagates collective-channel errors.
    pub fn gbcast(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
    ) -> Result<(), NxError> {
        self.coll.broadcast(ctx, root, buf, len)?;
        Ok(())
    }

    /// The naive multicast a sender without a tree would do: the root
    /// sends to every rank in turn over the point-to-point layer. Kept
    /// for the ablation bench that justifies the co-design decision.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors.
    pub fn gbcast_naive(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
    ) -> Result<(), NxError> {
        let n = self.numnodes();
        let me = self.mynode();
        let epoch = self.barrier_epoch;
        self.barrier_epoch += 1;
        let tag = INTERNAL_TYPE_BASE + 0x3000 + (epoch as i32 & 0xFFF);
        if me == root {
            for dst in 0..n {
                if dst != root {
                    self.csend(ctx, tag, buf, len, dst)?;
                }
            }
        } else {
            self.crecv(ctx, tag, buf, len)?;
        }
        Ok(())
    }

    /// Concatenation gather (NX `gcol` for a single element per rank):
    /// every rank contributes `len` bytes from `buf`; every rank
    /// returns the concatenation in rank order. Runs as an in-place
    /// allgather over uniform blocks in the collective layer.
    ///
    /// # Errors
    ///
    /// Propagates collective-channel errors.
    pub fn gcol(&mut self, ctx: &Ctx, buf: VAddr, len: usize) -> Result<Vec<u8>, NxError> {
        let n = self.numnodes();
        let me = self.mynode();
        let p = self.vmmc().proc_().clone();
        let total = n * len;
        let all = p.alloc(total.max(4), CacheMode::WriteBack);
        if len > 0 {
            p.copy(ctx, buf, all.add(me * len), len)?;
        }
        self.coll.allgather(ctx, all, total)?;
        Ok(p.peek(all, total)?)
    }
}
