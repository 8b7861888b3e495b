//! The SHRIMP RPC runtime: bindings, client stubs, server dispatch.
//!
//! Each binding consists of one receive buffer on each side with
//! bidirectional import-export mappings between them (paper §5,
//! following Bershad's URPC). Both buffers are simultaneously exported
//! (so the peer's automatic updates land in them) and bound by automatic
//! update (so local marshaling stores propagate to the peer). A call is
//! nothing more than the client stub storing one ascending run into the
//! call area of its buffer — arguments, then the flag — which the
//! hardware combines into a single packet; OUT and INOUT parameters are
//! written by the server procedure *by reference* into the reply area
//! and propagate back in the background while the server computes, the
//! reply flag continuing their run (see [`crate::InterfacePlan`] for the
//! two areas). A reply area holding an `opaque<N>` has no field offset
//! until every value is known, so its writer stores the whole reply,
//! flag last, as one run when the procedure returns.
//!
//! Bulk is the exception: a run whose body (its bytes before the flag)
//! reaches [`SPLIT_BYTES`] leaves by both send paths, the way a
//! [`shrimp_core::SlotChannel`] bulk chunk does. Its tail, past a
//! [`shrimp_core::bulk_head`] of whole words, is staged into a
//! write-back buffer laid out like the binding's and sent first by a
//! non-blocking deliberate update into the peer's buffer; the CPU
//! stores the head by automatic update while that DMA runs, and the
//! flag is stored alone once the send is complete, so it lands last.

use std::sync::Arc;

use shrimp_core::{
    bulk_head, Binder, BufferName, ExportOpts, ImportHandle, SendHandle, Vmmc, VmmcError,
};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, StoreEnd, UserProc, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, SimTime};

use crate::idl::{Interface, Ty};
use crate::layout::{InterfacePlan, ParamSlot};

/// Reserved flag byte marking connection close.
const CLOSE_MARK: u32 = 0xFF;

/// Body bytes from which a run leaves as an automatic-update head and a
/// deliberate-update tail instead of one automatic-update run. It must
/// be above 104, the body of svc's largest call (an `opaque<32>` key and
/// an `opaque<64>` value, each with its length word), so no svc call
/// splits. Swept as Fig. 8's round trip of one INOUT `opaque[n]` sent
/// whole / split, in µs: n = 100: 27.91 / 27.99; 104: 28.64 / 28.55;
/// 112: 30.34 / 29.34; 128: 33.23 / 31.34; 152: 37.84 / 34.47; 200:
/// 47.03 / 40.55. Splitting wins from a 104 B body on, so the split
/// size is the first word past svc's.
pub(crate) const SPLIT_BYTES: usize = 108;

/// A dynamic parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// `i32`.
    I32(i32),
    /// `u32`.
    U32(u32),
    /// `f64`.
    F64(f64),
    /// `bool`.
    Bool(bool),
    /// `opaque[N]` — must match the declared length; `opaque<N>` — at
    /// most `N` bytes.
    Bytes(Vec<u8>),
    /// `array<f64, N>` — must match the declared length.
    F64Array(Vec<f64>),
    /// `array<i32, N>` — must match the declared length.
    I32Array(Vec<i32>),
}

impl Val {
    /// Wire-encode, padded to a whole word: the type's wire size, or for
    /// an `opaque<N>` the bytes this value uses and its length word.
    ///
    /// # Errors
    ///
    /// [`SrpcError::TypeMismatch`] if the value does not match `ty`.
    pub fn encode(&self, ty: Ty) -> Result<Vec<u8>, SrpcError> {
        let mut out = Vec::with_capacity(ty.wire_bytes());
        self.encode_into(ty, &mut out)?;
        Ok(out)
    }

    /// [`encode`](Self::encode) onto the end of `out` (untouched on
    /// error): how a stub assembles a whole area host-side. An
    /// `opaque<N>` is its bytes, zero-padded to a word, then its length
    /// word.
    ///
    /// # Errors
    ///
    /// As [`encode`](Self::encode).
    pub fn encode_into(&self, ty: Ty, out: &mut Vec<u8>) -> Result<(), SrpcError> {
        let start = out.len();
        match (self, ty) {
            (Val::I32(v), Ty::I32) => out.extend(v.to_le_bytes()),
            (Val::U32(v), Ty::U32) => out.extend(v.to_le_bytes()),
            (Val::F64(v), Ty::F64) => out.extend(v.to_le_bytes()),
            (Val::Bool(v), Ty::Bool) => out.extend((*v as u32).to_le_bytes()),
            (Val::Bytes(b), Ty::Opaque(n)) if b.len() == n => out.extend(b),
            (Val::Bytes(b), Ty::VarOpaque(n)) if b.len() <= n => {
                out.extend(b);
                out.resize(start + b.len().div_ceil(4) * 4, 0);
                out.extend((b.len() as u32).to_le_bytes());
            }
            (Val::F64Array(a), Ty::F64Array(n)) if a.len() == n => {
                out.extend(a.iter().flat_map(|v| v.to_le_bytes()));
            }
            (Val::I32Array(a), Ty::I32Array(n)) if a.len() == n => {
                out.extend(a.iter().flat_map(|v| v.to_le_bytes()));
            }
            _ => return Err(SrpcError::TypeMismatch { expected: ty }),
        }
        out.resize(start + (out.len() - start).div_ceil(4) * 4, 0);
        Ok(())
    }

    /// Decode a value of `ty` from the wire bytes starting at `b`; for
    /// an `opaque<N>`, `b` is exactly the value's bytes (its length word
    /// already read).
    fn decode(ty: Ty, b: &[u8]) -> Val {
        match ty {
            Ty::I32 => Val::I32(i32::from_le_bytes(b[..4].try_into().expect("4 bytes"))),
            Ty::U32 => Val::U32(u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))),
            Ty::F64 => Val::F64(f64::from_le_bytes(b[..8].try_into().expect("8 bytes"))),
            Ty::Bool => Val::Bool(b[0] != 0),
            Ty::Opaque(n) => Val::Bytes(b[..n].to_vec()),
            Ty::VarOpaque(_) => Val::Bytes(b.to_vec()),
            Ty::F64Array(n) => Val::F64Array(
                (0..n)
                    .map(|i| f64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8 bytes")))
                    .collect(),
            ),
            Ty::I32Array(n) => Val::I32Array(
                (0..n)
                    .map(|i| i32::from_le_bytes(b[i * 4..i * 4 + 4].try_into().expect("4 bytes")))
                    .collect(),
            ),
        }
    }
}

/// SHRIMP RPC errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SrpcError {
    /// No such procedure in the bound interface.
    UnknownProc(String),
    /// Wrong number of IN arguments.
    ArgCount {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// An argument's type does not match the declaration.
    TypeMismatch {
        /// The declared type.
        expected: Ty,
    },
    /// A peer stored a call flag naming no procedure of the interface.
    BadCallFlag(u32),
    /// A peer-written `opaque<N>` length word exceeds its `N`.
    BadLength {
        /// The declared bound.
        max: usize,
        /// The length the run carried.
        got: u32,
    },
    /// Transport failure.
    Vmmc(VmmcError),
}

impl std::fmt::Display for SrpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SrpcError::UnknownProc(n) => write!(f, "unknown procedure '{n}'"),
            SrpcError::ArgCount { expected, got } => {
                write!(f, "expected {expected} in-arguments, got {got}")
            }
            SrpcError::TypeMismatch { expected } => {
                write!(f, "argument does not match declared type {expected:?}")
            }
            SrpcError::BadCallFlag(v) => write!(f, "call flag {v:#x} names no procedure"),
            SrpcError::BadLength { max, got } => {
                write!(f, "opaque length word {got} exceeds its bound {max}")
            }
            SrpcError::Vmmc(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for SrpcError {}

impl From<VmmcError> for SrpcError {
    fn from(e: VmmcError) -> Self {
        SrpcError::Vmmc(e)
    }
}

impl From<shrimp_node::MemFault> for SrpcError {
    fn from(e: shrimp_node::MemFault) -> Self {
        SrpcError::Vmmc(VmmcError::Fault(e))
    }
}

/// Service directory for SHRIMP RPC (the binder): service name →
/// listener queue.
pub type SrpcDirectory = Binder<String, ()>;

/// One side of a binding: its buffer, exported and bound by automatic
/// update to the peer's, and the staging buffer its bulk tails leave
/// from, laid out like it, so every run has its own staging range.
struct Side {
    buf: VAddr,
    staging: VAddr,
    peer: ImportHandle,
}

/// Shared binding mechanics for both sides.
fn establish(
    vmmc: &Vmmc,
    ctx: &Ctx,
    plan: &InterfacePlan,
    peer_node: NodeId,
    peer_region: BufferName,
    buf: VAddr,
) -> Result<Side, SrpcError> {
    let pages = plan.buffer_bytes.div_ceil(PAGE_SIZE);
    let peer = vmmc.import(ctx, peer_node, peer_region)?;
    vmmc.bind_au(ctx, buf, &peer, 0, pages, true, false)?;
    let staging = vmmc.proc_().alloc(pages * PAGE_SIZE, CacheMode::WriteBack);
    Ok(Side { buf, staging, peer })
}

impl Side {
    /// Store `bytes` at `offset`, continuing the run `prev` ended. A
    /// body below [`SPLIT_BYTES`] is that one store. A bulk one stages
    /// its tail and starts the tail's deliberate update, then stores its
    /// head; the send it returns must be complete before a flag behind
    /// these bytes is stored.
    fn store(
        &self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        prev: Option<StoreEnd>,
        offset: usize,
        bytes: &[u8],
    ) -> Result<(Option<StoreEnd>, Option<SendHandle>), SrpcError> {
        let p = vmmc.proc_();
        if bytes.len() < SPLIT_BYTES {
            return Ok((p.write_after(ctx, prev, self.buf.add(offset), bytes)?, None));
        }
        let head = bulk_head(bytes.len(), 4);
        let (at, tail) = (offset + head, &bytes[head..]);
        p.write(ctx, self.staging.add(at), tail)?;
        let du = vmmc.send_nonblocking(ctx, self.staging.add(at), &self.peer, at, tail.len())?;
        let end = p.write_after(ctx, prev, self.buf.add(offset), &bytes[..head])?;
        Ok((end, Some(du)))
    }

    /// Store `run`, a body and then its flag word, so the flag lands at
    /// `flag_offset`, continuing the run `prev` ended. With no tail in
    /// flight and a body below [`SPLIT_BYTES`] that is one store.
    /// Otherwise the body goes by [`Side::store`], and the flag is a
    /// store of its own, made once every tail's send is complete —
    /// `tails` and the body's own — so it lands last.
    fn store_run(
        &self,
        vmmc: &Vmmc,
        ctx: &Ctx,
        prev: Option<StoreEnd>,
        tails: &[SendHandle],
        flag_offset: usize,
        run: &[u8],
    ) -> Result<(), SrpcError> {
        let p = vmmc.proc_();
        let (body, flag) = run.split_at(run.len() - 4);
        let at = flag_offset - body.len();
        if tails.is_empty() && body.len() < SPLIT_BYTES {
            p.write_after(ctx, prev, self.buf.add(at), run)?;
            return Ok(());
        }
        let (end, tail) = self.store(vmmc, ctx, prev, at, body)?;
        for du in tails.iter().chain(&tail) {
            vmmc.send_wait(ctx, du);
        }
        p.write_after(ctx, end, self.buf.add(flag_offset), flag)?;
        Ok(())
    }
}

fn alloc_region(
    vmmc: &Vmmc,
    ctx: &Ctx,
    plan: &InterfacePlan,
) -> Result<(VAddr, BufferName), SrpcError> {
    let bytes = plan.buffer_bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
    let va = vmmc.proc_().alloc(bytes, CacheMode::WriteBack);
    let name = vmmc.export(ctx, va, bytes, ExportOpts::default())?;
    Ok((va, name))
}

/// Decode one area's run — `slots`, in declaration order, ending at
/// byte `end` — onto `vals`, walking back from `end`. `load(offset,
/// len)` returns the run's bytes at `offset`; it is asked for each byte
/// of the run once and for nothing outside it. An area of fixed types is
/// one load. Each `opaque<N>` adds one, because its length word must be
/// read before the bytes below it can be found.
///
/// # Errors
///
/// [`SrpcError::BadLength`] for a length word past its `N`, which no
/// stub of this plan writes; otherwise what `load` returns.
pub fn decode_run(
    slots: &[ParamSlot],
    end: usize,
    vals: &mut Vec<Val>,
    mut load: impl FnMut(usize, usize) -> Result<Vec<u8>, SrpcError>,
) -> Result<(), SrpcError> {
    let base = vals.len();
    vals.resize(base + slots.len(), Val::U32(0));
    let vals = &mut vals[base..];
    // The chunk being gathered ends at `at` and is `need` bytes: slots
    // `k + 1..hi` (all fixed), then `top`'s bytes, where `top` is the
    // `opaque<N>` at slot `hi` whose length word is already read.
    let (mut at, mut need, mut hi, mut top) = (end, 0, slots.len(), None);
    let mut fill = |from: usize, hi: usize, top: Option<usize>, chunk: &[u8]| {
        let mut off = 0;
        for (v, s) in vals[from..hi].iter_mut().zip(&slots[from..hi]) {
            *v = Val::decode(s.param.ty, &chunk[off..]);
            off += s.param.ty.wire_bytes();
        }
        if let Some(len) = top {
            vals[hi] = Val::decode(slots[hi].param.ty, &chunk[off..off + len]);
        }
    };
    for k in (0..slots.len()).rev() {
        let Ty::VarOpaque(max) = slots[k].param.ty else {
            need += slots[k].param.ty.wire_bytes();
            continue;
        };
        let chunk = load(at - need - 4, need + 4)?;
        let got = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        if got as usize > max {
            return Err(SrpcError::BadLength { max, got });
        }
        fill(k + 1, hi, top, &chunk[4..]);
        at -= need + 4;
        (need, hi, top) = ((got as usize).div_ceil(4) * 4, k, Some(got as usize));
    }
    let chunk = if need > 0 {
        load(at - need, need)?
    } else {
        Vec::new()
    };
    fill(0, hi, top, &chunk);
    Ok(())
}

/// Load one area's run, ending at `end` in `buf`, onto `vals`.
fn load_area(
    ctx: &Ctx,
    p: &UserProc,
    buf: VAddr,
    slots: &[ParamSlot],
    end: usize,
    vals: &mut Vec<Val>,
) -> Result<(), SrpcError> {
    decode_run(slots, end, vals, |off, len| {
        Ok(p.read(ctx, buf.add(off), len)?)
    })
}

/// The client side of a binding.
pub struct SrpcClient {
    vmmc: Vmmc,
    plan: InterfacePlan,
    side: Side,
    seq: u32,
}

impl std::fmt::Debug for SrpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrpcClient")
            .field("interface", &self.plan.name)
            .finish_non_exhaustive()
    }
}

impl SrpcClient {
    /// Bind to `service` with the given interface: exchanges buffer
    /// names through the directory and wires the bidirectional
    /// automatic-update mapping.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn bind(
        vmmc: Vmmc,
        ctx: &Ctx,
        directory: &Arc<SrpcDirectory>,
        service: &str,
        iface: &Interface,
    ) -> Result<SrpcClient, SrpcError> {
        SrpcClient::bind_until(vmmc, ctx, directory, service, iface, None)
    }

    /// Like [`SrpcClient::bind`], but give up at `deadline` if no
    /// server answers the connect request — the bounded path serving
    /// layers use to survive binding toward a crashed node.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] (wrapped) when the binder exchange is not
    /// answered by `deadline`; otherwise as [`SrpcClient::bind`].
    pub fn bind_deadline(
        vmmc: Vmmc,
        ctx: &Ctx,
        directory: &Arc<SrpcDirectory>,
        service: &str,
        iface: &Interface,
        deadline: SimTime,
    ) -> Result<SrpcClient, SrpcError> {
        SrpcClient::bind_until(vmmc, ctx, directory, service, iface, Some(deadline))
    }

    fn bind_until(
        vmmc: Vmmc,
        ctx: &Ctx,
        directory: &Arc<SrpcDirectory>,
        service: &str,
        iface: &Interface,
        deadline: Option<SimTime>,
    ) -> Result<SrpcClient, SrpcError> {
        let plan = InterfacePlan::new(iface);
        let start = ctx.now();
        let (buf, my_name) = alloc_region(&vmmc, ctx, &plan)?;
        let reply = directory.request(&vmmc, ctx, service.to_string(), my_name, ());
        let answer = match deadline {
            None => Some(reply.recv(ctx)),
            Some(d) => reply.recv_deadline(ctx, d),
        };
        let Some((peer_node, peer_region)) = answer else {
            return Err(SrpcError::Vmmc(VmmcError::Timeout {
                op: "srpc_bind",
                waited: ctx.now().since(start),
            }));
        };
        let side = establish(&vmmc, ctx, &plan, peer_node, peer_region, buf)?;
        Ok(SrpcClient {
            vmmc,
            plan,
            side,
            seq: 1,
        })
    }

    /// The VMMC endpoint.
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// The computed marshaling plan (inspectable for tests and docs).
    pub fn plan(&self) -> &InterfacePlan {
        &self.plan
    }

    /// Call `proc_name` with the IN/INOUT arguments in declaration
    /// order; returns the OUT/INOUT results in declaration order.
    ///
    /// # Errors
    ///
    /// Argument-validation and transport errors.
    pub fn call(
        &mut self,
        ctx: &Ctx,
        proc_name: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, SrpcError> {
        self.call_inner(ctx, proc_name, args, None)
    }

    /// Like [`SrpcClient::call`], but give up waiting for the reply
    /// flag at `deadline`. **A timed-out binding is poisoned** — the
    /// server may still answer the abandoned sequence number later, so
    /// the caller must drop this client and re-bind rather than issue
    /// further calls on it.
    ///
    /// # Errors
    ///
    /// [`VmmcError::Timeout`] (wrapped) when no reply lands by
    /// `deadline`; otherwise as [`SrpcClient::call`].
    pub fn call_deadline(
        &mut self,
        ctx: &Ctx,
        proc_name: &str,
        args: &[Val],
        deadline: SimTime,
    ) -> Result<Vec<Val>, SrpcError> {
        self.call_inner(ctx, proc_name, args, Some(deadline))
    }

    fn call_inner(
        &mut self,
        ctx: &Ctx,
        proc_name: &str,
        args: &[Val],
        deadline: Option<SimTime>,
    ) -> Result<Vec<Val>, SrpcError> {
        // §5 decomposition boundaries: marshal (argument stores +
        // call-flag store), wait (reply flag propagation), unmarshal.
        let msg = self
            .vmmc
            .obs()
            .map_or(shrimp_obs::MsgId::NONE, |rec| rec.alloc_msg());
        let t0 = ctx.now();
        self.vmmc.proc_().charge_call(ctx);
        let idx = self
            .plan
            .procs
            .iter()
            .position(|p| p.def.name == proc_name)
            .ok_or_else(|| SrpcError::UnknownProc(proc_name.to_string()))?;
        let proc_ = &self.plan.procs[idx];
        if args.len() != proc_.call.len() {
            return Err(SrpcError::ArgCount {
                expected: proc_.call.len(),
                got: args.len(),
            });
        }

        // Marshal: assemble the call area host-side — IN/INOUT values,
        // flag last — and store it as one ascending run ending at the
        // call flag, which the hardware combines into one packet (per
        // `au_combine_limit`), or a bulk body's head and tail, then the
        // flag. An `opaque<N>` sends only its own bytes.
        let mut run = Vec::with_capacity(proc_.call_bytes + 4);
        for (slot, v) in proc_.call.iter().zip(args) {
            v.encode_into(slot.param.ty, &mut run)?;
        }
        let seq = self.seq;
        self.seq += 1;
        run.extend(InterfacePlan::call_flag(seq, idx).to_le_bytes());
        let flag_offset = self.plan.call_flag_offset;
        self.side
            .store_run(&self.vmmc, ctx, None, &[], flag_offset, &run)?;

        let t1 = ctx.now();

        // Wait for the reply flag (the server's final store into the
        // reply area, propagated back into this buffer). It is a round
        // trip away, so most polls miss: watch them.
        let flag_va = self.side.buf.add(self.plan.reply_flag_offset);
        let want = InterfacePlan::reply_flag(seq);
        self.vmmc
            .wait_u32_watched(ctx, flag_va, 1024, deadline, move |v| v == want)?;
        let t2 = ctx.now();

        // Unmarshal the OUT/INOUT results out of the reply area.
        let mut outs = Vec::with_capacity(proc_.reply.len());
        let flag_offset = self.plan.reply_flag_offset;
        let p = self.vmmc.proc_();
        load_area(ctx, p, self.side.buf, &proc_.reply, flag_offset, &mut outs)?;
        for (name, start, end) in [
            ("marshal", t0, t1),
            ("wait_reply", t1, t2),
            ("unmarshal", t2, ctx.now()),
        ] {
            self.vmmc.user_span(msg, name, start, end, 0);
        }
        Ok(outs)
    }

    /// Close the binding (the server's serve loop returns).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn close(&mut self, ctx: &Ctx) -> Result<(), SrpcError> {
        let seq = self.seq;
        self.vmmc.proc_().write_u32(
            ctx,
            self.side.buf.add(self.plan.call_flag_offset),
            (seq << 8) | CLOSE_MARK,
        )?;
        Ok(())
    }
}

/// Writes OUT/INOUT results from inside a procedure. A `set` is stored
/// as soon as its offset is known. In a reply area of fixed types that
/// is at once, so the value propagates to the client through automatic
/// update, overlapping the rest of the procedure's computation. In an
/// area holding an `opaque<N>` no offset is known until the procedure
/// returns, so every value waits and the whole reply is stored then.
/// A bulk value's tail is still in flight when its `set` returns; the
/// reply flag waits for it.
pub struct OutWriter<'a> {
    vmmc: &'a Vmmc,
    side: &'a Side,
    slots: &'a [ParamSlot],
    /// Each slot's encoded value, once set.
    set: &'a mut [Option<Vec<u8>>],
    /// Where and when this reply's previous store ended.
    run: Option<StoreEnd>,
    /// The deliberate updates of the bulk tails stored so far.
    tails: Vec<SendHandle>,
}

impl OutWriter<'_> {
    /// Write the OUT/INOUT parameter named `name`.
    ///
    /// Sets made in declaration order with no virtual time between them
    /// are one ascending store run — the reply flag continues it — and
    /// travel as one packet. Any other order, or computing between sets,
    /// returns the same values in more packets. A reply holding an
    /// `opaque<N>` is one run whatever the order.
    ///
    /// # Errors
    ///
    /// Unknown name, non-out parameter, or type mismatch.
    pub fn set(&mut self, ctx: &Ctx, name: &str, v: &Val) -> Result<(), SrpcError> {
        let i = self
            .slots
            .iter()
            .position(|s| s.param.name == name)
            .ok_or_else(|| SrpcError::UnknownProc(format!("out parameter '{name}'")))?;
        let bytes = v.encode(self.slots[i].param.ty)?;
        if let Some(offset) = self.slots[i].offset {
            self.store(ctx, offset, &bytes)?;
        }
        self.set[i] = Some(bytes);
        Ok(())
    }

    /// The procedure returned: the server stores what is left and then
    /// the flag, as one run ending at `flag_offset` — in a fixed area
    /// just the flag, every set value having propagated already. A reply
    /// slot the procedure left alone gets its default first — the value
    /// received in `ins` for INOUT, zero (or no bytes) for OUT — or the
    /// client would read what an earlier call left there. After a bulk
    /// store, a set's or the run's own, the flag is a store of its own,
    /// made once every tail's send is complete.
    fn finish(
        mut self,
        ctx: &Ctx,
        call: &[ParamSlot],
        ins: &[Val],
        flag_offset: usize,
        flag: u32,
    ) -> Result<(), SrpcError> {
        let slots = self.slots;
        let mut run = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            let bytes = match (self.set[i].take(), slot.offset) {
                (Some(_), Some(_)) => continue,
                (Some(bytes), None) => bytes,
                (None, _) => match call.iter().position(|c| c.param == slot.param) {
                    Some(k) => ins[k].encode(slot.param.ty)?,
                    None if slot.param.ty.is_var() => vec![0; 4],
                    None => vec![0; slot.param.ty.wire_bytes()],
                },
            };
            match slot.offset {
                Some(offset) => self.store(ctx, offset, &bytes)?,
                None => run.extend(bytes),
            }
        }
        run.extend(flag.to_le_bytes());
        self.side
            .store_run(self.vmmc, ctx, self.run, &self.tails, flag_offset, &run)
    }

    /// The store path of a reply's values: continues the run the
    /// previous store left, if `offset` is where it ended and it ended
    /// just now; a bulk value leaves its tail in flight.
    #[inline]
    fn store(&mut self, ctx: &Ctx, offset: usize, bytes: &[u8]) -> Result<(), SrpcError> {
        let (run, tail) = self.side.store(self.vmmc, ctx, self.run, offset, bytes)?;
        self.run = run;
        self.tails.extend(tail);
        Ok(())
    }
}

/// A procedure implementation: receives the IN/INOUT values in
/// declaration order and writes results through the [`OutWriter`].
pub type SrpcHandler = Box<dyn FnMut(&Ctx, &[Val], &mut OutWriter<'_>) + Send>;

/// The server side of a binding.
pub struct SrpcServer {
    vmmc: Vmmc,
    plan: InterfacePlan,
    handlers: Vec<Option<SrpcHandler>>,
}

impl std::fmt::Debug for SrpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrpcServer")
            .field("interface", &self.plan.name)
            .finish_non_exhaustive()
    }
}

/// One accepted client binding.
pub struct SrpcConn {
    side: Side,
    seq: u32,
}

impl std::fmt::Debug for SrpcConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrpcConn").finish_non_exhaustive()
    }
}

impl SrpcServer {
    /// Create a server for the interface.
    pub fn new(vmmc: Vmmc, iface: &Interface) -> SrpcServer {
        let plan = InterfacePlan::new(iface);
        let handlers = (0..plan.procs.len()).map(|_| None).collect();
        SrpcServer {
            vmmc,
            plan,
            handlers,
        }
    }

    /// Install the handler for a procedure.
    ///
    /// # Panics
    ///
    /// Panics if the procedure is not in the interface.
    pub fn register(&mut self, proc_name: &str, handler: SrpcHandler) {
        let idx = self
            .plan
            .procs
            .iter()
            .position(|p| p.def.name == proc_name)
            .unwrap_or_else(|| panic!("no procedure '{proc_name}' in {}", self.plan.name));
        self.handlers[idx] = Some(handler);
    }

    /// The VMMC endpoint.
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// Accept one client binding through the directory.
    ///
    /// # Errors
    ///
    /// Propagates mapping failures.
    pub fn accept(
        &mut self,
        ctx: &Ctx,
        directory: &Arc<SrpcDirectory>,
        service: &str,
    ) -> Result<SrpcConn, SrpcError> {
        let req = directory.listen(service.to_string()).recv(ctx);
        let (buf, my_name) = alloc_region(&self.vmmc, ctx, &self.plan)?;
        req.reply
            .send(&ctx.handle(), (self.vmmc.node_id(), my_name));
        let side = establish(
            &self.vmmc,
            ctx,
            &self.plan,
            req.client_node,
            req.client_region,
            buf,
        )?;
        Ok(SrpcConn { side, seq: 1 })
    }

    /// Serve calls until the client closes the binding; returns the
    /// number of calls served.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, and ends the connection with
    /// [`SrpcError::BadCallFlag`] or [`SrpcError::BadLength`] when the
    /// client stores a call no stub of this interface writes.
    ///
    /// # Panics
    ///
    /// Panics if a call arrives for a procedure with no handler (a
    /// deployment bug, as in the original stubs).
    pub fn serve(&mut self, ctx: &Ctx, conn: &mut SrpcConn) -> Result<u64, SrpcError> {
        self.serve_fenced(ctx, conn, || false)
    }

    /// Like [`SrpcServer::serve`], but consult `fence` after each
    /// request arrives and again after its handler runs: when the fence
    /// reports `true` the loop returns **without writing the reply
    /// flag**, abandoning the connection. This is how a serving layer
    /// models process death on a crashed node — a fenced server must
    /// neither acknowledge in-flight requests nor accept new ones, so
    /// the client's bounded wait times out and it re-routes.
    ///
    /// # Errors
    ///
    /// As [`SrpcServer::serve`].
    ///
    /// # Panics
    ///
    /// As [`SrpcServer::serve`].
    pub fn serve_fenced(
        &mut self,
        ctx: &Ctx,
        conn: &mut SrpcConn,
        mut fence: impl FnMut() -> bool,
    ) -> Result<u64, SrpcError> {
        let mut served = 0u64;
        // Reused across calls, so the frame holds no per-call `Vec`.
        let (mut ins, mut set) = (Vec::new(), Vec::new());
        let call_flag_va = conn.side.buf.add(self.plan.call_flag_offset);
        loop {
            let seq = conn.seq;
            // An idle server's polls miss by design: watch them.
            let v = self
                .vmmc
                .wait_u32_watched(ctx, call_flag_va, 1024, None, move |v| {
                    (v >> 8) == seq && (v & 0xFF) != 0
                })?;
            if fence() || v & 0xFF == CLOSE_MARK {
                return Ok(served);
            }
            // The flag is the client's store: a procedure number past the
            // interface ends the connection, it must not index the plan.
            let idx = match InterfacePlan::decode_call_flag(v) {
                Some((_, idx)) if idx < self.plan.procs.len() => idx,
                _ => return Err(SrpcError::BadCallFlag(v)),
            };
            let dispatch_t0 = ctx.now();
            let p = self.vmmc.proc_();
            p.charge_bookkeeping(ctx); // dispatch lookup
            let proc_ = &self.plan.procs[idx];

            // Gather the IN/INOUT values out of the call area (INOUTs
            // are handed by reference in spirit — the handler's writes
            // go straight into the reply area).
            ins.clear();
            let flag_offset = self.plan.call_flag_offset;
            load_area(ctx, p, conn.side.buf, &proc_.call, flag_offset, &mut ins)?;
            set.clear();
            set.resize(proc_.reply.len(), None);
            let mut writer = OutWriter {
                vmmc: &self.vmmc,
                side: &conn.side,
                slots: &proc_.reply,
                set: &mut set,
                run: None,
                tails: Vec::new(),
            };
            let handler = self.handlers[idx]
                .as_mut()
                .unwrap_or_else(|| panic!("no handler for procedure '{}'", proc_.def.name));
            handler(ctx, &ins, &mut writer);

            // A fence tripping mid-request (the node died while the
            // handler ran) abandons the connection unacknowledged.
            if fence() {
                return Ok(served);
            }
            let flag = InterfacePlan::reply_flag(seq);
            writer.finish(ctx, &proc_.call, &ins, self.plan.reply_flag_offset, flag)?;
            self.vmmc.user_span(
                shrimp_obs::MsgId::NONE,
                "dispatch",
                dispatch_t0,
                ctx.now(),
                0,
            );
            conn.seq += 1;
            served += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::parse_interface;
    use parking_lot::Mutex;
    use shrimp_core::{ShrimpSystem, SystemConfig};
    use shrimp_sim::Kernel;

    const KV: &str = "interface Kv {
        put(in key: opaque<8>, out ok: bool);
        get(in key: opaque<8>, out val: opaque<16>);
        del(in key: opaque<8>);
    }";

    /// Serve `KV` on node 1 with echoing handlers; on node 0, bind a
    /// client and let `client` drive it. Returns what `serve` returned.
    fn serve_one(
        client: impl FnOnce(&Ctx, &mut SrpcClient) + Send + 'static,
    ) -> Result<u64, SrpcError> {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let (dir, iface) = (SrpcDirectory::new(), parse_interface(KV).unwrap());
        let served = Arc::new(Mutex::new(None));
        {
            let (vmmc, dir, iface) = (
                system.endpoint(1, "server"),
                Arc::clone(&dir),
                iface.clone(),
            );
            let served = Arc::clone(&served);
            kernel.spawn("server", move |ctx| {
                let mut server = SrpcServer::new(vmmc, &iface);
                server.register(
                    "put",
                    Box::new(|ctx, _, out| out.set(ctx, "ok", &Val::Bool(true)).unwrap()),
                );
                server.register(
                    "get",
                    Box::new(|ctx, ins, out| out.set(ctx, "val", &ins[0]).unwrap()),
                );
                server.register("del", Box::new(|_, _, _| {}));
                let mut conn = server.accept(ctx, &dir, "kv").unwrap();
                *served.lock() = Some(server.serve(ctx, &mut conn));
            });
        }
        let vmmc = system.endpoint(0, "client");
        kernel.spawn("client", move |ctx| {
            let mut c = SrpcClient::bind(vmmc, ctx, &dir, "kv", &iface).unwrap();
            client(ctx, &mut c);
        });
        kernel.run_until_quiescent().unwrap();
        let r = served.lock().take().expect("the server returned");
        r
    }

    #[test]
    fn a_call_flag_naming_no_procedure_ends_the_connection_with_an_error() {
        let r = serve_one(|ctx, c| {
            let key = Val::Bytes(b"k".to_vec());
            assert_eq!(
                c.call(ctx, "get", std::slice::from_ref(&key)).unwrap(),
                vec![key]
            );
            // Procedure 9 of three, under the next sequence number.
            let flag = InterfacePlan::call_flag(c.seq, 9);
            let at = c.side.buf.add(c.plan.call_flag_offset);
            c.vmmc.proc_().write_u32(ctx, at, flag).unwrap();
        });
        assert_eq!(r, Err(SrpcError::BadCallFlag((2 << 8) | 10)));
    }

    #[test]
    fn a_length_word_past_its_bound_is_a_typed_error_not_a_panic() {
        let r = serve_one(|ctx, c| {
            // A key longer than `opaque<8>` never leaves the client.
            let long = Val::Bytes(vec![1; 9]);
            let refused = c.call(ctx, "del", &[long]);
            assert_eq!(
                refused,
                Err(SrpcError::TypeMismatch {
                    expected: Ty::VarOpaque(8)
                })
            );
            // A peer that writes the run by hand can claim any length.
            let mut run = 9u32.to_le_bytes().to_vec();
            run.extend(InterfacePlan::call_flag(c.seq, 2).to_le_bytes());
            let at = c.side.buf.add(c.plan.call_flag_offset - 4);
            c.vmmc.proc_().write(ctx, at, &run).unwrap();
        });
        assert_eq!(r, Err(SrpcError::BadLength { max: 8, got: 9 }));
    }

    #[test]
    fn an_unset_var_out_reads_no_bytes_and_every_length_round_trips() {
        let r = serve_one(|ctx, c| {
            for len in 0..=8u8 {
                let key = Val::Bytes((0..len).collect());
                assert_eq!(
                    c.call(ctx, "get", std::slice::from_ref(&key)).unwrap(),
                    vec![key]
                );
            }
            assert_eq!(c.call(ctx, "del", &[Val::Bytes(vec![])]).unwrap(), vec![]);
            c.close(ctx).unwrap();
        });
        assert_eq!(r, Ok(10));
    }
}
