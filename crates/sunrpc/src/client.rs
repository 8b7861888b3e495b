//! The VRPC client: `clnt_call` over the SBL stream.

use std::sync::Arc;

use shrimp_core::{Vmmc, VmmcError};
use shrimp_sim::{Ctx, RetryPolicy, SimChannel, SimDur};

use crate::connect::{ConnectRequest, RpcDirectory};
use crate::msg::{AcceptStat, CallHeader, ReplyHeader};
use crate::stream::{SblStream, StreamVariant};
use crate::xdr::{XdrDecoder, XdrEncoder, XdrError};

/// Software costs of the compatible SunRPC path, calibrated to the
/// paper's §4.2 budget for a null call: about 7 µs preparing the header
/// and making the call, 5–6 µs processing the header at the server, and
/// 1–2 µs returning from the call. The stream-transfer time itself comes
/// from the simulated hardware.
pub mod costs {
    use shrimp_sim::SimDur;

    /// Client-side: argument setup, header marshaling, dispatch into the
    /// transport (part of the paper's ~7 µs; the rest is the header's
    /// marshaling stores, charged by the stream).
    pub fn client_prep() -> SimDur {
        SimDur::from_us(2.8)
    }

    /// Server-side: header parse, credential checks, dispatch table
    /// lookup (the paper's 5–6 µs).
    pub fn server_dispatch() -> SimDur {
        SimDur::from_us(3.3)
    }

    /// Client-side: reply validation and return (the paper's 1–2 µs).
    pub fn client_return() -> SimDur {
        SimDur::from_us(0.8)
    }

    /// Per-byte cost of the generic XDR decode path — per-element
    /// function-pointer dispatch, bounds checks, and representation
    /// conversion. This is compatibility baggage the specialized RPC
    /// does not pay, and a large part of why the gap between the two
    /// systems stays near a factor of two even for big arguments
    /// (Figure 8).
    pub fn xdr_decode(bytes: usize) -> SimDur {
        SimDur::from_ns(25.0 * bytes as f64)
    }
}

/// VRPC errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The server rejected or failed the call.
    Rejected(AcceptStat),
    /// Serialization failure.
    Xdr(XdrError),
    /// Transport failure.
    Vmmc(VmmcError),
    /// The reply's transaction id did not match (protocol bug).
    BadXid {
        /// Expected transaction id.
        want: u32,
        /// Received transaction id.
        got: u32,
    },
    /// A bounded control-plane wait (binding, connection setup) gave up.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Total virtual time spent waiting across every retry.
        waited: SimDur,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Rejected(s) => write!(f, "call rejected: {s:?}"),
            RpcError::Xdr(e) => write!(f, "xdr: {e}"),
            RpcError::Vmmc(e) => write!(f, "transport: {e}"),
            RpcError::BadXid { want, got } => {
                write!(f, "reply xid {got} does not match call {want}")
            }
            RpcError::Timeout { op, waited } => write!(f, "{op} timed out after {waited}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<XdrError> for RpcError {
    fn from(e: XdrError) -> Self {
        RpcError::Xdr(e)
    }
}

impl From<VmmcError> for RpcError {
    fn from(e: VmmcError) -> Self {
        RpcError::Vmmc(e)
    }
}

/// A bound VRPC client (the `CLIENT` handle of the SunRPC API).
pub struct VrpcClient {
    vmmc: Vmmc,
    stream: SblStream,
    prog: u32,
    vers: u32,
    next_xid: u32,
    in_place: bool,
}

impl std::fmt::Debug for VrpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VrpcClient")
            .field("prog", &self.prog)
            .field("vers", &self.vers)
            .finish()
    }
}

impl VrpcClient {
    /// Bind to `prog`/`vers` (the `clnt_create` step): exchanges region
    /// names with the server through the directory, establishes the
    /// mapping pair, and assembles the stream. Waits are bounded by
    /// [`RetryPolicy::bootstrap`]; use [`VrpcClient::bind_with`] to tune.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] when no server answers within the policy's
    /// budget; mapping-establishment failures otherwise.
    pub fn bind(
        vmmc: Vmmc,
        ctx: &Ctx,
        directory: &Arc<RpcDirectory>,
        prog: u32,
        vers: u32,
        variant: StreamVariant,
    ) -> Result<VrpcClient, RpcError> {
        Self::bind_with(
            vmmc,
            ctx,
            directory,
            prog,
            vers,
            variant,
            RetryPolicy::bootstrap(),
        )
    }

    /// [`VrpcClient::bind`] with an explicit retry policy bounding the
    /// wait for the server's answer and the import of its region.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] when the server never answers within the
    /// policy's budget; mapping-establishment failures otherwise.
    pub fn bind_with(
        vmmc: Vmmc,
        ctx: &Ctx,
        directory: &Arc<RpcDirectory>,
        prog: u32,
        vers: u32,
        variant: StreamVariant,
        policy: RetryPolicy,
    ) -> Result<VrpcClient, RpcError> {
        let local = SblStream::export(&vmmc, ctx)?;
        let reply: SimChannel<(shrimp_mesh::NodeId, shrimp_core::BufferName)> = SimChannel::new();
        directory.lookup(prog).send(
            &ctx.handle(),
            ConnectRequest {
                client_node: vmmc.node_id(),
                client_region: local.name,
                variant,
                reply: reply.clone(),
            },
        );
        // Binding-time latency of the out-of-band exchange.
        ctx.advance(SimDur::from_us(400.0));
        // The request is queued; wait for the server's answer with
        // exponentially growing patience rather than forever.
        let mut answer = None;
        for attempt in 0..policy.attempts {
            if let Some(got) = reply.recv_deadline(ctx, ctx.now() + policy.timeout(attempt)) {
                answer = Some(got);
                break;
            }
        }
        let Some((server_node, server_region)) = answer else {
            return Err(RpcError::Timeout {
                op: "bind",
                waited: policy.total_budget(),
            });
        };
        let peer = vmmc.import_retry(ctx, server_node, server_region, policy)?;
        let stream = SblStream::assemble(&vmmc, ctx, local, peer, variant)?;
        Ok(VrpcClient {
            vmmc,
            stream,
            prog,
            vers,
            next_xid: 1,
            in_place: false,
        })
    }

    /// The VMMC endpoint (for allocating argument buffers in examples).
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// Enable the §4.2 "further optimization": decode replies directly
    /// from the stream's ring, eliminating the receiver-side copy. In the
    /// real system this needed slight stub-generator modifications; here
    /// it is a flag on the runtime.
    pub fn set_in_place_results(&mut self, on: bool) {
        self.in_place = on;
    }

    /// Perform a remote procedure call (the `clnt_call` of the SunRPC
    /// API): encode arguments with `args`, decode results with `res`.
    ///
    /// # Errors
    ///
    /// [`RpcError::Rejected`] when the server cannot dispatch the call;
    /// transport and serialization errors otherwise.
    pub fn call<T>(
        &mut self,
        ctx: &Ctx,
        proc_: u32,
        args: impl FnOnce(&mut XdrEncoder),
        res: impl FnOnce(&mut XdrDecoder<'_>) -> Result<T, XdrError>,
    ) -> Result<T, RpcError> {
        // Fig. 5 budget boundaries: t0..t1 header prep (client CPU up
        // to the last byte handed to the stream), t1..t2 waiting for
        // the reply (transfer + server time), t2..t3 client return.
        let msg = self
            .vmmc
            .obs()
            .map_or(shrimp_obs::MsgId::NONE, |rec| rec.alloc_msg());
        let t0 = ctx.now();
        ctx.advance(costs::client_prep());
        let xid = self.next_xid;
        self.next_xid += 1;
        let mut enc = XdrEncoder::new();
        CallHeader {
            xid,
            prog: self.prog,
            vers: self.vers,
            proc_,
        }
        .encode(&mut enc);
        args(&mut enc);
        let call_bytes = enc.as_bytes().len();
        self.stream.send_record(&self.vmmc, ctx, enc.as_bytes())?;
        let t1 = ctx.now();

        let reply = self.stream.recv_record(&self.vmmc, ctx, self.in_place)?;
        let t2 = ctx.now();
        ctx.advance(costs::xdr_decode(reply.len()));
        ctx.advance(costs::client_return());
        for (name, start, end, bytes) in [
            ("header_prep", t0, t1, call_bytes),
            ("wait_reply", t1, t2, reply.len()),
            ("return", t2, ctx.now(), reply.len()),
        ] {
            self.vmmc.user_span(msg, name, start, end, bytes);
        }
        let mut dec = XdrDecoder::new(&reply);
        let header = ReplyHeader::decode(&mut dec)?;
        if header.xid != xid {
            return Err(RpcError::BadXid {
                want: xid,
                got: header.xid,
            });
        }
        if header.stat != AcceptStat::Success {
            return Err(RpcError::Rejected(header.stat));
        }
        Ok(res(&mut dec)?)
    }

    /// Close the connection: tells the server to stop serving this
    /// client (an empty record is the close marker).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn close(&mut self, ctx: &Ctx) -> Result<(), RpcError> {
        self.stream.send_record(&self.vmmc, ctx, &[])?;
        Ok(())
    }
}
