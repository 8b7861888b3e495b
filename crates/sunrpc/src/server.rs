//! The VRPC server: dispatch loop over the SBL stream.

use std::collections::HashMap;
use std::sync::Arc;

use shrimp_core::Vmmc;
use shrimp_sim::{Ctx, SimTime};

use crate::client::{costs, RpcError};
use crate::connect::RpcDirectory;
use crate::msg::{AcceptStat, CallHeader, ReplyHeader};
use crate::stream::SblStream;
use crate::xdr::{XdrDecoder, XdrEncoder};

/// A procedure implementation: decodes its arguments, encodes its
/// results, and reports the disposition.
pub type ProcHandler =
    Box<dyn FnMut(&Ctx, &mut XdrDecoder<'_>, &mut XdrEncoder) -> AcceptStat + Send>;

/// Drop guard recording the server-side "header processing" span (see
/// [`VrpcServer::serve`]): closes at whatever virtual time the dispatch
/// path reaches its `send_record`.
struct HeaderProcSpan<'a> {
    vmmc: &'a Vmmc,
    ctx: &'a Ctx,
    start: SimTime,
    bytes: usize,
}

impl Drop for HeaderProcSpan<'_> {
    fn drop(&mut self) {
        let end = self.ctx.now();
        self.vmmc.user_span(
            shrimp_obs::MsgId::NONE,
            "header_proc",
            self.start,
            end,
            self.bytes,
        );
    }
}

/// A VRPC server for one program/version.
pub struct VrpcServer {
    vmmc: Vmmc,
    prog: u32,
    vers: u32,
    procs: HashMap<u32, ProcHandler>,
    in_place: bool,
}

impl std::fmt::Debug for VrpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VrpcServer")
            .field("prog", &self.prog)
            .field("vers", &self.vers)
            .field("procs", &self.procs.len())
            .finish()
    }
}

/// An accepted client connection, ready to serve calls.
pub struct ServerConn {
    stream: SblStream,
}

impl std::fmt::Debug for ServerConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConn").finish_non_exhaustive()
    }
}

impl VrpcServer {
    /// Create a server for `prog`/`vers` on the given endpoint.
    pub fn new(vmmc: Vmmc, prog: u32, vers: u32) -> VrpcServer {
        VrpcServer {
            vmmc,
            prog,
            vers,
            procs: HashMap::new(),
            in_place: false,
        }
    }

    /// Register the handler for procedure `proc_` (procedure 0, the null
    /// procedure, is implicit but may be overridden).
    pub fn register(&mut self, proc_: u32, handler: ProcHandler) {
        self.procs.insert(proc_, handler);
    }

    /// The VMMC endpoint.
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// Enable the §4.2 "further optimization": decode call arguments
    /// directly from the ring (no receiver-side copy; the client cannot
    /// overwrite them because the ring space is acknowledged only after
    /// the call is dispatched).
    pub fn set_in_place_args(&mut self, on: bool) {
        self.in_place = on;
    }

    /// Block until one client connects (through the directory), then
    /// establish the mapping pair.
    ///
    /// # Errors
    ///
    /// Propagates mapping-establishment failures.
    pub fn accept(
        &mut self,
        ctx: &Ctx,
        directory: &Arc<RpcDirectory>,
    ) -> Result<ServerConn, RpcError> {
        let req = directory.listen(self.prog).recv(ctx);
        let local = SblStream::export(&self.vmmc, ctx)?;
        let peer = self.vmmc.import(ctx, req.client_node, req.client_region)?;
        req.reply
            .send(&ctx.handle(), (self.vmmc.node_id(), local.name));
        let stream = SblStream::assemble(&self.vmmc, ctx, local, peer, req.variant)?;
        Ok(ServerConn { stream })
    }

    /// Serve calls on a connection until the client closes it (empty
    /// record). Returns the number of calls served.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; malformed calls are answered with
    /// error dispositions, not errors here.
    pub fn serve(&mut self, ctx: &Ctx, conn: &mut ServerConn) -> Result<u64, RpcError> {
        let mut served = 0u64;
        loop {
            let record = conn.stream.recv_record(&self.vmmc, ctx, self.in_place)?;
            if record.is_empty() {
                return Ok(served);
            }
            // Fig. 5 "header processing": server CPU from the record
            // becoming available to the reply being handed to the
            // stream. Recorded via a drop guard because the dispatch
            // below exits through two `send_record` paths.
            let _hdr_span = HeaderProcSpan {
                vmmc: &self.vmmc,
                ctx,
                start: ctx.now(),
                bytes: record.len(),
            };
            ctx.advance(costs::server_dispatch());
            ctx.advance(costs::xdr_decode(record.len()));
            let mut dec = XdrDecoder::new(&record);
            let mut enc = XdrEncoder::new();
            match CallHeader::decode(&mut dec) {
                Err(_) => {
                    // Unparseable header: nothing sensible to echo;
                    // answer with a garbage-args reply on xid 0.
                    ReplyHeader {
                        xid: 0,
                        stat: AcceptStat::GarbageArgs,
                    }
                    .encode(&mut enc);
                }
                Ok(call) => {
                    let stat = if call.prog != self.prog {
                        AcceptStat::ProgUnavail
                    } else if call.vers != self.vers {
                        AcceptStat::ProgMismatch
                    } else {
                        match self.procs.get_mut(&call.proc_) {
                            None if call.proc_ == 0 => AcceptStat::Success, // null procedure
                            None => AcceptStat::ProcUnavail,
                            Some(h) => {
                                // Results are encoded after the header;
                                // build the header first with a
                                // placeholder pass: encode into a side
                                // buffer, then assemble.
                                let mut results = XdrEncoder::new();
                                let stat = h(ctx, &mut dec, &mut results);
                                ReplyHeader {
                                    xid: call.xid,
                                    stat,
                                }
                                .encode(&mut enc);
                                if stat == AcceptStat::Success {
                                    enc.append_encoded(results.as_bytes());
                                }
                                conn.stream.send_record(&self.vmmc, ctx, enc.as_bytes())?;
                                served += 1;
                                continue;
                            }
                        }
                    };
                    ReplyHeader {
                        xid: call.xid,
                        stat,
                    }
                    .encode(&mut enc);
                }
            }
            conn.stream.send_record(&self.vmmc, ctx, enc.as_bytes())?;
            served += 1;
        }
    }
}
