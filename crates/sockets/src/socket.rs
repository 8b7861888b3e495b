//! The stream socket: connection establishment, send, receive, close.
//!
//! Internals follow paper §4.3: for each socket two structures group
//! data by who has write access — *incoming* (written by the remote
//! process: a circular buffer plus control words) and *outgoing* (the
//! mirror of the peer's incoming structure). Data moves by deliberate or
//! automatic update according to the [`SocketVariant`]; control
//! information always by automatic update. A zero-copy protocol is
//! impossible: it would require exporting a page of the receiver's user
//! memory to a sender the receiver does not necessarily trust.

use std::sync::Arc;

use shrimp_core::{BufferName, ExportOpts, ImportHandle, Vmmc, VmmcError};
use shrimp_node::{CacheMode, EthAddr, Ethernet, MemFault, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, RetryPolicy, SimDur};

use crate::wire::{ctrl, SetupFrame, SocketVariant, REGION_BYTES, RING_BYTES};

/// Socket-library errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketError {
    /// The peer shut down and all buffered data has been consumed;
    /// `send` on a closed socket also reports this.
    Closed,
    /// Malformed connection-setup exchange.
    BadHandshake,
    /// A bounded control-plane wait (connection handshake) elapsed.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Total time the retry policy was prepared to wait.
        waited: SimDur,
    },
    /// Transport failure.
    Vmmc(VmmcError),
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Closed => write!(f, "socket closed by peer"),
            SocketError::BadHandshake => write!(f, "malformed connection handshake"),
            SocketError::Timeout { op, waited } => write!(f, "{op} timed out after {waited}"),
            SocketError::Vmmc(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for SocketError {}

impl From<VmmcError> for SocketError {
    fn from(e: VmmcError) -> Self {
        SocketError::Vmmc(e)
    }
}

impl From<MemFault> for SocketError {
    fn from(e: MemFault) -> Self {
        SocketError::Vmmc(VmmcError::Fault(e))
    }
}

/// Per-call software overhead of the socket library beyond the memory
/// and transfer operations: procedure calls, error checking, and socket
/// data-structure access. Calibrated so small-message latency sits
/// ~13 µs above the hardware limit, split roughly equally between sender
/// and receiver (paper §4.3).
fn sock_overhead() -> SimDur {
    SimDur::from_us(5.9)
}

/// A connected, bidirectional stream socket.
pub struct ShrimpSocket {
    vmmc: Arc<Vmmc>,
    variant: SocketVariant,
    /// My exported region: the peer deposits data and control here.
    local: VAddr,
    /// AU mirror of the peer's region (my outgoing direction; also
    /// carries my control-word writes).
    mirror: VAddr,
    /// Shadow of every byte I have deposited in the peer's ring, used by
    /// the deliberate-update paths to word-align transfers.
    shadow: VAddr,
    /// Receive-side scratch the incoming copy lands in.
    scratch: VAddr,
    peer: ImportHandle,
    sent: u64,
    consumed: u64,
    sent_fin: bool,
}

impl std::fmt::Debug for ShrimpSocket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShrimpSocket")
            .field("variant", &self.variant)
            .finish_non_exhaustive()
    }
}

/// A passive (listening) socket bound to an Ethernet port.
pub struct Listener {
    vmmc: Arc<Vmmc>,
    eth: Arc<Ethernet>,
    port: u16,
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Listener")
            .field("port", &self.port)
            .finish_non_exhaustive()
    }
}

/// Bind a listening socket on this endpoint's node at `port`.
pub fn listen(vmmc: Vmmc, eth: Arc<Ethernet>, port: u16) -> Listener {
    let addr = EthAddr {
        node: vmmc.node_id(),
        port,
    };
    eth.bind(addr);
    Listener {
        vmmc: Arc::new(vmmc),
        eth,
        port,
    }
}

impl Listener {
    /// Accept one connection: completes the Ethernet handshake, exports
    /// this side's region, imports the client's, and wires the automatic
    /// update bindings.
    ///
    /// # Errors
    ///
    /// [`SocketError::BadHandshake`] on a malformed frame; transport
    /// errors otherwise.
    pub fn accept(&self, ctx: &Ctx) -> Result<ShrimpSocket, SocketError> {
        let me = EthAddr {
            node: self.vmmc.node_id(),
            port: self.port,
        };
        loop {
            let frame = self.eth.recv(ctx, me);
            let Some(SetupFrame::Connect {
                node,
                region,
                variant,
                reply_port,
            }) = SetupFrame::decode(&frame.data)
            else {
                // Stray traffic on the port: ignore, keep listening.
                continue;
            };
            let (local, my_name) = export_region(&self.vmmc, ctx)?;
            let reply = SetupFrame::Accept {
                node: self.vmmc.node_id(),
                region: my_name.0,
            };
            self.eth.send(
                self.vmmc.node_id(),
                EthAddr {
                    node,
                    port: reply_port,
                },
                reply.encode(),
            );
            let peer = self.vmmc.import(ctx, node, BufferName(region))?;
            return ShrimpSocket::assemble(Arc::clone(&self.vmmc), ctx, variant, local, peer);
        }
    }
}

/// Connect to a listening socket at `(server, port)` with the given
/// data-transfer variant. Uses the bootstrap retry policy: the connect
/// frame is re-sent with exponential backoff until the server answers.
///
/// # Errors
///
/// [`SocketError::BadHandshake`] on a malformed accept frame;
/// [`SocketError::Timeout`] if the server never answers within the
/// policy's budget; transport errors otherwise.
pub fn connect(
    vmmc: Vmmc,
    ctx: &Ctx,
    eth: &Arc<Ethernet>,
    server: shrimp_mesh::NodeId,
    port: u16,
    variant: SocketVariant,
) -> Result<ShrimpSocket, SocketError> {
    connect_with(
        vmmc,
        ctx,
        eth,
        server,
        port,
        variant,
        RetryPolicy::bootstrap(),
    )
}

/// [`connect`] with an explicit retry policy for the handshake and the
/// mapping import (chaos tests shrink the policy to observe timeouts).
///
/// # Errors
///
/// As for [`connect`].
pub fn connect_with(
    vmmc: Vmmc,
    ctx: &Ctx,
    eth: &Arc<Ethernet>,
    server: shrimp_mesh::NodeId,
    port: u16,
    variant: SocketVariant,
    policy: RetryPolicy,
) -> Result<ShrimpSocket, SocketError> {
    let vmmc = Arc::new(vmmc);
    let (local, my_name) = export_region(&vmmc, ctx)?;
    // An ephemeral port for the accept reply, derived from the exported
    // buffer name (unique per node).
    let reply_port = 40_000u16.wrapping_add(my_name.0 as u16);
    let me = EthAddr {
        node: vmmc.node_id(),
        port: reply_port,
    };
    eth.bind(me);
    let frame = SetupFrame::Connect {
        node: vmmc.node_id(),
        region: my_name.0,
        variant,
        reply_port,
    };
    let mut reply = None;
    for attempt in 0..policy.attempts {
        eth.send(
            vmmc.node_id(),
            EthAddr { node: server, port },
            frame.encode(),
        );
        let deadline = ctx.now() + policy.timeout(attempt);
        if let Some(f) = eth.recv_deadline(ctx, me, deadline) {
            reply = Some(f);
            break;
        }
    }
    let Some(reply) = reply else {
        return Err(SocketError::Timeout {
            op: "connect",
            waited: policy.total_budget(),
        });
    };
    let Some(SetupFrame::Accept { node, region }) = SetupFrame::decode(&reply.data) else {
        return Err(SocketError::BadHandshake);
    };
    let peer = vmmc.import_retry(ctx, node, BufferName(region), policy)?;
    ShrimpSocket::assemble(vmmc, ctx, variant, local, peer)
}

fn export_region(vmmc: &Vmmc, ctx: &Ctx) -> Result<(VAddr, BufferName), SocketError> {
    let va = vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack);
    let name = vmmc.export(ctx, va, REGION_BYTES, ExportOpts::default())?;
    Ok((va, name))
}

impl ShrimpSocket {
    fn assemble(
        vmmc: Arc<Vmmc>,
        ctx: &Ctx,
        variant: SocketVariant,
        local: VAddr,
        peer: ImportHandle,
    ) -> Result<ShrimpSocket, SocketError> {
        let mirror = vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack);
        vmmc.bind_au(ctx, mirror, &peer, 0, REGION_BYTES / PAGE_SIZE, true, false)?;
        let shadow = vmmc.proc_().alloc(RING_BYTES, CacheMode::WriteBack);
        let scratch = vmmc.proc_().alloc(RING_BYTES, CacheMode::WriteBack);
        Ok(ShrimpSocket {
            vmmc,
            variant,
            local,
            mirror,
            shadow,
            scratch,
            peer,
            sent: 0,
            consumed: 0,
            sent_fin: false,
        })
    }

    /// The negotiated data-transfer variant.
    pub fn variant(&self) -> SocketVariant {
        self.variant
    }

    /// The VMMC endpoint.
    pub fn vmmc(&self) -> &Arc<Vmmc> {
        &self.vmmc
    }

    /// Read one control word from the local (peer-written) region.
    ///
    /// # Errors
    ///
    /// Propagates a fault on the local mapping (a protocol-path error:
    /// callers surface it as [`SocketError::Vmmc`] instead of
    /// panicking).
    fn ctrl_word(&self, off: usize) -> Result<u32, SocketError> {
        let b = self.vmmc.proc_().peek(self.local.add(off), 4)?;
        Ok(u32::from_le_bytes(
            b.try_into().expect("peek returned 4 bytes"),
        ))
    }

    /// Send the whole of `data`, blocking on flow control as needed.
    /// Returns the byte count (always `data.len()` on success, matching
    /// a `write` loop).
    ///
    /// # Errors
    ///
    /// [`SocketError::Closed`] after [`ShrimpSocket::close`].
    pub fn send(&mut self, ctx: &Ctx, data: &[u8]) -> Result<usize, SocketError> {
        let obs_t0 = ctx.now();
        ctx.advance(sock_overhead());
        if self.sent_fin {
            return Err(SocketError::Closed);
        }
        let p = self.vmmc.proc_().clone();
        let mut off = 0usize;
        while off < data.len() {
            // Flow control.
            let sent32 = self.sent as u32;
            let ack = self.ctrl_word(ctrl::ACK)?;
            let space = RING_BYTES - sent32.wrapping_sub(ack) as usize;
            if space == 0 {
                let needed = sent32.wrapping_add(1).wrapping_sub(RING_BYTES as u32);
                self.vmmc
                    .wait_u32(ctx, self.local.add(ctrl::ACK), 256, move |v| {
                        v.wrapping_sub(needed) as i32 >= 0
                    })?;
                continue;
            }
            let pos = (self.sent % RING_BYTES as u64) as usize;
            let n = (data.len() - off).min(space).min(RING_BYTES - pos);
            self.deposit(ctx, &p, pos, &data[off..off + n])?;
            self.sent += n as u64;
            off += n;
            // Control information (the written count) after the data.
            p.write_u32(ctx, self.mirror.add(ctrl::WRITTEN), self.sent as u32)?;
        }
        self.vmmc.user_span(
            shrimp_obs::MsgId::NONE,
            "sock_send",
            obs_t0,
            ctx.now(),
            data.len(),
        );
        Ok(data.len())
    }

    /// Put `chunk` into the peer's ring at `pos` using the configured
    /// variant.
    fn deposit(
        &mut self,
        ctx: &Ctx,
        p: &shrimp_node::UserProc,
        pos: usize,
        chunk: &[u8],
    ) -> Result<(), SocketError> {
        let ring_off = PAGE_SIZE + pos;
        match self.variant {
            SocketVariant::Au2Copy => {
                // The sender-side copy into the AU region is the send.
                p.poke(self.scratch, chunk)?; // stage the user bytes
                p.copy(ctx, self.scratch, self.mirror.add(ring_off), chunk.len())?;
            }
            SocketVariant::Du2Copy | SocketVariant::Du1Copy => {
                let start = pos & !3;
                let end = (pos + chunk.len()).div_ceil(4) * 4;
                if self.variant == SocketVariant::Du2Copy {
                    // Two-copy: a charged copy of the user bytes into
                    // the staging shadow (which also resolves any
                    // alignment raggedness), then one deliberate update
                    // of the enclosing word range.
                    p.poke(self.scratch, chunk)?; // the user's bytes
                    p.copy(ctx, self.scratch, self.shadow.add(pos), chunk.len())?;
                } else {
                    // One-copy: data goes straight from user memory (the
                    // shadow stands in for the user buffer — identical
                    // bytes, no copy charged). Word-ragged edges reuse
                    // previously-deposited shadow bytes, the library's
                    // alignment fallback of §4.3.
                    p.poke(self.shadow.add(pos), chunk)?;
                }
                self.vmmc.send(
                    ctx,
                    self.shadow.add(start),
                    &self.peer,
                    PAGE_SIZE + start,
                    end - start,
                )?;
            }
        }
        Ok(())
    }

    /// Receive up to `maxlen` bytes, blocking until at least one byte is
    /// available. Returns an empty vector at end of stream.
    ///
    /// # Errors
    ///
    /// Propagates transport faults.
    pub fn recv(&mut self, ctx: &Ctx, maxlen: usize) -> Result<Vec<u8>, SocketError> {
        if maxlen == 0 {
            return Ok(Vec::new());
        }
        let obs_t0 = ctx.now();
        let p = self.vmmc.proc_().clone();
        // Wait for data or FIN.
        let consumed32 = self.consumed as u32;
        loop {
            let written = self.ctrl_word(ctrl::WRITTEN)?;
            if written.wrapping_sub(consumed32) > 0 {
                break;
            }
            if self.ctrl_word(ctrl::FIN)? != 0 {
                return Ok(Vec::new()); // clean EOF
            }
            let c2 = consumed32;
            let me = &*self;
            self.vmmc.wait_activity(ctx, || {
                // On a fault, skip the sleep; the loop's next ctrl_word
                // surfaces the error.
                me.ctrl_word(ctrl::WRITTEN)
                    .map(|w| w.wrapping_sub(c2) > 0)
                    .unwrap_or(true)
                    || me.ctrl_word(ctrl::FIN).map(|v| v != 0).unwrap_or(true)
            });
        }
        // Receive-side processing: error checks and socket data-structure
        // access, charged once data is present (it is on the critical
        // path of every message).
        ctx.advance(sock_overhead());
        let written = self.ctrl_word(ctrl::WRITTEN)?;
        let avail = written.wrapping_sub(consumed32) as usize;
        let pos = (self.consumed % RING_BYTES as u64) as usize;
        let n = avail.min(maxlen).min(RING_BYTES - pos);
        // The receiver-side copy out of the circular buffer.
        p.copy(ctx, self.local.add(PAGE_SIZE + pos), self.scratch, n)?;
        let out = p.peek(self.scratch, n)?;
        self.consumed += n as u64;
        // Return buffer space to the sender (control via AU).
        p.write_u32(ctx, self.mirror.add(ctrl::ACK), self.consumed as u32)?;
        self.vmmc
            .user_span(shrimp_obs::MsgId::NONE, "sock_recv", obs_t0, ctx.now(), n);
        Ok(out)
    }

    /// Receive exactly `len` bytes (helper for record-oriented callers).
    ///
    /// # Errors
    ///
    /// [`SocketError::Closed`] if the stream ends first.
    pub fn recv_exact(&mut self, ctx: &Ctx, len: usize) -> Result<Vec<u8>, SocketError> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let got = self.recv(ctx, len - out.len())?;
            if got.is_empty() {
                return Err(SocketError::Closed);
            }
            out.extend(got);
        }
        Ok(out)
    }

    /// Shut down the sending side: the peer's `recv` returns end of
    /// stream once it has drained the ring. Receiving is still possible.
    ///
    /// # Errors
    ///
    /// Propagates transport faults.
    pub fn close(&mut self, ctx: &Ctx) -> Result<(), SocketError> {
        if !self.sent_fin {
            self.vmmc
                .proc_()
                .write_u32(ctx, self.mirror.add(ctrl::FIN), 1)?;
            self.sent_fin = true;
        }
        Ok(())
    }
}
