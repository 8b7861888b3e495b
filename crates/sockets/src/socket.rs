//! The stream socket: connection establishment, send, receive, close.
//!
//! Internals follow paper §4.3: each socket is one [`ByteRing`] pair —
//! *incoming* (written by the remote process: a circular buffer plus
//! control words) and *outgoing* (the mirror of the peer's incoming
//! structure). Data moves by deliberate or automatic update according to
//! the [`SocketVariant`]; control information always by automatic
//! update. The socket adds only the FIN word and byte-stream chunking to
//! the ring. A zero-copy protocol is impossible: it would require
//! exporting a page of the receiver's user memory to a sender the
//! receiver does not necessarily trust.

use std::sync::Arc;

use shrimp_core::{BufferName, ByteRing, ImportHandle, RingExport, RingPath, Vmmc, VmmcError};
use shrimp_node::{EthAddr, Ethernet};
use shrimp_sim::{Ctx, RetryPolicy, SimDur};

use crate::wire::{SetupFrame, SocketVariant, FIN, RING_BYTES};

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
    ring: ByteRing,
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
            let local = ByteRing::export(&self.vmmc, ctx, RING_BYTES)?;
            let reply = SetupFrame::Accept {
                node: self.vmmc.node_id(),
                region: local.name.0,
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
    let policy = RetryPolicy::bootstrap();
    let vmmc = Arc::new(vmmc);
    let local = ByteRing::export(&vmmc, ctx, RING_BYTES)?;
    // An ephemeral port for the accept reply, derived from the exported
    // buffer name (unique per node).
    let reply_port = 40_000u16.wrapping_add(local.name.0 as u16);
    let me = EthAddr {
        node: vmmc.node_id(),
        port: reply_port,
    };
    eth.bind(me);
    let frame = SetupFrame::Connect {
        node: vmmc.node_id(),
        region: local.name.0,
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

impl ShrimpSocket {
    fn assemble(
        vmmc: Arc<Vmmc>,
        ctx: &Ctx,
        variant: SocketVariant,
        local: RingExport,
        peer: ImportHandle,
    ) -> Result<ShrimpSocket, SocketError> {
        let path = match variant {
            SocketVariant::Au2Copy => RingPath::AuCopy,
            SocketVariant::Du2Copy => RingPath::DuCopy,
            SocketVariant::Du1Copy => RingPath::DuDirect,
        };
        let ring = local.join(&vmmc, ctx, peer, path)?;
        Ok(ShrimpSocket {
            vmmc,
            variant,
            ring,
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
        // One chunk per stretch of room before the ring end, each
        // published as it lands.
        let mut off = 0usize;
        while off < data.len() {
            let room = self.ring.wait_room(&self.vmmc, ctx, 1)?;
            let n = (data.len() - off).min(room);
            self.ring.put(&self.vmmc, ctx, &data[off..off + n])?;
            off += n;
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
        // Wait for data or FIN.
        while self.ring.readable(&self.vmmc)? == 0 {
            if self.ring.ctrl_word(&self.vmmc, FIN)? != 0 {
                return Ok(Vec::new()); // clean EOF
            }
            let (ring, vmmc) = (&self.ring, &*self.vmmc);
            vmmc.wait_activity(ctx, || {
                // On a fault, skip the sleep; the loop's next read
                // surfaces the error.
                ring.readable(vmmc).map(|n| n > 0).unwrap_or(true)
                    || ring.ctrl_word(vmmc, FIN).map(|v| v != 0).unwrap_or(true)
            });
        }
        // Receive-side processing: error checks and socket data-structure
        // access, charged once data is present (it is on the critical
        // path of every message).
        ctx.advance(sock_overhead());
        let n = self.ring.readable(&self.vmmc)?.min(maxlen);
        // The receiver-side copy out of the ring, then the buffer space
        // goes back to the sender.
        let out = self.ring.take(&self.vmmc, ctx, 0..n, n, false)?;
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
            self.ring.store_ctrl(&self.vmmc, ctx, FIN, 1)?;
            self.sent_fin = true;
        }
        Ok(())
    }
}
