//! The socket's ring size and FIN word, and the Ethernet
//! connection-setup frames.

use shrimp_mesh::NodeId;

/// Ring capacity per direction. Stream sockets do not guarantee
/// extensive buffering (paper §6), so the ring is moderate.
pub const RING_BYTES: usize = 32 * 1024;

/// Control-page offset of the FIN flag, after the byte ring's own
/// written and ack words: nonzero once the peer has shut down its
/// sending side.
pub(crate) const FIN: usize = 8;

/// How socket data is moved (the variants of paper Figure 7; control
/// information always travels by automatic update).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SocketVariant {
    /// Sender copies into the AU-bound ring (the copy is the send);
    /// receiver copies out: two copies.
    #[default]
    Au2Copy,
    /// Deliberate update directly from user memory when alignment
    /// phases allow, receiver copies out: one copy (falls back to the
    /// two-copy path when dictated by alignment).
    Du1Copy,
    /// Sender copies to a staging ring (handling all alignment), one
    /// deliberate update, receiver copies out: two copies.
    Du2Copy,
}

impl SocketVariant {
    /// Wire encoding for the connect frame.
    pub fn to_u8(self) -> u8 {
        match self {
            SocketVariant::Au2Copy => 0,
            SocketVariant::Du1Copy => 1,
            SocketVariant::Du2Copy => 2,
        }
    }

    /// Decode from the connect frame.
    pub fn from_u8(v: u8) -> Option<SocketVariant> {
        match v {
            0 => Some(SocketVariant::Au2Copy),
            1 => Some(SocketVariant::Du1Copy),
            2 => Some(SocketVariant::Du2Copy),
            _ => None,
        }
    }
}

/// The connection-establishment messages exchanged over the Ethernet
/// (paper §4.3: "a regular internet-domain socket ... to exchange the
/// data required to establish two VMMC mappings").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetupFrame {
    /// Client → listener.
    Connect {
        /// Client's node.
        node: NodeId,
        /// Client's exported region (the server→client direction).
        region: u64,
        /// Requested data-transfer variant.
        variant: SocketVariant,
        /// Ethernet port on the client for the reply.
        reply_port: u16,
    },
    /// Listener → client.
    Accept {
        /// Server's node.
        node: NodeId,
        /// Server's exported region (the client→server direction).
        region: u64,
    },
}

impl SetupFrame {
    /// Serialize for the Ethernet.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            SetupFrame::Connect {
                node,
                region,
                variant,
                reply_port,
            } => {
                let mut b = vec![1u8];
                b.extend((node.0 as u64).to_le_bytes());
                b.extend(region.to_le_bytes());
                b.push(variant.to_u8());
                b.extend(reply_port.to_le_bytes());
                b
            }
            SetupFrame::Accept { node, region } => {
                let mut b = vec![2u8];
                b.extend((node.0 as u64).to_le_bytes());
                b.extend(region.to_le_bytes());
                b
            }
        }
    }

    /// Deserialize; `None` for malformed frames.
    pub fn decode(b: &[u8]) -> Option<SetupFrame> {
        let node = |b: &[u8]| -> Option<NodeId> {
            Some(NodeId(
                u64::from_le_bytes(b.get(1..9)?.try_into().ok()?) as usize
            ))
        };
        let region =
            |b: &[u8]| -> Option<u64> { Some(u64::from_le_bytes(b.get(9..17)?.try_into().ok()?)) };
        match b.first()? {
            1 => Some(SetupFrame::Connect {
                node: node(b)?,
                region: region(b)?,
                variant: SocketVariant::from_u8(*b.get(17)?)?,
                reply_port: u16::from_le_bytes(b.get(18..20)?.try_into().ok()?),
            }),
            2 => Some(SetupFrame::Accept {
                node: node(b)?,
                region: region(b)?,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A setup frame is whatever arrived on the port (the first byte
        /// steered to the tags and one past them). Decoding never panics
        /// and reads only the frame: what decodes re-encodes to a prefix
        /// of the input.
        #[test]
        fn arbitrary_frames_never_panic(
            tag in 0u8..4,
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut b = b;
            b.insert(0, tag);
            if let Some(f) = SetupFrame::decode(&b) {
                let e = f.encode();
                prop_assert!(e.len() <= b.len());
                prop_assert_eq!(&b[..e.len()], &e[..]);
            }
        }

        #[test]
        fn a_frame_round_trips_and_no_prefix_of_it_decodes(
            node in any::<usize>(),
            region in any::<u64>(),
            variant in 0u8..3,
            reply_port in any::<u16>(),
            accept in any::<bool>(),
        ) {
            let node = NodeId(node);
            let f = if accept {
                SetupFrame::Accept { node, region }
            } else {
                let variant = SocketVariant::from_u8(variant).unwrap();
                SetupFrame::Connect { node, region, variant, reply_port }
            };
            let e = f.encode();
            prop_assert_eq!(SetupFrame::decode(&e), Some(f));
            for k in 0..e.len() {
                prop_assert_eq!(SetupFrame::decode(&e[..k]), None);
            }
        }
    }

    #[test]
    fn frames_round_trip() {
        let f = SetupFrame::Connect {
            node: NodeId(3),
            region: 0xDEAD_BEEF,
            variant: SocketVariant::Du1Copy,
            reply_port: 4321,
        };
        assert_eq!(SetupFrame::decode(&f.encode()), Some(f));
        let f = SetupFrame::Accept {
            node: NodeId(1),
            region: 7,
        };
        assert_eq!(SetupFrame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(SetupFrame::decode(&[]), None);
        assert_eq!(SetupFrame::decode(&[9, 0, 0]), None);
        assert_eq!(SetupFrame::decode(&[1, 0]), None);
        let mut f = SetupFrame::Connect {
            node: NodeId(0),
            region: 1,
            variant: SocketVariant::Au2Copy,
            reply_port: 1,
        }
        .encode();
        f[17] = 99; // bad variant
        assert_eq!(SetupFrame::decode(&f), None);
    }

    #[test]
    fn variants_round_trip() {
        for v in [
            SocketVariant::Au2Copy,
            SocketVariant::Du1Copy,
            SocketVariant::Du2Copy,
        ] {
            assert_eq!(SocketVariant::from_u8(v.to_u8()), Some(v));
        }
        assert_eq!(SocketVariant::from_u8(3), None);
    }

    #[test]
    fn the_ring_is_whole_pages() {
        assert_eq!(RING_BYTES % shrimp_node::PAGE_SIZE, 0);
    }
}
