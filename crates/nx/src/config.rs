//! NX library configuration: protocol variants and tunables.

/// How the library moves a small message's bytes to the receiver's
/// packet buffer (the variants of paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendVariant {
    /// Marshal header and data into the automatic-update send region;
    /// the marshaling copy is the send (paper: "sending the data along
    /// with the header directly via automatic update as it marshals").
    #[default]
    AutomaticUpdate,
    /// Copy data into the header marshaling area, then one deliberate
    /// update carrying header + data (Figure 4's "DU ... 2copy").
    DuMarshal,
    /// Two separate deliberate updates: the data straight from user
    /// memory, the header from the marshaling area (Figure 4's
    /// "DU ... 1copy"). Falls back to [`SendVariant::DuMarshal`] when
    /// the user buffer is not word-aligned (§4 "Reducing Copying").
    DuFromUser,
}

/// Tunables of the NX implementation. The defaults reproduce the
/// protocol described in the paper and its companion report; the knobs
/// exist for the ablation benches called out in DESIGN.md §5.
#[derive(Debug, Clone)]
pub struct NxConfig {
    /// Small-message transfer variant.
    pub send_variant: SendVariant,
    /// When true, `crecv` hands data to the application without the
    /// receive-buffer-to-user-memory copy (the benchmark's "-1copy"
    /// accounting: the message is consumed in place).
    pub in_place_receive: bool,
    /// Packet buffers per ordered process pair: 1 to 64, the credit
    /// ring's size ([`NxWorld::new`](crate::NxWorld::new) checks it).
    pub packet_buffers: usize,
    /// Messages strictly larger than this — or than a packet buffer's
    /// payload, [`PKT_PAYLOAD`](crate::PKT_PAYLOAD) — use the zero-copy
    /// scout protocol. Set to 0 to force the zero-copy protocol for
    /// every message (Figure 4's "DU-0copy" curve).
    pub large_threshold: usize,
    /// Whether the sender optimistically copies large-message data to a
    /// local safe buffer while waiting for the receiver's reply (paper
    /// footnote 1). Disabling is an ablation.
    pub optimistic_copy: bool,
    /// Whether receivers may export their user buffers for the zero-copy
    /// protocol. Disabling forces every large transfer through the
    /// chunked one-copy fallback — an ablation of the zero-copy design.
    pub allow_zero_copy: bool,
}

impl NxConfig {
    /// The configuration used by the paper's NX library in its default
    /// (fastest compatible) mode: automatic-update small messages with a
    /// receiver copy, zero-copy large messages.
    pub fn paper_default() -> NxConfig {
        NxConfig {
            send_variant: SendVariant::AutomaticUpdate,
            in_place_receive: false,
            packet_buffers: 16,
            large_threshold: crate::wire::PKT_PAYLOAD,
            optimistic_copy: true,
            allow_zero_copy: true,
        }
    }
}

impl Default for NxConfig {
    fn default() -> Self {
        NxConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol() {
        let c = NxConfig::default();
        assert_eq!(c.send_variant, SendVariant::AutomaticUpdate);
        assert!(!c.in_place_receive);
        assert!(c.optimistic_copy);
        assert_eq!(c.large_threshold, crate::wire::PKT_PAYLOAD);
    }
}
