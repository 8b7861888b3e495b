//! SunRPC message headers (RFC 1057).
//!
//! Full compatibility means the whole header goes over the wire for
//! every call — the paper points to exactly this as the reason the
//! compatible RPC cannot match the specialized one (§5, Figure 8): the
//! SunRPC standard "requires a nontrivial header to be sent for every
//! RPC".

use crate::xdr::{XdrDecoder, XdrEncoder, XdrError};

/// `msg_type` discriminants.
pub const MSG_CALL: u32 = 0;
/// Reply discriminant.
pub const MSG_REPLY: u32 = 1;
/// The only RPC protocol version.
pub const RPC_VERS: u32 = 2;

/// An authentication structure (we implement `AUTH_NONE`, as the
/// prototype's experiments did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct OpaqueAuth;

impl OpaqueAuth {
    fn encode(self, e: &mut XdrEncoder) {
        e.put_u32(0); // AUTH_NONE
        e.put_opaque(&[]);
    }

    fn decode(d: &mut XdrDecoder<'_>) -> Result<OpaqueAuth, XdrError> {
        let flavor = d.get_u32()?;
        let body = d.get_opaque()?;
        if flavor != 0 || !body.is_empty() {
            return Err(XdrError::Invalid("auth flavor"));
        }
        Ok(OpaqueAuth)
    }
}

/// A call message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id.
    pub xid: u32,
    /// Remote program number.
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc_: u32,
}

impl CallHeader {
    /// Encode the full RFC 1057 call header (credentials and verifier
    /// included); the procedure arguments follow directly.
    pub fn encode(&self, e: &mut XdrEncoder) {
        e.put_u32(self.xid);
        e.put_u32(MSG_CALL);
        e.put_u32(RPC_VERS);
        e.put_u32(self.prog);
        e.put_u32(self.vers);
        e.put_u32(self.proc_);
        OpaqueAuth.encode(e); // cred
        OpaqueAuth.encode(e); // verf
    }

    /// Decode a call header.
    ///
    /// # Errors
    ///
    /// [`XdrError`] on truncated or malformed headers.
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<CallHeader, XdrError> {
        let xid = d.get_u32()?;
        if d.get_u32()? != MSG_CALL {
            return Err(XdrError::Invalid("msg_type"));
        }
        if d.get_u32()? != RPC_VERS {
            return Err(XdrError::Invalid("rpc version"));
        }
        let prog = d.get_u32()?;
        let vers = d.get_u32()?;
        let proc_ = d.get_u32()?;
        OpaqueAuth::decode(d)?;
        OpaqueAuth::decode(d)?;
        Ok(CallHeader {
            xid,
            prog,
            vers,
            proc_,
        })
    }
}

/// Reply status: how the server disposed of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// The call succeeded; results follow.
    Success,
    /// The program is not exported here.
    ProgUnavail,
    /// The program version is not supported.
    ProgMismatch,
    /// The procedure number is unknown.
    ProcUnavail,
    /// The arguments could not be decoded.
    GarbageArgs,
}

impl AcceptStat {
    fn as_u32(self) -> u32 {
        match self {
            AcceptStat::Success => 0,
            AcceptStat::ProgUnavail => 1,
            AcceptStat::ProgMismatch => 2,
            AcceptStat::ProcUnavail => 3,
            AcceptStat::GarbageArgs => 4,
        }
    }

    fn from_u32(v: u32) -> Result<AcceptStat, XdrError> {
        Ok(match v {
            0 => AcceptStat::Success,
            1 => AcceptStat::ProgUnavail,
            2 => AcceptStat::ProgMismatch,
            3 => AcceptStat::ProcUnavail,
            4 => AcceptStat::GarbageArgs,
            _ => return Err(XdrError::Invalid("accept_stat")),
        })
    }
}

/// A reply message header (accepted replies only; the reliable VMMC
/// transport never produces the `MSG_DENIED` arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyHeader {
    /// Echoed transaction id.
    pub xid: u32,
    /// Disposition.
    pub stat: AcceptStat,
}

impl ReplyHeader {
    /// Encode the reply header; successful results follow directly.
    pub fn encode(&self, e: &mut XdrEncoder) {
        e.put_u32(self.xid);
        e.put_u32(MSG_REPLY);
        e.put_u32(0); // MSG_ACCEPTED
        OpaqueAuth.encode(e); // verf
        e.put_u32(self.stat.as_u32());
    }

    /// Decode a reply header.
    ///
    /// # Errors
    ///
    /// [`XdrError`] on truncated or malformed headers.
    pub fn decode(d: &mut XdrDecoder<'_>) -> Result<ReplyHeader, XdrError> {
        let xid = d.get_u32()?;
        if d.get_u32()? != MSG_REPLY {
            return Err(XdrError::Invalid("msg_type"));
        }
        if d.get_u32()? != 0 {
            return Err(XdrError::Invalid("reply_stat"));
        }
        OpaqueAuth::decode(d)?;
        let stat = AcceptStat::from_u32(d.get_u32()?)?;
        Ok(ReplyHeader { xid, stat })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn call_image(xid: u32, prog: u32, vers: u32, proc_: u32) -> (CallHeader, Vec<u8>) {
        let h = CallHeader {
            xid,
            prog,
            vers,
            proc_,
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        (h, e.into_bytes())
    }

    fn reply_image(xid: u32, stat: u32) -> (ReplyHeader, Vec<u8>) {
        let stat = AcceptStat::from_u32(stat).unwrap();
        let h = ReplyHeader { xid, stat };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        (h, e.into_bytes())
    }

    /// Decode both headers from `b`: neither panics nor reads past the
    /// input, and a header that decodes re-encodes to exactly the bytes
    /// it consumed.
    fn decode_reads_only_its_own_bytes(
        b: &[u8],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut d = XdrDecoder::new(b);
        let call = CallHeader::decode(&mut d);
        prop_assert!(d.position() <= b.len());
        if let Ok(h) = call {
            prop_assert_eq!(
                call_image(h.xid, h.prog, h.vers, h.proc_).1,
                &b[..d.position()]
            );
        }
        let mut d = XdrDecoder::new(b);
        let reply = ReplyHeader::decode(&mut d);
        prop_assert!(d.position() <= b.len());
        if let Ok(h) = reply {
            prop_assert_eq!(reply_image(h.xid, h.stat.as_u32()).1, &b[..d.position()]);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A record is whatever the peer deposited.
        #[test]
        fn arbitrary_records_never_panic(b in proptest::collection::vec(any::<u8>(), 0..64)) {
            decode_reads_only_its_own_bytes(&b)?;
        }

        /// A real header with one byte replaced and the record cut short
        /// anywhere: the damage lands in the fields decoding checks.
        #[test]
        fn damaged_headers_never_panic(
            words in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            stat in 0u32..5,
            at in 0usize..40,
            byte in any::<u8>(),
            keep in 0usize..41,
        ) {
            let (xid, prog, vers, proc_) = words;
            for mut b in [call_image(xid, prog, vers, proc_).1, reply_image(xid, stat).1] {
                let at = at % b.len();
                b[at] = byte;
                b.truncate(keep);
                decode_reads_only_its_own_bytes(&b)?;
            }
        }

        #[test]
        fn headers_round_trip(
            words in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            stat in 0u32..5,
        ) {
            let (xid, prog, vers, proc_) = words;
            let (h, b) = call_image(xid, prog, vers, proc_);
            prop_assert_eq!(CallHeader::decode(&mut XdrDecoder::new(&b)), Ok(h));
            let (h, b) = reply_image(xid, stat);
            prop_assert_eq!(ReplyHeader::decode(&mut XdrDecoder::new(&b)), Ok(h));
        }
    }

    #[test]
    fn call_header_round_trips_and_is_nontrivial() {
        let h = CallHeader {
            xid: 99,
            prog: 0x2000_0001,
            vers: 1,
            proc_: 7,
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        // The "nontrivial header" of §5: 40 bytes before any argument.
        assert_eq!(e.len(), 40);
        let mut d = XdrDecoder::new(e.as_bytes());
        assert_eq!(CallHeader::decode(&mut d).unwrap(), h);
    }

    #[test]
    fn reply_header_round_trips() {
        for stat in [
            AcceptStat::Success,
            AcceptStat::ProgUnavail,
            AcceptStat::ProgMismatch,
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
        ] {
            let h = ReplyHeader { xid: 5, stat };
            let mut e = XdrEncoder::new();
            h.encode(&mut e);
            let mut d = XdrDecoder::new(e.as_bytes());
            assert_eq!(ReplyHeader::decode(&mut d).unwrap(), h);
        }
    }

    #[test]
    fn wrong_discriminants_rejected() {
        let h = CallHeader {
            xid: 1,
            prog: 2,
            vers: 3,
            proc_: 4,
        };
        let mut e = XdrEncoder::new();
        h.encode(&mut e);
        // A call header is not a reply header.
        let mut d = XdrDecoder::new(e.as_bytes());
        assert!(ReplyHeader::decode(&mut d).is_err());
    }
}
