//! Marshaling plans: where each parameter lives in the mirrored
//! communication buffers.
//!
//! The buffers are laid out so the flag is immediately after the data
//! and in the same place for all calls that use the same binding (paper
//! §5 "Buffer Management"). A binding's buffer is two such areas, one
//! per direction, so that no word is ever stored by both sides:
//!
//! ```text
//! | call area: IN + INOUT slots … | call flag | reply area: INOUT + OUT slots … | reply flag |
//! 0                         call_flag_offset                             reply_flag_offset
//!   written by the client only                  written by the server only
//! ```
//!
//! With one fixed flag offset per area, each procedure's slots are
//! packed *ending at* the area's flag word, so a side fills memory
//! locations consecutively upward and its final flag store extends the
//! same ascending run — letting the hardware combine a whole call, and a
//! whole reply, into a single packet each. An OUT parameter has no call
//! slot (it never travels client → server) and an IN parameter no reply
//! slot; an INOUT parameter has one of each.
//!
//! An area holding an `opaque<N>` is sized for every such field at its
//! maximum, `pad4(N) + 4`, but a run carries only the bytes its values
//! use: each `opaque<N>` is its bytes, zero-padded to a word, then its
//! length word, and the run still ends at the flag. So no field of such
//! an area has a fixed offset; the receiver finds each one by walking
//! back from the flag, reading a length word wherever the declaration
//! puts an `opaque<N>`:
//!
//! ```text
//! get(in key: opaque<32>, out seq: u32, out found: bool, out val: opaque<64>)
//! reply run, 16-byte value:  | seq | found | val (16 B) | len = 16 | reply flag |
//! ```

use crate::idl::{Interface, Param, ProcDef};

/// One parameter's placement in one of the two areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSlot {
    /// The declaration.
    pub param: Param,
    /// Byte offset within the binding's buffer; `None` in an area holding
    /// an `opaque<N>`, where it depends on the values.
    pub offset: Option<usize>,
}

/// A procedure's marshaling plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcPlan {
    /// The declaration.
    pub def: ProcDef,
    /// Call-area placements of the IN and INOUT parameters, in
    /// declaration order (ascending offsets, ending at the call flag).
    pub call: Vec<ParamSlot>,
    /// Reply-area placements of the INOUT and OUT parameters, in
    /// declaration order (ascending offsets, ending at the reply flag).
    pub reply: Vec<ParamSlot>,
    /// Total bytes of the call slots (at most, with an `opaque<N>`).
    pub call_bytes: usize,
    /// Total bytes of the reply slots (at most, with an `opaque<N>`).
    pub reply_bytes: usize,
}

/// The complete plan for an interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterfacePlan {
    /// Interface name.
    pub name: String,
    /// Per-procedure plans, indexed by wire procedure number.
    pub procs: Vec<ProcPlan>,
    /// Byte offset of the call-flag word (also the size of the call
    /// area's slots).
    pub call_flag_offset: usize,
    /// Byte offset of the reply-flag word.
    pub reply_flag_offset: usize,
    /// Total buffer bytes per side (both areas and both flag words).
    pub buffer_bytes: usize,
}

/// Whether a parameter has a call slot.
fn in_call(p: &Param) -> bool {
    p.dir.is_in()
}

/// Whether a parameter has a reply slot.
fn in_reply(p: &Param) -> bool {
    p.dir.is_out()
}

/// Total wire bytes of the parameters `keep` selects.
fn area_bytes(def: &ProcDef, keep: fn(&Param) -> bool) -> usize {
    let kept = def.params.iter().filter(|p| keep(p));
    kept.map(|p| p.ty.wire_bytes()).sum()
}

/// The parameters `keep` selects, packed upward to end at `flag_offset`,
/// and their total bytes.
fn pack(def: &ProcDef, keep: fn(&Param) -> bool, flag_offset: usize) -> (Vec<ParamSlot>, usize) {
    let bytes = area_bytes(def, keep);
    let var = def.params.iter().any(|p| keep(p) && p.ty.is_var());
    let mut offset = flag_offset - bytes;
    let kept = def.params.iter().filter(|p| keep(p));
    let slots = kept.map(|param| {
        let slot = ParamSlot {
            param: param.clone(),
            offset: (!var).then_some(offset),
        };
        offset += param.ty.wire_bytes();
        slot
    });
    (slots.collect(), bytes)
}

impl InterfacePlan {
    /// Compute the plan for an interface.
    pub fn new(iface: &Interface) -> InterfacePlan {
        let widest =
            |keep: fn(&Param) -> bool| iface.procs.iter().map(|d| area_bytes(d, keep)).max();
        let call_flag_offset = widest(in_call).unwrap_or(0);
        let reply_flag_offset = call_flag_offset + 4 + widest(in_reply).unwrap_or(0);
        let procs = iface
            .procs
            .iter()
            .map(|def| {
                let (call, call_bytes) = pack(def, in_call, call_flag_offset);
                let (reply, reply_bytes) = pack(def, in_reply, reply_flag_offset);
                ProcPlan {
                    def: def.clone(),
                    call,
                    reply,
                    call_bytes,
                    reply_bytes,
                }
            })
            .collect();
        InterfacePlan {
            name: iface.name.clone(),
            procs,
            call_flag_offset,
            reply_flag_offset,
            buffer_bytes: reply_flag_offset + 4,
        }
    }

    /// Encode a call-flag word: sequence number and procedure index.
    pub fn call_flag(seq: u32, proc_idx: usize) -> u32 {
        (seq << 8) | (proc_idx as u32 + 1)
    }

    /// Encode the matching reply-flag word.
    pub fn reply_flag(seq: u32) -> u32 {
        seq << 8
    }

    /// Decode a call-flag word into (seq, proc index); `None` for reply
    /// flags or the initial zero.
    pub fn decode_call_flag(v: u32) -> Option<(u32, usize)> {
        let idx = v & 0xFF;
        if idx == 0 {
            return None;
        }
        Some((v >> 8, (idx - 1) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idl::parse_interface;

    fn plan(src: &str) -> InterfacePlan {
        InterfacePlan::new(&parse_interface(src).unwrap())
    }

    #[test]
    fn each_area_ends_at_its_flag_for_every_proc() {
        let p = plan(
            "interface X {
                small(in a: i32);
                big(in a: i32, inout b: opaque[100], out c: f64);
            }",
        );
        // Call area: max(4, 4 + 100) = 104 bytes of slots, then its flag;
        // reply area: max(0, 100 + 8) = 108 bytes, then its flag.
        assert_eq!(p.call_flag_offset, 104);
        assert_eq!(p.reply_flag_offset, 108 + 108);
        assert_eq!(p.buffer_bytes, 220);
        let offsets = |slots: &[ParamSlot]| -> Vec<(String, Option<usize>)> {
            let named = slots.iter().map(|s| (s.param.name.clone(), s.offset));
            named.collect()
        };
        let (small, big) = (&p.procs[0], &p.procs[1]);
        assert_eq!(offsets(&small.call), [("a".into(), Some(100))]);
        assert!(small.reply.is_empty());
        assert_eq!(
            offsets(&big.call),
            [("a".into(), Some(0)), ("b".into(), Some(4))]
        );
        assert_eq!(
            offsets(&big.reply),
            [("b".into(), Some(108)), ("c".into(), Some(208))]
        );
        assert_eq!((big.call_bytes, big.reply_bytes), (104, 108));
    }

    #[test]
    fn a_var_opaque_area_is_sized_at_its_maximum_and_has_no_offsets() {
        let p = plan(
            "interface Kv {
                get(in key: opaque<32>, out seq: u32, out found: bool, out val: opaque<64>);
                put(in key: opaque<32>, in val: opaque<64>, out seq: u32);
            }",
        );
        // Call area: put's 36 + 68 bytes; reply area: get's 4 + 4 + 68.
        assert_eq!(p.call_flag_offset, 104);
        assert_eq!(p.reply_flag_offset, 108 + 76);
        let (get, put) = (&p.procs[0], &p.procs[1]);
        assert!(get
            .call
            .iter()
            .chain(&get.reply)
            .all(|s| s.offset.is_none()));
        assert!(put.call.iter().all(|s| s.offset.is_none()));
        // put's reply holds no `opaque<N>`: its one field has its place.
        assert_eq!(put.reply[0].offset, Some(p.reply_flag_offset - 4));
        assert_eq!((get.call_bytes, get.reply_bytes), (36, 76));
    }

    #[test]
    fn empty_proc_has_no_slots() {
        let p = plan("interface X { nop(); f(in a: i32); }");
        assert!(p.procs[0].call.is_empty() && p.procs[0].reply.is_empty());
        assert_eq!((p.procs[0].call_bytes, p.procs[0].reply_bytes), (0, 0));
        // No procedure replies with anything: the reply area is its flag.
        assert_eq!((p.call_flag_offset, p.reply_flag_offset), (4, 8));
    }

    #[test]
    fn flag_words_round_trip() {
        for seq in [0u32, 1, 77, 0xFFFF] {
            for idx in [0usize, 3, 254] {
                let f = InterfacePlan::call_flag(seq, idx);
                assert_eq!(InterfacePlan::decode_call_flag(f), Some((seq, idx)));
            }
            assert_eq!(
                InterfacePlan::decode_call_flag(InterfacePlan::reply_flag(seq)),
                None
            );
        }
    }
}
