//! Property tests for the stub generator: every generatable interface
//! yields a marshaling plan with the invariants the runtime (and the
//! hardware combining) depend on, and running it — whatever the
//! procedure sets, skips, or sets out of order — returns exactly what a
//! model of by-reference parameters says it should.
//!
//! Interfaces mix `opaque<N>` with fixed types in both areas. At every
//! length of every `opaque<N>`, a run ends at its flag, decodes to what
//! was encoded, and the receiver loads exactly the words that were sent;
//! and no area bytes whatever — length words past `N` included — make
//! the receiver panic or load outside the area.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Kernel, SplitMix64};
use shrimp_srpc::{
    decode_run, parse_interface, Dir, InterfacePlan, ParamSlot, SrpcClient, SrpcDirectory,
    SrpcError, SrpcServer, Ty, Val,
};

/// A random interface: per procedure, its parameters' directions and
/// types.
fn interface_shape() -> impl Strategy<Value = Vec<Vec<(Dir, Ty)>>> {
    let ty = prop_oneof![
        Just(Ty::I32),
        Just(Ty::U32),
        Just(Ty::F64),
        Just(Ty::Bool),
        (1usize..300).prop_map(Ty::Opaque),
        (1usize..100).prop_map(Ty::VarOpaque),
        (1usize..100).prop_map(Ty::VarOpaque),
        (1usize..40).prop_map(Ty::F64Array),
        (1usize..40).prop_map(Ty::I32Array),
    ];
    let dir = prop_oneof![Just(Dir::In), Just(Dir::Out), Just(Dir::InOut)];
    let proc_ = proptest::collection::vec((dir, ty), 0..6);
    proptest::collection::vec(proc_, 1..6)
}

/// The shape as IDL source: `proc<i>(<dir> p<j>: <type>, …)`.
fn idl_source(shape: &[Vec<(Dir, Ty)>]) -> String {
    let mut s = String::from("interface Gen {\n");
    for (pi, params) in shape.iter().enumerate() {
        let ps: Vec<String> = params
            .iter()
            .enumerate()
            .map(|(qi, (d, t))| {
                let d = match d {
                    Dir::In => "in",
                    Dir::Out => "out",
                    Dir::InOut => "inout",
                };
                let t = match t {
                    Ty::I32 => "i32".to_string(),
                    Ty::U32 => "u32".to_string(),
                    Ty::F64 => "f64".to_string(),
                    Ty::Bool => "bool".to_string(),
                    Ty::Opaque(n) => format!("opaque[{n}]"),
                    Ty::VarOpaque(n) => format!("opaque<{n}>"),
                    Ty::F64Array(n) => format!("array<f64, {n}>"),
                    Ty::I32Array(n) => format!("array<i32, {n}>"),
                };
                format!("{d} p{qi}: {t}")
            })
            .collect();
        s.push_str(&format!("  proc{pi}({});\n", ps.join(", ")));
    }
    s.push('}');
    s
}

/// A value of `ty` drawn from `rng`, or the type's zero without one (no
/// bytes, for an `opaque<N>`).
fn value(ty: Ty, rng: Option<&mut SplitMix64>) -> Val {
    let mut draw = {
        let mut rng = rng;
        move || rng.as_mut().map_or(0, |r| r.next_below(1 << 20))
    };
    match ty {
        Ty::I32 => Val::I32(-(draw() as i32)),
        Ty::U32 => Val::U32(draw() as u32),
        Ty::F64 => Val::F64(draw() as f64 * 0.25),
        Ty::Bool => Val::Bool(draw() % 2 == 1),
        Ty::Opaque(n) => Val::Bytes((0..n).map(|_| draw() as u8).collect()),
        Ty::VarOpaque(n) => {
            let len = draw() as usize % (n + 1);
            Val::Bytes((0..len).map(|_| draw() as u8).collect())
        }
        Ty::F64Array(n) => Val::F64Array((0..n).map(|_| draw() as f64 * 0.25).collect()),
        Ty::I32Array(n) => Val::I32Array((0..n).map(|_| -(draw() as i32)).collect()),
    }
}

/// One area's invariants: slots ascend with no gaps (the
/// consecutive-fill property packet combining needs), word-aligned, and
/// the run ends exactly at the area's flag word; returns the area's
/// first byte. An area holding an `opaque<N>` is sized at every field's
/// maximum and fixes no offset.
fn check_area(slots: &[ParamSlot], bytes: usize, flag: usize) -> Result<usize, TestCaseError> {
    let var = slots.iter().any(|s| s.param.ty.is_var());
    let mut at = flag - bytes;
    for s in slots {
        prop_assert_eq!(s.offset, (!var).then_some(at));
        prop_assert_eq!(at % 4, 0);
        at += s.param.ty.wire_bytes();
    }
    prop_assert_eq!(at, flag);
    Ok(flag - bytes)
}

/// An area's run as a stub stores it: every value's wire form, then
/// `flag`.
fn encode(slots: &[ParamSlot], vals: &[Val], flag: u32) -> Vec<u8> {
    let mut run = Vec::new();
    for (s, v) in slots.iter().zip(vals) {
        v.encode_into(s.param.ty, &mut run)
            .expect("value fits its type");
    }
    run.extend(flag.to_le_bytes());
    run
}

/// Decode the area ending at `flag` out of `buf` (the whole binding
/// buffer), requiring every load to lie in `[lo, flag)` and no byte to
/// be loaded twice; returns the decoded values and the bytes loaded.
fn decode_in(
    slots: &[ParamSlot],
    buf: &[u8],
    lo: usize,
    flag: usize,
) -> Result<(Result<Vec<Val>, SrpcError>, usize), TestCaseError> {
    let mut loads = Vec::new();
    let mut vals = Vec::new();
    let r = decode_run(slots, flag, &mut vals, |off, len| {
        loads.push((off, len));
        match off >= lo && off + len <= flag {
            true => Ok(buf[off..off + len].to_vec()),
            false => Err(SrpcError::BadCallFlag(u32::MAX)), // reported below
        }
    });
    let mut loaded = 0;
    loads.sort_unstable();
    for (i, &(off, len)) in loads.iter().enumerate() {
        prop_assert!(
            off >= lo && off + len <= flag,
            "load {off}+{len} outside {lo}..{flag}"
        );
        if let Some(&(next, _)) = loads.get(i + 1) {
            prop_assert!(off + len <= next, "bytes at {next} loaded twice");
        }
        loaded += len;
    }
    Ok((r.map(|()| vals), loaded))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn both_areas_are_contiguous_end_at_their_flags_and_never_overlap(shape in interface_shape()) {
        let iface = parse_interface(&idl_source(&shape)).expect("generated source is valid");
        let plan = InterfacePlan::new(&iface);
        prop_assert_eq!(plan.buffer_bytes, plan.reply_flag_offset + 4);
        for proc_ in &plan.procs {
            check_area(&proc_.call, proc_.call_bytes, plan.call_flag_offset)?;
            let reply_start = check_area(&proc_.reply, proc_.reply_bytes, plan.reply_flag_offset)?;
            // Disjoint: the reply area begins past the call flag, so no
            // word is stored by both sides.
            prop_assert!(reply_start >= plan.call_flag_offset + 4);
            // An OUT never travels client -> server, an IN never back,
            // and an INOUT has a slot each way, in declaration order.
            let named = |slots: &[ParamSlot]| -> Vec<String> {
                slots.iter().map(|s| s.param.name.clone()).collect()
            };
            let declared = |keep: fn(Dir) -> bool| -> Vec<String> {
                let kept = proc_.def.params.iter().filter(|p| keep(p.dir));
                kept.map(|p| p.name.clone()).collect()
            };
            prop_assert_eq!(named(&proc_.call), declared(Dir::is_in));
            prop_assert_eq!(named(&proc_.reply), declared(Dir::is_out));
        }
    }

    #[test]
    fn at_every_length_a_run_ends_at_its_flag_round_trips_and_loads_what_was_sent(
        shape in interface_shape(),
        seed in any::<u64>(),
    ) {
        let iface = parse_interface(&idl_source(&shape)).expect("generated source is valid");
        let plan = InterfacePlan::new(&iface);
        let mut rng = SplitMix64::new(seed);
        let mut buf = vec![0u8; plan.buffer_bytes];
        for proc_ in &plan.procs {
            let areas = [
                (&proc_.call, 0, plan.call_flag_offset),
                (&proc_.reply, plan.call_flag_offset + 4, plan.reply_flag_offset),
            ];
            for (slots, lo, flag) in areas {
                let mut vals: Vec<Val> =
                    slots.iter().map(|s| value(s.param.ty, Some(&mut rng))).collect();
                // Sweep each `opaque<N>` through every length, the others
                // as drawn; a fixed-only area is its one run.
                let mut runs = vec![vals.clone()];
                for (i, s) in slots.iter().enumerate() {
                    if let Ty::VarOpaque(n) = s.param.ty {
                        for len in 0..=n {
                            vals[i] = Val::Bytes((0..len).map(|b| (b * 7 + len) as u8).collect());
                            runs.push(vals.clone());
                        }
                    }
                }
                for vals in runs {
                    let run = encode(slots, &vals, 0xF1A6);
                    // Stored ending at the flag, and inside the area.
                    prop_assert!(run.len() <= flag + 4 - lo);
                    let at = flag + 4 - run.len();
                    buf.fill(0xEE);
                    buf[at..flag + 4].copy_from_slice(&run);
                    let (got, loaded) = decode_in(slots, &buf, lo, flag)?;
                    prop_assert_eq!(got.as_ref(), Ok(&vals));
                    prop_assert_eq!(loaded, run.len() - 4, "loaded words = sent words");
                }
            }
        }
    }

    #[test]
    fn no_area_bytes_make_the_receiver_panic_or_load_outside_the_area(
        shape in interface_shape(),
        seed in any::<u64>(),
    ) {
        let iface = parse_interface(&idl_source(&shape)).expect("generated source is valid");
        let plan = InterfacePlan::new(&iface);
        let mut rng = SplitMix64::new(seed);
        let mut buf = vec![0u8; plan.buffer_bytes];
        for proc_ in &plan.procs {
            let areas = [
                (&proc_.call, 0, plan.call_flag_offset),
                (&proc_.reply, plan.call_flag_offset + 4, plan.reply_flag_offset),
            ];
            for (slots, lo, flag) in areas {
                for round in 0..8 {
                    // Either noise throughout, or a valid run with a few
                    // words overwritten — by noise, or by a small length
                    // that may exceed its field's `N`.
                    buf.iter_mut().for_each(|b| *b = rng.next_below(256) as u8);
                    if round % 2 == 1 {
                        let vals: Vec<Val> =
                            slots.iter().map(|s| value(s.param.ty, Some(&mut rng))).collect();
                        let run = encode(slots, &vals, 1);
                        buf[flag + 4 - run.len()..flag + 4].copy_from_slice(&run);
                        for _ in 0..3 {
                            if flag > lo {
                                let w = lo + 4 * rng.next_below(((flag - lo) / 4) as u64) as usize;
                                let v = rng.next_below(if round % 4 == 1 { 1 << 32 } else { 160 });
                                buf[w..w + 4].copy_from_slice(&(v as u32).to_le_bytes());
                            }
                        }
                    }
                    let (got, _) = decode_in(slots, &buf, lo, flag)?;
                    if let Err(e) = got {
                        let bad_length = matches!(e, SrpcError::BadLength { .. });
                        prop_assert!(bad_length, "unexpected error {:?}", e);
                    }
                }
            }
        }
    }

    #[test]
    fn flag_codec_round_trips(seq in 0u32..0x00FF_FFFF, idx in 0usize..200) {
        let call = InterfacePlan::call_flag(seq, idx);
        prop_assert_eq!(InterfacePlan::decode_call_flag(call), Some((seq, idx)));
        let reply = InterfacePlan::reply_flag(seq);
        prop_assert_eq!(InterfacePlan::decode_call_flag(reply), None);
        prop_assert!(call != reply);
    }

    #[test]
    fn generated_stub_mentions_every_procedure(shape in interface_shape()) {
        let iface = parse_interface(&idl_source(&shape)).expect("generated source is valid");
        let stub = shrimp_srpc::emit_client_stub(&iface);
        for p in &iface.procs {
            let needle = format!("pub fn {}(", p.name);
            let found = stub.contains(&needle);
            prop_assert!(found, "stub missing {}", needle);
        }
    }
}

/// One scripted call: what the client sends, what the procedure sets
/// (in that order), and what the model says comes back.
struct ScriptedCall {
    proc_name: String,
    args: Vec<Val>,
    sets: Vec<(String, Val)>,
    expect: Vec<Val>,
}

/// Two calls per procedure. Each sets a random subset of its reply
/// parameters in a random order; by reference, a parameter the
/// procedure leaves alone is still what it was when the call began —
/// the sent value for INOUT, nothing (zero) for OUT — never what an
/// earlier call left in the buffer.
fn script(shape: &[Vec<(Dir, Ty)>], seed: u64) -> Vec<ScriptedCall> {
    let mut rng = SplitMix64::new(seed);
    let mut calls = Vec::new();
    for (pi, params) in shape.iter().enumerate() {
        for _ in 0..2 {
            let mut args = Vec::new();
            let mut sets = Vec::new();
            let mut expect = Vec::new();
            for (qi, &(dir, ty)) in params.iter().enumerate() {
                let sent = dir.is_in().then(|| value(ty, Some(&mut rng)));
                args.extend(sent.clone());
                if !dir.is_out() {
                    continue;
                }
                if rng.next_below(3) == 0 {
                    expect.push(sent.unwrap_or_else(|| value(ty, None)));
                } else {
                    let v = value(ty, Some(&mut rng));
                    sets.push((format!("p{qi}"), v.clone()));
                    expect.push(v);
                }
            }
            for i in (1..sets.len()).rev() {
                sets.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            calls.push(ScriptedCall {
                proc_name: format!("proc{pi}"),
                args,
                sets,
                expect,
            });
        }
    }
    calls
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_set_order_with_any_slots_skipped_matches_the_by_reference_model(
        shape in interface_shape(),
        seed in any::<u64>(),
    ) {
        let iface = parse_interface(&idl_source(&shape)).expect("generated source is valid");
        let calls = script(&shape, seed);
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let dir = SrpcDirectory::new();
        // The procedures pop what to set off one queue, in call order.
        let pending: VecDeque<_> = calls.iter().map(|c| c.sets.clone()).collect();
        let pending = Arc::new(Mutex::new(pending));
        {
            let vmmc = system.endpoint(1, "server");
            let (dir, iface) = (Arc::clone(&dir), iface.clone());
            kernel.spawn("server", move |ctx| {
                let mut server = SrpcServer::new(vmmc, &iface);
                for p in &iface.procs {
                    let pending = Arc::clone(&pending);
                    server.register(&p.name, Box::new(move |ctx, _ins, out| {
                        let sets = pending.lock().pop_front().expect("one script per call");
                        for (name, v) in &sets {
                            out.set(ctx, name, v).unwrap();
                        }
                    }));
                }
                let mut conn = server.accept(ctx, &dir, "gen").unwrap();
                server.serve(ctx, &mut conn).unwrap();
            });
        }
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let vmmc = system.endpoint(0, "client");
            let got = Arc::clone(&got);
            let sends: Vec<_> = calls.iter().map(|c| (c.proc_name.clone(), c.args.clone())).collect();
            kernel.spawn("client", move |ctx| {
                let mut client = SrpcClient::bind(vmmc, ctx, &dir, "gen", &iface).unwrap();
                for (proc_name, args) in &sends {
                    got.lock().push(client.call(ctx, proc_name, args).unwrap());
                }
                client.close(ctx).unwrap();
            });
        }
        kernel.run_until_quiescent().unwrap();
        prop_assert!(system.violations().is_empty());
        let got = got.lock();
        prop_assert_eq!(got.len(), calls.len());
        for (i, (got, call)) in got.iter().zip(&calls).enumerate() {
            prop_assert_eq!(got, &call.expect, "call {} ({})", i, &call.proc_name);
        }
    }
}
