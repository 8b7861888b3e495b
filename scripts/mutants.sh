#!/usr/bin/env bash
# Mutation gate: every row of the table below breaks one protocol
# invariant on purpose, in a scratch copy of the tree, and names the
# test target that must then fail. A row whose tests still pass is a
# surviving mutant — the invariant has lost its test.
#
#   scripts/mutants.sh                   every row
#   scripts/mutants.sh --only NAME...    the named rows
#   --write FILE                         also write "name  killed by"
#                                        lines to FILE (results/mutants.txt)
#
# A row is `name @@ file @@ old @@ new [@@ old @@ new …] @@ cargo test
# args`: its edits apply in order, `\n` in a text is a newline, and each
# old text must occur exactly once when its turn comes. Each row is
# applied to the pristine copy, built (a mutant that does not build is
# an error, not a kill), run under a 20-minute timeout (a hang counts
# as a kill) and reverted. The copy lives in
# $MUTANTS_DIR (default: a fresh temporary directory, removed after)
# with one shared target dir, so a row rebuilds only what its edit
# touches. Exit 0 when every row run was killed, 1 otherwise, 2 on a
# usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

TABLE=$(cat <<'ROWS'
ring-count-before-data @@ crates/core/src/ring.rs @@         let mut off = 0;\n        while off < bytes.len() { @@         self.store_ctrl(vmmc, ctx, WRITTEN, (self.sent + bytes.len() as u64) as u32)?;\n        let mut off = 0;\n        while off < bytes.len() { @@ -p shrimp-core --lib ring::
ring-ack-before-copy-out @@ crates/core/src/ring.rs @@         let mut out = Vec::with_capacity(body.len()); @@         self.store_ctrl(vmmc, ctx, ACK, (self.consumed + span as u64) as u32)?;\n        let mut out = Vec::with_capacity(body.len()); @@ -p shrimp-core --lib ring::
ring-skip-room-wait @@ crates/core/src/ring.rs @@             if free >= need { @@             if true { @@ -p shrimp-core --lib ring::
ring-room-always-free @@ crates/core/src/ring.rs @@     ring.saturating_sub(sent.wrapping_sub(ack) as usize) @@     ring + (sent ^ ack) as usize * 0 @@ -p shrimp-core --lib ring::
sbl-length-word-unbounded @@ crates/sunrpc/src/stream.rs @@     if padded > RING_BYTES { @@     if padded > usize::MAX - 1 { @@ -p shrimp-sunrpc --lib stream::
sunrpc-send-skips-record-bound @@ crates/sunrpc/src/stream.rs @@         let padded = framed_len(bytes.len())?; @@         let padded = (4 + bytes.len()).div_ceil(4) * 4; @@ -p shrimp-sunrpc --test vrpc an_oversized_record_is_a_typed_error_and_the_binding_survives
core-range-sum-wraps @@ crates/core/src/endpoint.rs @@         match off.checked_add(len) { @@         match Some(off.wrapping_add(len)) { @@ -p shrimp-core --test vmmc
slot-no-credit-wait @@ crates/core/src/slot.rs @@             if let Some(need) = self.unacked[slot] { @@             if let Some(need) = None::<u32> { @@ -p shrimp-core --lib slot::
slot-empty-chunk-clears-credit @@ crates/core/src/slot.rs @@         let mut du = None;\n        if len > 0 { @@         let mut du = None;\n        if len == 0 {\n            self.unacked[slot] = None;\n        }\n        if len > 0 { @@ -p shrimp-core --lib slot::
slot-flag-without-send-wait @@ crates/core/src/slot.rs @@             vmmc.send_wait(ctx, du); @@             let _ = du; @@ -p shrimp-core --lib slot::
slot-flag-before-payload @@ crates/core/src/slot.rs @@         if len > 0 {\n            if let Some(need) @@         if len > 0 {\n            self.raise(vmmc, ctx, 4 * slot, last)?;\n            if let Some(need) @@ -p shrimp-core --lib slot::
slot-ack-wait-proves-no-credit @@ crates/core/src/slot.rs @@         self.unacked = [None; SLOTS];\n        Ok(()) @@         Ok(()) @@ -p shrimp-core --lib slot::
slot-head-before-credit @@ crates/core/src/slot.rs @@                 src.place(vmmc, ctx, 0, self.mirror.add(off), head)?;\n @@  @@             if let Some(need) = self.unacked[slot] { @@             if len > self.shape.eager {\n                let (off, head) = (slot * self.shape.slot, bulk_head(len.next_multiple_of(4), self.shape.eager));\n                src.place(vmmc, ctx, 0, self.mirror.add(off), head)?;\n            }\n            if let Some(need) = self.unacked[slot] { @@ -p shrimp-core --lib slot::
slot-tail-over-head @@ crates/core/src/slot.rs @@ let (dst, tail) = (off + head, padded - head); @@ let (dst, tail) = (off, padded - head); @@ -p shrimp-core --lib slot::
slot-wait-unwatched @@ crates/core/src/slot.rs @@ vmmc.wait_u32_watched(ctx, va, self.shape.polls, deadline, pred) @@ match deadline {\n            None => vmmc.wait_u32(ctx, va, self.shape.polls, pred),\n            Some(_) => vmmc.wait_u32_watched(ctx, va, self.shape.polls, deadline, pred),\n        } @@ -p shrimp-core --lib slot::
coll-ack-before-consume @@ crates/coll/src/comm.rs @@         let p = vmmc.proc_();\n        match op { @@         ch.ack(vmmc, ctx, 1, len)?;\n        let p = vmmc.proc_();\n        match op { @@         ch.release(1, len);\n @@  @@ -p shrimp-coll --test collectives a_chunk_that_faults_on_consume_is_never_acked
coll-ack-owed-past-return @@ crates/coll/src/ops.rs @@             self.transfer(ctx, buf, Some((me + pow2, all)), None, None)?;\n        }\n        self.settle(ctx) @@             self.transfer(ctx, buf, Some((me + pow2, all)), None, None)?;\n        }\n        Ok(()) @@ -p shrimp-coll --test collectives an_owed_ack_never_outlives_its_call
coll-ack-owed-past-multichunk-post @@ crates/coll/src/ops.rs @@         if len_of(send) > chunk {\n            self.settle(ctx)?;\n        }\n @@  @@ -p shrimp-coll --test collectives a_multi_chunk_post_never_waits_on_an_owed_ack
coll-ack-deferred-mid-transfer @@ crates/coll/src/ops.rs @@ self.recv_chunk(ctx, from, dst, l, op, false)?; @@ self.recv_chunk(ctx, from, dst, l, op, true)?; @@ -p shrimp-coll --test collectives a_multi_chunk_post_never_waits_on_an_owed_ack
coll-flat-without-all-pairs @@ crates/coll/src/ops.rs @@         if !self.has_flat { @@         if false { @@ -p shrimp-coll --test collectives flat_variants_rejected_without_all_pairs_channels
rendezvous-counts-arrivals @@ crates/core/src/rendezvous.rs @@             present.insert(party); @@             let again = present.len();\n            present.insert(party + self.parties * again); @@ -p shrimp-core --lib rendezvous::
rendezvous-keeps-a-party-that-left @@ crates/core/src/rendezvous.rs @@         self.present.lock().remove(&party);\n @@  @@ -p shrimp-core --lib rendezvous::
rendezvous-gate-unlatched @@ crates/core/src/rendezvous.rs @@ self.opened.load(Ordering::Relaxed) || @@ false || @@ -p shrimp-core --lib rendezvous::tests::a_party_arriving_after_the_open_passes_at_its_arrival
svc-flag-before-record @@ crates/core/src/slot.rs @@         if len > 0 {\n            if let Some(need) @@         if len > 0 {\n            self.raise(vmmc, ctx, 4 * slot, last)?;\n            if let Some(need) @@ -p shrimp-svc --test replication
svc-records-decode-fixed @@ crates/svc/src/wire.rs @@     Some(REC_HDR + pad4(klen) + pad4(vlen)) @@     Some(REC_BYTES) @@ -p shrimp-svc --lib wire::
svc-key-length-unbounded @@ crates/svc/src/wire.rs @@     if klen > MAX_KEY || vlen > MAX_VAL { @@     if vlen > MAX_VAL { @@ -p shrimp-svc --lib wire::
svc-value-length-unbounded @@ crates/svc/src/wire.rs @@     if klen > MAX_KEY || vlen > MAX_VAL { @@     if klen > MAX_KEY { @@ -p shrimp-svc --lib wire::
svc-mirror-bound-at-the-word @@ crates/core/src/slot.rs @@ vmmc.bind_au(ctx, mirror, &peer, 0, pages, false, false)?; @@ vmmc.bind_au(ctx, mirror, &peer, ACK, pages, false, false)?; @@ -p shrimp-svc --test replication
svc-ack-before-apply @@ crates/svc/src/server.rs @@             let (mut off, mut was_cut) = (0, false); @@             if fence.tripped() || ch.ack(&vmmc, ctx, n, room).is_err() {\n                return;\n            }\n            let (mut off, mut was_cut) = (0, false); @@             if fence.tripped() || ch.ack(&vmmc, ctx, n, room).is_err() {\n                return;\n            }\n            synced |= was_cut; @@             synced |= was_cut; @@ -p shrimp-svc --lib server::
svc-record-read-past-slot @@ crates/svc/src/server.rs @@ let len = Record::size(&raw).filter(|&len| len <= room)?; @@ let len = Record::size(&raw)?; @@ -p shrimp-svc --lib server::
svc-short-batch-eager @@ crates/svc/src/wire.rs @@     buf.resize(buf.len().max(STREAM.eager + 4), 0); @@     let _ = buf; @@ -p shrimp-svc --lib server::
srpc-length-word-unbounded @@ crates/srpc/src/runtime.rs @@         if got as usize > max { @@         if got as usize > usize::MAX - 1 { @@ -p shrimp-srpc --test layout_props
srpc-var-area-set-by-set @@ crates/srpc/src/layout.rs @@             offset: (!var).then_some(offset), @@             offset: Some(offset), @@ -p shrimp-svc --test wire
srpc-flag-before-tail @@ crates/srpc/src/runtime.rs @@ for du in tails.iter().chain(&tail) {\n            vmmc.send_wait(ctx, du); @@ for du in tails.iter().chain(&tail) {\n            let _ = du; @@ -p shrimp-srpc --test wire flag_waits_for_its_tail
srpc-reply-wait-unwatched @@ crates/srpc/src/runtime.rs @@         self.vmmc\n            .wait_u32_watched(ctx, flag_va, 1024, deadline, move |v| v == want)?; @@         match deadline {\n            None => self.vmmc.wait_u32(ctx, flag_va, 1024, move |v| v == want)?,\n            Some(_) => self.vmmc.wait_u32_watched(ctx, flag_va, 1024, deadline, move |v| v == want)?,\n        }; @@ -p shrimp-srpc --test srpc a_null_call_loops_trace_counts_and_handoffs
svc-put-reply-out-of-order @@ crates/svc/src/server.rs @@     let _ = out.set(ctx, "seq", &Val::U32(a.map_or(0, |a| a.seq as u32)));\n    let _ = out.set(ctx, "existed", &Val::Bool(a.is_some_and(|a| a.existed))); @@     let _ = out.set(ctx, "existed", &Val::Bool(a.is_some_and(|a| a.existed)));\n    let _ = out.set(ctx, "seq", &Val::U32(a.map_or(0, |a| a.seq as u32))); @@ -p shrimp-svc --test wire
svc-ack-from-a-dead-node @@ crates/svc/src/server.rs @@             if fence.tripped() || ch.ack(&vmmc, ctx, n, room).is_err() { @@             if ch.ack(&vmmc, ctx, n, room).is_err() { @@ -p shrimp-svc --test replication a_backup_dead_between_flag_and_ack
svc-activate-ignores-epoch @@ crates/svc/src/machine.rs @@ Event::Committed(now, _, sync) if self.route.epoch != sync.epoch => { @@ Event::Committed(now, _, sync) if false => { @@ -p shrimp-svc --lib machine::
svc-demoted-backup-promoted @@ crates/svc/src/machine.rs @@                 if let Some(link) = self.backup.take() { @@                 if let Some(link) = self.backup.clone() { @@ -p shrimp-svc --lib machine::
svc-unfreeze-before-cut-ack @@ crates/svc/src/server.rs @@             let mut ok = streamed && cluster.freeze_writes(ctx, shard); @@             let mut ok = streamed && cluster.freeze_writes(ctx, shard);\n            cluster.unfreeze_writes(shard); @@ -p shrimp-svc --test svc_properties scripted_migration_is_zero_lost_and_replays_bit_identically
svc-group-reply-before-ack @@ crates/svc/src/server.rs @@                 rec.encode(&mut img);\n                group.push(req); @@                 rec.encode(&mut img);\n                req.done.send(&ctx.handle(), true);\n                group.push(req); @@ -p shrimp-svc --test replication concurrent_puts_share_a_chunk_and_reply_after_its_ack
svc-group-overfills-eager-slot @@ crates/svc/src/server.rs @@                 if img.len() + rec.len() > REC_BYTES { @@                 if false { @@ -p shrimp-svc --test replication a_widest_record_rides_its_chunk_alone
svc-degrade-drops-carried @@ crates/svc/src/server.rs @@             for req in group.into_iter().chain(carried) { @@             for req in group { @@ -p shrimp-svc --test replication a_group_whose_backup_dies_degrades_every_put_it_holds
svc-image-bound-unchecked @@ crates/svc/src/wire.rs @@     if raw.len() < used {\n        return None;\n    }\n @@  @@ -p shrimp-svc --lib wire::
fabric-torus-tie-west-north @@ crates/fabric/src/grid.rs @@         if up <= size - up { @@         if up < size - up { @@ -p shrimp-fabric --no-fail-fast -- tie_breaks_east_and_south grid_routes_links_and_distances_are_pinned
fabric-torus-self-loop @@ crates/fabric/src/grid.rs @@ (at[axis] != from).then(|| self.router_at(at)) @@ Some(self.router_at(at)) @@ -p shrimp-fabric --no-fail-fast -- degenerate_dimension_has_no_self_loop link_enumeration_is_consistent
fabric-mesh-link-wraps @@ crates/fabric/src/grid.rs @@             _ if !WRAP => None,\n @@  @@ -p shrimp-fabric --no-fail-fast -- links_are_grid_edges grid_routes_links_and_distances_are_pinned
mesh-channel-not-fifo @@ crates/mesh/src/backplane.rs @@         let start = at.max(*next_free); @@         let start = at; @@ -p shrimp-mesh --test properties
collnet-expects-no-member @@ crates/mesh/src/collnet.rs @@ expected[r] = kids.len() as u32 + u32::from(member[r]); @@ expected[r] = kids.len() as u32; @@ -p shrimp-mesh --lib collnet::
nic-deposit-skips-ipt @@ crates/nic/src/machine.rs @@         if !enabled { @@         if false { @@ -p shrimp-nic --lib
nic-fetch-done-on-last-piece @@ crates/nic/src/machine.rs @@ p.saw_last && p.outstanding == 0 && p.left == 0 @@ p.saw_last @@ -p shrimp-nic --lib
nic-fetch-piece-fixed @@ crates/nic/src/machine.rs @@     piece.clamp(4.0, costs.max_packet_payload as f64) as usize @@     let _ = piece;\n    costs.max_packet_payload @@ -p shrimp-nic --lib fetch_pieces_follow_the_pipeline_optimum
nic-out-fifo-overtakes @@ crates/nic/src/machine.rs @@ let at = (self.now + lead).max(self.out_tail); @@ let at = self.now + lead; @@ -p shrimp-nic --lib machine::
nic-frozen-accepts-data @@ crates/nic/src/machine.rs @@ PacketKind::Data if self.frozen => @@ PacketKind::Data if false => @@ -p shrimp-nic --lib machine::
nx-barrier-drains-large-sends @@ crates/nx/src/collective.rs @@         self.coll.barrier(ctx)?; @@         self.flush(ctx)?;\n        self.coll.barrier(ctx)?; @@ -p shrimp-nx --test nx a_large_send_may_cross_a_barrier_before_its_receive
nx-credit-ignores-its-number @@ crates/nx/src/wire.rs @@         if (v >> 8) != ((c as u32) & 0x00FF_FFFF) { @@         if false { @@ -p shrimp-nx --lib wire::
nx-credit-before-copy-out @@ crates/nx/src/proc.rs @@         if !truncated && n > 0 && !self.config.in_place_receive {\n            p.copy(ctx, conn.data_local.add(conn.layout.payload(idx)), buf, n)?;\n        }\n        conn.release_buffer(vmmc, ctx, idx)?; @@         conn.release_buffer(vmmc, ctx, idx)?;\n        if !truncated && n > 0 && !self.config.in_place_receive {\n            p.copy(ctx, conn.data_local.add(conn.layout.payload(idx)), buf, n)?;\n        } @@ -p shrimp-nx --test nx a_packet_buffer_is_refilled_only_after_its_copy_out
nx-ninth-large-send-skips-the-wait @@ crates/nx/src/proc.rs @@         if self.peers[dst].out.pending_large.len() == REPLY_SLOTS { @@         if false { @@ -p shrimp-nx --test nx a_ninth_outstanding_blocking_large_send_waits_for_a_reply_slot
nx-done-before-data @@ crates/nx/src/proc.rs @@                 vmmc.send(ctx, src, target, 0, pl.len)?;\n @@  @@                 vmmc.send(ctx, done, &conn.data, slot, 4)?; @@                 vmmc.send(ctx, done, &conn.data, slot, 4)?;\n                vmmc.send(ctx, src, target, 0, pl.len)?; @@ -p shrimp-nx --test nx large_message_zero_copy_round_trip
nx-stall-skips-urgent-word @@ crates/nx/src/proc.rs @@                 p.write_u32(ctx, self.urgent, 1)?;\n @@  @@ -p shrimp-nx --test wire a_credit_stall_interrupts_the_receiver_once
sim-wake-pending-dropped @@ crates/sim/src/kernel.rs @@             ProcStatus::Scheduled => slot.wake_pending = true, @@             ProcStatus::Scheduled => {} @@ -p shrimp-sim --lib kernel::
sim-idle-horizon-inclusive @@ crates/sim/src/kernel.rs @@ (room, step) => max.min((room - 1) / step), @@ (room, step) => max.min(room / step), @@ -p shrimp-sim --lib kernel::
sim-watch-repush-skips-in-place @@ crates/sim/src/kernel.rs @@ steps = self.step_in_place(&mut st, pid, d, left); @@ steps = InPlace { from: at, d, fit: st.fit(d, left) };\n                            if steps.fit < left {\n                                st.push(at + d, Action::Resume(pid));\n                            } @@ -p shrimp-sim --test watch_model
sim-watch-ignores-the-probe @@ crates/sim/src/kernel.rs @@ (w.left > 0 && (w.probe)(w.addr) == w.seen) @@ (w.left > 0) @@ -p shrimp-sim --test watch_model
waitqueue-wake-keeps-waiters @@ crates/sim/src/sync.rs @@         for pid in waiters.drain(..) { @@         for pid in waiters.iter().copied() { @@ -p shrimp-sim --test kernel_edge notify_all_releases_everyone_at_once
ROWS
)
mapfile -t ROWS <<< "$TABLE"

only=() out=
while [ $# -gt 0 ]; do
    case "$1" in
        --only) shift; while [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; do only+=("$1"); shift; done ;;
        --write) [ $# -ge 2 ] || { echo "--write takes FILE" >&2; exit 2; }
                 out=$2; shift 2 ;;
        *) echo "usage: scripts/mutants.sh [--only NAME...] [--write FILE]" >&2
           exit 2 ;;
    esac
done

field() { awk -v i="$2" 'BEGIN { FS = " @@ " } { print (i ? $i : $NF) }' <<< "$1"; }

chosen=()
for row in "${ROWS[@]}"; do
    name=$(field "$row" 1)
    if [ ${#only[@]} -eq 0 ] || printf '%s\n' "${only[@]}" | grep -qx -- "$name"; then
        chosen+=("$row")
    fi
done
[ ${#chosen[@]} -gt 0 ] || { echo "no such row" >&2; exit 2; }

dir=${MUTANTS_DIR:-$(mktemp -d)}
[ -n "${MUTANTS_DIR:-}" ] || trap 'rm -rf "$dir"' EXIT
mkdir -p "$dir/tree"
git ls-files -z -co --exclude-standard | tar --null -T - -cf - | tar -xf - -C "$dir/tree"
export CARGO_TARGET_DIR="$dir/target"

# Apply a row's edits to its file in the copy.
edit() {
    python3 - "$dir/tree" "$1" <<'PY'
import sys
tree, row = sys.argv[1], sys.argv[2].split(" @@ ")
path = f"{tree}/{row[1]}"
text = open(path).read()
edits = [t.replace("\\n", "\n") for t in row[2:-1]]
for old, new in zip(edits[::2], edits[1::2]):
    if text.count(old) != 1:
        sys.exit(f"{row[0]}: its old text occurs {text.count(old)} times in {row[1]}")
    text = text.replace(old, new)
open(path, "w").write(text)
PY
}

report=() failed=0
for row in "${chosen[@]}"; do
    name=$(field "$row" 1) file=$(field "$row" 2) args=$(field "$row" 0)
    cp "$dir/tree/$file" "$dir/pristine"
    edit "$row"
    # shellcheck disable=SC2086 # args is a cargo argument list
    if ! (cd "$dir/tree" && cargo test -q --no-run $args >/dev/null 2>"$dir/build.log"); then
        verdict="ERROR (does not build)"; failed=1
        cat "$dir/build.log" >&2
    elif (cd "$dir/tree" && timeout 1200 cargo test $args >"$dir/test.log" 2>&1); then
        verdict="SURVIVED ($args)"; failed=1
    else
        # The tests that failed, or the timeout that stopped them.
        killers=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$dir/test.log" | sort -u | paste -sd' ')
        verdict="killed by ${killers:-a timeout or crash} ($args)"
    fi
    cp "$dir/pristine" "$dir/tree/$file"
    printf '%-34s %s\n' "$name" "$verdict"
    report+=("$(printf '%-34s %s' "$name" "$verdict")")
done
[ -z "$out" ] || printf '%s\n' "${report[@]}" > "$out"
exit "$failed"
