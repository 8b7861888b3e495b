//! The two pinned properties of one-sided remote memory:
//!
//! * **pager vs sequential reference** — any interleaving of reads and
//!   writes through the [`RemotePager`] (with its evictions, dirty
//!   write-backs, and remote faults racing the client's own local
//!   writes) observes exactly what a flat byte array observes, and
//!   after a flush the memory server's pool holds that array
//!   bit-for-bit;
//! * **fetch vs the protection model** — a remote fetch succeeds iff a
//!   deposit-side export of the target would admit this importer *and*
//!   the export granted read permission, with the daemon up. Each
//!   refusal is the matching typed error.

use std::sync::Arc;

use proptest::prelude::*;
use shrimp_core::{BufferName, ExportOpts, ExportPerms, ShrimpSystem, SystemConfig, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_rmc::{MemoryServer, RemotePager};
use shrimp_sim::{Kernel, SimChannel};

#[derive(Debug, Clone)]
enum PagerOp {
    Read { addr: usize, len: usize },
    Write { addr: usize, data: Vec<u8> },
}

fn pager_ops(space: usize) -> impl Strategy<Value = Vec<PagerOp>> {
    proptest::collection::vec(
        (0usize..space - 600, 1usize..600, any::<bool>(), any::<u8>()).prop_map(
            |(addr, len, is_write, fill)| {
                if is_write {
                    PagerOp::Write {
                        addr,
                        data: (0..len).map(|i| fill.wrapping_add(i as u8)).collect(),
                    }
                } else {
                    PagerOp::Read { addr, len }
                }
            },
        ),
        1..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pager is indistinguishable from local memory: every read
    /// matches the sequential reference, and the flushed pool equals it.
    #[test]
    fn pager_matches_flat_memory_reference(
        ops in pager_ops(6 * PAGE_SIZE),
        frames in 1usize..4,
    ) {
        let vpages = 6;
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let names: SimChannel<BufferName> = SimChannel::new();
        let pool_bytes: SimChannel<Vec<u8>> = SimChannel::new();

        let server = system.endpoint(1, "memserver");
        let client = system.endpoint(0, "client");

        {
            let names = names.clone();
            let pool_bytes = pool_bytes.clone();
            kernel.spawn("memserver", move |ctx| {
                let srv = MemoryServer::export(server, ctx, vpages).unwrap();
                names.send(&ctx.handle(), srv.name());
                // Hand the final pool contents back once the client is
                // done (signalled by an empty name on the channel).
                let _ = names.recv(ctx);
                let all: Vec<u8> = (0..vpages).flat_map(|s| srv.peek_slot(s)).collect();
                pool_bytes.send(&ctx.handle(), all);
            });
        }
        let ops2 = ops.clone();
        kernel.spawn("client", move |ctx| {
            let name = names.recv(ctx);
            let pool = client.import(ctx, NodeId(1), name).unwrap();
            let mut pager = RemotePager::new(client, pool, vpages, frames);
            let mut reference = vec![0u8; vpages * PAGE_SIZE];
            for op in &ops2 {
                match op {
                    PagerOp::Read { addr, len } => {
                        let got = pager.read(ctx, *addr, *len).unwrap();
                        assert_eq!(
                            got,
                            reference[*addr..*addr + *len],
                            "read at {addr} diverged from the reference"
                        );
                    }
                    PagerOp::Write { addr, data } => {
                        pager.write(ctx, *addr, data).unwrap();
                        reference[*addr..*addr + data.len()].copy_from_slice(data);
                    }
                }
            }
            pager.flush(ctx).unwrap();
            // Read-back through the pager still matches.
            let full = pager.read(ctx, 0, vpages * PAGE_SIZE).unwrap();
            assert_eq!(full, reference);
            // Let every write-back deposit land before the server peeks.
            pager.vmmc().drain(ctx);
            names.send(&ctx.handle(), name); // wake the server for the final peek
            let pool_now = pool_bytes.recv(ctx);
            assert_eq!(pool_now, reference, "flushed pool diverged from the reference");
        });
        kernel.run_until_quiescent().unwrap();
        prop_assert!(system.violations().is_empty());
    }
}

/// One randomized protection configuration for the fetch-vs-deposit
/// admission property.
#[derive(Debug, Clone)]
struct ProtCase {
    read: bool,
    admit_importer: bool,
    daemon_down: bool,
    off_words: usize,
    len_words: usize,
    dst_words: usize,
}

/// The export spans 17 pages so a 64 KiB read fits at any word offset
/// into its first page.
const PROT_EXPORT: usize = 17 * PAGE_SIZE;

fn prot_case() -> impl Strategy<Value = ProtCase> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..PAGE_SIZE / 4,
        // 4 B to 64 KiB: half the cases stay within a packet or two, the
        // rest cross up to 17 source pages, unaligned at both ends.
        prop_oneof![1usize..64, 1usize..16 * 1024 + 1],
        0usize..PAGE_SIZE / 4,
    )
        .prop_map(
            |(read, admit_importer, daemon_down, off_words, len_words, dst_words)| ProtCase {
                read,
                admit_importer,
                daemon_down,
                off_words,
                len_words,
                dst_words,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fetch is admitted iff the deposit-side export admits this
    /// importer AND grants read permission AND the daemon is up — and
    /// every refusal is the matching typed error.
    #[test]
    fn fetch_succeeds_iff_export_admits_with_read(case in prot_case()) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let names: SimChannel<BufferName> = SimChannel::new();

        let owner = system.endpoint(1, "owner");
        let reader = system.endpoint(0, "reader");
        let (off, len) = (case.off_words * 4, case.len_words * 4);

        {
            let names = names.clone();
            let case = case.clone();
            kernel.spawn("owner", move |ctx| {
                let buf = owner.proc_().alloc(PROT_EXPORT, CacheMode::WriteBack);
                let fill: Vec<u8> = (0..PROT_EXPORT).map(|i| (i % 251) as u8).collect();
                owner.proc_().write(ctx, buf, &fill).unwrap();
                let perms = if case.admit_importer {
                    ExportPerms::Any
                } else {
                    ExportPerms::Nodes(vec![NodeId(3)]) // excludes node 0
                };
                let name = owner
                    .export(
                        ctx,
                        buf,
                        PROT_EXPORT,
                        ExportOpts { perms, read: case.read, ..Default::default() },
                    )
                    .unwrap();
                names.send(&ctx.handle(), name);
                owner_park(ctx);
            });
        }
        let sys = Arc::clone(&system);
        let case2 = case.clone();
        kernel.spawn("reader", move |ctx| {
            let name = names.recv(ctx);
            let imported = reader.import(ctx, NodeId(1), name);
            if !case2.admit_importer {
                // Excluded importers are refused at mapping time — the
                // fetch path is never reachable without a mapping.
                assert!(matches!(imported, Err(VmmcError::PermissionDenied { .. })));
                return;
            }
            let src = imported.unwrap();
            // The reply lands at its own word offset, so source and
            // destination page ends cut the read at different places.
            let dst = reader.proc_().alloc(PROT_EXPORT, CacheMode::WriteBack);
            let dst = dst.add(case2.dst_words * 4);
            if case2.daemon_down {
                sys.daemon(1).crash();
            }
            let got = reader.fetch(ctx, dst, &src, off, len);
            match (case2.daemon_down, case2.read) {
                (true, _) => assert!(
                    matches!(got, Err(VmmcError::DaemonUnavailable { node: NodeId(1) })),
                    "daemon-down fetch must NAK, got {got:?}"
                ),
                (false, false) => assert!(
                    matches!(got, Err(VmmcError::FetchDenied { node: NodeId(1), .. })),
                    "read-less export must deny, got {got:?}"
                ),
                (false, true) => {
                    got.unwrap();
                    let data = reader.proc_().peek(dst, len).unwrap();
                    let want: Vec<u8> = (off..off + len).map(|i| (i % 251) as u8).collect();
                    assert_eq!(data, want);
                }
            }
            if case2.daemon_down {
                sys.daemon(1).restart();
            }
        });
        kernel.run_until_quiescent().unwrap();
    }
}

fn owner_park(ctx: &shrimp_sim::Ctx) {
    // The owner idles; fetches are served by its NIC without it.
    ctx.park();
}
