//! Bulk data over the stream-sockets library: a client "uploads a file"
//! to a server that verifies a rolling checksum, exactly the kind of
//! code that ran unmodified on the prototype's socket layer.
//!
//! Run with: `cargo run --example file_transfer`

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::prelude::*;
use shrimp::sim::SplitMix64;
use shrimp::sockets::{connect, listen, SocketVariant};

const FILE_BYTES: usize = 200_000;
const PORT: u16 = 8080;

fn checksum(acc: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(acc, |a, &b| a.wrapping_mul(31).wrapping_add(b as u64))
}

/// The upload's checksum, and when the run ends in virtual picoseconds.
const CHECKSUM: u64 = 0x0ac1_f9e8_c54c_27ad;
const FINISH_PS: u64 = 10_164_874_795;

pub(crate) fn main() {
    let kernel = Kernel::new();
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let stats: Arc<Mutex<(u64, usize, f64)>> = Arc::new(Mutex::new((0, 0, 0.0)));

    // --- Server on node 2 ---------------------------------------------
    {
        let vmmc = system.endpoint(2, "file-server");
        let eth = Arc::clone(system.ethernet());
        let stats = Arc::clone(&stats);
        kernel.spawn("file-server", move |ctx| {
            let listener = listen(vmmc, eth, PORT);
            let mut sock = listener.accept(ctx).unwrap();
            // 8-byte header: the file length.
            let hdr = sock.recv_exact(ctx, 8).unwrap();
            let total = u64::from_le_bytes(hdr.try_into().unwrap()) as usize;
            let t0 = ctx.now();
            let mut got = 0usize;
            let mut sum = 0u64;
            while got < total {
                let chunk = sock.recv(ctx, 8192).unwrap();
                assert!(!chunk.is_empty(), "stream ended early");
                sum = checksum(sum, &chunk);
                got += chunk.len();
            }
            let secs = (ctx.now() - t0).as_secs();
            *stats.lock() = (sum, got, got as f64 / secs / 1e6);
            // Acknowledge with the checksum.
            sock.send(ctx, &sum.to_le_bytes()).unwrap();
            sock.close(ctx).unwrap();
        });
    }

    // --- Client on node 0 ----------------------------------------------
    {
        let vmmc = system.endpoint(0, "uploader");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("uploader", move |ctx| {
            let mut sock =
                connect(vmmc, ctx, &eth, NodeId(2), PORT, SocketVariant::Du1Copy).unwrap();
            // Deterministic pseudo-random "file".
            let mut rng = SplitMix64::new(0x5EED);
            let mut file = vec![0u8; FILE_BYTES];
            rng.fill_bytes(&mut file);
            let expect = checksum(0, &file);

            sock.send(ctx, &(FILE_BYTES as u64).to_le_bytes()).unwrap();
            // Stream in odd-sized application writes.
            for chunk in file.chunks(7321) {
                sock.send(ctx, chunk).unwrap();
            }
            let ack = sock.recv_exact(ctx, 8).unwrap();
            let got = u64::from_le_bytes(ack.try_into().unwrap());
            assert_eq!(got, expect, "checksum mismatch");
            println!("uploader: server confirmed checksum {got:#018x}");
            sock.close(ctx).unwrap();
        });
    }

    kernel.run_until_quiescent().expect("file transfer failed");
    assert!(system.violations().is_empty());
    let (sum, bytes, mbs) = *stats.lock();
    println!("server: received {bytes} bytes, checksum {sum:#018x}");
    println!("goodput: {mbs:.1} MB/s over the DU-1copy socket (simulated 1996 hardware)");
    // Virtual time is exact: tests/examples.rs runs this `main`.
    assert_eq!((sum, bytes), (CHECKSUM, FILE_BYTES));
    assert_eq!(kernel.now().as_ps(), FINISH_PS);
}
