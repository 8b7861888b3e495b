//! Bus-contention integration tests: the shared-resource model that
//! shapes every bandwidth curve in the evaluation.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, CostModel, Node, PAddr, UserProc};
use shrimp_sim::{Kernel, SimDur, SimTime};

fn node_on(kernel: &Kernel) -> Arc<Node> {
    Node::new(
        kernel.handle(),
        NodeId(0),
        1024,
        CostModel::shrimp_prototype(),
    )
}

#[test]
fn dma_delays_cpu_copy_on_the_memory_bus() {
    // A large incoming DMA stream and a CPU copy contend for the Xpress
    // bus: the copy must take longer than it would alone.
    fn copy_time(with_dma: bool) -> SimDur {
        let kernel = Kernel::new();
        let node = node_on(&kernel);
        let out: Arc<Mutex<SimDur>> = Arc::new(Mutex::new(SimDur::ZERO));
        if with_dma {
            // 10 x 32 KB of DMA arriving back to back.
            for i in 0..10u64 {
                let n = Arc::clone(&node);
                kernel.schedule_in(SimDur::from_us(i as f64), move || {
                    n.dma_write(PAddr(i * 32_768), vec![0xAA; 32_768], |_, _| {});
                });
            }
        }
        {
            let node = Arc::clone(&node);
            let out = Arc::clone(&out);
            kernel.spawn("copier", move |ctx| {
                let p = UserProc::new(node, "copier");
                let src = p.alloc(128 * 1024, CacheMode::WriteBack);
                let dst = p.alloc(128 * 1024, CacheMode::WriteBack);
                let t0 = ctx.now();
                p.copy(ctx, src, dst, 128 * 1024).unwrap();
                *out.lock() = ctx.now() - t0;
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = *out.lock();
        v
    }
    let alone = copy_time(false);
    let contended = copy_time(true);
    assert!(
        contended > alone + SimDur::from_us(100.0),
        "contended copy {contended} should exceed uncontended {alone}"
    );
}

#[test]
fn back_to_back_dma_reads_and_writes_share_eisa() {
    let kernel = Kernel::new();
    let node = node_on(&kernel);
    node.mem().write(PAddr(0), &[1u8; 16_384]);
    let times: Arc<Mutex<Vec<SimTime>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let t = Arc::clone(&times);
        node.dma_read(PAddr(0), 16_384, move |at, data| {
            assert_eq!(data.len(), 16_384);
            t.lock().push(at);
        });
    }
    {
        let t = Arc::clone(&times);
        node.dma_write(PAddr(65_536), vec![2u8; 16_384], move |_, at| {
            t.lock().push(at)
        });
    }
    kernel.run_until_quiescent().unwrap();
    let times = times.lock();
    // 16 KB at 30 MB/s = 546 us each; the second transfer must queue
    // behind the first on the EISA bus.
    let gap = times[1] - times[0];
    assert!(
        gap >= SimDur::from_us(500.0),
        "EISA serialization gap {gap}"
    );
}

#[test]
fn writethrough_stores_contend_with_dma() {
    // Write-through store runs reserve memory-bus bandwidth; heavy DMA
    // traffic slows them down.
    fn store_time(with_dma: bool) -> SimDur {
        let kernel = Kernel::new();
        let node = node_on(&kernel);
        if with_dma {
            for i in 0..20u64 {
                let n = Arc::clone(&node);
                kernel.schedule_in(SimDur::from_us(i as f64 * 10.0), move || {
                    n.dma_write(PAddr(i * 32_768), vec![0xAA; 32_768], |_, _| {});
                });
            }
        }
        let out: Arc<Mutex<SimDur>> = Arc::new(Mutex::new(SimDur::ZERO));
        {
            let node = Arc::clone(&node);
            let out = Arc::clone(&out);
            kernel.spawn("storer", move |ctx| {
                let p = UserProc::new(node, "storer");
                let buf = p.alloc(64 * 1024, CacheMode::WriteThrough);
                let t0 = ctx.now();
                p.write(ctx, buf, &vec![7u8; 64 * 1024]).unwrap();
                *out.lock() = ctx.now() - t0;
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = *out.lock();
        v
    }
    let alone = store_time(false);
    let contended = store_time(true);
    assert!(contended > alone, "contended {contended} vs alone {alone}");
}

#[test]
#[should_panic(expected = "interrupt with no handler")]
fn interrupt_without_handler_is_a_configuration_bug() {
    let kernel = Kernel::new();
    let node = node_on(&kernel);
    node.raise_interrupt(shrimp_node::Interrupt { vector: 1, info: 0 });
    let _ = kernel.run_until_quiescent();
}

#[test]
fn write_back_traffic_stays_off_the_bus_model() {
    // Write-back stores charge no memory-bus reservation: a concurrent
    // DMA stream finishes at the same time with or without them.
    fn dma_done(with_stores: bool) -> SimTime {
        let kernel = Kernel::new();
        let node = node_on(&kernel);
        let done: Arc<Mutex<SimTime>> = Arc::new(Mutex::new(SimTime::ZERO));
        {
            let d = Arc::clone(&done);
            node.dma_write(PAddr(0), vec![1u8; 65_536], move |_, at| *d.lock() = at);
        }
        if with_stores {
            let node = Arc::clone(&node);
            kernel.spawn("storer", move |ctx| {
                let p = UserProc::new(node, "storer");
                let buf = p.alloc(64 * 1024, CacheMode::WriteBack);
                p.write(ctx, buf, &vec![7u8; 64 * 1024]).unwrap();
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = *done.lock();
        v
    }
    assert_eq!(dma_done(false), dma_done(true));
}
