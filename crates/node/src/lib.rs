//! # shrimp-node — the commodity PC node model
//!
//! Each SHRIMP node is a DEC 560ST PC: a 60 MHz Pentium with a 256 KB
//! second-level cache on an Intel Xpress motherboard (73 MB/s burst
//! memory bus) and an EISA expansion bus (33 MB/s burst, bus-mastering
//! DMA), running Linux. This crate models the parts of that machine the
//! communication system touches:
//!
//! * [`PhysMem`] / [`PageAllocator`] — DRAM and page frames;
//! * [`AddressSpace`] — per-process page tables with per-page cache modes
//!   ([`CacheMode`]): write-back, write-through (snoopable by the NIC),
//!   or uncached;
//! * [`Node`] — the buses as contended bandwidth resources, DMA service
//!   used by the NIC, the snoop hook, and interrupts;
//! * [`UserProc`] — timed user-level memory operations (stores, loads,
//!   copies, polls) charged through the calibrated [`CostModel`];
//! * [`Ethernet`] — the slow commodity side channel used for connection
//!   establishment and diagnostics.
//!
//! ```
//! use shrimp_sim::Kernel;
//! use shrimp_mesh::NodeId;
//! use shrimp_node::{Node, UserProc, CostModel, CacheMode};
//!
//! let kernel = Kernel::new();
//! let node = Node::new(kernel.handle(), NodeId(0), 1024, CostModel::shrimp_prototype());
//! kernel.spawn("app", move |ctx| {
//!     let proc_ = UserProc::new(node, "app");
//!     let buf = proc_.alloc(4096, CacheMode::WriteBack);
//!     proc_.write(ctx, buf, b"hello").unwrap();
//!     assert_eq!(proc_.read(ctx, buf, 5).unwrap(), b"hello");
//! });
//! kernel.run_until_quiescent()?;
//! # Ok::<(), shrimp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod costs;
mod ethernet;
mod memory;
mod mmu;
mod node;
mod user;

pub use costs::CostModel;
pub use ethernet::{EthAddr, EthFrame, Ethernet};
pub use memory::{PAddr, PageAllocator, PhysMem, VAddr, PAGE_SIZE};
pub use mmu::{AddressSpace, CacheMode, MemFault, Pte};
pub use node::{Interrupt, Node, SnoopWrite};
pub use user::{StoreEnd, UserProc};
