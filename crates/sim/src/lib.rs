//! # shrimp-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate for the SHRIMP multicomputer
//! reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDur`] — integer-picosecond virtual time;
//! * [`Kernel`] — a deterministic event loop;
//! * [`Ctx`] — *blocking processes*: protocol code runs on dedicated OS
//!   threads but the kernel interleaves them one-at-a-time in virtual-time
//!   order, so message-passing libraries are written in the same natural
//!   blocking style the original SHRIMP libraries were;
//! * [`SimBuf`] — the zero-copy payload buffer shared by every
//!   datapath station (packetizer, mesh, incoming DMA);
//! * [`BandwidthResource`] — FIFO-arbitrated buses and links;
//! * [`WaitQueue`], [`SimChannel`] — blocking synchronization;
//! * [`SplitMix64`] — a deterministic PRNG for workload generators;
//! * [`faults`] — deterministic fault injection ([`FaultPlan`],
//!   [`StallWindows`], [`RetryPolicy`]) shared by every layer's chaos
//!   hooks.
//!
//! ## Determinism
//!
//! Same program + same seeds = identical event order and timestamps on
//! every run. All scheduling ties break FIFO by sequence number, and only
//! one thread executes at a time, so there are no racy interleavings.
//! Benchmarks in this repository therefore need no repetition for
//! statistical confidence — a single simulated run is exact.
//!
//! ## Example
//!
//! ```
//! use shrimp_sim::{Kernel, SimDur, SimChannel};
//!
//! let kernel = Kernel::new();
//! let ch: SimChannel<&'static str> = SimChannel::new();
//!
//! let rx = ch.clone();
//! kernel.spawn("server", move |ctx| {
//!     let msg = rx.recv(ctx);
//!     assert_eq!(msg, "ping");
//!     assert_eq!(ctx.now().as_us(), 3.0);
//! });
//!
//! let tx = ch.clone();
//! kernel.spawn("client", move |ctx| {
//!     ctx.advance(SimDur::from_us(3.0)); // think time
//!     tx.send(&ctx.handle(), "ping");
//! });
//!
//! kernel.run_until_quiescent()?;
//! # Ok::<(), shrimp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod buf;
pub mod faults;
mod kernel;
pub mod metrics;
mod process;
mod resource;
mod rng;
mod sched;
mod sync;
mod time;

pub use buf::SimBuf;
pub use faults::{
    FaultEvent, FaultKind, FaultLog, FaultPlan, FaultSpec, RetryPolicy, StallWindows,
};
pub use kernel::{Kernel, SimError, TraceEvent, Tracer};
pub use metrics::{MetricsGuard, MetricsRegistry, MetricsSnapshot};
pub use process::{Ctx, SimHandle};
pub use resource::{BandwidthResource, Grant};
pub use rng::{Fnv1a, SplitMix64};
pub use sched::{Probe, ProcessId};
pub use sync::{SimChannel, WaitQueue};
pub use time::{SimDur, SimTime};
