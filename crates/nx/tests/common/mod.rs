//! Shared by the NX integration tests.

use shrimp_core::ShrimpSystem;
use shrimp_sim::Kernel;

/// Run to quiescence and require what a finished NX job shows: no
/// process panicked, no protection violation, and nothing still parked.
/// `run_until_quiescent` returns `Ok` while processes are parked (a
/// daemon may be, by design; an NX world has none), so without the last
/// check a rank left waiting forever — for a large message whose sender
/// returned without `flush`, say — passes unnoticed, together with
/// every assertion it never reached.
pub(crate) fn run_to_completion(kernel: &Kernel, system: &ShrimpSystem) {
    kernel
        .run_until_quiescent()
        .expect("NX world simulation failed");
    assert!(system.violations().is_empty(), "protection violations");
    let parked = kernel.parked_processes();
    assert!(parked.is_empty(), "still parked at quiescence: {parked:?}");
}
