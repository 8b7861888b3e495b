//! The five `examples/` in tier 1. Each `main` asserts its own pinned
//! outcome — the values it prints and the virtual instant it ends at —
//! so running it is the test; before this file `cargo test` compiled
//! the examples and nothing executed them.

#[path = "../examples/file_transfer.rs"]
mod file_transfer;
#[path = "../examples/heat_stencil.rs"]
mod heat_stencil;
#[path = "../examples/idl_calculator.rs"]
mod idl_calculator;
#[path = "../examples/kv_server.rs"]
mod kv_server;
#[path = "../examples/quickstart.rs"]
mod quickstart;

#[test]
fn quickstart_holds_its_pinned_outcome() {
    quickstart::main();
}

#[test]
fn heat_stencil_holds_its_pinned_outcome() {
    heat_stencil::main();
}

#[test]
fn kv_server_holds_its_pinned_outcome() {
    kv_server::main();
}

#[test]
fn file_transfer_holds_its_pinned_outcome() {
    file_transfer::main();
}

#[test]
fn idl_calculator_holds_its_pinned_outcome() {
    idl_calculator::main();
}
