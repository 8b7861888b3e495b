//! The fault path in tier 1: the chaos harness's collective workload —
//! barriers and verified 2 KiB allreduces between two ranks — under the
//! scripted incoming-page-table violation and the first generated light
//! plan (one each of a link stall, a brownout, a DMA stall, an IPT
//! violation, a daemon crash and a fetch stall), beside the healthy
//! baseline they are budgeted against.
//! `shrimp-coll`'s flags and acks are automatic-update stores, which
//! return no error: a control word lost behind a freeze or a stall would
//! surface here, as a hang, a wrong sum or a run over its delay budget.
//! `run_matrix` asserts the recovery contracts cell by cell (bounded
//! delay, no speed-up, the scripted shot's freeze → repair traversal);
//! the whole matrix must then replay byte for byte.

use shrimp_bench::chaos::{default_matrix, render_report, run_matrix, Workload};

#[test]
fn coll_cell_holds_its_contracts_under_faults_and_replays_bit_identically() {
    let mut matrix = default_matrix(2, &[1]);
    matrix.retain(|(name, _)| name != "heavy-1");
    let names: Vec<&str> = matrix.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["baseline", "scripted-ipt", "light-1"]);

    let first = run_matrix(Workload::Coll, &matrix);
    assert_eq!(first[2].events, 6, "light-1 draws one fault of each kind");
    let replayed = run_matrix(Workload::Coll, &matrix);
    assert_eq!(render_report(&first), render_report(&replayed));
}
