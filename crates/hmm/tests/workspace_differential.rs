//! Differential properties of the zero-allocation `_into` kernels: a
//! reused workspace against a fresh one, on seeded generated cases.
//!
//! One `EmWorkspace`/`DecodeWorkspace` pair is reused across *all* cases
//! deliberately: the property under test is not just "same numbers on a
//! fresh arena" but "a workspace dirtied by an arbitrary previous case
//! (different length included) never leaks into the next result". The
//! contract is bit-equality — the same arithmetic runs either way.
//!
//! Any failure prints a `TESTKIT_SEED=… TESTKIT_CASES=1` line that
//! replays the exact (already minimized) counterexample.

use sstd_hmm::{BaumWelch, DecodeWorkspace, EmWorkspace};
use sstd_testkit::{check, domain, oracle};

/// Number of cases per differential suite (overridable via
/// `TESTKIT_CASES`).
const CASES: usize = 1_000;

#[test]
fn reused_workspace_kernels_are_bit_identical_to_fresh_ones() {
    let mut em = EmWorkspace::new();
    let mut decode = DecodeWorkspace::new();
    check(
        "reused_workspace_kernels_are_bit_identical_to_fresh_ones",
        CASES,
        &domain::hmm_case(16),
        |case| oracle::check_workspace_kernels(&case.hmm(), &case.obs, &mut em, &mut decode),
    );
}

#[test]
fn reused_workspace_training_is_bit_identical_to_fresh_training() {
    let mut em = EmWorkspace::new();
    // tolerance 0 forces the full iteration budget, so the emission
    // M-step runs on every iteration of every case.
    let trainer = BaumWelch::default().max_iterations(8).tolerance(0.0);
    check(
        "reused_workspace_training_is_bit_identical_to_fresh_training",
        CASES,
        &domain::hmm_case(12),
        |case| oracle::check_workspace_training(&trainer, &case.hmm(), &case.obs, &mut em),
    );
}
