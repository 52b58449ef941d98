//! `Default` never reads the environment: with `VOLTASCOPE_NCCL_PROTO`
//! set, `NcclCosts::default()` and `TuningSpace::default()` still mean
//! the paper-calibrated singleton. Only callers that ask for
//! `TuningSpace::from_env` see the override.
//!
//! This file holds a single test so it runs as its own process:
//! setting the variable cannot race any other test.

use voltascope_comm::{collective::NcclCosts, TuningSpace, NCCL_PROTO_ENV};

#[test]
fn defaults_ignore_the_nccl_proto_override() {
    std::env::set_var(NCCL_PROTO_ENV, "ll128");
    assert_ne!(
        TuningSpace::from_env(),
        TuningSpace::paper(),
        "the override itself must be live"
    );
    assert_eq!(TuningSpace::default(), TuningSpace::paper());
    assert_eq!(NcclCosts::default().tuning, TuningSpace::paper());
}
