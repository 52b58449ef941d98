//! Quantifies task-DAG branch overlap on the branchy zoo networks.
//!
//! The `workloads/dag/` exports carry the real graph edges of
//! GoogLeNet and Inception-v3 (`workload v2` with `dep` lines).
//! Lowered with those edges, independent inception branches become
//! parallel kernel chains; on a system model with two compute streams
//! per GPU they genuinely overlap. This benchmark times each DAG
//! export against its *linear twin* — the same spec with every `dep`
//! erased, which lowers to the classic serial chain — at the same
//! stream capacity, so the speedup isolates branch overlap. The
//! reported critical chain is the schedule's blocking chain through
//! the steady-state iteration: with branches overlapped it threads
//! through only one side of each inception block.
//!
//! Deterministic and environment-insensitive: no grid service, no
//! jitter, no thread pool — `VOLTASCOPE_THREADS` must not change a
//! byte of the output.

use voltascope::calibration::dgx1_system;
use voltascope::workloads::{load_dir, workload_dir};
use voltascope_comm::CommMethod;
use voltascope_profile::TextTable;
use voltascope_train::{simulate_epoch_lowered, TrainConfig};
use voltascope_workload::lower;

const BATCH: usize = 32;

fn main() {
    let dag_dir = workload_dir().join("dag");
    let loaded = load_dir(&dag_dir);
    if let Some(e) = loaded.errors.first() {
        panic!("{e}");
    }
    let specs = loaded.specs;
    assert!(
        !specs.is_empty(),
        "no .workload files under {} — run export_workloads first",
        dag_dir.display()
    );

    // Two compute streams per GPU: enough for the inception branches
    // to pair up, while the calibrated single-stream model stays the
    // default everywhere else.
    let mut sys = dgx1_system();
    sys.compute_streams = 2;

    let mut table = TextTable::new([
        "Workload",
        "GPUs",
        "Comm",
        "Linear iter (s)",
        "DAG iter (s)",
        "Speedup",
    ]);
    let mut chains: Vec<(String, Vec<String>)> = Vec::new();

    for (_, spec) in &specs {
        let mut linear = spec.clone();
        for l in &mut linear.layers {
            l.deps = None;
        }
        let dag = lower(spec, BATCH).expect("lower DAG spec");
        let lin = lower(&linear, BATCH).expect("lower linear twin");
        assert!(dag.dag.is_some(), "{} carries no dep edges", spec.name);

        for (gpus, comm) in [(1usize, CommMethod::P2p), (4, CommMethod::Nccl)] {
            let cfg = TrainConfig::strong(BATCH, gpus, comm);
            let d = simulate_epoch_lowered(&sys, &dag, &cfg);
            let l = simulate_epoch_lowered(&sys, &lin, &cfg);
            table.row([
                spec.name.clone(),
                gpus.to_string(),
                comm.name().to_string(),
                format!("{:.4}", l.iter_time.as_secs_f64()),
                format!("{:.4}", d.iter_time.as_secs_f64()),
                format!(
                    "{:.3}x",
                    l.iter_time.as_secs_f64() / d.iter_time.as_secs_f64()
                ),
            ]);
            if gpus == 1 {
                chains.push((spec.name.clone(), d.critical_chain));
            }
        }
    }

    println!(
        "DAG exports from `workloads/dag/` vs their dep-erased linear twins, \
         batch {BATCH}/GPU, {} compute streams:",
        sys.compute_streams
    );
    voltascope_bench::emit("DAG overlap: branchy networks", &table);

    for (name, chain) in &chains {
        let head: Vec<&str> = chain.iter().take(6).map(String::as_str).collect();
        println!(
            "critical chain {name} ({} tasks): {} ...",
            chain.len(),
            head.join(" -> ")
        );
    }
}
