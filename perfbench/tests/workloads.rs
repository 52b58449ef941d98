//! Each workload, run end to end through the benchmark binary in traced
//! mode: every answer is correct, the deterministic counts repeat
//! exactly across runs with different request orders, and each
//! workload still exercises the layer it exists for.

use std::process::Command;

/// One traced run's result line.
struct Traced {
    line: String,
}

impl Traced {
    fn run(workload: &str, seed: u64) -> Self {
        let out = Command::new(env!("CARGO_BIN_EXE_voltascope-perfbench"))
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", "1", "--trace", "1"])
            .output()
            .expect("benchmark runs");
        assert!(
            out.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let line = stdout.lines().last().expect("a result line").to_string();
        assert!(
            line.starts_with("{\"correct\": true, "),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        Traced { line }
    }

    fn metric(&self, name: &str) -> f64 {
        let key = format!("\"{name}\": {{\"value\": ");
        let start = self.line.find(&key).unwrap_or_else(|| panic!("no {name}")) + key.len();
        let len = self.line[start..].find(',').expect("value ends");
        self.line[start..start + len].parse().expect("a number")
    }
}

/// The counts that must repeat exactly from run to run.
const COUNTS: [&str; 8] = [
    "comm.tuner_calls",
    "comm.tuner_candidates",
    "train.trace_events",
    "train.critical_chain_len",
    "service.hit_rate",
    "service.computed",
    "persist.snapshot_bytes",
    "persist.trace_decodes",
];

fn two_runs(workload: &str) -> Traced {
    let (a, b) = (Traced::run(workload, 1), Traced::run(workload, 2));
    for count in COUNTS {
        assert_eq!(a.metric(count), b.metric(count), "{workload} {count}");
    }
    a
}

#[test]
fn fig3_cold_computes_every_cell_without_searching_the_tuner() {
    let t = two_runs("fig3_cold");
    assert_eq!(t.metric("service.hit_rate"), 0.0);
    assert_eq!(t.metric("service.computed"), 120.0);
    assert_eq!(t.metric("train.trace_events"), 494_304.0);
    assert!(t.metric("comm.tuner_calls") > 0.0);
    assert_eq!(
        t.metric("comm.tuner_candidates"),
        0.0,
        "the paper space short-circuits"
    );
    assert!(t.metric("persist.encode_ms") > 0.0);
    assert!(t.metric("persist.snapshot_bytes") > 0.0);
}

#[test]
fn fig3_warm_computes_nothing_and_decodes_traces_lazily() {
    let t = two_runs("fig3_warm");
    assert_eq!(t.metric("service.computed"), 0.0);
    assert_eq!(t.metric("service.hit_rate"), 1.0);
    assert_eq!(t.metric("persist.trace_decodes"), 32.0);
    assert!(t.metric("persist.load_ms") > 0.0);
    assert_eq!(t.metric("persist.encode_ms"), 0.0);
}

#[test]
fn whatif_faults_tuner_simulates_several_candidates_per_call() {
    let t = two_runs("whatif_faults");
    assert_eq!(t.metric("service.computed"), 60.0);
    let calls = t.metric("comm.tuner_calls");
    assert!(calls > 0.0);
    assert!(t.metric("comm.tuner_candidates") > calls);
    assert!(t.metric("comm.tuner_ms") > 0.0);
}

#[test]
fn refuses_to_run_under_a_voltascope_variable() {
    let out = Command::new(env!("CARGO_BIN_EXE_voltascope-perfbench"))
        .args([
            "--workload",
            "fig3_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("VOLTASCOPE_THREADS", "1")
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result without a run");
}
