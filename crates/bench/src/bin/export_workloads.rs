//! Exports the Rust model-zoo networks as checked-in `.workload`
//! files (the "workloads as data" path), and verifies them.
//!
//! Default mode regenerates every zoo file under the workload
//! directory (`VOLTASCOPE_WORKLOAD_DIR` or the repository's
//! `workloads/`). `--check` instead byte-compares each file against
//! the builder-derived canonical text and exits non-zero on any drift
//! or on any file that does not load. Every zoo cell times from these
//! files, so this is the one check that they match the Rust builders.

use std::path::PathBuf;
use std::process::ExitCode;

use voltascope::workloads::workload_dir;
use voltascope_dnn::zoo;
use voltascope_workload::WorkloadSpec;

/// The exported zoo: the five paper workloads plus the VGG-16
/// extension, with their stable file stems.
fn exports() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("lenet", WorkloadSpec::from_model(&zoo::lenet())),
        ("alexnet", WorkloadSpec::from_model(&zoo::alexnet())),
        ("googlenet", WorkloadSpec::from_model(&zoo::googlenet())),
        ("resnet", WorkloadSpec::from_model(&zoo::resnet50())),
        (
            "inception_v3",
            WorkloadSpec::from_model(&zoo::inception_v3()),
        ),
        ("vgg16", WorkloadSpec::from_model(&zoo::vgg16())),
    ]
}

/// The DAG exports: the two genuinely branchy zoo networks with their
/// real graph edges (`workload v2` with `dep` lines). They live in the
/// `dag/` subdirectory so the flat data-workload registry — and the
/// jitter salt tags derived from its filename order — stays untouched.
fn dag_exports() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("googlenet", WorkloadSpec::from_model_dag(&zoo::googlenet())),
        (
            "inception_v3",
            WorkloadSpec::from_model_dag(&zoo::inception_v3()),
        ),
    ]
}

/// Regenerates (or, in check mode, byte-compares) one export.
fn sync(path: &std::path::Path, spec: &WorkloadSpec, check: bool, drift: &mut usize) {
    let canonical = spec.to_text();
    if check {
        match std::fs::read_to_string(path) {
            Ok(on_disk) if on_disk == canonical => {
                println!("ok      {} ({} layers)", path.display(), spec.layers.len());
            }
            Ok(_) => {
                eprintln!("DRIFT   {} differs from the builder export", path.display());
                *drift += 1;
            }
            Err(e) => {
                eprintln!("MISSING {} ({e})", path.display());
                *drift += 1;
            }
        }
    } else {
        let dir = path.parent().expect("export path has a directory");
        std::fs::create_dir_all(dir).expect("create workload directory");
        std::fs::write(path, &canonical).expect("write workload file");
        println!("wrote   {} ({} layers)", path.display(), spec.layers.len());
    }
}

/// Loads every workload under `dir` (hand-written files included), so
/// an unreadable file or a syntax error in any checked-in file fails
/// the gate with its path and line/column.
fn parse_all(dir: &std::path::Path, drift: &mut usize) {
    let loaded = voltascope::workloads::load_dir(dir);
    for (path, spec) in &loaded.specs {
        println!(
            "parsed  {} (name `{}`, {} stages)",
            path.display(),
            spec.name,
            spec.pipeline_stages
        );
    }
    for e in &loaded.errors {
        eprintln!("PARSE   {e}");
        *drift += 1;
    }
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let dir: PathBuf = workload_dir();
    let dag_dir = dir.join("dag");
    let mut drift = 0usize;
    for (stem, spec) in exports() {
        sync(
            &dir.join(format!("{stem}.workload")),
            &spec,
            check,
            &mut drift,
        );
    }
    for (stem, spec) in dag_exports() {
        sync(
            &dag_dir.join(format!("{stem}.workload")),
            &spec,
            check,
            &mut drift,
        );
    }
    if check {
        parse_all(&dir, &mut drift);
        parse_all(&dag_dir, &mut drift);
    }
    if drift > 0 {
        eprintln!("{drift} workload file(s) out of sync; run export_workloads to regenerate");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
