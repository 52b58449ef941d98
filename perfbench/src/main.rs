//! `perfbench`: the voltascope benchmark. Runs one named sweep workload
//! through `voltascope::service::GridService` for a fixed host-time
//! budget, checks every simulated answer, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer host-time ledger
//! (`--trace 1`), ending with one JSON line.
//!
//! ```text
//! perfbench --workload <fig3_cold|fig3_warm|whatif_faults> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --print-reference > perfbench/reference/cells.txt
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod ledger;
mod stats;
mod traffic;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ledger::Ledger;
use traffic::{Bench, Kind};

/// A run sets the workload up at least this many times; `setup_s` is
/// the median set-up.
const SETUP_MIN_REPS: usize = 3;

/// After each timed pass the workload is set up once more while set-ups
/// have taken less than this share of the timed passes' time, so the
/// set-up samples spread over the whole run as the passes do.
const SETUP_SHARE: f64 = 0.1;

/// Fewest timed passes a run reports `pass_ms_p90` from, so at least
/// ten samples lie beyond it.
const P90_MIN_PASSES: usize = 100;

/// The repository checkout the benchmark was built in.
fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Refuses to run under any `VOLTASCOPE_*` variable: the library reads
/// several (tuning space, thread count, workload source, cache) and any
/// of them would silently change the traffic.
fn refuse_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("VOLTASCOPE_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// A private directory inside the checkout for snapshots, removed when
/// the run ends.
struct Scratch(PathBuf);

impl Scratch {
    /// `.perfbench-tmp/<name>` under the checkout; `name` must be unique
    /// among concurrent users, so it starts with the process id.
    fn new(name: &str) -> Result<Self, String> {
        let dir = root().join(".perfbench-tmp").join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails harmlessly while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// SplitMix64: the seeded stream the request orders are drawn from.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Everything a run measured.
#[derive(Default)]
struct Run {
    setup_s: Vec<f64>,
    plain_ms: Vec<f64>,
    plain_cells: u64,
    peak_rss_mb: Vec<f64>,
    traced_ms: Vec<f64>,
    ledgers: Vec<Ledger>,
    attempted: u64,
    failed: u64,
    paper_err_pct: Vec<f64>,
    snapshot_bytes: Option<u64>,
}

/// Sets the workload up and runs one untimed warm-up pass, so the timed
/// passes run on a heap the process has already faulted in. Then runs
/// passes until they have taken `seconds` of host time, setting the
/// workload up again between them (see [`SETUP_SHARE`]). A traced run
/// alternates plain and traced passes, starting plain, and runs at
/// least one of each. Every pass, the warm-up included, is checked.
/// Each timed pass starts with a fresh peak-memory mark, so
/// `peak_rss_mb` is a median over passes.
fn measure(args: &Args, scratch: &Scratch) -> Result<(Run, bool), String> {
    let mut run = Run::default();
    let setup = |run: &mut Run| {
        let start = Instant::now();
        let bench = Bench::setup(args.workload, root(), &scratch.0);
        run.setup_s.push(start.elapsed().as_secs_f64());
        bench
    };
    let bench = setup(&mut run)?;
    let mut rng = SplitMix64(args.seed);
    let mut order = bench.cells().to_vec();
    let mut pass = |run: &mut Run, ledger: Option<&mut Ledger>| {
        rng.shuffle(&mut order);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| bench.pass(&order, ledger)));
        let pass_ms = traffic::ms_since(start);
        match outcome {
            Ok(o) => {
                run.attempted += o.cells;
                run.failed += o.failed;
                run.paper_err_pct.extend(o.paper_err_pct);
                run.snapshot_bytes = o.snapshot_bytes.or(run.snapshot_bytes);
            }
            Err(_) => {
                run.attempted += bench.cells_per_pass();
                run.failed += bench.cells_per_pass();
            }
        }
        pass_ms
    };
    pass(&mut run, None);

    let mut scoped_rss = true;
    let budget = args.seconds as f64;
    let mut timed_s = 0.0;
    loop {
        let traced = args.trace && run.plain_ms.len() > run.traced_ms.len();
        scoped_rss &= stats::reset_peak_rss();
        let mut ledger = Ledger::default();
        let pass_ms = pass(&mut run, traced.then_some(&mut ledger));
        timed_s += pass_ms / 1e3;
        if traced {
            run.traced_ms.push(pass_ms);
            run.ledgers.push(ledger);
        } else {
            run.plain_ms.push(pass_ms);
            run.plain_cells += bench.cells_per_pass();
            run.peak_rss_mb.push(stats::peak_rss_mb()?);
        }
        let setup_total: f64 = run.setup_s.iter().sum();
        if run.setup_s.len() < SETUP_MIN_REPS || setup_total < SETUP_SHARE * timed_s {
            drop(setup(&mut run)?);
        }
        let enough = !run.plain_ms.is_empty() && (!args.trace || !run.traced_ms.is_empty());
        if enough && timed_s >= budget {
            while run.setup_s.len() < SETUP_MIN_REPS {
                drop(setup(&mut run)?);
            }
            return Ok((run, scoped_rss));
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let scratch = Scratch::new(&std::process::id().to_string())?;
    let (run, scoped_rss) = measure(args, &scratch)?;
    drop(scratch);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let name = args.workload.name();
    println!(
        "perfbench {name}: seed {} seconds {} trace {} | host cores {cores}, workers {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        traffic::WORKERS
    );
    let passes = run.plain_ms.len() + run.traced_ms.len();
    println!(
        "timed passes {passes} ({} traced) after one warm-up, cells attempted {}, set-ups {}",
        run.traced_ms.len(),
        run.attempted,
        run.setup_s.len()
    );
    let error_rate = run.failed as f64 / run.attempted as f64;
    println!(
        "error_rate {error_rate} ratio ({} of {} cells failed)",
        run.failed, run.attempted
    );
    if let Some(&first) = run.paper_err_pct.first() {
        let same = run.paper_err_pct.iter().all(|&e| e == first);
        println!(
            "paper_err_pct {first:.4} % (fit error against the 10 paper-quoted calibration \
             targets; the model is unvalidated on held-out data; identical in every pass: {same})"
        );
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let rows: Vec<Vec<(&str, f64, &str)>> = run.ledgers.iter().map(Ledger::rows).collect();
        for (i, &(metric, _, unit)) in rows[0].iter().enumerate() {
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            metrics.push((metric, stats::median(&values), unit));
        }
        let overhead = stats::median(&run.traced_ms) - stats::median(&run.plain_ms);
        metrics.push(("trace.overhead_ms", overhead, "ms"));
        println!(
            "traced pass median {:.1} ms vs plain {:.1} ms ({} traced passes)",
            stats::median(&run.traced_ms),
            stats::median(&run.plain_ms),
            run.traced_ms.len()
        );
    } else {
        let total_s: f64 = run.plain_ms.iter().sum::<f64>() / 1e3;
        metrics.push(("cells_per_s", run.plain_cells as f64 / total_s, "1/s"));
        metrics.push(("setup_s", stats::median(&run.setup_s), "s"));
        metrics.push(("peak_rss_mb", stats::median(&run.peak_rss_mb), "MB"));
        println!(
            "pass_ms_p50 {} ms over {} passes; peak_rss_mb covers {}",
            stats::median(&run.plain_ms),
            run.plain_ms.len(),
            if scoped_rss {
                "each timed pass"
            } else {
                "the whole process (the kernel refused a reset)"
            }
        );
        if run.plain_ms.len() >= P90_MIN_PASSES {
            println!("pass_ms_p90 {} ms", stats::quantile(&run.plain_ms, 0.9));
        }
        if let Some(bytes) = run.snapshot_bytes {
            println!("snapshot_mb {} MB", bytes as f64 / 1e6);
        }
    }
    for (metric, value, unit) in &metrics {
        println!("{metric} {value} {unit}");
    }
    println!("{}", result_json(&run, &metrics)?);
    Ok(())
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(run: &Run, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (metric, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("{metric} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        fields.join(", ")
    ))
}

/// Prints the reference digest of every cell the workloads answer,
/// simulated on the direct grid path rather than through the service.
fn print_reference() -> Result<(), String> {
    println!("# Per-cell digests: <key> <scalar-statistics FNV-1a> <iteration-trace events>.");
    println!("# Written by `perfbench --print-reference`.");
    for (spec, harness, tuning) in traffic::reference_grids() {
        let out = voltascope::grid::epoch_reports(&harness, &spec, traffic::EXEC);
        for (cell, report) in out.iter() {
            let key = check::cell_key(cell, tuning);
            println!("{}", check::reference_line(&key, check::Digest::of(report)));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = refuse_overrides().and_then(|()| match &args[..] {
        [flag] if flag == "--print-reference" => print_reference(),
        [flag, path] if flag == traffic::WRITE_SNAPSHOT_FLAG => {
            traffic::write_fig3_snapshot(Path::new(path))
        }
        _ => parse_args(&args).and_then(|a| run(&a)),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_repeat_per_seed() {
        let draw = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            SplitMix64(seed).shuffle(&mut v);
            v
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fig3_warm --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::Fig3Warm, 3, 10, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv(
            "--workload fig3_cold --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload fig3_cold --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload fig3_cold --seed 3")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let run = Run {
            attempted: 10,
            failed: 1,
            ..Run::default()
        };
        let line = result_json(&run, &[("pass_ms_p50", 1.25, "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"pass_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(&run, &[("x", f64::NAN, "ms")]).is_err());
    }
}
