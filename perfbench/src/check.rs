//! The correctness gate: per-cell digests of the simulated statistics
//! against a recorded reference, the rendered tables against the
//! repository's golden files, and the fit error against the figures
//! the paper quotes.

use std::collections::HashMap;
use std::path::Path;

use voltascope::grid::Cell;
use voltascope::WorkloadSel;
use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_train::EpochReport;

/// What the gate compares for one cell: a hash of the deterministic
/// scalar statistics, and the length of the kept iteration trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a over `epoch_time`, `iter_time`, `fp_bp_iter`, `wu_iter`,
    /// `api_iter`, `sync_wall_iter` and `critical_chain`.
    pub scalars: u64,
    /// Number of events in `iter_trace`.
    pub trace_events: usize,
}

impl Digest {
    /// Digest of one simulated report.
    pub fn of(report: &EpochReport) -> Self {
        let mut h = Fnv::default();
        for span in [
            report.epoch_time,
            report.iter_time,
            report.fp_bp_iter,
            report.wu_iter,
        ] {
            h.u64(span.as_nanos());
        }
        for (api, span) in &report.api_iter {
            h.bytes(api.as_bytes());
            h.u64(span.as_nanos());
        }
        h.u64(report.sync_wall_iter.as_nanos());
        for link in &report.critical_chain {
            h.bytes(link.as_bytes());
        }
        Digest {
            scalars: h.0,
            trace_events: report.iter_trace.len(),
        }
    }
}

/// 64-bit FNV-1a; every field is length- or width-delimited so
/// adjacent fields cannot alias.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        s.iter().for_each(|&b| self.byte(b));
    }
}

/// The reference key of a cell simulated under the named tuning space.
/// Keys carry the space because the same grid point answers
/// differently under the paper singleton and the modern space.
pub fn cell_key(cell: &Cell, tuning: &str) -> String {
    format!(
        "{}|{}|b{}|g{}|{:?}|{:?}|{:?}|{tuning}",
        cell.workload.name(),
        cell.comm.name(),
        cell.batch,
        cell.gpus,
        cell.scaling,
        cell.platform,
        cell.fault
    )
}

/// One reference line: `<key> <scalar digest hex> <trace events>`.
pub fn reference_line(key: &str, digest: Digest) -> String {
    format!("{key} {:016x} {}", digest.scalars, digest.trace_events)
}

/// Reference digests recorded from a known-good build.
#[derive(Debug)]
pub struct Reference(HashMap<String, Digest>);

impl Reference {
    /// Reads a reference file written by `--print-reference`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading reference {}: {e}", path.display()))?;
        Self::parse(&text, &path.display().to_string())
    }

    /// Parses reference text; `origin` names it in error messages.
    pub fn parse(text: &str, origin: &str) -> Result<Self, String> {
        let mut cells = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("{origin}:{}: malformed reference line", n + 1);
            let mut fields = line.split(' ');
            let (Some(key), Some(scalars), Some(events), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            let digest = Digest {
                scalars: u64::from_str_radix(scalars, 16).map_err(|_| bad())?,
                trace_events: events.parse().map_err(|_| bad())?,
            };
            if cells.insert(key.to_string(), digest).is_some() {
                return Err(format!("{origin}:{}: duplicate key {key}", n + 1));
            }
        }
        Ok(Reference(cells))
    }

    /// Whether `report` matches the reference for `key`. A report
    /// served without its trace (a table-only answer from a lazily
    /// loaded snapshot) is checked on its scalars alone.
    pub fn matches(&self, key: &str, report: &EpochReport, with_trace: bool) -> bool {
        let Some(want) = self.0.get(key) else {
            return false;
        };
        let got = Digest::of(report);
        got.scalars == want.scalars && (!with_trace || got.trace_events == want.trace_events)
    }

    /// The recorded trace length for `key`.
    pub fn trace_events(&self, key: &str) -> Option<usize> {
        self.0.get(key).map(|d| d.trace_events)
    }
}

/// The Fig. 3 render exactly as the `fig3_training_time` binary prints it.
pub fn fig3_text(table: &str) -> String {
    format!("== Fig. 3: Training time per epoch (s) ==\n{table}\n")
}

/// One section of the `idle_time` binary's output.
pub fn idle_section(cell: &Cell, table: &str) -> String {
    format!(
        "== {} / {} / {} GPUs ==\n{table}\n",
        cell.workload.name(),
        cell.comm.name(),
        cell.gpus
    )
}

/// The ten paper-quoted ratios the calibration targets, as
/// `(model, paper)` pairs, from batch-16 epoch times looked up by
/// `(workload, comm, gpus)`:
///
/// * LeNet P2P strong-scaling speedups of 1.62 / 2.37 / 3.36 at 2 / 4 / 8 GPUs (§V-A);
/// * LeNet 1-GPU NCCL overhead of 21.8 % (§V-B);
/// * NCCL-over-P2P gains at 4 / 8 GPUs: GoogLeNet 1.1 / 1.2, ResNet and
///   Inception-v3 1.1 / 1.25 each (§V-A).
pub fn paper_ratios(epoch_s: impl Fn(Workload, CommMethod, usize) -> f64) -> Vec<(f64, f64)> {
    let lenet = |comm, gpus| epoch_s(Workload::LeNet, comm, gpus);
    let mut pairs: Vec<(f64, f64)> = [(2, 1.62), (4, 2.37), (8, 3.36)]
        .into_iter()
        .map(|(gpus, paper)| {
            (
                lenet(CommMethod::P2p, 1) / lenet(CommMethod::P2p, gpus),
                paper,
            )
        })
        .collect();
    let (p2p, nccl) = (lenet(CommMethod::P2p, 1), lenet(CommMethod::Nccl, 1));
    pairs.push((100.0 * (nccl - p2p) / p2p, 21.8));
    for (w, gains) in [
        (Workload::GoogLeNet, [1.1, 1.2]),
        (Workload::ResNet, [1.1, 1.25]),
        (Workload::InceptionV3, [1.1, 1.25]),
    ] {
        for (gpus, paper) in [4, 8].into_iter().zip(gains) {
            let gain = epoch_s(w, CommMethod::P2p, gpus) / epoch_s(w, CommMethod::Nccl, gpus);
            pairs.push((gain, paper));
        }
    }
    pairs
}

/// Mean absolute relative error of `(model, paper)` pairs, in percent.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|(m, p)| ((m - p) / p).abs()).sum();
    100.0 * sum / pairs.len() as f64
}

/// The fit error of a Fig. 3 sweep against the paper figures, or `None`
/// when the cells needed are not all among `cells`.
pub fn paper_err_pct<'a>(
    cells: impl IntoIterator<Item = (&'a Cell, &'a EpochReport)>,
) -> Option<f64> {
    let secs: HashMap<(WorkloadSel, CommMethod, usize), f64> = cells
        .into_iter()
        .filter(|(c, _)| c.batch == 16)
        .map(|(c, r)| ((c.workload, c.comm, c.gpus), r.epoch_time.as_secs_f64()))
        .collect();
    // A missing cell reads as NaN, which poisons the mean.
    let pairs = paper_ratios(|w, comm, gpus| {
        secs.get(&(w.into(), comm, gpus))
            .copied()
            .unwrap_or(f64::NAN)
    });
    Some(mean_abs_rel_err_pct(&pairs)).filter(|err| err.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_zero_when_every_ratio_matches() {
        assert_eq!(mean_abs_rel_err_pct(&[(1.62, 1.62), (21.8, 21.8)]), 0.0);
    }

    #[test]
    fn error_averages_absolute_relative_misses() {
        // |2.2 - 2|/2 = 10 %, |0.9 - 1|/1 = 10 %, |30 - 20|/20 = 50 %.
        let err = mean_abs_rel_err_pct(&[(2.2, 2.0), (0.9, 1.0), (30.0, 20.0)]);
        assert!((err - 70.0 / 3.0).abs() < 1e-12, "{err}");
    }

    #[test]
    fn ratios_follow_the_paper_definitions() {
        // LeNet P2P: 1 GPU 100 s, N GPUs 100/N s (linear speedup N);
        // LeNet NCCL 1 GPU 125 s (25 % overhead); every other network
        // trains 1.5x faster under NCCL.
        let epoch = |w: Workload, comm: CommMethod, gpus: usize| match (w, comm) {
            (Workload::LeNet, CommMethod::P2p) => 100.0 / gpus as f64,
            (Workload::LeNet, CommMethod::Nccl) => 125.0,
            (_, CommMethod::P2p) => 30.0,
            (_, CommMethod::Nccl) => 20.0,
        };
        let pairs = paper_ratios(epoch);
        assert_eq!(pairs.len(), 10);
        let model: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(&model[..4], &[2.0, 4.0, 8.0, 25.0]);
        assert!(model[4..].iter().all(|&g| g == 1.5));
        let paper: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        assert_eq!(
            paper,
            [1.62, 2.37, 3.36, 21.8, 1.1, 1.2, 1.1, 1.25, 1.1, 1.25]
        );
    }

    #[test]
    fn reference_lines_round_trip() {
        let digest = Digest {
            scalars: 0x0123_4567_89ab_cdef,
            trace_events: 42,
        };
        let text = format!("# header\n{}\n", reference_line("k", digest));
        let reference = Reference::parse(&text, "test").unwrap();
        assert_eq!(reference.0.get("k"), Some(&digest));
        assert!(Reference::parse("k 12 3 extra\n", "test").is_err());
        assert!(Reference::parse("k 12 3\nk 12 3\n", "test").is_err());
    }
}
