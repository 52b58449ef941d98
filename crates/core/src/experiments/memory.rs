//! Memory experiments: Table IV and the §V-D batch-size caps.
//!
//! Both sweeps are declared as [`GridSpec`]s but evaluate a
//! closed-form memory model, not a simulation, so they walk
//! [`GridSpec::cells`] on the calling thread. The model reads each
//! cell's registered `.workload` spec, the same file its timing lowers
//! from.

use voltascope_comm::CommMethod;
use voltascope_dnn::zoo::Workload;
use voltascope_profile::TextTable;
use voltascope_train::GpuRole;

use crate::grid::GridSpec;
use crate::harness::Harness;
use crate::workloads::WorkloadSel;

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Workload.
    pub workload: WorkloadSel,
    /// Per-GPU batch size.
    pub batch: usize,
    /// Pre-training usage of every GPU, GiB.
    pub pre_training_gib: f64,
    /// Training usage of GPU0 (the parameter server), GiB.
    pub gpu0_gib: f64,
    /// Training usage of the other GPUs, GiB.
    pub gpux_gib: f64,
    /// GPU0's additional usage relative to the others, percent.
    pub gpu0_extra_percent: f64,
    /// Increase of GPUx usage relative to the batch-16 row, percent.
    pub increase_vs_b16_percent: f64,
}

/// The declarative Table IV sweep: workloads × paper batches on the
/// paper's representative 4-GPU setup (memory usage is communication-
/// method independent, so the comm axis is a singleton).
pub fn table4_spec(workloads: &[Workload]) -> GridSpec {
    GridSpec::paper()
        .workloads(workloads.iter().copied())
        .comms([CommMethod::Nccl])
        .gpu_counts([4])
}

/// Computes Table IV (4-GPU training; the paper notes the figures are
/// representative of 2/4/8 GPUs).
///
/// # Panics
///
/// Panics if a workload cannot fit batch 16 on the device (none of the
/// paper's five can fail this).
pub fn table4(h: &Harness, workloads: &[Workload]) -> Vec<MemoryRow> {
    let (gpu, mem) = (&h.sys.gpu, &h.memory);
    table4_spec(workloads)
        .cells()
        .into_iter()
        .map(|cell| {
            let spec = cell.workload.resolve().spec();
            let base = mem
                .usage(spec, 16, GpuRole::Worker, gpu)
                .expect("batch 16 must fit")
                .training_gib();
            let server = mem
                .usage(spec, cell.batch, GpuRole::Server, gpu)
                .expect("paper batch sizes fit");
            let worker = mem
                .usage(spec, cell.batch, GpuRole::Worker, gpu)
                .expect("paper batch sizes fit");
            MemoryRow {
                workload: cell.workload,
                batch: cell.batch,
                pre_training_gib: worker.pre_training_gib(),
                gpu0_gib: server.training_gib(),
                gpux_gib: worker.training_gib(),
                gpu0_extra_percent: 100.0 * (server.training_gib() - worker.training_gib())
                    / worker.training_gib(),
                increase_vs_b16_percent: 100.0 * (worker.training_gib() - base) / base,
            }
        })
        .collect()
}

/// Renders Table IV.
pub fn render(rows: &[MemoryRow]) -> TextTable {
    let mut table = TextTable::new([
        "Network",
        "Batch",
        "Pre-training GPUz (GB)",
        "Training GPU0 (GB)",
        "Training GPUx (GB)",
        "GPU0 extra (%)",
        "Increase vs b16 (%)",
    ]);
    for r in rows {
        table.row([
            r.workload.name().to_string(),
            r.batch.to_string(),
            format!("{:.2}", r.pre_training_gib),
            format!("{:.2}", r.gpu0_gib),
            format!("{:.2}", r.gpux_gib),
            format!("{:.1}", r.gpu0_extra_percent),
            format!("{:.1}", r.increase_vs_b16_percent),
        ]);
    }
    table
}

/// One row of the §V-D batch-size capacity search.
#[derive(Debug, Clone)]
pub struct MaxBatchRow {
    /// Workload.
    pub workload: WorkloadSel,
    /// Largest power-of-two per-GPU batch that fits, if any.
    pub max_batch: Option<usize>,
}

/// The declarative capacity-search sweep: one cell per workload.
pub fn max_batch_spec(workloads: &[Workload]) -> GridSpec {
    GridSpec::paper()
        .workloads(workloads.iter().copied())
        .comms([CommMethod::Nccl])
        .batches([16])
        .gpu_counts([1])
}

/// Finds the largest trainable batch size per workload (§V-D: 64 for
/// Inception-v3 and ResNet, 128 for GoogLeNet on the real machine).
pub fn max_batch(h: &Harness, workloads: &[Workload]) -> Vec<MaxBatchRow> {
    max_batch_spec(workloads)
        .cells()
        .into_iter()
        .map(|cell| MaxBatchRow {
            workload: cell.workload,
            max_batch: h
                .memory
                .max_batch(cell.workload.resolve().spec(), &h.sys.gpu),
        })
        .collect()
}

/// Renders the capacity-search table.
pub fn render_max_batch(rows: &[MaxBatchRow]) -> TextTable {
    let mut table = TextTable::new(["Network", "Max batch/GPU"]);
    for r in rows {
        table.row([
            r.workload.name().to_string(),
            r.max_batch
                .map(|b| b.to_string())
                .unwrap_or_else(|| "OOM at 16".into()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_trends_match_paper() {
        let h = Harness::paper();
        let rows = table4(&h, &[Workload::InceptionV3]);
        assert_eq!(rows.len(), 3);
        let b16 = &rows[0];
        let b64 = &rows[2];
        // GPU0 always above GPUx; gap percentage shrinks with batch.
        assert!(b16.gpu0_gib > b16.gpux_gib);
        assert!(b16.gpu0_extra_percent > b64.gpu0_extra_percent);
        // Paper §V-D: batch 16 -> 64 grows Inception-v3 memory ~1.83x.
        let growth = b64.gpu0_gib / b16.gpu0_gib;
        assert!((1.5..3.0).contains(&growth), "growth {growth}");
        // Pre-training usage is batch-independent.
        assert_eq!(b16.pre_training_gib, b64.pre_training_gib);
        assert_eq!(b16.increase_vs_b16_percent, 0.0);
        assert!(b64.increase_vs_b16_percent > 100.0);
    }

    #[test]
    fn inception_near_11gb_at_batch_64() {
        let h = Harness::paper();
        let rows = table4(&h, &[Workload::InceptionV3]);
        let b64 = rows.iter().find(|r| r.batch == 64).unwrap();
        assert!(
            (9.0..14.0).contains(&b64.gpu0_gib),
            "Inception-v3 b64 GPU0 = {:.1} GB (paper: 11 GB)",
            b64.gpu0_gib
        );
    }

    #[test]
    fn capacity_caps_match_paper_for_heavy_nets() {
        let h = Harness::paper();
        let rows = max_batch(
            &h,
            &[Workload::InceptionV3, Workload::ResNet, Workload::LeNet],
        );
        let cap = |w: Workload| {
            rows.iter()
                .find(|r| r.workload == w)
                .unwrap()
                .max_batch
                .unwrap()
        };
        // §V-D: Inception-v3 and ResNet cap at batch 64.
        assert_eq!(cap(Workload::InceptionV3), 64);
        assert_eq!(cap(Workload::ResNet), 64);
        // LeNet is unconstrained at any batch the sweep covers.
        assert!(cap(Workload::LeNet) >= 1024);
    }

    #[test]
    fn tables_render() {
        let h = Harness::paper();
        let rows = table4(&h, &[Workload::LeNet]);
        assert!(!render(&rows).is_empty());
        let caps = max_batch(&h, &[Workload::LeNet]);
        assert!(!render_max_batch(&caps).is_empty());
    }
}
