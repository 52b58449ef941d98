//! Structural experiments: Table I (network census), Fig. 1 (training
//! timeline) and Fig. 2 (topology).

use voltascope_comm::CommMethod;
use voltascope_dnn::{zoo::Workload, NetworkStats};
use voltascope_profile::{render_timeline, TextTable};

use crate::grid::GridSpec;
use crate::harness::Harness;
use crate::service::GridService;

/// Reproduces Table I: the description of the five networks. The
/// census counts layer kinds and modules of the built Rust models,
/// which the `.workload` files do not record.
pub fn table1(workloads: &[Workload]) -> Vec<NetworkStats> {
    workloads
        .iter()
        .map(|w| NetworkStats::of(&w.build()))
        .collect()
}

/// Renders Table I.
pub fn render_table1(stats: &[NetworkStats]) -> TextTable {
    let mut table = TextTable::new([
        "Network",
        "Layers",
        "Conv Layers",
        "Incep/Res Modules",
        "FC Layers",
        "Weights",
    ]);
    for s in stats {
        table.row([
            s.name.clone(),
            s.layers.to_string(),
            s.conv_layers.to_string(),
            s.inception_modules.to_string(),
            s.fc_layers.to_string(),
            s.weights_human(),
        ]);
    }
    table
}

/// The single cell Fig. 1 draws: `workload` at batch 16 on `gpus`
/// GPUs under P2P.
pub fn fig1_spec(workload: Workload, gpus: usize) -> GridSpec {
    GridSpec::paper()
        .workloads([workload])
        .comms([CommMethod::P2p])
        .batches([16])
        .gpu_counts([gpus])
}

/// Reproduces Fig. 1: an ASCII timeline of one steady-state training
/// iteration (per-GPU compute streams, host threads, and links).
pub fn fig1_timeline(
    service: &GridService,
    workload: Workload,
    gpus: usize,
    width: usize,
) -> String {
    let out = service.sweep_traced(&fig1_spec(workload, gpus));
    render_timeline(&out.values()[0].iter_trace, width)
}

/// Reproduces Fig. 2: the DGX-1 connectivity matrix plus a Graphviz
/// description.
pub fn fig2_topology(h: &Harness) -> String {
    format!(
        "{}\n{}\n\nGraphviz:\n{}",
        h.sys.topo.name(),
        h.sys.topo.connectivity_matrix(),
        h.sys.topo.to_dot()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Executor;

    #[test]
    fn table1_covers_all_networks() {
        let stats = table1(&Workload::ALL);
        assert_eq!(stats.len(), 5);
        let table = render_table1(&stats);
        let text = table.render();
        assert!(text.contains("GoogLeNet"));
        assert!(text.contains("61K")); // LeNet weights
    }

    #[test]
    fn fig1_shows_all_four_gpus() {
        let service = GridService::with_executor(Harness::paper(), Executor::Serial);
        let art = fig1_timeline(&service, Workload::LeNet, 4, 80);
        for g in 0..4 {
            assert!(art.contains(&format!("GPU{g}.compute")), "missing GPU{g}");
        }
        // FP, BP and WU activity all visible.
        assert!(art.contains('F') && art.contains('B') && art.contains('W'));
    }

    #[test]
    fn fig2_contains_matrix_and_dot() {
        let h = Harness::paper();
        let out = fig2_topology(&h);
        assert!(out.contains("NV2"));
        assert!(out.contains("graph \"DGX-1V\""));
    }
}
