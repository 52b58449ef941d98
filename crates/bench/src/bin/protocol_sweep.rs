//! NCCL protocol/algorithm crossover sweep: the cost of every
//! (algorithm, protocol) combination — each at its best channel count
//! — per message size, on the healthy DGX-1 fabric, a PCIe-only box,
//! and a DGX-1 with GPU3's NVLink interface dead. The Winner column is
//! the auto-tuner's pick over the full modern candidate space, with
//! its bus bandwidth `2(N-1)/N x S / t` (the convention of NCCL's own
//! tests, arXiv:2507.07117). The trends to check against the
//! Demystifying-NCCL measurements (arXiv:2507.04786): LL wins small
//! messages, Simple wins large, and the tree beats the ring below a
//! size threshold before rings take the bandwidth regime.

use voltascope_comm::{collective, tuner, Algorithm, Protocol, Ring, Selection, TuningSpace};
use voltascope_profile::TextTable;
use voltascope_topo::{dgx1_v100, pcie_only, Device, FaultSpec, Topology};

const SIZES: [u64; 5] = [4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20];
const CHANNELS: [u32; 3] = [1, 2, 4];

fn human(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

/// The sweep pins the modern tuning space explicitly, so these tables
/// are stable under `VOLTASCOPE_NCCL_PROTO`; only the "tuner default"
/// section below follows the environment.
fn sweep_costs() -> collective::NcclCosts {
    collective::NcclCosts {
        tuning: TuningSpace::modern(),
        ..collective::NcclCosts::default()
    }
}

/// Best predicted AllReduce cost over the channel axis for one
/// (algorithm, protocol) cell.
fn best_over_channels(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &collective::NcclCosts,
    algorithm: Algorithm,
    protocol: Protocol,
) -> voltascope_sim::SimSpan {
    CHANNELS
        .iter()
        .map(|&channels| {
            let sel = Selection {
                algorithm,
                protocol,
                channels,
            };
            tuner::predict_all_reduce(topo, ring, bytes, costs, &sel)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .min()
        .expect("channel axis is non-empty")
}

fn sweep(title: &str, topo: &Topology) {
    let costs = sweep_costs();
    let ring = Ring::build(topo, 8);
    let n = ring.len() as f64;
    let mut table = TextTable::new([
        "Message",
        "ring/LL",
        "ring/LL128",
        "ring/Simple",
        "tree/LL",
        "tree/LL128",
        "tree/Simple",
        "Winner",
        "BusBW",
    ]);
    for bytes in SIZES {
        let mut cells = vec![human(bytes)];
        for algorithm in Algorithm::ALL {
            for protocol in Protocol::ALL {
                cells.push(
                    best_over_channels(topo, &ring, bytes, &costs, algorithm, protocol).to_string(),
                );
            }
        }
        let winner =
            tuner::choose_all_reduce(topo, &ring, bytes, &costs).unwrap_or_else(|e| panic!("{e}"));
        let t = tuner::predict_all_reduce(topo, &ring, bytes, &costs, &winner)
            .unwrap_or_else(|e| panic!("{e}"));
        let busbw = 2.0 * (n - 1.0) / n * bytes as f64 / t.as_secs_f64() / 1e9;
        cells.push(winner.to_string());
        cells.push(format!("{busbw:.1} GB/s"));
        table.row(cells);
    }
    voltascope_bench::emit(title, &table);
}

fn main() {
    let healthy = dgx1_v100();
    sweep(
        "NCCL protocol/algorithm sweep: healthy DGX-1 (8x V100, NVLink)",
        &healthy,
    );
    sweep(
        "NCCL protocol/algorithm sweep: PCIe-only box (8 GPUs, no NVLink)",
        &pcie_only(8),
    );
    sweep(
        "NCCL protocol/algorithm sweep: DGX-1, GPU3 NVLink interface dead",
        &healthy.apply(&FaultSpec::new().kill_nvlinks_of(Device::gpu(3))),
    );

    // The environment-controlled default: the paper-calibrated
    // singleton unless VOLTASCOPE_NCCL_PROTO opens or pins part of the
    // modern space. CI proves the override changes this section.
    let costs = collective::NcclCosts {
        tuning: TuningSpace::from_env(),
        ..collective::NcclCosts::default()
    };
    let ring = Ring::build(&healthy, 8);
    let mut table = TextTable::new(["Message", "AllReduce pick", "Broadcast pick"]);
    for bytes in SIZES {
        let ar = tuner::choose_all_reduce(&healthy, &ring, bytes, &costs)
            .unwrap_or_else(|e| panic!("{e}"));
        let bc = tuner::choose_broadcast(&healthy, &ring, bytes, &costs)
            .unwrap_or_else(|e| panic!("{e}"));
        table.row([human(bytes), ar.to_string(), bc.to_string()]);
    }
    voltascope_bench::emit(
        "Tuner default selections on the healthy DGX-1 (VOLTASCOPE_NCCL_PROTO)",
        &table,
    );

    println!("Bus bandwidth follows the 2(N-1)/N x S / t convention of NCCL's");
    println!("own tests (arXiv:2507.07117). Calibration: the healthy plateau is");
    println!("the sustained fraction of one NVLink lane (0.85 x 25 GB/s = 21.2");
    println!("GB/s); the PCIe-only and dead-interface plateaus land near 7 GB/s");
    println!("because every host-bounced ring hop store-and-forwards two 12 GB/s");
    println!("PCIe legs — the same sub-10 GB/s regime NCCL's published PCIe ring");
    println!("measurements plateau in. The crossover shape — LL at a few KB,");
    println!("LL128 into the tens of KB, trees below a ~1 MB threshold, Simple");
    println!("rings for bulk — follows arXiv:2507.04786; and on the faulted");
    println!("graph the tuner renegotiates, handing bulk sizes to the tree,");
    println!("which crosses the dead GPU's PCIe bottleneck via fewer edges than");
    println!("the ring's double crossing.");
}
