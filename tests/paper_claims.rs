//! Cross-crate integration tests: the paper's quantitative claims,
//! checked end-to-end through the full stack (zoo -> trainer ->
//! simulator -> profiler). Each test cites the paper section it covers.

mod common;

use common::report;
use dgx1_repro::prelude::*;

fn epoch_secs(h: &Harness, w: Workload, batch: usize, gpus: usize, comm: CommMethod) -> f64 {
    report(h, w, batch, gpus, comm, ScalingMode::Strong)
        .epoch_time
        .as_secs_f64()
}

#[test]
fn v_a_lenet_strong_scaling_is_sublinear() {
    // SS V-A: P2P speedups of 1.62/2.37/3.36 at 2/4/8 GPUs: clear gains,
    // clearly below linear.
    let h = Harness::paper();
    let t1 = epoch_secs(&h, Workload::LeNet, 16, 1, CommMethod::P2p);
    for (gpus, (lo, hi)) in [(2, (1.1, 2.0)), (4, (1.4, 3.4)), (8, (1.7, 5.5))] {
        let s = t1 / epoch_secs(&h, Workload::LeNet, 16, gpus, CommMethod::P2p);
        assert!(
            (lo..hi).contains(&s),
            "LeNet {gpus}-GPU speedup {s:.2} outside [{lo}, {hi})"
        );
        assert!(s < gpus as f64, "speedup must be sublinear");
    }
}

#[test]
fn v_a_p2p_beats_nccl_for_lenet_everywhere() {
    // SS V-A: "P2P outperforms NCCL for this workload."
    let h = Harness::paper();
    for gpus in [1usize, 2, 4, 8] {
        for batch in [16usize, 64] {
            let p2p = epoch_secs(&h, Workload::LeNet, batch, gpus, CommMethod::P2p);
            let nccl = epoch_secs(&h, Workload::LeNet, batch, gpus, CommMethod::Nccl);
            assert!(
                p2p < nccl,
                "LeNet b{batch} g{gpus}: P2P {p2p:.2}s vs NCCL {nccl:.2}s"
            );
        }
    }
}

#[test]
fn v_a_nccl_overtakes_p2p_for_deep_networks_at_scale() {
    // SS V-A: GoogLeNet trains 1.1x / 1.2x faster with NCCL at 4 / 8
    // GPUs; ResNet and Inception-v3 show 1.1x / 1.25x.
    let h = Harness::paper();
    for w in [Workload::GoogLeNet, Workload::ResNet, Workload::InceptionV3] {
        for (gpus, min_gain) in [(4usize, 1.0), (8, 1.05)] {
            let p2p = epoch_secs(&h, w, 16, gpus, CommMethod::P2p);
            let nccl = epoch_secs(&h, w, 16, gpus, CommMethod::Nccl);
            let gain = p2p / nccl;
            assert!(
                gain > min_gain,
                "{w} g{gpus}: NCCL gain {gain:.3} <= {min_gain}"
            );
            assert!(
                gain < 1.8,
                "{w} g{gpus}: NCCL gain {gain:.3} implausibly large"
            );
        }
    }
}

#[test]
fn v_a_bigger_batches_train_faster_for_every_workload() {
    // SS V-A: "Increasing batch size reduces training time for an epoch
    // ... for all the workloads we evaluated."
    let h = Harness::paper();
    for w in Workload::ALL {
        for comm in CommMethod::ALL {
            let b16 = epoch_secs(&h, w, 16, 4, comm);
            let b32 = epoch_secs(&h, w, 32, 4, comm);
            let b64 = epoch_secs(&h, w, 64, 4, comm);
            assert!(b32 < b16, "{w}/{comm}: b32 {b32:.1} !< b16 {b16:.1}");
            assert!(b64 < b32, "{w}/{comm}: b64 {b64:.1} !< b32 {b32:.1}");
        }
    }
}

#[test]
fn v_b_nccl_single_gpu_overhead_near_paper_value() {
    // SS V-B: "training with 1 GPU suffers from 21.8% additional NCCL
    // overhead" (LeNet, batch 16).
    let h = Harness::paper();
    let p2p = epoch_secs(&h, Workload::LeNet, 16, 1, CommMethod::P2p);
    let nccl = epoch_secs(&h, Workload::LeNet, 16, 1, CommMethod::Nccl);
    let overhead = 100.0 * (nccl - p2p) / p2p;
    assert!(
        (15.0..30.0).contains(&overhead),
        "LeNet b16 1-GPU NCCL overhead {overhead:.1}% (paper: 21.8%)"
    );
}

#[test]
fn v_b_large_networks_have_flat_small_overhead() {
    // SS V-B / Table II: for the large networks the overhead varies
    // little with batch size and stays small.
    let h = Harness::paper();
    let net = Workload::ResNet;
    let mut overheads = Vec::new();
    for batch in [16usize, 32, 64] {
        let p2p = report(&h, net, batch, 1, CommMethod::P2p, ScalingMode::Strong)
            .epoch_time
            .as_secs_f64();
        let nccl = report(&h, net, batch, 1, CommMethod::Nccl, ScalingMode::Strong)
            .epoch_time
            .as_secs_f64();
        overheads.push(100.0 * (nccl - p2p) / p2p);
    }
    let spread = overheads.iter().fold(f64::MIN, |a, &b| a.max(b))
        - overheads.iter().fold(f64::MAX, |a, &b| a.min(b));
    assert!(
        spread < 4.5,
        "ResNet overhead spread {spread:.1} (paper: < 3.6)"
    );
    assert!(
        overheads.iter().all(|&o| o < 10.0),
        "overheads {overheads:?}"
    );
}

#[test]
fn v_c_fp_bp_dominates_and_wu_scales() {
    // SS V-C: computation dominates training; WU-per-epoch shrinks
    // roughly linearly from 2 to 8 GPUs.
    let h = Harness::paper();
    let net = Workload::InceptionV3;
    let r2 = report(&h, net, 16, 2, CommMethod::Nccl, ScalingMode::Strong);
    let r8 = report(&h, net, 16, 8, CommMethod::Nccl, ScalingMode::Strong);
    assert!(r2.fp_bp_epoch() > r2.wu_epoch());
    assert!(r8.fp_bp_epoch() > r8.wu_epoch());
    let wu_ratio = r2.wu_epoch().as_secs_f64() / r8.wu_epoch().as_secs_f64();
    assert!(
        (1.5..6.0).contains(&wu_ratio),
        "WU epoch shrank by {wu_ratio:.2} from 2 to 8 GPUs"
    );
}

#[test]
fn v_c_single_gpu_wu_is_far_below_fp_bp() {
    // SS V-C: single-GPU WU is a simple elementwise update, far below
    // FP+BP ("nearly two orders of magnitude lower").
    let h = Harness::paper();
    let net = Workload::ResNet;
    let r = report(&h, net, 32, 1, CommMethod::P2p, ScalingMode::Strong);
    let ratio = r.fp_bp_iter.as_secs_f64() / r.wu_iter.as_secs_f64();
    assert!(ratio > 10.0, "FP+BP only {ratio:.1}x WU on one GPU");
}

#[test]
fn v_d_memory_claims() {
    // SS V-D: GPU0 uses more memory than the others; its relative
    // overhead shrinks with batch size; ResNet and Inception-v3 cannot
    // exceed batch 64 per GPU.
    let h = Harness::paper();
    let rows = experiments::memory::table4(&h, &[Workload::GoogLeNet]);
    assert!(rows.iter().all(|r| r.gpu0_gib > r.gpux_gib));
    assert!(rows[0].gpu0_extra_percent > rows[2].gpu0_extra_percent);
    let caps = experiments::memory::max_batch(&h, &[Workload::ResNet, Workload::InceptionV3]);
    assert!(caps.iter().all(|c| c.max_batch == Some(64)));
}

#[test]
fn v_e_weak_scaling_amortises_fixed_overheads() {
    // SS V-E: normalised to 256K images, weak scaling is at least as
    // good as strong scaling for LeNet (fixed overheads amortise).
    let h = Harness::paper();
    let net = Workload::LeNet;
    for gpus in [2usize, 4, 8] {
        let strong = report(&h, net, 32, gpus, CommMethod::Nccl, ScalingMode::Strong)
            .epoch_time
            .as_secs_f64();
        let weak = report(&h, net, 32, gpus, CommMethod::Nccl, ScalingMode::Weak)
            .epoch_time
            .as_secs_f64()
            / gpus as f64;
        assert!(
            weak <= strong * 1.02,
            "g{gpus}: weak/GPU {weak:.2} vs strong {strong:.2}"
        );
    }
}

#[test]
fn table1_network_census_matches() {
    // Table I: layer mixes and weight scales of the five workloads.
    let stats = experiments::structure::table1(&Workload::ALL);
    let find = |n: &str| stats.iter().find(|s| s.name == n).unwrap();
    assert_eq!(find("LeNet").conv_layers, 2);
    assert_eq!(find("AlexNet").conv_layers, 5);
    assert_eq!(find("AlexNet").weights, 61_100_840);
    assert_eq!(find("GoogLeNet").inception_modules, 9);
    assert_eq!(find("Inception-v3").inception_modules, 11);
    assert_eq!(find("ResNet").inception_modules, 16);
}
