//! Property tests of the NCCL auto-tuner: the chosen candidate is
//! never beaten by an unchosen one at any swept size, selection is
//! deterministic, tuned cost is monotone in payload, tuning on a
//! degraded topology never routes a collective through a killed link,
//! and the shared [`tuner::TunerMemo`] answers exactly what the free
//! functions do.

use proptest::prelude::*;
use voltascope_comm::{collective, tuner, Ring, Selection, TuningSpace};
use voltascope_sim::SimSpan;
use voltascope_topo::{dgx1_v100, Device, FaultSpec, Topology};

fn modern_costs() -> collective::NcclCosts {
    collective::NcclCosts {
        tuning: TuningSpace::modern(),
        ..collective::NcclCosts::default()
    }
}

/// Healthy DGX-1 plus the two canned degraded variants, with the links
/// each fault removes (as unordered GPU pairs) for route checks.
fn scenarios() -> Vec<(Topology, Vec<(Device, Device)>)> {
    let base = dgx1_v100();
    let g = Device::gpu;
    let dead_cable = base.apply(&FaultSpec::new().kill_link(g(3), g(5)));
    let dead_iface = base.apply(&FaultSpec::new().kill_nvlinks_of(g(3)));
    let iface_pairs: Vec<(Device, Device)> =
        (0..8).filter(|&o| o != 3).map(|o| (g(3), g(o))).collect();
    vec![
        (base, Vec::new()),
        (dead_cable, vec![(g(3), g(5))]),
        (dead_iface, iface_pairs),
    ]
}

/// Override strings the memo property draws its tuning spaces from:
/// the full modern space, narrowed spaces, repeated tokens, and a
/// singleton that must bypass the memo.
const OVERRIDES: [&str; 8] = [
    "auto",
    "ll",
    "ll128,tree",
    "simple,ring,ch1,ch2",
    "tree,ch4",
    "ll,ll,simple,ch2",
    "ll128,ring,ch1",
    "ring,ll,ch1,ch1",
];

/// The endpoints of every NVLink brick of `topo`, in link order.
fn nvlinks(topo: &Topology) -> Vec<(Device, Device)> {
    topo.links()
        .iter()
        .filter(|l| l.kind.is_nvlink())
        .map(|l| (l.a, l.b))
        .collect()
}

/// A fault spec over the DGX-1's NVLink pairs, decoded from sampled
/// indices: up to two dead bricks, an optional dead NVLink interface,
/// an optional downgraded brick, link jitter and a straggler. Indices
/// past the end of a list mean "none".
fn fault_spec(
    kills: &[usize],
    iface: usize,
    degrade: (usize, f64),
    jitter_ns: u64,
    slow: usize,
) -> FaultSpec {
    let nvlinks = nvlinks(&dgx1_v100());
    let mut spec = FaultSpec::new();
    let mut killed = Vec::new();
    for &k in kills {
        if let Some(&(a, b)) = nvlinks.get(k) {
            if !killed.contains(&(a, b)) {
                killed.push((a, b));
                spec = spec.kill_link(a, b);
            }
        }
    }
    if iface < 8 {
        spec = spec.kill_nvlinks_of(Device::gpu(iface as u8));
    }
    if let Some(&(a, b)) = nvlinks.get(degrade.0) {
        spec = spec.degrade_link(a, b, degrade.1);
    }
    if slow < 8 {
        spec = spec.slow_gpu(Device::gpu(slow as u8), 1.5);
    }
    spec.link_jitter(SimSpan::from_nanos(jitter_ns))
}

/// Link jitter: none half the time, otherwise up to 2 us.
fn jitter_ns() -> impl Strategy<Value = u64> {
    (proptest::bool::ANY, 0u64..2_000).prop_map(|(on, ns)| if on { ns } else { 0 })
}

/// A payload from 1 B to 1 GiB, log-uniform over its bit length.
fn payload() -> impl Strategy<Value = u64> {
    (0u32..31, 0u64..u64::MAX).prop_map(|(shift, raw)| (1 + raw % (1u64 << shift)).min(1 << 30))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The memo returns the free functions' choices for any fault
    /// spec, payload from 1 B to 1 GiB, GPU count and override space.
    /// One memo answers a family of problems that differ in one input
    /// at a time (link bandwidth, fabric, payload, space), so a key
    /// that confused two of them would answer one with the other's
    /// choice; asking again solves nothing new.
    #[test]
    fn memo_matches_the_free_functions(
        kills in proptest::collection::vec(0usize..40, 0..3),
        (iface, slow) in (0usize..24, 0usize..16),
        degrade in (0usize..40, 0.1f64..1.0),
        jitter_ns in jitter_ns(),
        sizes in (payload(), payload()),
        (gpus, spaces) in (2usize..9, (0usize..OVERRIDES.len(), 0usize..OVERRIDES.len())),
    ) {
        let healthy = dgx1_v100();
        // Differs from the healthy fabric in link bandwidth only.
        let downgraded = healthy.apply(&nvlinks(&healthy).into_iter().fold(
            FaultSpec::new(),
            |spec, (a, b)| spec.degrade_link(a, b, degrade.1),
        ));
        let faulted = healthy.apply(&fault_spec(&kills, iface, degrade, jitter_ns, slow));
        let memo = tuner::TunerMemo::default();
        let mut problems = Vec::new();
        for topo in [&healthy, &downgraded, &faulted] {
            let ring = Ring::build(topo, gpus);
            for bytes in [sizes.0, sizes.1] {
                for space in [spaces.0, spaces.1] {
                    let costs = collective::NcclCosts {
                        tuning: TuningSpace::parse_override(OVERRIDES[space]).unwrap(),
                        ..collective::NcclCosts::default()
                    };
                    let want = (
                        tuner::choose_all_reduce(topo, &ring, bytes, &costs).unwrap(),
                        tuner::choose_broadcast(topo, &ring, bytes, &costs).unwrap(),
                    );
                    prop_assert_eq!(
                        memo.choose(topo, &ring, bytes, &costs).unwrap(),
                        want,
                        "{} on {} GPUs, {bytes} bytes, {:?}",
                        topo.name(),
                        gpus,
                        OVERRIDES[space]
                    );
                    problems.push((topo, ring.clone(), bytes, costs, want));
                }
            }
        }
        let solves = memo.stats().solves;
        for (topo, ring, bytes, costs, want) in &problems {
            prop_assert_eq!(memo.choose(topo, ring, *bytes, costs).unwrap(), *want);
        }
        prop_assert_eq!(memo.stats().solves, solves, "a repeated problem was solved again");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tuner's pick is an argmin: no candidate in the space
    /// predicts cheaper than the chosen selection, for AllReduce and
    /// Broadcast, on healthy and degraded topologies alike.
    #[test]
    fn chosen_selection_is_never_beaten(bytes in 1u64..(1 << 24)) {
        let costs = modern_costs();
        for (topo, _) in scenarios() {
            let ring = Ring::build(&topo, 8);
            let ar = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            let best = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &ar).unwrap();
            for rival in costs.tuning.candidates() {
                let t = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &rival).unwrap();
                prop_assert!(
                    t >= best,
                    "{}: {rival} predicts {t} < chosen {ar} at {best} ({bytes} bytes)",
                    topo.name()
                );
            }
            let bc = tuner::choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            let best = tuner::predict_broadcast(&topo, &ring, bytes, &costs, &bc).unwrap();
            for rival in costs.tuning.candidates() {
                let rival = Selection {
                    algorithm: voltascope_comm::Algorithm::Ring,
                    ..rival
                };
                let t = tuner::predict_broadcast(&topo, &ring, bytes, &costs, &rival).unwrap();
                prop_assert!(
                    t >= best,
                    "{}: broadcast {rival} predicts {t} < chosen {bc} at {best} ({bytes} bytes)",
                    topo.name()
                );
            }
        }
    }

    /// Selection is a pure function of (topology, size): re-tuning
    /// returns the identical candidate, so emission is reproducible.
    #[test]
    fn selection_is_deterministic(bytes in 1u64..(1 << 26)) {
        let costs = modern_costs();
        for (topo, _) in scenarios() {
            let ring = Ring::build(&topo, 8);
            let a = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            let b = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            prop_assert_eq!(a, b, "{}: re-tuning flipped the choice", topo.name());
            let a = tuner::choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            let b = tuner::choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            prop_assert_eq!(a, b, "{}: re-tuning flipped broadcast", topo.name());
        }
    }

    /// More bytes can never make the *tuned* AllReduce faster: the
    /// minimum over per-candidate monotone cost curves is monotone,
    /// even where the winning candidate flips.
    #[test]
    fn tuned_cost_is_monotone_in_payload(
        small in 1u64..(1 << 24),
        extra in 0u64..(1 << 24),
    ) {
        let costs = modern_costs();
        for (topo, _) in scenarios() {
            let ring = Ring::build(&topo, 8);
            let pick_lo = tuner::choose_all_reduce(&topo, &ring, small, &costs).unwrap();
            let lo = tuner::predict_all_reduce(&topo, &ring, small, &costs, &pick_lo).unwrap();
            let pick_hi =
                tuner::choose_all_reduce(&topo, &ring, small + extra, &costs).unwrap();
            let hi =
                tuner::predict_all_reduce(&topo, &ring, small + extra, &costs, &pick_hi).unwrap();
            prop_assert!(
                hi >= lo,
                "{}: {small} -> {} bytes shrank tuned cost {lo} -> {hi} ({pick_lo} -> {pick_hi})",
                topo.name(),
                small + extra
            );
        }
    }

    /// On a degraded topology, no tuned candidate can cross a killed
    /// link: the fault removes it from the graph, so any ring hop that
    /// coincides with a killed pair has no direct link left and must
    /// renegotiate onto a live host route — and when an all-NVLink
    /// cycle still exists (one dead cable), the ring avoids the dead
    /// pair entirely. The tuner's pick still completes on the faulted
    /// fabric (the predict simulation is the proof).
    #[test]
    fn degraded_tuning_avoids_killed_links(bytes in 1u64..(1 << 24)) {
        let costs = modern_costs();
        for (topo, dead) in scenarios() {
            let ring = Ring::build(&topo, 8);
            for (a, b) in ring.hops() {
                for &(x, y) in &dead {
                    if (a, b) == (x, y) || (a, b) == (y, x) {
                        prop_assert!(
                            topo.direct_link(a, b).is_none(),
                            "{}: killed link {x}<->{y} still directly usable",
                            topo.name()
                        );
                    }
                }
            }
            if dead.len() == 1 {
                // One dead cable leaves an NVLink Hamiltonian cycle;
                // the renegotiated ring must route around the fault.
                let (x, y) = dead[0];
                prop_assert!(ring.all_nvlink(&topo), "{}: ring left NVLink", topo.name());
                prop_assert!(
                    !ring.hops().contains(&(x, y)) && !ring.hops().contains(&(y, x)),
                    "{}: ring kept hopping the dead {x}<->{y} cable",
                    topo.name()
                );
            }
            let sel = tuner::choose_all_reduce(&topo, &ring, bytes, &costs).unwrap();
            let t = tuner::predict_all_reduce(&topo, &ring, bytes, &costs, &sel).unwrap();
            prop_assert!(t.as_secs_f64() > 0.0, "{}: degraded tuned AllReduce stalled", topo.name());
        }
    }
}
