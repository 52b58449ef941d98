//! Cost-based auto-tuning over the (algorithm, protocol, channels)
//! space, the way real NCCL's internal tuner works: predict the cost
//! of every candidate for the given message size and topology, pick
//! the cheapest.
//!
//! Prediction *is* simulation — each candidate's task graph is emitted
//! in isolation and run through the discrete-event engine, so the
//! predicted cost is exactly the cost the chosen selection will incur
//! in the real emission. (That makes "the chosen candidate is never
//! beaten by an unchosen one" true by construction; the offline
//! property suite pins it against regressions.) Degraded topologies
//! renegotiate naturally: the candidate graphs are built on the
//! faulted topology, over a [`Ring`] that already routed around dead
//! links, so a dead NVLink interface can flip the winner.
//!
//! A singleton tuning space ([`crate::TuningSpace::paper`]) short-circuits
//! without simulating anything — the calibrated default adds zero
//! work and reproduces the pre-tuner graphs byte-for-byte.

use std::collections::BTreeMap;

use voltascope_sim::{Engine, SimSpan, TaskGraph};
use voltascope_topo::Topology;

use crate::collective::{self, NcclCosts, PerGpuDone};
use crate::network::LinkNetwork;
use crate::protocol::{Algorithm, CommError, Selection};
use crate::ring::Ring;

/// Which collective a prediction prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    AllReduce,
    Broadcast,
}

/// Predicted makespan of one AllReduce candidate on `topo`, from a
/// cold start (all ranks ready at t = 0).
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from the emission.
pub fn predict_all_reduce(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
) -> Result<SimSpan, CommError> {
    predict(topo, ring, bytes, costs, sel, Op::AllReduce)
}

/// Predicted makespan of one Broadcast candidate on `topo`.
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from the emission.
pub fn predict_broadcast(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
) -> Result<SimSpan, CommError> {
    predict(topo, ring, bytes, costs, sel, Op::Broadcast)
}

fn predict(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    sel: &Selection,
    op: Op,
) -> Result<SimSpan, CommError> {
    let mut graph = TaskGraph::new();
    let net = LinkNetwork::register(&mut graph, topo);
    let mut compute = BTreeMap::new();
    let mut ready: PerGpuDone = BTreeMap::new();
    for &d in ring.devices() {
        compute.insert(d, graph.add_resource(format!("{d}.compute"), 1));
        ready.insert(d, graph.task(format!("ready@{d}")).build());
    }
    match op {
        Op::AllReduce => collective::all_reduce(
            &mut graph, &net, topo, ring, bytes, &ready, &compute, costs, sel, "tune",
        )?,
        Op::Broadcast => collective::broadcast(
            &mut graph, &net, topo, ring, bytes, &ready, &compute, costs, sel, "tune",
        )?,
    };
    Ok(Engine::new()
        .run(&graph)
        .expect("tuner candidate graph must not deadlock")
        .makespan())
}

/// Picks the cheapest (algorithm, protocol, channels) for an AllReduce
/// of `bytes` from `costs.tuning`, by simulating every candidate on
/// `topo`/`ring`. Ties keep the earliest candidate in
/// [`crate::TuningSpace::candidates`] order, so selection is
/// deterministic.
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from a candidate
/// emission.
///
/// # Panics
///
/// Panics if the tuning space is empty.
pub fn choose_all_reduce(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
) -> Result<Selection, CommError> {
    choose(topo, ring, bytes, costs, Op::AllReduce)
}

/// Picks the cheapest (protocol, channels) ring Broadcast of `bytes`.
/// Broadcast is always ring-shaped, so the tuning space's algorithm
/// axis collapses to [`Algorithm::Ring`].
///
/// # Errors
///
/// Propagates [`CommError::ArithmeticOverflow`] from a candidate
/// emission.
///
/// # Panics
///
/// Panics if the tuning space is empty.
pub fn choose_broadcast(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
) -> Result<Selection, CommError> {
    choose(topo, ring, bytes, costs, Op::Broadcast)
}

fn choose(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    op: Op,
) -> Result<Selection, CommError> {
    // Broadcast collapses the algorithm axis: a tree broadcast
    // candidate would emit the same ring graph as its ring twin, so
    // only protocol x channels is searched.
    let candidates: Vec<Selection> = match op {
        Op::AllReduce => costs.tuning.candidates().collect(),
        Op::Broadcast => costs
            .tuning
            .protocols
            .iter()
            .flat_map(|&protocol| {
                costs
                    .tuning
                    .channels
                    .iter()
                    .filter(|&&c| c >= 1)
                    .map(move |&channels| Selection {
                        algorithm: Algorithm::Ring,
                        protocol,
                        channels,
                    })
            })
            .collect(),
    };
    assert!(!candidates.is_empty(), "empty NCCL tuning space");
    // The calibrated singleton (and any env-pinned single choice)
    // skips simulation entirely.
    if candidates.len() == 1 {
        return Ok(candidates[0]);
    }
    let mut best = candidates[0];
    let mut best_cost = predict(topo, ring, bytes, costs, &best, op)?;
    for sel in &candidates[1..] {
        let cost = predict(topo, ring, bytes, costs, sel, op)?;
        if cost < best_cost {
            best = *sel;
            best_cost = cost;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, TuningSpace};
    use voltascope_topo::dgx1_v100;

    fn modern_costs() -> NcclCosts {
        NcclCosts {
            tuning: TuningSpace::modern(),
            ..NcclCosts::default()
        }
    }

    #[test]
    fn paper_space_short_circuits_to_the_calibrated_choice() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = NcclCosts {
            tuning: TuningSpace::paper(),
            ..NcclCosts::default()
        };
        for bytes in [1u64, 4 << 10, 256 << 20] {
            assert_eq!(
                choose_all_reduce(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
            assert_eq!(
                choose_broadcast(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
        }
    }

    #[test]
    fn modern_space_crosses_from_latency_to_bandwidth_choices() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        let small = choose_all_reduce(&topo, &ring, 4 << 10, &costs).unwrap();
        let large = choose_all_reduce(&topo, &ring, 256 << 20, &costs).unwrap();
        assert_eq!(small.protocol, Protocol::Ll, "4 KB should pick LL");
        assert_eq!(
            small.algorithm,
            Algorithm::Tree,
            "4 KB should pick the tree"
        );
        assert_eq!(
            large.protocol,
            Protocol::Simple,
            "256 MB should pick Simple"
        );
        assert_eq!(large.algorithm, Algorithm::Ring, "256 MB should ring");
    }

    #[test]
    fn broadcast_candidates_collapse_to_rings() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        for bytes in [4u64 << 10, 1 << 20, 64 << 20] {
            let sel = choose_broadcast(&topo, &ring, bytes, &costs).unwrap();
            assert_eq!(sel.algorithm, Algorithm::Ring);
        }
    }
}
