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
//!
//! [`TunerMemo`] answers both choices for one problem and solves each
//! distinct problem once per memo, the way real NCCL computes its
//! tuning model once per communicator rather than once per call.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use voltascope_sim::{Engine, SimSpan, TaskGraph};
use voltascope_topo::{Device, LinkId, LinkKind, Topology};

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
    pick(topo, ring, bytes, costs, op, &candidates(costs, op))
}

/// The selections the tuner searches for `op`, in tie-break order.
fn candidates(costs: &NcclCosts, op: Op) -> Vec<Selection> {
    // Broadcast collapses the algorithm axis: a tree broadcast
    // candidate would emit the same ring graph as its ring twin, so
    // only protocol x channels is searched.
    match op {
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
    }
}

/// The cheapest of `candidates` for `op`; the earliest wins a tie.
fn pick(
    topo: &Topology,
    ring: &Ring,
    bytes: u64,
    costs: &NcclCosts,
    op: Op,
    candidates: &[Selection],
) -> Result<Selection, CommError> {
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

/// The (AllReduce, Broadcast) choice for one problem.
type Choice = Result<(Selection, Selection), CommError>;

/// One tuning problem, compared exactly: everything `predict` reads.
/// The topology's name is left out, so a renamed but otherwise
/// identical fabric (a straggler-only fault spec renames the topology
/// without touching a link) is the same problem.
#[derive(PartialEq, Eq, Hash)]
struct Problem {
    devices: Vec<Device>,
    /// Per link in id order: endpoints, kind, bandwidth as `f64` bits,
    /// and latency.
    links: Vec<(Device, Device, LinkKind, u64, SimSpan)>,
    /// Each device's neighbour list, in `devices` order.
    adjacency: Vec<Vec<(Device, LinkId)>>,
    gpus_forward: bool,
    ring: Vec<Device>,
    bytes: u64,
    costs: NcclCosts,
}

impl Problem {
    fn new(topo: &Topology, ring: &Ring, bytes: u64, costs: &NcclCosts) -> Self {
        Problem {
            devices: topo.devices().to_vec(),
            links: topo
                .links()
                .iter()
                .map(|l| {
                    let bits = l.bandwidth.as_bytes_per_sec().to_bits();
                    (l.a, l.b, l.kind, bits, l.latency)
                })
                .collect(),
            adjacency: topo
                .devices()
                .iter()
                .map(|&d| topo.neighbors(d).to_vec())
                .collect(),
            gpus_forward: topo.gpus_forward(),
            ring: ring.devices().to_vec(),
            bytes,
            costs: costs.clone(),
        }
    }
}

/// How a [`TunerMemo`] has been used so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TunerStats {
    /// Calls to [`TunerMemo::choose`] that searched a non-singleton
    /// space (singleton spaces bypass the memo and count nowhere).
    pub lookups: u64,
    /// Distinct problems actually solved by simulating candidates.
    pub solves: u64,
}

/// A shared, single-flight memo of tuner choices.
///
/// Clones share one table. Each distinct problem — fabric, ring order,
/// payload size and the full [`NcclCosts`] — is solved once: the table
/// maps it to a slot that the first caller fills while later callers
/// of the same problem wait on that slot, not on the table, so
/// different problems are solved in parallel. Errors are memoised like
/// choices.
///
/// `Debug` prints a constant, so a configuration's `Debug` rendering
/// does not depend on what the memo holds.
///
/// # Example
///
/// ```
/// use voltascope_comm::collective::NcclCosts;
/// use voltascope_comm::tuner::{self, TunerMemo};
/// use voltascope_comm::{Ring, TuningSpace};
/// use voltascope_topo::dgx1_v100;
///
/// let topo = dgx1_v100();
/// let ring = Ring::build(&topo, 8);
/// let costs = NcclCosts { tuning: TuningSpace::modern(), ..NcclCosts::default() };
/// let memo = TunerMemo::default();
/// let (ar, bc) = memo.choose(&topo, &ring, 1 << 20, &costs).unwrap();
/// assert_eq!(ar, tuner::choose_all_reduce(&topo, &ring, 1 << 20, &costs).unwrap());
/// assert_eq!(bc, tuner::choose_broadcast(&topo, &ring, 1 << 20, &costs).unwrap());
/// memo.clone().choose(&topo, &ring, 1 << 20, &costs).unwrap();
/// assert_eq!((memo.stats().lookups, memo.stats().solves), (2, 1));
/// ```
#[derive(Clone, Default)]
pub struct TunerMemo(Arc<Memo>);

#[derive(Default)]
struct Memo {
    slots: Mutex<HashMap<Problem, Arc<OnceLock<Choice>>>>,
    lookups: AtomicU64,
    solves: AtomicU64,
}

impl TunerMemo {
    /// The AllReduce and Broadcast choices of [`choose_all_reduce`] and
    /// [`choose_broadcast`], solving each distinct problem once. When
    /// both spaces are singletons the choice is returned without
    /// building a key or taking a lock.
    ///
    /// # Errors
    ///
    /// Propagates [`CommError::ArithmeticOverflow`] from a candidate
    /// emission.
    ///
    /// # Panics
    ///
    /// Panics if the tuning space is empty.
    pub fn choose(
        &self,
        topo: &Topology,
        ring: &Ring,
        bytes: u64,
        costs: &NcclCosts,
    ) -> Result<(Selection, Selection), CommError> {
        let all_reduce = candidates(costs, Op::AllReduce);
        let broadcast = candidates(costs, Op::Broadcast);
        if let ([ar], [bc]) = (all_reduce.as_slice(), broadcast.as_slice()) {
            return Ok((*ar, *bc));
        }
        self.0.lookups.fetch_add(1, Ordering::Relaxed);
        let key = Problem::new(topo, ring, bytes, costs);
        // The table is only ever inserted into, so a poisoned lock
        // still guards a valid map.
        let slot = self
            .0
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default()
            .clone();
        slot.get_or_init(|| {
            self.0.solves.fetch_add(1, Ordering::Relaxed);
            Ok((
                pick(topo, ring, bytes, costs, Op::AllReduce, &all_reduce)?,
                pick(topo, ring, bytes, costs, Op::Broadcast, &broadcast)?,
            ))
        })
        .clone()
    }

    /// Lookups and solves so far, over every clone of this memo.
    pub fn stats(&self) -> TunerStats {
        TunerStats {
            lookups: self.0.lookups.load(Ordering::Relaxed),
            solves: self.0.solves.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for TunerMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TunerMemo")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, TuningSpace};
    use std::sync::Barrier;
    use voltascope_topo::{dgx1_v100, FaultSpec};

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
        let memo = TunerMemo::default();
        for bytes in [1u64, 4 << 10, 256 << 20] {
            assert_eq!(
                choose_all_reduce(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
            assert_eq!(
                choose_broadcast(&topo, &ring, bytes, &costs).unwrap(),
                Selection::PAPER
            );
            assert_eq!(
                memo.choose(&topo, &ring, bytes, &costs).unwrap(),
                (Selection::PAPER, Selection::PAPER)
            );
        }
        assert_eq!(memo.stats(), TunerStats::default(), "singletons bypass");
    }

    /// Asks `memo` for one problem and returns how many solves that
    /// lookup added (0 for a hit, 1 for a miss).
    fn solves_added(
        memo: &TunerMemo,
        topo: &Topology,
        ring: &Ring,
        bytes: u64,
        costs: &NcclCosts,
    ) -> u64 {
        let before = memo.stats().solves;
        memo.choose(topo, ring, bytes, costs).unwrap();
        memo.stats().solves - before
    }

    #[test]
    fn memo_key_ignores_the_name_and_nothing_the_tuner_reads() {
        let g = voltascope_topo::Device::gpu;
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        let bytes = 1 << 20;
        let memo = TunerMemo::default();
        assert_eq!(solves_added(&memo, &topo, &ring, bytes, &costs), 1);
        assert_eq!(solves_added(&memo, &topo, &ring, bytes, &costs), 0);

        // A straggler-only spec renames the topology without touching
        // a link: the same problem.
        let renamed = topo.apply(&FaultSpec::new().slow_gpu(g(3), 1.5));
        assert_ne!(renamed.name(), topo.name());
        assert_eq!(solves_added(&memo, &renamed, &ring, bytes, &costs), 0);

        let killed = topo.apply(&FaultSpec::new().kill_link(g(3), g(5)));
        let downgraded = topo.apply(&FaultSpec::new().degrade_link(g(0), g(1), 0.5));
        let jittered = topo.apply(&FaultSpec::new().link_jitter(SimSpan::from_nanos(100)));
        let mut forwarding = topo.clone();
        forwarding.set_gpus_forward(true);
        for (what, other) in [
            ("killed link", &killed),
            ("downgraded link", &downgraded),
            ("link latency", &jittered),
            ("gpus_forward", &forwarding),
        ] {
            assert_eq!(
                solves_added(&memo, other, &ring, bytes, &costs),
                1,
                "{what} must miss"
            );
        }

        let pair = Ring::build(&topo, 2);
        assert_eq!(solves_added(&memo, &topo, &pair, bytes, &costs), 1, "ring");
        assert_eq!(
            solves_added(&memo, &topo, &ring, bytes + 1, &costs),
            1,
            "bytes"
        );
        let variants = [
            (
                "step_overhead",
                NcclCosts {
                    step_overhead: costs.step_overhead * 2,
                    ..costs.clone()
                },
            ),
            (
                "chunking",
                NcclCosts {
                    chunking: !costs.chunking,
                    ..costs.clone()
                },
            ),
            (
                "tuning",
                NcclCosts {
                    tuning: TuningSpace::parse_override("ll,ll128").unwrap(),
                    ..costs.clone()
                },
            ),
            (
                "bandwidth_efficiency",
                NcclCosts {
                    bandwidth_efficiency: crate::BandwidthEfficiency::new(0.5).unwrap(),
                    ..costs.clone()
                },
            ),
        ];
        for (what, other) in &variants {
            assert_eq!(
                solves_added(&memo, &topo, &ring, bytes, other),
                1,
                "{what} must miss"
            );
        }
        assert_eq!(memo.stats().lookups, 13);
        assert_eq!(memo.stats().solves, 11);
    }

    #[test]
    fn concurrent_askers_of_one_problem_solve_it_once() {
        let topo = dgx1_v100();
        let ring = Ring::build(&topo, 8);
        let costs = modern_costs();
        let memo = TunerMemo::default();
        let askers = 8;
        let barrier = Barrier::new(askers);
        let choices: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..askers)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        memo.clone().choose(&topo, &ring, 4 << 20, &costs).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let solo = (
            choose_all_reduce(&topo, &ring, 4 << 20, &costs).unwrap(),
            choose_broadcast(&topo, &ring, 4 << 20, &costs).unwrap(),
        );
        assert!(choices.iter().all(|&c| c == solo));
        assert_eq!(
            memo.stats(),
            TunerStats {
                lookups: askers as u64,
                solves: 1
            }
        );
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
