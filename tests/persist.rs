//! Snapshot-format contract: the on-disk report cache must round-trip
//! exactly (save → load → byte-identical re-save), reject every broken
//! or stale file with a typed error instead of panicking, and make a
//! warm-started `GridService` indistinguishable from a cold one.

use std::sync::Arc;

use dgx1_repro::prelude::persist::{decode, decode_entries, encode, encode_entries, PersistError};
use dgx1_repro::prelude::*;
use dgx1_repro::sim::{SimSpan, SimTime, TaskId, Trace, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Deterministically derives a structurally varied cell from a seed.
fn arb_cell(seed: u64) -> Cell {
    const WORKLOADS: [Workload; 5] = [
        Workload::LeNet,
        Workload::AlexNet,
        Workload::GoogLeNet,
        Workload::InceptionV3,
        Workload::ResNet,
    ];
    const PLATFORMS: [Platform; 5] = [
        Platform::Dgx1,
        Platform::SingleLane,
        Platform::PcieOnly,
        Platform::NvSwitch,
        Platform::ForwardingGpus,
    ];
    const FAULTS: [FaultScenario; 4] = [
        FaultScenario::Healthy,
        FaultScenario::DeadNvLink,
        FaultScenario::StragglerGpu,
        FaultScenario::TwoStragglers,
    ];
    Cell {
        workload: WORKLOADS[(seed % 5) as usize].into(),
        comm: if seed.is_multiple_of(2) {
            CommMethod::P2p
        } else {
            CommMethod::Nccl
        },
        batch: 1 + (seed % 97) as usize,
        gpus: 1 + (seed % 8) as usize,
        scaling: if seed.is_multiple_of(3) {
            ScalingMode::Weak
        } else {
            ScalingMode::Strong
        },
        platform: PLATFORMS[(seed / 5 % 5) as usize],
        fault: FAULTS[(seed / 7 % 4) as usize],
    }
}

/// A synthetic report exercising every encoded field, including
/// resource-less trace events and non-round `f64` bit patterns.
fn arb_report(seed: u64) -> Arc<EpochReport> {
    let mut api_iter = BTreeMap::new();
    for k in 0..(seed % 4) {
        api_iter.insert(
            format!("api.cat{k}"),
            SimSpan::from_nanos(seed.wrapping_mul(31).wrapping_add(k)),
        );
    }
    let events = (0..(seed % 5))
        .map(|i| {
            let start = seed.wrapping_add(17 * i) % 1_000_000;
            TraceEvent {
                task: TaskId::from_index((seed.wrapping_add(i) % 1024) as usize),
                label: format!("it1/k{seed}.{i}"),
                category: ["fp", "wu", "comm"][(i % 3) as usize].to_string(),
                resource: (i.is_multiple_of(2)).then(|| format!("GPU{}.compute", i % 8)),
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + seed % 5_000),
            }
        })
        .collect();
    Arc::new(EpochReport {
        iterations: 1 + seed % 4096,
        iter_time: SimSpan::from_nanos(seed.wrapping_mul(0x9e37_79b9)),
        epoch_time: SimSpan::from_nanos(seed.wrapping_mul(0x85eb_ca6b)),
        fp_bp_iter: SimSpan::from_nanos(seed / 3),
        wu_iter: SimSpan::from_nanos(seed / 5 + 1),
        api_iter,
        sync_wall_iter: SimSpan::from_nanos(seed / 7),
        compute_utilization: (seed % 1000) as f64 / 997.0,
        iter_trace: Trace::new(events),
        critical_chain: (0..(seed % 4))
            .map(|i| format!("chain{seed}.{i}"))
            .collect(),
    })
}

/// Distinct-cell entry set of `n` entries derived from `seed`.
fn arb_entries(seed: u64, n: usize) -> Vec<(Cell, Arc<EpochReport>)> {
    let mut entries: Vec<(Cell, Arc<EpochReport>)> = Vec::new();
    let mut s = seed;
    while entries.len() < n {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let cell = arb_cell(s);
        if entries.iter().all(|(c, _)| *c != cell) {
            entries.push((cell, arb_report(s)));
        }
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// save → load → re-save is byte-identical, and any permutation of
    /// the same entries encodes to the same canonical bytes.
    #[test]
    fn roundtrip_is_byte_identical_and_canonical(seed in 0u64..10_000, n in 0usize..12) {
        let fp = seed ^ 0xfeed;
        let entries = arb_entries(seed, n);
        let bytes = encode(fp, &entries);

        let decoded = decode(&bytes, fp).expect("valid snapshot must decode");
        prop_assert_eq!(decoded.len(), entries.len());
        prop_assert_eq!(encode(fp, &decoded), bytes.clone(), "re-save drifted");

        let mut reversed = entries.clone();
        reversed.reverse();
        prop_assert_eq!(encode(fp, &reversed), bytes, "encoding not canonical");
    }

    /// Every decoded field equals what was saved — including `f64` bit
    /// patterns and the full trace.
    #[test]
    fn every_field_survives_the_roundtrip(seed in 0u64..10_000) {
        let entries = arb_entries(seed, 4);
        let decoded = decode(&encode(7, &entries), 7).unwrap();
        prop_assert_eq!(decoded.len(), entries.len());
        // decode returns canonical (sorted) order; match by cell key.
        for (c0, r0) in &entries {
            let (_, r1) = decoded
                .iter()
                .find(|(c1, _)| c1 == c0)
                .expect("every saved cell must be decoded");
            prop_assert_eq!(r0.iterations, r1.iterations);
            prop_assert_eq!(r0.iter_time, r1.iter_time);
            prop_assert_eq!(r0.epoch_time, r1.epoch_time);
            prop_assert_eq!(r0.fp_bp_iter, r1.fp_bp_iter);
            prop_assert_eq!(r0.wu_iter, r1.wu_iter);
            prop_assert_eq!(&r0.api_iter, &r1.api_iter);
            prop_assert_eq!(r0.sync_wall_iter, r1.sync_wall_iter);
            prop_assert_eq!(
                r0.compute_utilization.to_bits(),
                r1.compute_utilization.to_bits()
            );
            prop_assert_eq!(r0.iter_trace.events(), r1.iter_trace.events());
        }
    }

    /// Slim-flagged entries round-trip exactly: the flag survives, the
    /// scalars survive, the trace is dropped for slim entries only,
    /// the encoding stays canonical, and a re-save is byte-identical.
    #[test]
    fn slim_flags_roundtrip_and_drop_exactly_the_traces(seed in 0u64..10_000, n in 0usize..10) {
        let entries: Vec<(Cell, Arc<EpochReport>, bool)> = arb_entries(seed, n)
            .into_iter()
            .enumerate()
            .map(|(i, (c, r))| (c, r, (seed >> (i % 32)) & 1 == 1))
            .collect();
        let bytes = encode_entries(5, &entries);

        let decoded = decode_entries(&bytes, 5).expect("valid snapshot must decode");
        prop_assert_eq!(decoded.len(), entries.len());
        prop_assert_eq!(encode_entries(5, &decoded), bytes.clone(), "re-save drifted");
        let mut reversed = entries.clone();
        reversed.reverse();
        prop_assert_eq!(encode_entries(5, &reversed), bytes, "encoding not canonical");

        for (c0, r0, slim0) in &entries {
            let (_, r1, slim1) = decoded
                .iter()
                .find(|(c1, _, _)| c1 == c0)
                .expect("every saved cell must be decoded");
            prop_assert_eq!(slim0, slim1, "slim flag lost for {:?}", c0);
            prop_assert_eq!(r0.iterations, r1.iterations);
            prop_assert_eq!(r0.iter_time, r1.iter_time);
            prop_assert_eq!(r0.epoch_time, r1.epoch_time);
            prop_assert_eq!(r0.fp_bp_iter, r1.fp_bp_iter);
            prop_assert_eq!(r0.wu_iter, r1.wu_iter);
            prop_assert_eq!(&r0.api_iter, &r1.api_iter);
            prop_assert_eq!(r0.sync_wall_iter, r1.sync_wall_iter);
            prop_assert_eq!(
                r0.compute_utilization.to_bits(),
                r1.compute_utilization.to_bits()
            );
            if *slim0 {
                prop_assert!(
                    r1.iter_trace.events().is_empty(),
                    "slim entry kept its trace"
                );
            } else {
                prop_assert_eq!(r0.iter_trace.events(), r1.iter_trace.events());
            }
        }
    }

    /// Truncating a valid snapshot anywhere yields a typed error,
    /// never a panic and never a silently shorter cache.
    #[test]
    fn truncations_are_rejected(seed in 0u64..10_000, frac in 0.0f64..1.0) {
        let bytes = encode(3, &arb_entries(seed, 3));
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut], 3).is_err(), "cut at {} accepted", cut);
    }

    /// Flipping any single byte of a valid snapshot is detected: the
    /// header fields are each individually validated and the payload
    /// is checksummed.
    #[test]
    fn single_byte_corruption_is_rejected(seed in 0u64..10_000, pos in 0usize..4096) {
        let mut bytes = encode(11, &arb_entries(seed, 2));
        let pos = pos % bytes.len();
        bytes[pos] ^= 0x5a;
        prop_assert!(decode(&bytes, 11).is_err(), "flip at {} accepted", pos);
    }
}

/// Start values sitting on every LEB128 varint width boundary, plus
/// the top of the clock (deltas near `u64::MAX` wrap).
const START_BOUNDARIES: [u64; 9] = [
    0,
    1,
    127,
    128,
    16_383,
    16_384,
    2_097_151,
    2_097_152,
    u64::MAX - 5_000,
];

/// Durations covering zero-length markers, sub-µs kernels, and varint
/// width boundaries.
const DURATIONS: [u64; 6] = [0, 1, 127, 128, 300, 16_384];

/// Builds a report whose scalars come from `arb_report` but whose
/// trace is exactly `events`.
fn report_with_trace(seed: u64, events: Vec<TraceEvent>) -> Arc<EpochReport> {
    let mut report = (*arb_report(seed)).clone();
    report.iter_trace = Trace::new(events);
    Arc::new(report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// v5 compact trace blocks round-trip through every encoding edge:
    /// empty traces, single events, duplicate labels (interning),
    /// `u64::MAX`-adjacent spans, zero-duration markers, and start
    /// deltas straddling every varint width boundary — and the lazy
    /// decode path yields exactly what the eager one does, with
    /// re-save byte-identity throughout.
    #[test]
    fn v5_trace_blocks_roundtrip_through_edge_cases(
        seed in 0u64..10_000,
        specs in proptest::collection::vec(
            (0usize..9, 0u64..5_000, 0usize..6, 0usize..3, proptest::bool::ANY),
            0..12
        ),
    ) {
        let events: Vec<TraceEvent> = specs
            .iter()
            .enumerate()
            .map(|(i, &(b, off, d, lab, res))| {
                let start = START_BOUNDARIES[b].saturating_add(off);
                TraceEvent {
                    task: TaskId::from_index(i),
                    // Small label space forces duplicate interning.
                    label: format!("kernel{lab}"),
                    category: ["fp", "wu", "comm"][lab].to_string(),
                    resource: res.then(|| format!("GPU{lab}.compute")),
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(start.saturating_add(DURATIONS[d])),
                }
            })
            .collect();
        let fp = seed ^ 0xabcd;
        let entries = vec![(arb_cell(seed), report_with_trace(seed, events.clone()))];
        let bytes = encode(fp, &entries);

        // Eager decode reproduces the events and re-saves identically.
        let decoded = decode(&bytes, fp).expect("edge-case snapshot must decode");
        prop_assert_eq!(decoded[0].1.iter_trace.events(), &events[..]);
        prop_assert_eq!(encode(fp, &decoded), bytes.clone(), "re-save drifted");

        // Lazy decode agrees with eager, event for event.
        let image: Arc<[u8]> = bytes.clone().into();
        let lazy = persist::decode_entries_lazy(&image, fp).expect("lazy decode");
        prop_assert_eq!(lazy.len(), 1);
        prop_assert!(
            lazy[0].1.iter_trace.events().is_empty(),
            "lazy report must not carry decoded events"
        );
        match &lazy[0].2 {
            persist::EntryTrace::Lazy(block) => {
                prop_assert_eq!(&block.decode().expect("block decodes")[..], &events[..]);
                // Decoding is deterministic.
                prop_assert_eq!(block.decode().unwrap(), block.decode().unwrap());
            }
            persist::EntryTrace::Slim => {
                prop_assert!(false, "full entries must load as lazy blocks");
            }
        }

        // Copying the still-encoded block through a re-save
        // (TraceOut::Raw) is byte-identical to re-encoding.
        let raw_entries: Vec<(Cell, Arc<EpochReport>, persist::TraceOut)> = lazy
            .iter()
            .map(|(c, r, t)| {
                let out = match t {
                    persist::EntryTrace::Lazy(b) => persist::TraceOut::Raw(b.clone()),
                    persist::EntryTrace::Slim => persist::TraceOut::Slim,
                };
                (*c, r.clone(), out)
            })
            .collect();
        prop_assert_eq!(
            persist::encode_with_traces(fp, &raw_entries),
            bytes,
            "raw copy-through drifted from the original image"
        );
    }
}

#[test]
fn stale_files_fail_with_the_right_typed_error() {
    let entries = arb_entries(42, 2);
    let good = encode(1, &entries);

    let mut wrong_version = good.clone();
    wrong_version[8] = wrong_version[8].wrapping_add(3);
    assert!(matches!(
        decode(&wrong_version, 1),
        Err(PersistError::UnsupportedVersion { .. })
    ));

    assert!(matches!(
        decode(&good, 2),
        Err(PersistError::FingerprintMismatch {
            expected: 2,
            found: 1
        })
    ));

    let mut not_a_snapshot = good;
    not_a_snapshot[0] = b'X';
    assert!(matches!(
        decode(&not_a_snapshot, 1),
        Err(PersistError::BadMagic)
    ));
}

#[test]
fn snapshots_go_stale_when_the_workload_files_change() {
    // The fingerprint folds in the registry's digest of the `.workload`
    // files, so a snapshot saved before a file edit is rejected after
    // it instead of serving reports of the old layer counts.
    let h = Harness::paper();
    let digest = dgx1_repro::voltascope::workloads::registry_digest();
    let saved = persist::fingerprint_with(&h, digest);
    assert_eq!(persist::harness_fingerprint(&h), saved);
    let edited = persist::fingerprint_with(&h, digest ^ 1);
    let bytes = encode(saved, &arb_entries(5, 2));
    assert!(decode(&bytes, saved).is_ok());
    assert!(matches!(
        decode(&bytes, edited),
        Err(PersistError::FingerprintMismatch { .. })
    ));
}

#[test]
fn filling_the_tuner_memo_leaves_the_fingerprint_alone() {
    // The memo lives in the harness's system model, but what it holds
    // must never make a snapshot look stale.
    let modern = || {
        let mut h = Harness::paper();
        h.sys.nccl.tuning = dgx1_repro::comm::TuningSpace::modern();
        h
    };
    let service = GridService::with_executor(modern(), Executor::Serial);
    let before = persist::harness_fingerprint(service.base());
    let cell = Cell {
        workload: Workload::LeNet.into(),
        comm: CommMethod::Nccl,
        batch: 16,
        gpus: 2,
        scaling: ScalingMode::Strong,
        platform: Platform::Dgx1,
        fault: FaultScenario::Healthy,
    };
    service.run_cells(&[cell]);
    assert!(
        service.tuner_stats().solves > 0,
        "the request filled the memo"
    );
    assert_eq!(persist::harness_fingerprint(service.base()), before);
    assert_eq!(persist::harness_fingerprint(&modern()), before);
}

/// The service_demo request stream: six overlapping sweeps, 72 cells.
fn demo_stream() -> Vec<GridSpec> {
    vec![
        GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        GridSpec::paper().workloads([Workload::LeNet]),
        GridSpec::paper().workloads([Workload::LeNet]).batches([16]),
        GridSpec::paper()
            .workloads([Workload::LeNet])
            .comms([CommMethod::Nccl]),
        GridSpec::paper()
            .workloads([Workload::AlexNet])
            .batches([16])
            .gpu_counts([1, 2]),
        GridSpec::paper()
            .workloads([Workload::LeNet, Workload::AlexNet])
            .batches([16]),
    ]
}

#[test]
fn warm_service_is_equivalent_to_cold_over_a_mixed_stream() {
    let path = std::env::temp_dir().join(format!(
        "voltascope-persist-equiv-{}.snap",
        std::process::id()
    ));
    let stream = demo_stream();

    let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
    let cold_outs: Vec<_> = stream.iter().map(|s| cold.sweep(s)).collect();
    let cold_stats = cold.stats();
    assert_eq!(cold_stats.cells, 72, "the demo stream is 72 cells");
    let saved = cold.save(&path).unwrap();
    assert_eq!(saved as u64, cold_stats.computed);

    let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &path);
    assert!(matches!(status, SnapshotStatus::Loaded { .. }), "{status}");
    let warm_outs: Vec<_> = stream.iter().map(|s| warm.sweep(s)).collect();

    // Same cells, field-identical scalars, zero recomputation. The
    // table-only (non-traced) sweeps serve lazy entries without
    // decoding a single trace event.
    for (c_out, w_out) in cold_outs.iter().zip(warm_outs.iter()) {
        assert_eq!(c_out.cells(), w_out.cells());
        for ((cell, c), (_, w)) in c_out.iter().zip(w_out.iter()) {
            assert_eq!(c.iterations, w.iterations, "{cell:?}");
            assert_eq!(c.iter_time, w.iter_time, "{cell:?}");
            assert_eq!(c.epoch_time, w.epoch_time, "{cell:?}");
            assert_eq!(c.fp_bp_iter, w.fp_bp_iter, "{cell:?}");
            assert_eq!(c.wu_iter, w.wu_iter, "{cell:?}");
            assert_eq!(c.sync_wall_iter, w.sync_wall_iter, "{cell:?}");
            assert_eq!(c.api_iter, w.api_iter, "{cell:?}");
            assert_eq!(
                c.compute_utilization.to_bits(),
                w.compute_utilization.to_bits(),
                "{cell:?}"
            );
            assert!(
                w.iter_trace.events().is_empty(),
                "{cell:?}: non-traced warm serve must stay lazy"
            );
        }
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.computed, 0, "warm pass must not recompute");
    assert!(
        warm_stats.hit_rate() >= 0.95,
        "warm hit rate {:.3} below the acceptance bar",
        warm_stats.hit_rate()
    );
    assert_eq!(
        warm.trace_decodes(),
        0,
        "table-only sweeps must not decode any trace block"
    );

    // Re-saving the untouched warm cache reproduces the same bytes:
    // undecoded lazy blocks are copied through verbatim.
    let resaved = path.with_extension("snap2");
    warm.save(&resaved).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "warm re-save must be byte-identical"
    );

    // Trace consumers get the full cold traces back via lazy decode —
    // still without recomputing anything.
    for c_out in &cold_outs {
        let cells: Vec<Cell> = c_out.cells().to_vec();
        let traced = warm.run_cells_traced(&cells, true);
        for ((cell, c), w) in c_out.iter().zip(traced.iter()) {
            assert_eq!(c.iter_trace.events(), w.iter_trace.events(), "{cell:?}");
        }
    }
    assert_eq!(
        warm.stats().computed,
        0,
        "traced requests decode lazily, never recompute"
    );
    assert!(warm.trace_decodes() > 0, "traced requests decode");

    // Re-saving after decoding is byte-identical too: a decoded entry
    // re-encodes to exactly its original canonical block.
    let resaved_decoded = path.with_extension("snap3");
    warm.save(&resaved_decoded).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved_decoded).unwrap(),
        "post-decode re-save must be byte-identical"
    );
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&resaved).unwrap();
    std::fs::remove_file(&resaved_decoded).unwrap();
}

#[test]
fn slim_warm_service_serves_equivalent_scalars_and_recomputes_for_traces() {
    let slim_path = std::env::temp_dir().join(format!(
        "voltascope-persist-slim-{}.snap",
        std::process::id()
    ));
    let full_path = slim_path.with_extension("full");
    let stream = demo_stream();

    let cold = GridService::with_executor(Harness::paper(), Executor::Serial);
    let cold_outs: Vec<_> = stream.iter().map(|s| cold.sweep(s)).collect();
    let saved = cold.save_with(&slim_path, true).unwrap();
    assert_eq!(saved as u64, cold.stats().computed);
    cold.save(&full_path).unwrap();
    let slim_len = std::fs::metadata(&slim_path).unwrap().len();
    let full_len = std::fs::metadata(&full_path).unwrap().len();
    // v5's compressed trace blocks narrowed the gap (the old full
    // format was ~10x slim), but dropping traces must still win
    // clearly.
    assert!(
        slim_len * 2 < full_len,
        "slim snapshot ({slim_len} B) should be well under half of full ({full_len} B)"
    );

    // A slim-warm service answers the whole stream from cache with
    // identical scalars; only the iteration traces are gone.
    let (warm, status) = GridService::with_snapshot(Harness::paper(), Executor::Serial, &slim_path);
    assert!(matches!(status, SnapshotStatus::Loaded { .. }), "{status}");
    for (spec, c_out) in stream.iter().zip(cold_outs.iter()) {
        let w_out = warm.sweep(spec);
        assert_eq!(c_out.cells(), w_out.cells());
        for ((cell, c), (_, w)) in c_out.iter().zip(w_out.iter()) {
            assert_eq!(c.iterations, w.iterations, "{cell:?}");
            assert_eq!(c.iter_time, w.iter_time, "{cell:?}");
            assert_eq!(c.epoch_time, w.epoch_time, "{cell:?}");
            assert_eq!(c.fp_bp_iter, w.fp_bp_iter, "{cell:?}");
            assert_eq!(c.wu_iter, w.wu_iter, "{cell:?}");
            assert_eq!(c.sync_wall_iter, w.sync_wall_iter, "{cell:?}");
            assert_eq!(c.api_iter, w.api_iter, "{cell:?}");
            assert_eq!(
                c.compute_utilization.to_bits(),
                w.compute_utilization.to_bits(),
                "{cell:?}"
            );
            assert!(w.iter_trace.events().is_empty(), "{cell:?} kept a trace");
        }
    }
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.computed, 0, "scalar requests must not recompute");
    assert!(warm_stats.hit_rate() >= 0.95, "{}", warm_stats.hit_rate());

    // Re-saving the slim-warm cache reproduces the slim bytes even
    // without the slim flag: a slim-loaded entry can never launder
    // itself back into a full one.
    let resaved = slim_path.with_extension("snap2");
    warm.save(&resaved).unwrap();
    assert_eq!(
        std::fs::read(&slim_path).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "slim-loaded re-save must be byte-identical to the slim snapshot"
    );

    // A trace-requiring request recomputes the cell and gets the full
    // trace back, identical to the cold computation.
    let cell = cold_outs[0].cells()[0];
    let cold_report = cold_outs[0].get(&cell).unwrap();
    assert!(!cold_report.iter_trace.events().is_empty());
    let traced = warm.run_cells_traced(&[cell], true);
    assert_eq!(
        traced[0].iter_trace.events(),
        cold_report.iter_trace.events(),
        "traced recompute must reproduce the cold trace"
    );
    assert_eq!(
        warm.stats().computed,
        1,
        "exactly the traced cell recomputed"
    );

    for p in [&slim_path, &full_path, &resaved] {
        std::fs::remove_file(p).unwrap();
    }
}
