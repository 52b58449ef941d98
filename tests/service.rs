//! Service-layer contract: the cached sweep front end must be
//! single-flight (each cell computed exactly once no matter how many
//! concurrent requests ask for it), byte-identical to the direct grid
//! path at any thread count, and keyed on the *full* cell — platform
//! and fault variants may never answer each other's requests.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use dgx1_repro::prelude::*;
use voltascope::grid::epoch_reports;

fn cell(workload: Workload, comm: CommMethod, batch: usize, gpus: usize) -> Cell {
    Cell {
        workload: workload.into(),
        comm,
        batch,
        gpus,
        scaling: ScalingMode::Strong,
        platform: Platform::Dgx1,
        fault: FaultScenario::Healthy,
    }
}

#[test]
fn concurrent_identical_requests_compute_each_cell_exactly_once() {
    let service = Arc::new(GridService::with_executor(
        Harness::paper(),
        Executor::Parallel { threads: 2 },
    ));
    let cells: Vec<Cell> = [1, 2, 4, 8]
        .into_iter()
        .map(|gpus| cell(Workload::LeNet, CommMethod::P2p, 16, gpus))
        .collect();
    let requesters = 8;
    let barrier = Arc::new(Barrier::new(requesters));
    let handles: Vec<_> = (0..requesters)
        .map(|_| {
            let service = Arc::clone(&service);
            let cells = cells.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.run_cells(&cells)
            })
        })
        .collect();
    let results: Vec<Vec<Arc<EpochReport>>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The execution counter is the proof: 8 overlapping requests for
    // the same 4 cells performed exactly 4 cell computations.
    let stats = service.stats();
    assert_eq!(stats.computed, cells.len() as u64, "duplicate computation");
    assert_eq!(stats.requests, requesters as u64);
    assert_eq!(stats.cells, (requesters * cells.len()) as u64);
    assert_eq!(
        stats.hits + stats.coalesced + stats.repeats + stats.computed,
        stats.cells,
        "every requested cell classified exactly once"
    );
    assert_eq!(
        stats.repeats, 0,
        "no request contained intra-request duplicates"
    );
    // Every requester got the same shared reports.
    for reports in &results {
        assert_eq!(reports.len(), cells.len());
        for (a, b) in reports.iter().zip(results[0].iter()) {
            assert!(Arc::ptr_eq(a, b), "requests must share cached reports");
        }
    }
}

#[test]
fn randomized_stress_keeps_the_accounting_balanced() {
    // Overlapping, shuffled subsets of a mixed-cost pool from 3
    // threads: each request computes its claims longest-first, not in
    // the order they arrive, so overlapping requests race on cells in
    // varying orders. Single-flight must still hold and every report
    // must match the direct grid path.
    let spec = GridSpec::paper()
        .workloads([Workload::LeNet, Workload::AlexNet])
        .batches([16]);
    let direct = epoch_reports(&Harness::paper(), &spec, Executor::Serial);
    let pool = spec.cells();
    for threads in [1usize, 2, 8] {
        let requests = shuffled_subsets(&pool, threads as u64);
        let union: HashSet<Cell> = requests.iter().flatten().flatten().copied().collect();
        let service = GridService::with_executor(Harness::paper(), Executor::Parallel { threads });
        let barrier = Barrier::new(requests.len());
        std::thread::scope(|scope| {
            for mine in &requests {
                let (service, barrier, direct) = (&service, &barrier, &direct);
                scope.spawn(move || {
                    barrier.wait();
                    for cells in mine {
                        for (cell, report) in cells.iter().zip(service.run_cells(cells)) {
                            assert_same_report(&report, direct.get(cell).unwrap(), cell);
                        }
                    }
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.computed, union.len() as u64, "threads = {threads}");
        assert_eq!(
            stats.hits + stats.coalesced + stats.repeats + stats.computed,
            stats.cells,
            "threads = {threads}"
        );
    }
}

/// Three requesters' request lists: each request is a random window of
/// `pool`, deterministically shuffled, so the requesters overlap.
fn shuffled_subsets(pool: &[Cell], seed: u64) -> Vec<Vec<Vec<Cell>>> {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as usize
    };
    (0..3)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let (start, len) = (next() % pool.len(), 4 + next() % 6);
                    let mut cells: Vec<Cell> =
                        (0..len).map(|k| pool[(start + k) % pool.len()]).collect();
                    for i in (1..cells.len()).rev() {
                        cells.swap(i, next() % (i + 1));
                    }
                    cells
                })
                .collect()
        })
        .collect()
}

fn assert_same_report(s: &EpochReport, d: &EpochReport, cell: &Cell) {
    assert_eq!(s.iterations, d.iterations, "{cell:?}");
    assert_eq!(s.iter_time, d.iter_time, "{cell:?}");
    assert_eq!(s.epoch_time, d.epoch_time, "{cell:?}");
    assert_eq!(s.fp_bp_iter, d.fp_bp_iter, "{cell:?}");
    assert_eq!(s.wu_iter, d.wu_iter, "{cell:?}");
    assert_eq!(s.sync_wall_iter, d.sync_wall_iter, "{cell:?}");
    assert_eq!(s.compute_utilization, d.compute_utilization, "{cell:?}");
    assert_eq!(s.iter_trace.len(), d.iter_trace.len(), "{cell:?}");
}

#[test]
fn service_reports_match_the_direct_grid_path_at_every_thread_count() {
    let h = Harness::paper();
    let spec = GridSpec::paper()
        .workloads([Workload::LeNet])
        .batches([16, 32])
        .gpu_counts([1, 4]);
    let direct = epoch_reports(&h, &spec, Executor::Serial);
    for threads in [1usize, 2, 8] {
        let service = GridService::with_executor(h.clone(), Executor::Parallel { threads });
        let via_service = service.sweep(&spec);
        assert_eq!(via_service.cells(), direct.cells());
        for ((cell, s), (_, d)) in via_service.iter().zip(direct.iter()) {
            assert_same_report(s, d, cell);
        }
    }
}

#[test]
fn rendered_tables_are_byte_identical_through_the_service() {
    let h = Harness::paper();
    let workloads = [Workload::LeNet];
    let direct = experiments::fig3::render(&experiments::fig3::grid_with(
        &h,
        &workloads,
        Executor::Serial,
    ))
    .render();
    for threads in [1usize, 2, 8] {
        let service = GridService::with_executor(h.clone(), Executor::Parallel { threads });
        let via_service =
            experiments::fig3::render(&experiments::fig3::grid_service(&service, &workloads))
                .render();
        assert_eq!(direct, via_service, "threads = {threads}");
    }
}

#[test]
fn cache_keys_distinguish_platform_and_fault_variants() {
    let service = GridService::with_executor(Harness::paper(), Executor::Serial);
    let baseline = cell(Workload::AlexNet, CommMethod::Nccl, 16, 8);
    let variants = [
        baseline,
        Cell {
            platform: Platform::PcieOnly,
            ..baseline
        },
        Cell {
            fault: FaultScenario::StragglerGpu,
            ..baseline
        },
        Cell {
            fault: FaultScenario::DeadNvLink,
            ..baseline
        },
    ];
    let reports = service.run_cells(&variants);

    // Four distinct keys: four computations, no cross-variant hits.
    let stats = service.stats();
    assert_eq!(stats.computed, variants.len() as u64);
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.coalesced, 0);

    // And the variants genuinely simulate different systems: every
    // epoch time differs from the baseline's.
    let base_epoch = reports[0].epoch_time;
    for (variant, report) in variants.iter().zip(reports.iter()).skip(1) {
        assert_ne!(
            report.epoch_time, base_epoch,
            "variant {variant:?} must not share the baseline's result"
        );
    }

    // Re-requesting any variant is now a pure cache hit.
    let again = service.run_cells(&variants);
    assert_eq!(service.stats().computed, variants.len() as u64);
    assert_eq!(service.stats().hits, variants.len() as u64);
    for (a, b) in reports.iter().zip(again.iter()) {
        assert!(Arc::ptr_eq(a, b));
    }
}
