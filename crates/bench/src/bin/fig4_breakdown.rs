//! Regenerates Fig. 4: the breakdown of training time into computation
//! (FP+BP) and communication (WU) under NCCL. The sweep is issued
//! through the caching `GridService`; set `VOLTASCOPE_CACHE` to
//! warm-start from (and re-save) an on-disk snapshot.
use voltascope::experiments::fig4;

fn main() {
    let service = voltascope_bench::service();
    let cells = fig4::grid(&service, &voltascope_bench::workloads());
    voltascope_bench::emit(
        "Fig. 4: FP+BP vs WU breakdown (NCCL)",
        &fig4::render(&cells),
    );
    voltascope_bench::save_service(&service);
}
