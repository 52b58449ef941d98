//! Regenerates Fig. 3: training time per epoch for five workloads under
//! P2P and NCCL communication, batch sizes 16/32/64, 1/2/4/8 GPUs
//! (mean +/- stddev of 5 repetitions, strong scaling on 256K images).
//! The sweep is issued through the caching `GridService`; set
//! `VOLTASCOPE_CACHE` to warm-start from (and re-save) an on-disk
//! snapshot.
use voltascope::experiments::fig3;

fn main() {
    let service = voltascope_bench::service();
    let cells = fig3::grid(&service, &voltascope_bench::workloads());
    voltascope_bench::emit("Fig. 3: Training time per epoch (s)", &fig3::render(&cells));
    voltascope_bench::save_service(&service);
}
