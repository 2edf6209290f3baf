//! The four workloads. Each stresses a different set of layers; the
//! one-line reasons are the `why` strings of `BENCHMARK.json`.

pub mod bulk_load;
pub mod lubm_scan;
pub mod mutate_read;
pub mod watdiv_serve;

use crate::run::{Outcome, RunArgs};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LubmScan,
    WatdivServe,
    MutateRead,
    BulkLoad,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LubmScan,
        Workload::WatdivServe,
        Workload::MutateRead,
        Workload::BulkLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LubmScan => "lubm_scan",
            Workload::WatdivServe => "watdiv_serve",
            Workload::MutateRead => "mutate_read",
            Workload::BulkLoad => "bulk_load",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn run(self, args: &RunArgs) -> Outcome {
        match self {
            Workload::LubmScan => lubm_scan::run(args),
            Workload::WatdivServe => watdiv_serve::run(args),
            Workload::MutateRead => mutate_read::run(args),
            Workload::BulkLoad => bulk_load::run(args),
        }
    }
}
