//! The benchmark of record for `fcds-server`: served ingest, query
//! latency and freshness over seeded workloads, plus a per-layer
//! ledger. `run.py` next to this crate builds it and the server and is
//! the entry point; see `README.md` there.

pub mod bench;
pub mod drive;
pub mod gen;
pub mod ledger;
pub mod oracle;
pub mod server;
pub mod stats;
pub mod workload;
