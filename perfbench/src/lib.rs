//! End-to-end benchmark of resched.
//!
//! Three workloads run against the entry points the repository's users
//! call: `resched_serve::run` replaying a CTC_SP2-like trace at a
//! calibrated offered load (`serve_steady`, `serve_overload`) and
//! `run_deadline_experiment` producing the paper's Table 7
//! (`table7_hybrid`). A traced run replays the same inputs through the
//! benchmark's own replica of each loop, spanning every call into the
//! program's public functions, and reports per-layer numbers. End-to-end
//! timings are rescaled to a fixed host speed measured by a reference
//! computation interleaved with the work (`reference.rs`). See
//! `README.md` in this directory for the metrics and how to cite them.

pub mod bench;
pub mod calib;
pub mod env;
pub mod reference;
pub mod report;
pub mod serve;
pub mod stats;
pub mod table7;
pub mod trace;
