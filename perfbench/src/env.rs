//! Environment hygiene: the benchmark measures the program as shipped, so
//! every knob that changes its behaviour or its thread count must be
//! unset.

/// Variables that select a calendar backend, disable the CPA cache, cap
/// rayon's workers, rescale the experiment grid or change the placement
/// grain.
pub const FORBIDDEN: [&str; 9] = [
    "RESCHED_BACKEND",
    "RESCHED_CPA_CACHE",
    "RESCHED_PAR",
    "RESCHED_SCALE",
    "RESCHED_DAGS",
    "RESCHED_STARTS",
    "RESCHED_TAGS",
    "RESCHED_SWEEP_STRIDE",
    "RESCHED_HIER_GRAIN",
];

/// The forbidden variables that are set, per `lookup`.
pub fn violations(lookup: impl Fn(&str) -> bool) -> Vec<&'static str> {
    FORBIDDEN.into_iter().filter(|v| lookup(v)).collect()
}
