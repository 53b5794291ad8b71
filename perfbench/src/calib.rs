//! Offered-load calibration: name a serve workload by the load ρ its
//! arrivals place on the platform, not by a hand-picked acceleration.
//!
//! ρ = demanded core-seconds ÷ (capacity × accelerated replay span), where
//! the demand is the summed sequential work of every arriving DAG and the
//! replay span runs from the first to the last replayed submission.
//! Acceleration divides the span, so ρ is linear in it and the factor for
//! a target load follows in closed form.

use resched_core::prelude::Dur;

/// Offered load of `work` core-seconds arriving over `span` on `procs`
/// cores, replayed `accel` times faster than recorded.
pub fn offered_load(work: i64, procs: u32, span: Dur, accel: f64) -> f64 {
    work as f64 * accel / (f64::from(procs) * span.as_seconds() as f64)
}

/// The acceleration at which the same arrivals offer load `rho`.
pub fn accel_for(rho: f64, work: i64, procs: u32, span: Dur) -> f64 {
    rho * f64::from(procs) * span.as_seconds() as f64 / work as f64
}
