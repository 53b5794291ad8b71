//! The serve workloads: the CTC_SP2-like trace replayed through
//! `resched_serve::run` at a calibrated offered load, and a traced replica
//! of its admission loop built from the same public calls.

use crate::calib::{accel_for, offered_load};
use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::backward::{schedule_deadline, DeadlineConfig};
use resched_core::dag::Dag;
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::*;
use resched_core::schedule::ScheduleStats;
use resched_core::validate::audit_calendar_with;
use resched_daggen::DagParams;
use resched_serve::{ServeConfig, ServeReport, PROBE_ROSTER};
use resched_workloads::prelude::*;

/// Offered load of `serve_steady`.
pub const STEADY_RHO: f64 = 0.6;
/// Offered load of `serve_overload`.
pub const OVERLOAD_RHO: f64 = 4.0;
/// Arrivals per replay: enough that p99 has ten samples beyond it.
pub const APPS: usize = 1100;
/// Length of the synthesized trace; long enough to hold [`APPS`] arrivals.
pub const LOG_DAYS: i64 = 12;
/// Independent traces per run; each timing is the median over every replay
/// of all of them, so one trace's job mix does not set the run's figure.
pub const TRACES: usize = 4;
/// Arrivals in the warm-up replay that ends set-up.
pub const WARMUP_APPS: usize = 100;

/// One prepared serve input: the synthesized log and the calibrated
/// configuration that replays it at the target load.
pub struct ServeInput {
    /// The CTC_SP2-like log.
    pub log: JobLog,
    /// Serving configuration (defaults apart from `accel`, `max_apps` and
    /// `seed`).
    pub cfg: ServeConfig,
    /// Offered load of the replayed arrivals at `cfg.accel`.
    pub rho: f64,
}

/// The per-application DAG seed `resched_serve::run` uses (splitmix64 over
/// the master seed and the job id); the replica must draw the same DAGs.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of trace `k` of a run with seed `seed`.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, k as u64)
}

/// DAG shape of every arriving application.
pub fn dag_params(cfg: &ServeConfig) -> DagParams {
    DagParams {
        num_tasks: cfg.tasks_per_app.max(1),
        ..DagParams::paper_default()
    }
}

/// The jobs `resched_serve::run` replays from `log` at `cfg`, in replay
/// order.
pub fn replayed_jobs(log: &JobLog, cfg: &ServeConfig) -> Vec<Job> {
    let mut jobs = log.accelerated(cfg.accel).jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    if cfg.max_apps > 0 {
        jobs.truncate(cfg.max_apps);
    }
    jobs
}

/// Summed sequential work and submission span of a replay-ordered job
/// list, with the DAG of job `j` drawn as the serve loop draws it.
fn demand(jobs: &[Job], cfg: &ServeConfig) -> (i64, Dur) {
    let params = dag_params(cfg);
    let work = jobs
        .iter()
        .map(|j| {
            resched_daggen::generate(&params, derive_seed(cfg.seed, u64::from(j.id)))
                .total_seq_work()
        })
        .sum();
    let span = match (jobs.first(), jobs.last()) {
        (Some(a), Some(b)) => b.submit - a.submit,
        _ => Dur::ZERO,
    };
    (work, span)
}

/// The CTC_SP2-like trace of `seed`.
pub fn synthesize(seed: u64) -> JobLog {
    generate_log(&LogSpec::ctc_sp2().with_duration(Dur::days(LOG_DAYS)), seed)
}

/// Synthesize the trace for `seed` and calibrate its acceleration so its
/// first `apps` arrivals offer load `rho`.
pub fn prepare(seed: u64, rho: f64, apps: usize) -> Result<ServeInput, String> {
    let log = synthesize(seed);
    let mut cfg = ServeConfig {
        accel: 1.0,
        max_apps: apps,
        seed,
        ..ServeConfig::default()
    };
    let recorded = replayed_jobs(&log, &cfg);
    if recorded.len() < apps {
        return Err(format!(
            "seed {seed}: the {LOG_DAYS}-day trace holds {} arrivals, fewer than {apps}",
            recorded.len()
        ));
    }
    let (work, span) = demand(&recorded, &cfg);
    cfg.accel = accel_for(rho, work, log.procs, span);
    // Acceleration rounds submission offsets down to whole seconds, so the
    // realized load is measured on the arrivals actually replayed.
    let (work, span) = demand(&replayed_jobs(&log, &cfg), &cfg);
    let rho = offered_load(work, log.procs, span, 1.0);
    Ok(ServeInput { log, cfg, rho })
}

/// Set-up as a user pays it: synthesis, calibration and a short warm-up
/// replay.
pub fn setup(seed: u64, rho: f64, apps: usize) -> Result<ServeInput, String> {
    let input = prepare(seed, rho, apps)?;
    let warm = ServeConfig {
        max_apps: WARMUP_APPS.min(apps),
        ..input.cfg
    };
    std::hint::black_box(resched_serve::run(&input.log, &warm));
    Ok(input)
}

/// The correctness gate on one report of an `apps`-arrival replay.
pub fn check_report(r: &ServeReport, apps: usize) -> Result<(), String> {
    if r.violations > 0 {
        return Err(format!(
            "{} audit/validator violations, first: {:?}",
            r.violations, r.first_violation
        ));
    }
    if r.apps != r.commits + r.rollbacks {
        return Err(format!(
            "apps {} != commits {} + rollbacks {}",
            r.apps, r.commits, r.rollbacks
        ));
    }
    if r.commits == 0 || r.rollbacks == 0 {
        return Err(format!(
            "commit/rollback path not exercised (commits {}, rollbacks {})",
            r.commits, r.rollbacks
        ));
    }
    if r.apps != apps {
        return Err(format!("replayed {} arrivals, expected {apps}", r.apps));
    }
    Ok(())
}

/// The decisions of a run, which every repetition and the replica must
/// reproduce bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Arrivals processed.
    pub apps: usize,
    /// Admitted arrivals.
    pub commits: usize,
    /// Rejected arrivals.
    pub rollbacks: usize,
    /// Cancelled live applications.
    pub cancels: usize,
    /// Resized live reservations.
    pub resizes: usize,
    /// Calendar utilization over the replayed span, as raw bits.
    pub utilization_bits: u64,
}

impl Decisions {
    /// The decisions recorded in a `ServeReport`.
    pub fn of(r: &ServeReport) -> Decisions {
        Decisions {
            apps: r.apps,
            commits: r.commits,
            rollbacks: r.rollbacks,
            cancels: r.cancels,
            resizes: r.resizes,
            utilization_bits: r.utilization.to_bits(),
        }
    }
}

/// What the traced replica observed besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Decisions, comparable with [`Decisions::of`] a `ServeReport`.
    pub decisions: Decisions,
    /// Audit, validator and calendar-operation failures.
    pub violations: usize,
    /// Wall time of the replay loop, nanoseconds.
    pub loop_ns: u64,
    /// Work counters of every schedule the scheduler calls returned.
    pub stats: ScheduleStats,
    /// Calendar breakpoints when the replay ended.
    pub breakpoints_end: usize,
    /// Live reservations when the replay ended.
    pub reservations_end: usize,
    /// Decision latencies of admitted arrivals, nanoseconds.
    pub admitted_ns: Vec<u64>,
    /// Decision latencies of rejected arrivals, nanoseconds.
    pub rejected_ns: Vec<u64>,
}

/// Replay `log` under `cfg` exactly as `resched_serve::run` does (no quota
/// gate, single admission probe), spanning every call into the program.
/// Arrival `i` is operation `op_base + i`.
///
/// Span names: `serve.arrival` (root, one per arrival) containing
/// `daggen.generate`, `resv.q_estimate`, `serve.decision`,
/// `validate.audit`, `resv.cancel` and `resv.resize`; `serve.decision`
/// contains the scheduler call (`forward.` / `backward.schedule_admitted`
/// or `_rejected`), `validate.check`, and `resv.commit` (every `try_add`
/// plus the commit) or `resv.rollback`.
pub fn replay_traced(log: &JobLog, cfg: &ServeConfig, op_base: u32, tr: &mut Tracer) -> Replica {
    assert!(cfg.quota.is_none() && cfg.probe_fanout <= 1);
    let log = log.accelerated(cfg.accel);
    let procs = log.procs;
    let mut jobs = log.jobs;
    jobs.sort_by_key(|j| (j.submit, j.id));
    if cfg.max_apps > 0 {
        jobs.truncate(cfg.max_apps);
    }

    let mut cal = Calendar::new(procs);
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(cfg.seed, u64::MAX));
    let params = dag_params(cfg);
    let dl_cfg = DeadlineConfig::default();
    let mut live: Vec<Vec<Reservation>> = Vec::new();
    let mut out = Replica::default();
    let (mut apps, mut commits, mut rollbacks, mut cancels, mut resizes) = (0, 0, 0, 0, 0);
    let mut events = 0usize;

    let audit = |cal: &Calendar, tr: &mut Tracer, events: usize| -> usize {
        if cfg.audit_every > 0 && events.is_multiple_of(cfg.audit_every) {
            tr.leaf("validate.audit", || audit_calendar_with(cal, None, None))
                .len()
        } else {
            0
        }
    };

    let loop_start = tr.now();
    for (i, job) in jobs.iter().enumerate() {
        tr.set_op(op_base + i as u32);
        tr.enter("serve.arrival");
        let now = job.submit;
        apps += 1;
        events += 1;

        let dag: Dag = tr.leaf("daggen.generate", || {
            resched_daggen::generate(&params, derive_seed(cfg.seed, u64::from(job.id)))
        });
        let from = now - cfg.q_window;
        let q = tr.leaf("resv.q_estimate", || {
            if cal.num_breakpoints() > 0 {
                cal.average_available(from, now)
            } else {
                cal.capacity()
            }
        });

        let decision = tr.enter("serve.decision");
        let use_deadline = cfg.deadline_every > 0 && apps % cfg.deadline_every == 0;
        let deadline = now + cfg.admit_horizon;
        let mut txn = cal.transaction();
        let sched_span = tr.enter("schedule");
        // An infeasible deadline probe returns no schedule, so its work
        // counters are lost; a forward schedule past the horizon still
        // returns them.
        let (stats, sched) = if use_deadline {
            match schedule_deadline(
                &dag,
                txn.calendar(),
                now,
                q,
                deadline,
                PROBE_ROSTER[0],
                dl_cfg,
            ) {
                Ok(o) => (o.schedule.stats, Some(o.schedule)),
                Err(_) => (ScheduleStats::default(), None),
            }
        } else {
            let s = schedule_forward(&dag, txn.calendar(), now, q, ForwardConfig::recommended());
            (s.stats, (s.completion() <= deadline).then_some(s))
        };
        tr.exit();
        out.stats.absorb(stats);

        let admitted = sched.and_then(|s| {
            let mut validator = ScheduleValidator::new(&dag, txn.calendar(), now);
            if use_deadline {
                validator = validator.with_deadline(deadline);
            }
            if tr.leaf("validate.check", || validator.check(&s)).is_err() {
                out.violations += 1;
                return None;
            }
            Some(
                dag.task_ids()
                    .map(|t| s.placement(t).reservation())
                    .collect::<Vec<Reservation>>(),
            )
        });
        let committed = match admitted {
            Some(resvs) => {
                tr.enter("resv.commit");
                let mut ok = true;
                for r in &resvs {
                    ok &= txn.try_add(*r).is_ok();
                }
                txn.commit();
                tr.exit();
                if !ok {
                    out.violations += 1;
                }
                live.push(resvs);
                true
            }
            None => {
                tr.leaf("resv.rollback", || txn.rollback());
                false
            }
        };
        tr.exit();
        let name = match (use_deadline, committed) {
            (false, true) => "forward.schedule_admitted",
            (false, false) => "forward.schedule_rejected",
            (true, true) => "backward.schedule_admitted",
            (true, false) => "backward.schedule_rejected",
        };
        tr.rename(sched_span, name);
        let d = tr.spans()[decision as usize].dur();
        if committed {
            commits += 1;
            out.admitted_ns.push(d);
        } else {
            rollbacks += 1;
            out.rejected_ns.push(d);
        }
        out.violations += audit(&cal, tr, events);

        if committed && cfg.cancel_every > 0 && commits % cfg.cancel_every == 0 && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            let app = live.swap_remove(k);
            events += 1;
            let ok = tr.leaf("resv.cancel", || {
                let mut txn = cal.transaction();
                let ok = app.iter().all(|r| txn.try_remove(*r).is_ok());
                if ok {
                    txn.commit();
                } else {
                    txn.rollback();
                }
                ok
            });
            if ok {
                cancels += 1;
            } else {
                out.violations += 1;
            }
            out.violations += audit(&cal, tr, events);
        }

        if committed && cfg.resize_every > 0 && commits % cfg.resize_every == 0 && !live.is_empty()
        {
            let k = rng.gen_range(0..live.len());
            let longest = (0..live[k].len()).max_by_key(|&i| live[k][i].duration().as_seconds());
            if let Some(i) = longest {
                let old = live[k][i];
                let mid = old.start.midpoint(old.end);
                if mid > old.start {
                    events += 1;
                    let new = Reservation::new(old.start, mid, old.procs);
                    let ok = tr.leaf("resv.resize", || {
                        let mut txn = cal.transaction();
                        let ok = txn.try_resize(old, new).is_ok();
                        if ok {
                            txn.commit();
                        } else {
                            txn.rollback();
                        }
                        ok
                    });
                    if ok {
                        live[k][i] = new;
                        resizes += 1;
                    } else {
                        out.violations += 1;
                    }
                    out.violations += audit(&cal, tr, events);
                }
            }
        }
        tr.exit();
    }
    out.loop_ns = tr.now() - loop_start;
    out.violations += audit_calendar_with(&cal, None, None).len();

    let utilization = match (jobs.first(), cal.horizon()) {
        (Some(first), Some(h)) if h > first.submit => cal.average_utilization(first.submit, h),
        _ => 0.0,
    };
    out.decisions = Decisions {
        apps,
        commits,
        rollbacks,
        cancels,
        resizes,
        utilization_bits: utilization.to_bits(),
    };
    out.breakpoints_end = cal.num_breakpoints();
    out.reservations_end = cal.num_reservations();
    out
}
