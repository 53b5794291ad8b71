//! The `table7_hybrid` workload: the paper's Table 7 through
//! `run_deadline_experiment`, one call per application sweep, and a
//! sequential traced replica of its per-instance evaluation.

use crate::trace::Tracer;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use resched_core::backward::{schedule_deadline, tightest_deadline, DeadlineConfig};
use resched_core::forward::{schedule_forward, ForwardConfig};
use resched_core::prelude::Time;
use resched_core::schedule::ScheduleStats;
use resched_daggen::{DagParams, Sweep};
use resched_sim::exp::deadline::{
    run_deadline_experiment, table7_algorithms, DeadlineResult, LOOSE_FACTOR, SEARCH_PRECISION,
};
use resched_sim::metrics::DegradationTracker;
use resched_sim::scenario::{derive_seed, instances_for, LogCache, ResvSpec, Scale};
use resched_workloads::prelude::*;

/// Rayon workers of the measured table run.
pub const WORKERS: usize = 2;

/// Span name of each Table 7 algorithm's tightest-deadline search, in
/// [`table7_algorithms`] order.
pub const TIGHTEST_SPANS: [&str; 4] = [
    "backward.tightest.DL_BD_CPA",
    "backward.tightest.DL_RC_CPAR",
    "backward.tightest.DL_RC_CPAR-L",
    "backward.tightest.DL_RCBD_CPAR-L",
];

/// Index of DL_RCBD_CPAR-λ in [`table7_algorithms`].
pub const HYBRID: usize = 3;

/// What one call covers and how many calls a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table7Size {
    /// Indices into the paper's 40 application sweeps; one call runs
    /// all of them.
    pub sweeps: &'static [usize],
    /// Instances per sweep and call.
    pub scale: Scale,
    /// Calls every run makes, whatever its length; the quality guard is
    /// taken over exactly these.
    pub min_calls: usize,
}

impl Table7Size {
    /// The benchmark's size: each call is a Table 7 over the 10- and
    /// 25-task sweeps with two DAGs on one reservation schedule, so every
    /// sweep hands one instance to each worker.
    pub const BENCH: Table7Size = Table7Size {
        sweeps: &[0, 1],
        scale: Scale {
            dags: 2,
            starts: 1,
            tags: 1,
        },
        min_calls: 48,
    };

    /// The application sweeps of one call.
    pub fn sweeps(&self) -> Vec<Sweep> {
        let all = DagParams::paper_sweeps();
        self.sweeps.iter().map(|&i| all[i].clone()).collect()
    }

    /// Instances of one call.
    pub fn instances_per_call(&self) -> usize {
        self.sweeps.len() * self.scale.instances()
    }
}

/// Root seed of call `call` of a run with seed `seed`: every call draws
/// fresh instances, and the same call of the same seed draws the same.
pub fn call_seed(seed: u64, call: usize) -> u64 {
    derive_seed(seed, "perfbench.table7", call as u64)
}

/// One `run_deadline_experiment` call over `sweeps`; returns its result
/// and wall time in seconds.
pub fn run_call(
    size: &Table7Size,
    sweeps: &[Sweep],
    seed: u64,
    call: usize,
) -> (DeadlineResult, f64) {
    let t = std::time::Instant::now();
    let r = run_deadline_experiment(
        "Grid5000",
        sweeps,
        &[ResvSpec::grid5000()],
        &table7_algorithms(),
        size.scale,
        call_seed(seed, call),
    );
    (r, t.elapsed().as_secs_f64())
}

/// DL_RCBD_CPAR-λ's average degradation from best over several calls.
pub fn hybrid_degradation_pct(results: &[DeadlineResult]) -> f64 {
    let sum = results
        .iter()
        .map(|r| r.tightest[HYBRID].avg_degradation_pct)
        .fold(0.0, |a, b| a + b);
    sum / results.len().max(1) as f64
}

/// The correctness gate on one call's result.
pub fn check_result(r: &DeadlineResult, sweeps: usize) -> Result<(), String> {
    let names: Vec<&str> = table7_algorithms().iter().map(|a| a.name()).collect();
    let got: Vec<&str> = r.tightest.iter().map(|s| s.name.as_str()).collect();
    if got != names || r.cpu_hours.len() != names.len() {
        return Err(format!("unexpected algorithm columns {got:?}"));
    }
    if r.scenarios != sweeps {
        return Err(format!(
            "{} scenarios per call, expected {sweeps}",
            r.scenarios
        ));
    }
    let finite = r
        .tightest
        .iter()
        .chain(&r.cpu_hours)
        .all(|s| s.avg_degradation_pct.is_finite() && s.avg_degradation_pct >= 0.0);
    if !finite {
        return Err("non-finite or negative degradation".into());
    }
    Ok(())
}

/// Calls whose inputs one set-up materializes. One call's inputs take
/// about 60 ms to build, short enough for a burst of load on a shared host
/// to move a set-up's time by a third; eight calls' take about 0.5 s.
pub const SETUP_CALLS: usize = 8;

/// Set-up as the table harness pays it before its first schedule: log
/// synthesis and instance materialization, for each of the first
/// [`SETUP_CALLS`] calls. Returns the instance count.
pub fn setup(size: &Table7Size, sweeps: &[Sweep], seed: u64) -> usize {
    let spec = ResvSpec::grid5000();
    let mut n = 0;
    for call in 0..SETUP_CALLS {
        let root = call_seed(seed, call);
        let mut cache = LogCache::new();
        let log = cache.get(&spec.log, root);
        n += sweeps
            .iter()
            .map(|s| instances_for(s, &spec, log, size.scale, root).len())
            .sum::<usize>();
    }
    n
}

/// What the traced replica observed besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    /// Per-call summaries rebuilt from the replica's own deadlines.
    pub results: Vec<DeadlineResult>,
    /// Instances evaluated.
    pub instances: usize,
    /// Instances on which some algorithm found no deadline.
    pub unanswered: usize,
    /// Wall time of the replicated calls, nanoseconds.
    pub wall_ns: u64,
    /// Work counters of the final schedules: each search's returned
    /// schedule and each loose-deadline schedule.
    pub stats: ScheduleStats,
    /// Summed breakpoints of the instances' calendars.
    pub breakpoints: usize,
    /// Summed reservations of the instances' calendars.
    pub reservations: usize,
}

/// Evaluate call `call` sequentially as `run_deadline_experiment` does,
/// spanning instance materialization (`workloads.synth`,
/// `workloads.sample_starts`, `workloads.extract`, `daggen.generate`) and
/// every scheduler call: one `sim.instance` root per instance holding a
/// `forward.schedule` span (the forward guess every tightest-deadline
/// search starts from, run once more beside the searches), a
/// `backward.tightest.<ALGO>` span around each algorithm's
/// `tightest_deadline` and a `backward.schedule_loose` span per algorithm.
/// Accumulates into `out`.
pub fn replay_traced(
    size: &Table7Size,
    sweeps: &[Sweep],
    seed: u64,
    call: usize,
    tr: &mut Tracer,
    out: &mut Replica,
) {
    let algos = table7_algorithms();
    for (span, algo) in TIGHTEST_SPANS.iter().zip(&algos) {
        assert_eq!(*span, format!("backward.tightest.{}", algo.name()));
    }
    let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
    let spec = ResvSpec::grid5000();
    let scale = size.scale;
    let root = call_seed(seed, call);
    let start = tr.now();
    let mut k_tracker = DegradationTracker::new(&names);
    let mut cpu_tracker = DegradationTracker::new(&names);
    let log = tr.leaf("workloads.synth", || {
        LogCache::new().get(&spec.log, root).clone()
    });
    for sweep in sweeps {
        let label = format!("{}={} {}", sweep.varied, sweep.value, spec.label());
        let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(root, &label, 0));
        let start_seed = rng.gen();
        let starts = tr.leaf("workloads.sample_starts", || {
            sample_start_times(&log, scale.starts, start_seed)
        });
        let mut instances = Vec::with_capacity(scale.instances());
        for (si, &t) in starts.iter().enumerate() {
            for tag in 0..scale.tags {
                let ex_seed = derive_seed(root, &label, (si * scale.tags + tag + 1) as u64);
                let ex = ExtractSpec::new(spec.phi, spec.method);
                let resv = tr.leaf("workloads.extract", || extract(&log, t, &ex, ex_seed));
                for d in 0..scale.dags {
                    let dag_seed = derive_seed(root, &label, (1000 + d) as u64);
                    let dag = tr.leaf("daggen.generate", || {
                        resched_daggen::generate(&sweep.params, dag_seed)
                    });
                    instances.push((dag, resv.clone()));
                }
            }
        }

        let mut ks = Vec::with_capacity(instances.len());
        let mut cpus = Vec::with_capacity(instances.len());
        for (dag, resv) in &instances {
            tr.set_op(out.instances as u32);
            out.instances += 1;
            tr.enter("sim.instance");
            let cal = resv.calendar();
            out.breakpoints += cal.num_breakpoints();
            out.reservations += cal.num_reservations();
            let guess = tr.leaf("forward.schedule", || {
                schedule_forward(dag, &cal, Time::ZERO, resv.q, ForwardConfig::recommended())
            });
            std::hint::black_box(guess.completion());
            let mut tight = Vec::with_capacity(algos.len());
            for (&algo, &span) in algos.iter().zip(&TIGHTEST_SPANS) {
                let r = tr.leaf(span, || {
                    tightest_deadline(
                        dag,
                        &cal,
                        Time::ZERO,
                        resv.q,
                        algo,
                        DeadlineConfig::default(),
                        SEARCH_PRECISION,
                    )
                });
                match r {
                    Some((k, o)) => {
                        out.stats.absorb(o.schedule.stats);
                        tight.push(k);
                    }
                    None => break,
                }
            }
            let mut cpu = Vec::with_capacity(algos.len());
            if tight.len() == algos.len() {
                let latest = tight.iter().copied().max().unwrap_or(Time::ZERO);
                let loose = Time::seconds(
                    ((latest - Time::ZERO).as_seconds() as f64 * LOOSE_FACTOR) as i64,
                );
                for &algo in &algos {
                    let r = tr.leaf("backward.schedule_loose", || {
                        schedule_deadline(
                            dag,
                            &cal,
                            Time::ZERO,
                            resv.q,
                            loose,
                            algo,
                            DeadlineConfig::default(),
                        )
                        .ok()
                    });
                    match r {
                        Some(o) => {
                            out.stats.absorb(o.schedule.stats);
                            cpu.push(o.schedule.cpu_hours());
                        }
                        None => break,
                    }
                }
            }
            tr.exit();
            if cpu.len() == algos.len() {
                ks.push(tight.iter().map(|k| (*k - Time::ZERO).as_hours()).collect());
                cpus.push(cpu);
            } else {
                out.unanswered += 1;
            }
        }
        k_tracker.absorb_scenario(&ks);
        cpu_tracker.absorb_scenario(&cpus);
    }
    out.results.push(DeadlineResult {
        label: "Grid5000".to_string(),
        tightest: k_tracker.summaries(),
        cpu_hours: cpu_tracker.summaries(),
        scenarios: k_tracker.scenarios(),
    });
    out.wall_ns += tr.now() - start;
}
