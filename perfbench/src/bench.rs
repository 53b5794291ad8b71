//! The three workloads: set-up, the measured loop, the correctness gate
//! and, for traced runs, the per-layer breakdown.

use crate::reference::HostSpeed;
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::{self, Decisions, ServeInput};
use crate::stats::{mean, median, quantile, tail_quantile};
use crate::table7;
use crate::trace::{check_nesting, partition_gap, totals_by_name, NameTotal, Tracer};
use resched_serve::ServeReport;
use resched_sim::exp::deadline::DeadlineResult;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Largest tolerated gap between the summed span self times and the
/// replica's measured wall time, as a fraction of the wall time.
pub const PARTITION_TOLERANCE: f64 = 0.01;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CTC_SP2-like replay at offered load ρ≈0.6.
    ServeSteady,
    /// The same trace at ρ≈4.
    ServeOverload,
    /// Table 7 on Grid'5000-like schedules, two workers.
    Table7Hybrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSteady,
        Workload::ServeOverload,
        Workload::Table7Hybrid,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeOverload => "serve_overload",
            Workload::Table7Hybrid => "table7_hybrid",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes; [`Sizes::BENCH`] is what the benchmark measures, the
/// self-tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Arrivals per serve replay.
    pub serve_apps: usize,
    /// Part of the paper's grid per table call, and calls per run.
    pub table: table7::Table7Size,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        serve_apps: serve::APPS,
        table: table7::Table7Size::BENCH,
    };
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// Where a run writes and what it may start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Places<'a> {
    /// Directory for the spans of a traced run (`None`: not written).
    pub trace_dir: Option<&'a Path>,
    /// The benchmark executable, which runs reference blocks in child
    /// processes (`None`: in-process).
    pub exe: Option<&'a Path>,
}

/// Run `spec`.
pub fn run(spec: &RunSpec, places: Places) -> Outcome {
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match spec.workload {
        Workload::ServeSteady | Workload::ServeOverload => {
            let rho = if spec.workload == Workload::ServeSteady {
                serve::STEADY_RHO
            } else {
                serve::OVERLOAD_RHO
            };
            // One closed-loop client with a single admission probe: the
            // loop has no parallel section.
            rayon::force_threads(Some(1));
            run_serve(spec, rho, places, &mut out);
            out.notes.push(format!("nproc {nproc}, workers 1"));
        }
        Workload::Table7Hybrid => {
            rayon::force_threads(Some(table7::WORKERS));
            run_table7(spec, places, &mut out);
            out.notes
                .push(format!("nproc {nproc}, workers {}", table7::WORKERS));
        }
    }
    if spec.trace {
        out.set("host.nproc", nproc as f64);
    }
    out.check_shape(spec.trace);
    out
}

/// Record reference-block failures: without the reference the timings
/// cannot be rescaled.
fn check_host(host: &HostSpeed, out: &mut Outcome) {
    for e in host.errors() {
        out.fail(0, e.clone());
    }
}

/// Set-up timed [`SETUP_REPS`] times, spread over the run: once before the
/// measured phase, then each time another fifth of it has passed. On a
/// shared host the speed swings by a fifth within seconds, so repetitions
/// taken back to back all fall into one swing; spread out, they sample the
/// run's host speed as the reference blocks do.
struct SetupTimer {
    times: Vec<f64>,
    next: Instant,
    every: Duration,
}

impl SetupTimer {
    fn new(seconds: f64) -> SetupTimer {
        SetupTimer {
            times: Vec::with_capacity(SETUP_REPS),
            next: Instant::now(),
            every: Duration::from_secs_f64(seconds / SETUP_REPS as f64),
        }
    }

    /// Run and time `f`.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.times.push(t.elapsed().as_secs_f64());
        self.next = Instant::now() + self.every;
        r
    }

    /// Time `f` again if a repetition is due.
    fn tick<T>(&mut self, f: impl FnOnce() -> T) {
        if self.times.len() < SETUP_REPS && Instant::now() >= self.next {
            std::hint::black_box(self.time(f));
        }
    }

    /// Take the repetitions a short run left out; the median, seconds.
    fn finish<T>(&mut self, mut f: impl FnMut() -> T) -> f64 {
        while self.times.len() < SETUP_REPS {
            std::hint::black_box(self.time(&mut f));
        }
        median(&self.times)
    }
}

fn write_trace(tr: &Tracer, dir: Option<&Path>, spec: &RunSpec, out: &mut Outcome) {
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{}-seed{}.jsonl", spec.workload.name(), spec.seed));
    let res = std::fs::create_dir_all(dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tr.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match res {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Every per-layer metric starts at 0, so a layer the workload does not
/// run reads 0.
fn zero_layers(out: &mut Outcome) {
    for m in crate::report::PER_LAYER {
        out.set(m.name, 0.0);
    }
}

fn run_serve(spec: &RunSpec, rho: f64, places: Places, out: &mut Outcome) {
    let seed = spec.seed;
    let apps = spec.sizes.serve_apps;
    let mut host = HostSpeed::new(1, places.exe);
    let make = || {
        (0..serve::TRACES)
            .map(|k| serve::setup(serve::trace_seed(seed, k), rho, apps))
            .collect::<Result<Vec<ServeInput>, String>>()
    };
    let mut setup = SetupTimer::new(spec.seconds);
    let inputs = match setup.time(make) {
        Ok(i) => i,
        Err(e) => {
            out.fail(1, e);
            return;
        }
    };
    let end = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let mut first: Vec<Option<Decisions>> = vec![None; inputs.len()];
    let mut check = |k: usize, r: &ServeReport, out: &mut Outcome| {
        out.attempted += r.apps as u64;
        let d = Decisions::of(r);
        let res = serve::check_report(r, apps).and_then(|()| match first[k] {
            Some(f) if f != d => Err(format!(
                "trace {k}: repetition decided differently: {d:?} vs {f:?}"
            )),
            _ => Ok(()),
        });
        first[k].get_or_insert(d);
        if let Err(e) = res {
            out.fail(r.apps as u64, e);
        }
    };
    let rhos: Vec<f64> = inputs.iter().map(|i| i.rho).collect();
    let accels: Vec<f64> = inputs.iter().map(|i| i.cfg.accel).collect();

    if !spec.trace {
        // Whole cycles over the traces, so each is replayed equally often.
        let mut reps: Vec<Vec<ServeReport>> = vec![Vec::new(); inputs.len()];
        while reps[0].is_empty() || Instant::now() < end {
            for (k, input) in inputs.iter().enumerate() {
                let r = resched_serve::run(&input.log, &input.cfg);
                check(k, &r, out);
                reps[k].push(r);
                setup.tick(make);
                host.tick();
            }
        }
        let setup_s = setup.finish(make);
        host.sample();
        check_host(&host, out);
        let scale = host.scale();
        if tail_quantile(apps) != Some(0.99) {
            out.fail(0, format!("{apps} arrivals do not support p99 as the tail"));
        }
        // Medians over every replay of every trace.
        let all = |f: fn(&ServeReport) -> f64| -> f64 {
            median(&reps.iter().flatten().map(f).collect::<Vec<_>>())
        };
        let admit = mean(
            &reps
                .iter()
                .map(|rs| rs[0].commits as f64 / apps as f64)
                .collect::<Vec<_>>(),
        );
        let utilization = mean(&reps.iter().map(|rs| rs[0].utilization).collect::<Vec<_>>());
        let (ops, p50, tail) = (
            all(|r| r.throughput_per_s),
            all(|r| r.p50_us),
            all(|r| r.p99_us),
        );
        out.set("setup_s", setup_s * scale);
        out.set("ops_per_s", ops / scale);
        out.set("op_p50_us", p50 * scale);
        out.set("op_tail_us", tail * scale);
        out.set("quality", utilization);
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "{} seed {seed}: {} traces of {apps} arrivals, rho {:.4}, accel {:.4}, admit_rate {admit:.4}, utilization {utilization:.4}, replays per trace {}",
            spec.workload.name(),
            inputs.len(),
            mean(&rhos),
            mean(&accels),
            reps[0].len()
        ));
        out.notes.push(wall_note(&host, setup_s, ops, p50, tail));
        return;
    }

    zero_layers(out);
    let synth_t = Instant::now();
    std::hint::black_box(serve::synthesize(serve::trace_seed(seed, 0)));
    let synth_ms = synth_t.elapsed().as_secs_f64() * 1e3 / apps as f64;
    let mut tr = Tracer::new();
    let (mut loop_ns, mut run_s) = (0u64, 0.0);
    let (mut admitted_ns, mut rejected_ns) = (Vec::new(), Vec::new());
    let mut stats = resched_core::schedule::ScheduleStats::default();
    let (mut replays, mut commits, mut breakpoints, mut reservations) =
        (0usize, 0usize, 0usize, 0usize);
    let mut utilization = Vec::new();
    while replays == 0 || Instant::now() < end {
        for (k, input) in inputs.iter().enumerate() {
            let r = resched_serve::run(&input.log, &input.cfg);
            check(k, &r, out);
            let rep =
                serve::replay_traced(&input.log, &input.cfg, (replays * apps) as u32, &mut tr);
            if rep.decisions != Decisions::of(&r) {
                out.fail(
                    r.apps as u64,
                    format!(
                        "trace {k}: replica decided {:?}, serve {:?}",
                        rep.decisions,
                        Decisions::of(&r)
                    ),
                );
            }
            if rep.violations > 0 {
                out.fail(
                    rep.violations as u64,
                    format!("trace {k}: replica saw {} violations", rep.violations),
                );
            }
            loop_ns += rep.loop_ns;
            run_s += r.wall_ms / 1e3;
            admitted_ns.extend(rep.admitted_ns);
            rejected_ns.extend(rep.rejected_ns);
            stats.absorb(rep.stats);
            commits += rep.decisions.commits;
            breakpoints += rep.breakpoints_end;
            reservations += rep.reservations_end;
            utilization.push(r.utilization);
            replays += 1;
            host.tick();
        }
    }
    if let Err(e) = check_nesting(tr.spans()) {
        out.fail(0, e);
    }
    let gap = partition_gap(tr.spans(), loop_ns);
    if gap > PARTITION_TOLERANCE {
        out.fail(
            0,
            format!("span self times miss {:.2}% of loop wall time", gap * 100.0),
        );
    }
    let n = (replays * apps) as f64;
    let totals = totals_by_name(tr.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_op_us = |t: NameTotal| t.total_ns as f64 / 1e3 / n;
    for name in [
        "forward.schedule_rejected",
        "backward.schedule_rejected",
        "forward.schedule_admitted",
        "backward.schedule_admitted",
        "resv.commit",
        "resv.rollback",
        "resv.cancel",
        "resv.resize",
        "validate.audit",
        "validate.check",
        "daggen.generate",
        "resv.q_estimate",
        "serve.arrival",
    ] {
        out.set(us_metric(name), per_op_us(get(name)));
    }
    out.set(
        "serve.self_us",
        get("serve.arrival").self_ns as f64 / 1e3 / n,
    );
    out.set(
        "serve.decision_self_us",
        get("serve.decision").self_ns as f64 / 1e3 / n,
    );
    let p50_us = |v: &[u64]| quantile(&v.iter().map(|&x| x as f64).collect::<Vec<_>>(), 0.5) / 1e3;
    out.set("serve.admitted_p50_us", p50_us(&admitted_ns));
    out.set("serve.rejected_p50_us", p50_us(&rejected_ns));
    out.set("serve.admit_rate", commits as f64 / n);
    out.set("serve.utilization", mean(&utilization));
    out.set("serve.offered_load", mean(&rhos));
    out.set("serve.accel", mean(&accels));
    let mut m = BTreeMap::new();
    insert_stats(&mut m, &stats, n);
    for (k, v) in m {
        out.set(k, v);
    }
    out.set("resv.breakpoints_end", breakpoints as f64 / replays as f64);
    out.set(
        "resv.reservations_end",
        reservations as f64 / replays as f64,
    );
    out.set("workloads.synth_ms", synth_ms);
    out.set("sim.workers", 1.0);
    host.sample();
    check_host(&host, out);
    out.set("host.reference_ms", host.median_s() * 1e3);
    out.set(
        "trace.overhead_pct",
        (loop_ns as f64 / 1e9 - run_s) / run_s * 100.0,
    );
    out.set("trace.partition_gap_pct", gap * 100.0);
    write_trace(&tr, places.trace_dir, spec, out);
    out.notes.push(format!(
        "{} seed {seed}: traced replays {replays} over {} traces",
        spec.workload.name(),
        inputs.len()
    ));
}

/// The unscaled figures and the reference speed, for the `#` lines.
fn wall_note(host: &HostSpeed, setup_s: f64, ops: f64, p50: f64, tail: f64) -> String {
    format!(
        "wall clock: setup_s {setup_s:.4}, ops_per_s {ops:.4}, op_p50_us {p50:.1}, op_tail_us {tail:.1}; reference block median {:.2} ms, scale {:.4}",
        host.median_s() * 1e3,
        host.scale()
    )
}

/// `forward.schedule_rejected` → `forward.schedule_rejected_us`.
fn us_metric(span: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_suffix("_us") == Some(span))
        .expect("every spanned layer has a declared _us metric")
}

fn insert_stats(
    m: &mut BTreeMap<&'static str, f64>,
    s: &resched_core::schedule::ScheduleStats,
    ops: f64,
) {
    m.insert("resv.slot_queries", s.slot_queries as f64 / ops);
    m.insert("resv.slot_steps", s.slot_steps as f64 / ops);
    m.insert(
        "resv.steps_per_query",
        s.slot_steps as f64 / (s.slot_queries.max(1)) as f64,
    );
    m.insert("backward.passes", s.passes as f64 / ops);
    m.insert("cpa.allocations", s.cpa_allocations as f64 / ops);
    m.insert("cpa.mappings", s.cpa_mappings as f64 / ops);
}

fn run_table7(spec: &RunSpec, places: Places, out: &mut Outcome) {
    let seed = spec.seed;
    let size = spec.sizes.table;
    let sweeps = size.sweeps();
    let mut host = HostSpeed::new(table7::WORKERS, places.exe);
    let per_call = size.instances_per_call() as u64;
    let make = || table7::setup(&size, &sweeps, seed);
    let mut setup = SetupTimer::new(spec.seconds);
    let instances = setup.time(make);
    // Warm-up, outside the timed set-up: one call's time depends on its
    // instances far more than synthesis does, so timing it would make
    // `setup_s` follow the seed's instance mix.
    let (warm, _) = table7::run_call(&size, &sweeps, seed, 0);
    let expected = per_call * table7::SETUP_CALLS as u64;
    if instances as u64 != expected {
        out.fail(
            1,
            format!("set-up materialized {instances} instances, expected {expected}"),
        );
    }
    let end = Instant::now() + Duration::from_secs_f64(spec.seconds);
    let check = |call: usize, r: &DeadlineResult, out: &mut Outcome| {
        out.attempted += per_call;
        let res = table7::check_result(r, sweeps.len()).and_then(|()| {
            if call == 0 && *r != warm {
                Err("call 0 decided differently from its warm-up run".to_string())
            } else {
                Ok(())
            }
        });
        if let Err(e) = res {
            out.fail(per_call, format!("call {call}: {e}"));
        }
    };

    if !spec.trace {
        let mut results = Vec::new();
        let mut secs = Vec::new();
        let mut call = 0;
        while call < size.min_calls || Instant::now() < end {
            let (r, s) = table7::run_call(&size, &sweeps, seed, call);
            check(call, &r, out);
            results.push(r);
            secs.push(s);
            call += 1;
            setup.tick(make);
            host.tick();
        }
        let setup_s = setup.finish(make);
        host.sample();
        check_host(&host, out);
        let scale = host.scale();
        let rates: Vec<f64> = secs.iter().map(|s| per_call as f64 / s).collect();
        let lat_us: Vec<f64> = secs.iter().map(|s| s * 1e6).collect();
        let tail = tail_quantile(lat_us.len());
        if tail.is_none() {
            out.fail(
                0,
                format!("{} calls support no tail percentile", lat_us.len()),
            );
        }
        let tail = tail.unwrap_or(0.5);
        let deg = table7::hybrid_degradation_pct(&results[..size.min_calls.min(results.len())]);
        let (ops, p50, tail_us) = (
            median(&rates),
            quantile(&lat_us, 0.5),
            quantile(&lat_us, tail),
        );
        out.set("setup_s", setup_s * scale);
        out.set("ops_per_s", ops / scale);
        out.set("op_p50_us", p50 * scale);
        out.set("op_tail_us", tail_us * scale);
        out.set("quality", 1.0 / (1.0 + deg));
        out.set("peak_rss_mb", peak_rss_mb());
        out.notes.push(format!(
            "table7_hybrid seed {seed}: calls {} of {} instances, tail p{}, hybrid_degradation_pct {deg:.4} over the first {}",
            results.len(),
            per_call,
            tail * 100.0,
            size.min_calls
        ));
        out.notes.push(wall_note(&host, setup_s, ops, p50, tail_us));
        return;
    }

    zero_layers(out);
    let mut tr = Tracer::new();
    let mut rep = table7::Replica::default();
    let (mut t1, mut t2) = (0.0, 0.0);
    let mut two_results = Vec::new();
    let mut call = 0;
    while call == 0 || Instant::now() < end {
        rayon::force_threads(Some(table7::WORKERS));
        let (two, s2) = table7::run_call(&size, &sweeps, seed, call);
        rayon::force_threads(Some(1));
        let (one, s1) = table7::run_call(&size, &sweeps, seed, call);
        check(call, &two, out);
        if one != two {
            out.fail(
                per_call,
                format!("call {call}: one worker and two workers disagree"),
            );
        }
        table7::replay_traced(&size, &sweeps, seed, call, &mut tr, &mut rep);
        rayon::force_threads(Some(table7::WORKERS));
        if rep.results.last() != Some(&two) {
            out.fail(
                per_call,
                format!("call {call}: replica's tightest deadlines disagree with run_deadline_experiment"),
            );
        }
        t1 += s1;
        t2 += s2;
        two_results.push(two);
        call += 1;
        host.tick();
    }
    if rep.unanswered > 0 {
        out.fail(
            rep.unanswered as u64,
            format!("{} instances unanswered", rep.unanswered),
        );
    }
    if let Err(e) = check_nesting(tr.spans()) {
        out.fail(0, e);
    }
    let gap = partition_gap(tr.spans(), rep.wall_ns);
    if gap > PARTITION_TOLERANCE {
        out.fail(
            0,
            format!(
                "span self times miss {:.2}% of replica wall time",
                gap * 100.0
            ),
        );
    }
    let n = rep.instances.max(1) as f64;
    let totals = totals_by_name(tr.spans());
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_op_ms = |name: &str| get(name).total_ns as f64 / 1e6 / n;
    let mut tightest_ns = 0u64;
    for (span, metric) in table7::TIGHTEST_SPANS.iter().zip([
        "backward.tightest_ms.DL_BD_CPA",
        "backward.tightest_ms.DL_RC_CPAR",
        "backward.tightest_ms.DL_RC_CPAR-L",
        "backward.tightest_ms.DL_RCBD_CPAR-L",
    ]) {
        out.set(metric, per_op_ms(span));
        tightest_ns += get(span).total_ns;
    }
    out.set(
        "backward.schedule_loose_ms",
        per_op_ms("backward.schedule_loose"),
    );
    out.set("forward.schedule_ms", per_op_ms("forward.schedule"));
    out.set("workloads.synth_ms", per_op_ms("workloads.synth"));
    out.set("workloads.extract_ms", per_op_ms("workloads.extract"));
    out.set(
        "daggen.generate_us",
        get("daggen.generate").total_ns as f64 / 1e3 / n,
    );
    out.set("sim.instance_ms", per_op_ms("sim.instance"));
    out.set(
        "sim.tightest_share",
        tightest_ns as f64 / rep.wall_ns.max(1) as f64,
    );
    out.set("sim.parallel_speedup", t1 / t2);
    out.set(
        "sim.hybrid_degradation_pct",
        table7::hybrid_degradation_pct(&two_results),
    );
    out.set("sim.workers", table7::WORKERS as f64);
    host.sample();
    check_host(&host, out);
    out.set("host.reference_ms", host.median_s() * 1e3);
    let mut m = BTreeMap::new();
    insert_stats(&mut m, &rep.stats, n);
    for (k, v) in m {
        out.set(k, v);
    }
    out.set("resv.breakpoints_end", rep.breakpoints as f64 / n);
    out.set("resv.reservations_end", rep.reservations as f64 / n);
    out.set(
        "trace.overhead_pct",
        (rep.wall_ns as f64 / 1e9 - t1) / t1 * 100.0,
    );
    out.set("trace.partition_gap_pct", gap * 100.0);
    write_trace(&tr, places.trace_dir, spec, out);
    out.notes
        .push(format!("table7_hybrid seed {seed}: traced calls {call}"));
}
