//! Self-tests of the benchmark: the percentile rule, the offered-load
//! arithmetic, the span partition, environment hygiene and the output
//! shape against `BENCHMARK.json`.

use resched_core::prelude::Dur;
use resched_perfbench::bench::{run, Places, RunSpec, Sizes, Workload};
use resched_perfbench::calib::{accel_for, offered_load};
use resched_perfbench::report::{declared, Metric, Outcome};
use resched_perfbench::stats::{nearest_rank, tail_quantile, LADDER, MIN_BEYOND};
use resched_perfbench::table7::Table7Size;
use resched_perfbench::trace::{check_nesting, partition_gap, self_times, Span, Tracer, NO_PARENT};
use resched_perfbench::{env, serve};
use resched_sim::scenario::Scale;
use serde_json::Value;

#[test]
fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_quantile(0), None);
    assert_eq!(tail_quantile(19), None);
    assert_eq!(tail_quantile(20), Some(0.5));
    assert_eq!(tail_quantile(99), Some(0.5));
    assert_eq!(tail_quantile(100), Some(0.9));
    assert_eq!(tail_quantile(999), Some(0.9));
    assert_eq!(tail_quantile(1000), Some(0.99));
    assert_eq!(tail_quantile(serve::APPS), Some(0.99));
    assert_eq!(tail_quantile(9999), Some(0.99));
    assert_eq!(tail_quantile(10_000), Some(0.999));
    for n in 0..3000 {
        match tail_quantile(n) {
            Some(q) => {
                assert!(n - nearest_rank(n, q) >= MIN_BEYOND, "n={n} q={q}");
                // The next rung up lacks the samples.
                if let Some(&up) = LADDER.iter().find(|&&l| l > q) {
                    assert!(n - nearest_rank(n, up) < MIN_BEYOND, "n={n} up={up}");
                }
            }
            None => assert!(n < 2 * MIN_BEYOND, "n={n}"),
        }
    }
}

#[test]
fn nearest_rank_agrees_with_the_serve_percentile() {
    for n in 1..400usize {
        let sorted: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let want = resched_serve::percentile(&sorted, q);
            assert_eq!(sorted[nearest_rank(n, q) - 1] as f64, want, "n={n} q={q}");
        }
    }
}

#[test]
fn accel_for_inverts_offered_load() {
    let span = Dur::days(10);
    for (work, procs) in [(1_000_000_000i64, 430u32), (7_654_321, 64), (5, 1)] {
        for rho in [0.25, 0.6, 1.0, 4.0] {
            let accel = accel_for(rho, work, procs, span);
            let back = offered_load(work, procs, span, accel);
            assert!(
                (back - rho).abs() < 1e-12 * rho,
                "rho {rho} -> accel {accel} -> {back}"
            );
            // Load is linear in the acceleration.
            let twice = offered_load(work, procs, span, 2.0 * accel);
            assert!((twice - 2.0 * rho).abs() < 1e-12 * rho);
        }
    }
    // ρ = work / (procs × span / accel), by hand: 864,000 core-s over
    // 10 cores for a day at accel 2 is 2.0.
    assert_eq!(offered_load(864_000, 10, Dur::days(1), 2.0), 2.0);
}

#[test]
fn calibration_hits_the_target_load() {
    for rho in [serve::STEADY_RHO, serve::OVERLOAD_RHO] {
        let input = serve::prepare(7, rho, serve::APPS).expect("trace long enough");
        assert!(
            (input.rho - rho).abs() < 0.01 * rho,
            "target {rho}, realized {}",
            input.rho
        );
        assert_eq!(input.cfg.max_apps, serve::APPS);
    }
}

fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op: 0,
    }
}

#[test]
fn self_times_partition_the_roots() {
    let spans = [
        span("root", 0, 100, NO_PARENT),
        span("a", 10, 40, 0),
        span("a.x", 12, 20, 1),
        span("b", 50, 90, 0),
        span("root", 100, 130, NO_PARENT),
        span("c", 101, 129, 4),
    ];
    assert_eq!(check_nesting(&spans), Ok(()));
    assert_eq!(self_times(&spans), vec![30, 22, 8, 40, 2, 28]);
    let covered: u64 = self_times(&spans).iter().sum();
    assert_eq!(covered, 130);
    assert_eq!(partition_gap(&spans, 130), 0.0);
    assert!((partition_gap(&spans, 200) - 0.35).abs() < 1e-12);

    let mut leaves = spans;
    leaves[2] = span("a.x", 35, 45, 1);
    assert!(check_nesting(&leaves)
        .unwrap_err()
        .contains("leaves its parent"));
    let mut overlap = spans;
    overlap[3] = span("b", 30, 90, 0);
    assert!(check_nesting(&overlap)
        .unwrap_err()
        .contains("overlaps a sibling"));
    let mut open = spans;
    open[5] = span("c", 101, 0, 4);
    assert!(check_nesting(&open).is_err());
}

#[test]
fn tracer_spans_nest_and_cover_the_wall_time() {
    let mut tr = Tracer::new();
    let start = tr.now();
    for op in 0..50 {
        tr.set_op(op);
        tr.enter("root");
        let x = tr.leaf("child", || {
            (0..2000u64).map(std::hint::black_box).sum::<u64>()
        });
        tr.enter("mid");
        tr.leaf("leaf", || std::hint::black_box(x * 3));
        tr.exit();
        tr.exit();
    }
    let wall = tr.now() - start;
    assert_eq!(check_nesting(tr.spans()), Ok(()));
    assert!(partition_gap(tr.spans(), wall) < 0.05);
    let roots: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(Span::dur)
        .sum();
    assert_eq!(self_times(tr.spans()).iter().sum::<u64>(), roots);
    let mut out = Vec::new();
    tr.write_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count(), tr.spans().len());
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("span line is JSON");
        assert!(v.as_object().unwrap().get("name").is_some());
    }
}

#[test]
fn environment_knobs_are_refused() {
    assert!(env::violations(|_| false).is_empty());
    assert_eq!(
        env::violations(|v| v == "RESCHED_BACKEND" || v == "RESCHED_PAR"),
        vec!["RESCHED_BACKEND", "RESCHED_PAR"]
    );
    assert_eq!(env::violations(|_| true).len(), env::FORBIDDEN.len());
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn listed(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .as_object()
        .unwrap()
        .get(key)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            (
                m.get("name").unwrap().as_str().unwrap().to_string(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn as_pairs(ms: &[Metric]) -> Vec<(String, String)> {
    ms.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    assert_eq!(listed(&bench, "end_to_end"), as_pairs(declared(false)));
    assert_eq!(listed(&bench, "per_layer"), as_pairs(declared(true)));
    let workloads: Vec<String> = bench
        .as_object()
        .unwrap()
        .get("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            w.as_object()
                .unwrap()
                .get("name")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// Parse a result line and return its metric (name, unit) pairs.
fn result_metrics(line: &str) -> (bool, Vec<(String, String)>) {
    let v: Value = serde_json::from_str(line).expect("result line is JSON");
    let o = v.as_object().unwrap();
    let keys: Vec<&String> = o.keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(o.get("attempted").unwrap().as_u64().unwrap() >= 1);
    let metrics = o
        .get("metrics")
        .unwrap()
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, m)| {
            let m = m.as_object().unwrap();
            assert!(m.get("value").unwrap().as_f64().is_some());
            (
                k.clone(),
                m.get("unit").unwrap().as_str().unwrap().to_string(),
            )
        })
        .collect();
    (o.get("correct").unwrap().as_bool().unwrap(), metrics)
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let sizes = Sizes {
        serve_apps: 1000,
        table: Table7Size {
            sweeps: &[0],
            scale: Scale {
                dags: 2,
                starts: 1,
                tags: 1,
            },
            min_calls: 20,
        },
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let spec = RunSpec {
                workload,
                seed: 3,
                seconds: 0.001,
                trace,
                sizes,
            };
            let out: Outcome = run(&spec, Places::default());
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                out.errors
            );
            let (correct, metrics) = result_metrics(&out.json(trace));
            assert!(correct);
            assert_eq!(metrics, as_pairs(declared(trace)), "{}", workload.name());
            if !trace {
                for (name, v) in &out.values {
                    assert!(*v > 0.0, "{}: {name} is {v}", workload.name());
                }
            }
        }
    }
}
