//! Per-layer measurements for the traced run.
//!
//! Public calls are timed from the outside with benchmark-owned spans
//! (`Instant` pairs around one call); phases reachable only inside
//! `Planner::plan` or `simulate_plan` are read from the spans the program
//! already emits through its public tracer. No span is added to the program.

use crate::Metric;
use diffusionpipe::core::{plan_json, FaultSpec};
use diffusionpipe::serve::json::simulate_response_doc;
use diffusionpipe::serve::{PlanRequest, PlanService, ServiceConfig, TraceCtx};
use diffusionpipe::spec::PlanSpec;
use diffusionpipe::trace::Tracer;
use perfbench::spans::{self, Span};
use perfbench::stats::median;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions of each microsecond-scale call per spec.
const REPS: usize = 100;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Plans each spec in process with a tracer attached and returns the
/// spans of every plan.
pub fn plan_traces(bodies: &[String], parallelism: usize) -> Vec<Vec<Span>> {
    bodies
        .iter()
        .filter_map(|body| {
            let request = PlanRequest::from_spec(PlanSpec::from_json(body).ok()?).ok()?;
            let tracer = Tracer::new();
            request.plan_traced(parallelism, &tracer, None).ok()?;
            Some(spans::from_trace(&tracer.take()))
        })
        .collect()
}

/// Planner phase times (medians over plans), search efficiency and the
/// exact search counts (summed over plans), from per-plan span lists.
pub fn planner_phases(traces: &[Vec<Span>]) -> Vec<Metric> {
    let n = traces.len();
    let mut per: [Vec<f64>; 7] = Default::default();
    let mut efficiency = Vec::new();
    let (mut configs, mut feasible, mut candidates, mut pruned, mut skipped) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for t in traces {
        let own = spans::self_by_name(t);
        let total = spans::total_by_name(t);
        let ms = |m: &std::collections::HashMap<String, u64>, k: &str| {
            m.get(k).copied().unwrap_or(0) as f64 / 1e3
        };
        per[0].push(ms(&own, "profile"));
        per[1].push(ms(&own, "cost_prefixes"));
        per[2].push(ms(&own, "enumerate_configs"));
        per[3].push(ms(&total, "partition"));
        per[4].push(ms(&total, "schedule"));
        per[5].push(ms(&total, "fill"));
        per[6].push(ms(&own, "select"));
        if let Some(search) = spans::find(t, "config_search") {
            let workers = search.attr("workers").unwrap_or(1.0);
            if search.dur_us > 0 {
                efficiency.push(
                    total.get("config").copied().unwrap_or(0) as f64
                        / (workers * search.dur_us as f64),
                );
            }
            feasible += search.attr("feasible").unwrap_or(0.0);
            skipped += search.attr("fill_skipped").unwrap_or(0.0);
            candidates += search.attr("dp_candidates").unwrap_or(0.0);
            pruned += search.attr("dp_pruned").unwrap_or(0.0);
        }
        configs += spans::find(t, "plan")
            .and_then(|p| p.attr("configs"))
            .unwrap_or(0.0);
    }
    let names = [
        "profile.ms",
        "profile.cost_prefixes_ms",
        "partition.enumerate_ms",
        "partition.dp_ms",
        "schedule.build_ms",
        "fill.ms",
        "core.select_ms",
    ];
    let mut out: Vec<Metric> = names
        .iter()
        .zip(per.iter())
        .map(|(name, v)| Metric::new(name, median(v), "ms", n))
        .collect();
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.push(Metric::new(
        "core.search_parallel_efficiency",
        median(&efficiency),
        "1",
        efficiency.len(),
    ));
    out.push(Metric::new("core.configs", configs, "count", n));
    out.push(Metric::new("core.feasible", feasible, "count", n));
    out.push(Metric::new(
        "partition.dp_candidates",
        candidates,
        "count",
        n,
    ));
    out.push(Metric::new(
        "partition.prune_share",
        share(pruned, candidates),
        "1",
        n,
    ));
    out.push(Metric::new(
        "core.fill_skipped_share",
        share(skipped, configs),
        "1",
        n,
    ));
    out
}

/// Times the calls one cache-hit request makes, in process: spec parse,
/// model resolve, fingerprint, cache lookup, worker-pool hand-off and plan
/// render.
pub fn serve_probes(bodies: &[String]) -> Vec<Metric> {
    let service = PlanService::new(ServiceConfig::with_workers(2));
    let mut s: [Vec<f64>; 6] = Default::default();
    for body in bodies {
        let Ok(spec) = PlanSpec::from_json(body) else {
            continue;
        };
        let Ok(request) = PlanRequest::from_spec(spec.clone()) else {
            continue;
        };
        let Ok(plan) = service
            .plan_one_with_parallelism(request.clone(), 1)
            .outcome
        else {
            continue;
        };
        let fingerprint = request.fingerprint();
        for _ in 0..REPS {
            let t = Instant::now();
            let parsed = PlanSpec::from_json(std::hint::black_box(body));
            s[0].push(us_since(t));
            std::hint::black_box(parsed.is_ok());

            let t = Instant::now();
            let model = spec.model.resolve();
            s[1].push(us_since(t));
            let Ok(model) = model else { break };

            let t = Instant::now();
            std::hint::black_box(spec.fingerprint_with_model(&model));
            s[2].push(us_since(t));

            let t = Instant::now();
            std::hint::black_box(service.cached(fingerprint).is_some());
            s[3].push(us_since(t));

            let owned = request.clone();
            let t = Instant::now();
            let response = service.plan_one_with_parallelism(owned, 1);
            s[4].push(us_since(t));
            std::hint::black_box(response.cache_hit);

            let t = Instant::now();
            std::hint::black_box(plan_json(&plan).to_string().into_bytes());
            s[5].push(us_since(t));
        }
    }
    let lookup = median(&s[3]);
    vec![
        Metric::new("spec.parse_us", median(&s[0]), "us", s[0].len()),
        Metric::new("model.resolve_us", median(&s[1]), "us", s[1].len()),
        Metric::new("spec.fingerprint_us", median(&s[2]), "us", s[2].len()),
        Metric::new("serve.cache_lookup_us", lookup, "us", s[3].len()),
        Metric::new("serve.handoff_us", median(&s[4]) - lookup, "us", s[4].len()),
        Metric::new("core.render_us", median(&s[5]), "us", s[5].len()),
    ]
}

/// Fault parse, lowering, replay, re-plan and report render for each
/// `(spec body, fault spec)` pair, through a warmed in-process service as
/// the server runs them.
pub fn sim_probes(pairs: &[(String, String)]) -> Vec<Metric> {
    let service = PlanService::new(ServiceConfig::with_workers(2));
    let mut s: [Vec<f64>; 5] = Default::default();
    let mut instructions = 0.0;
    for (spec_body, faults_body) in pairs {
        let Ok(spec) = PlanSpec::from_json(spec_body) else {
            continue;
        };
        let Ok(request) = PlanRequest::from_spec(spec.clone()) else {
            continue;
        };
        let Ok(faults) = FaultSpec::from_json(faults_body) else {
            continue;
        };
        // Warm the plan and any degraded re-plan, as the server's setup does.
        let _ = service.simulate_traced(&request, &faults, 1, None);
        for rep in 0..REPS {
            let t = Instant::now();
            std::hint::black_box(FaultSpec::from_json(std::hint::black_box(faults_body)).is_ok());
            s[0].push(us_since(t));
            if rep % 10 != 0 {
                continue;
            }
            let tracer = Tracer::new();
            let ctx = TraceCtx {
                tracer: tracer.clone(),
                parent: None,
            };
            let response = service.simulate_traced(&request, &faults, 1, Some(ctx));
            let trace = spans::from_trace(&tracer.take());
            for span in &trace {
                match span.name.as_str() {
                    "simulate.lower" => {
                        s[1].push(span.dur_us as f64);
                        if rep == 0 {
                            instructions += span.attr("instructions").unwrap_or(0.0);
                        }
                    }
                    "simulate.replay" => s[2].push(span.dur_us as f64),
                    "simulate.replan" => s[3].push(span.dur_us as f64 / 1e3),
                    _ => {}
                }
            }
            if let Ok(outcome) = &response.outcome {
                let t = Instant::now();
                let doc = simulate_response_doc(&spec, &request, &faults, outcome);
                std::hint::black_box(doc.to_string().into_bytes());
                s[4].push(us_since(t));
            }
        }
    }
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    vec![
        Metric::new("sim.fault_parse_us", or_zero(&s[0]), "us", s[0].len()),
        Metric::new("sim.lower_us", or_zero(&s[1]), "us", s[1].len()),
        Metric::new("sim.replay_us", or_zero(&s[2]), "us", s[2].len()),
        Metric::new("sim.replan_ms", or_zero(&s[3]), "ms", s[3].len()),
        Metric::new("sim.render_us", or_zero(&s[4]), "us", s[4].len()),
        Metric::new("sim.instructions", instructions, "count", pairs.len()),
    ]
}

/// CLI wall time minus in-process plan time at the CLI's parallelism,
/// median over specs (three runs of each side per spec).
pub fn cli_overhead(dpipe: &Path, bodies: &[String]) -> Metric {
    let mut overheads = Vec::new();
    for body in bodies {
        let Some(request) = PlanSpec::from_json(body)
            .ok()
            .and_then(|spec| PlanRequest::from_spec(spec).ok())
        else {
            continue;
        };
        let workers = request.spec().effective_parallelism();
        let mut cli = Vec::new();
        let mut inproc = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            if crate::sut::cli_plan(dpipe, body, &[]).is_ok() {
                cli.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let t = Instant::now();
            let planned = request.plan_with_parallelism(workers).is_ok();
            inproc.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(planned);
        }
        if !cli.is_empty() {
            overheads.push(median(&cli) - median(&inproc));
        }
    }
    Metric::new(
        "core.cli_overhead_ms",
        median(&overheads),
        "ms",
        overheads.len(),
    )
}
