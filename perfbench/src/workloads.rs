//! The three workloads: set-up, the timed closed loop, and the output
//! checks (run after the timed window).

use crate::layers;
use crate::sut::{self, Server};
use crate::{Ctx, Metric, Outcome};
use diffusionpipe::core::{plan_json, Planner};
use diffusionpipe::spec::json::{parse, JsonValue};
use diffusionpipe::spec::PlanSpec;
use perfbench::client::{self, Conn};
use perfbench::gen::{self, FaultKind, Requests, Rng};
use perfbench::spans;
use perfbench::stats::{geomean, median, quantile, sorted};
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connections of the HTTP load generator (the box has 2 cores).
const CONNECTIONS: usize = 2;
/// Slices the timed phase is cut into. A slice is a run of whole blocks,
/// so every slice has the same composition; each end-to-end time metric is
/// the median over slices, so a stall of the host moves a few slices and
/// not the result.
const SLICES: usize = 16;
/// A timed phase starts no new slice once it has run this many times its
/// nominal length, so a slow host cannot stretch a run without bound.
const OVERRUN: f64 = 1.25;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// cli_plan set-ups timed before each slice (each is one short process).
/// Spread over the run, their median does not follow one passing state of
/// the host.
const CLI_SETUPS_PER_SLICE: usize = 3;
/// Sampled request traces parsed in the traced run of an HTTP workload.
const TRACE_FILES: usize = 200;
/// Cold specs re-planned with `Planner::plan_reference` per run.
const REFERENCE_SAMPLE: usize = 2;
/// Distinct specs the in-process layer probes use per workload.
const PROBE_SPECS: usize = 8;

/// Requests per second of `--seconds` on a 2-vCPU box, per workload. They
/// only size the fixed request sequence: a run replays all of it unless
/// it overruns (see `OVERRUN`).
fn nominal_rate(workload: &str) -> f64 {
    match workload {
        "cli_plan" => 52.0,
        "zipf_mix" => 680.0,
        _ => 4300.0,
    }
}

/// Whole passes over the population that fill `seconds` at the nominal
/// rate.
fn blocks(workload: &str, seconds: f64) -> usize {
    let per_block = gen::requests(workload, 0, 1).map_or(1, |r| r.seq.len());
    ((seconds * nominal_rate(workload) / per_block as f64).round() as usize).max(1)
}

/// The end-to-end figures of one slice of the timed phase.
struct Slice {
    rate: f64,
    p50: f64,
    p90: f64,
    cpu_ms_per_req: f64,
    ok: usize,
}

/// Reads one end-to-end figure of a slice.
type Figure = fn(&Slice) -> f64;

/// What one timed closed-loop phase measured.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    slices: Vec<Slice>,
    /// Slices the sequence was cut into; fewer ran if the phase overran.
    planned_slices: usize,
    lat_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Server-side handling (`queue_ms` + `plan_ms`/`simulate_ms`) per OK
    /// request, from the `timing` trailer.
    server_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    /// First response body per key (timing trailer stripped).
    firsts: Vec<Option<Vec<u8>>>,
    cpu_ms: f64,
}

impl Phase {
    /// The median over slices of `f`.
    fn over_slices(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    fn p50(&self) -> f64 {
        self.over_slices(|s| s.p50)
    }

    /// Appends the next slice, `part`, whose `firsts` started from ours.
    fn absorb(&mut self, part: Phase) {
        let lat = sorted(part.lat_ms.clone());
        let ok = lat.len();
        self.slices.push(Slice {
            rate: ok as f64 / part.wall_s,
            p50: quantile(&lat, 0.5),
            p90: quantile(&lat, 0.9),
            cpu_ms_per_req: part.cpu_ms / ok as f64,
            ok,
        });
        self.wall_s += part.wall_s;
        self.cpu_ms += part.cpu_ms;
        self.lat_ms.extend(part.lat_ms);
        self.server_ms.extend(part.server_ms);
        self.queue_ms.extend(part.queue_ms);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.firsts = part.firsts;
    }
}

/// `len` requests of `block`-request blocks, cut into at most `SLICES`
/// ranges of whole blocks (their block counts differ by at most one).
fn slices(len: usize, block: usize) -> Vec<Range<usize>> {
    let blocks = len / block.max(1);
    let n = blocks.clamp(1, SLICES);
    (0..n)
        .map(|i| {
            let start = i * blocks / n * block;
            let end = if i + 1 == n {
                len
            } else {
                (i + 1) * blocks / n * block
            };
            start..end
        })
        .collect()
}

/// Whether a phase that started at `started` still has time for a slice.
fn in_budget(started: Instant, budget: Duration, done: usize) -> bool {
    done == 0 || started.elapsed().as_secs_f64() < budget.as_secs_f64() * OVERRUN
}

/// Replays `seq` over the keep-alive connections `conns` (opened when
/// `None`), each a closed loop. Every OK body must equal the first body
/// seen for its key (or the `expected` one from set-up), modulo the timing
/// trailer.
fn drive(
    addr: &str,
    conns: &mut [Option<Conn>],
    path: &str,
    bodies: &[String],
    seq: &[usize],
    expected: &[Option<Vec<u8>>],
    handling_key: &str,
) -> Phase {
    let started = Instant::now();
    let stride = conns.len();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || {
                    let mut p = Phase {
                        firsts: expected.to_vec(),
                        ..Phase::default()
                    };
                    for &k in seq.iter().skip(c).step_by(stride) {
                        p.attempted += 1;
                        if conn.is_none() {
                            *conn = Conn::connect(addr).ok();
                        }
                        let Some(live) = conn.as_mut() else {
                            p.failed += 1;
                            continue;
                        };
                        let t = Instant::now();
                        let reply = live.request("POST", path, bodies[k].as_bytes());
                        let lat = t.elapsed().as_secs_f64() * 1e3;
                        match reply {
                            Ok((200, body)) => {
                                let doc = client::without_timing(&body);
                                match &p.firsts[k] {
                                    Some(first) if first.as_slice() != doc => {
                                        p.failed += 1;
                                        continue;
                                    }
                                    Some(_) => {}
                                    None => p.firsts[k] = Some(doc.to_vec()),
                                }
                                p.lat_ms.push(lat);
                                let queue = client::timing_field(&body, "queue_ms").unwrap_or(0.0);
                                let handled =
                                    client::timing_field(&body, handling_key).unwrap_or(0.0);
                                p.queue_ms.push(queue);
                                p.server_ms.push(queue + handled);
                            }
                            Ok(_) => p.failed += 1,
                            Err(_) => {
                                p.failed += 1;
                                *conn = None;
                            }
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut out = Phase {
        wall_s: started.elapsed().as_secs_f64(),
        firsts: expected.to_vec(),
        ..Phase::default()
    };
    for part in parts {
        out.lat_ms.extend(part.lat_ms);
        out.server_ms.extend(part.server_ms);
        out.queue_ms.extend(part.queue_ms);
        out.attempted += part.attempted;
        out.failed += part.failed;
        for (k, first) in part.firsts.into_iter().enumerate() {
            match (&out.firsts[k], first) {
                (None, f) => out.firsts[k] = f,
                (Some(a), Some(b)) if *a != b => out.failed += 1,
                _ => {}
            }
        }
    }
    out
}

/// Cache counters from `GET /metrics`: (hits, misses, evictions).
fn cache_counters(server: &Server) -> (f64, f64, f64) {
    let doc = server.metrics().ok().and_then(|t| parse(&t).ok());
    let get = |k: &str| {
        doc.as_ref()
            .and_then(|d| d.get("cache"))
            .and_then(|c| c.get(k))
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN)
    };
    (get("hits"), get("misses"), get("evictions"))
}

fn plan_field<'a>(doc: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    doc.get("plan")?.get(key)
}

/// Parses a response document; a served one has lost its closing brace
/// with the stripped `timing` trailer.
fn parse_doc(bytes: &[u8]) -> Option<JsonValue> {
    let text = std::str::from_utf8(bytes).ok()?;
    parse(text).or_else(|_| parse(&format!("{text}}}"))).ok()
}

/// Geometric mean of the selected plans' predicted throughput.
fn plan_geomean(docs: &[Option<Vec<u8>>]) -> Option<f64> {
    let t: Option<Vec<f64>> = docs
        .iter()
        .map(|d| {
            let doc = parse_doc(d.as_deref()?)?;
            plan_field(&doc, "throughput_samples_per_s")?.as_f64()
        })
        .collect();
    t.map(|t| geomean(&t))
}

/// Re-plans a seeded sample of specs with the reference planner and checks
/// that it selects the plan id the program answered with.
fn reference_check(ctx: &Ctx, bodies: &[String], docs: &[Option<Vec<u8>>], out: &mut Outcome) {
    let mut rng = Rng::new(ctx.seed ^ 0x4EF0);
    for _ in 0..REFERENCE_SAMPLE {
        let k = rng.below(bodies.len());
        out.attempted += 1;
        let served = docs[k]
            .as_deref()
            .and_then(parse_doc)
            .and_then(|d| plan_field(&d, "id").and_then(|v| v.as_str().map(str::to_owned)));
        let reference = PlanSpec::from_json(&bodies[k])
            .ok()
            .and_then(|spec| {
                Planner::from_spec(&spec)
                    .ok()?
                    .plan_reference(spec.global_batch)
                    .ok()
            })
            .and_then(|plan| plan_json(&plan).get("id")?.as_str().map(str::to_owned));
        if served.is_none() || served != reference {
            out.failed += 1;
            out.notes.push(format!(
                "reference mismatch on spec {k}: served {served:?}, reference {reference:?}"
            ));
        }
    }
}

fn e2e(out: &mut Outcome, phase: &Phase, setup: &[f64], rss_mb: f64, geo: Option<f64>) {
    let ok = phase.lat_ms.len();
    let lat = sorted(phase.lat_ms.clone());
    let slices = phase.slices.len();
    if slices < phase.planned_slices {
        out.notes.push(format!(
            "overran: stopped after {slices} of {} slices",
            phase.planned_slices
        ));
    }
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    if geo.is_none() {
        out.attempted += 1;
        out.failed += 1;
        out.notes
            .push("a plan document lacks its throughput".to_owned());
    }
    let m = &mut out.metrics;
    m.push(Metric::new("setup_s", median(setup), "s", setup.len()));
    m.push(Metric::new(
        "requests_per_s",
        phase.over_slices(|s| s.rate),
        "1/s",
        ok,
    ));
    m.push(Metric::new("latency_p50_ms", phase.p50(), "ms", ok));
    m.push(Metric::new(
        "latency_p90_ms",
        phase.over_slices(|s| s.p90),
        "ms",
        ok,
    ));
    m.push(Metric::new(
        "cpu_ms_per_req",
        phase.over_slices(|s| s.cpu_ms_per_req),
        "ms",
        ok,
    ));
    m.push(Metric::new("peak_rss_mb", rss_mb, "MB", 1));
    let ok_share = if phase.attempted > 0 {
        (phase.attempted - phase.failed) as f64 / phase.attempted as f64
    } else {
        0.0
    };
    m.push(Metric::new(
        "ok_share",
        ok_share,
        "1",
        phase.attempted as usize,
    ));
    m.push(Metric::new(
        "planned_samples_per_s_geomean",
        geo.unwrap_or(0.0),
        "samples/s",
        phase.firsts.len(),
    ));
    let fewest = phase.slices.iter().map(|s| s.ok).min().unwrap_or(0);
    out.notes.push(format!(
        "medians over {slices} slices of at least {fewest} requests; \
         pooled: {:.2} 1/s, p50 {:.4} ms, p90 {:.4} ms",
        ok as f64 / phase.wall_s,
        quantile(&lat, 0.5),
        quantile(&lat, 0.9)
    ));
    let per_slice: [(&str, Figure); 4] = [
        ("requests_per_s", |s| s.rate),
        ("latency_p50_ms", |s| s.p50),
        ("latency_p90_ms", |s| s.p90),
        ("cpu_ms_per_req", |s| s.cpu_ms_per_req),
    ];
    for (name, f) in per_slice {
        let v: Vec<String> = phase
            .slices
            .iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect();
        out.notes.push(format!("slice {name}: {}", v.join(" ")));
    }
    out.notes.push(format!(
        "latency_p99_ms = {:.4} ms (n={ok}, {} beyond)",
        quantile(&lat, 0.99),
        ok / 100
    ));
}

/// Trace-only metrics that the workload did not exercise read 0.
fn zero(name: &str, unit: &'static str) -> Metric {
    Metric::new(name, 0.0, unit, 0)
}

// ---------------------------------------------------------------------------
// HTTP workloads
// ---------------------------------------------------------------------------

/// What set-up left behind: the live server and the first body per key.
struct Warm {
    server: Server,
    firsts: Vec<Option<Vec<u8>>>,
    /// replay_faults: the `/plan` document of each base spec.
    plans: Vec<Option<Vec<u8>>>,
}

/// The shape of one HTTP workload.
struct HttpLoad {
    req: Requests,
    path: &'static str,
    handling_key: &'static str,
    server_args: Vec<String>,
    /// Requests of `req.seq` replayed during set-up (zipf_mix's warm
    /// prefix); the timed phase replays the rest.
    warm_prefix: usize,
    /// replay_faults: the base specs whose plans set-up fetches first.
    plan_first: Vec<String>,
    /// Nominal length of the timed phase.
    budget: Duration,
}

fn post_each(server: &Server, path: &str, bodies: &[String]) -> io::Result<Vec<Option<Vec<u8>>>> {
    let mut conn = Conn::connect(&server.addr)?;
    bodies
        .iter()
        .map(|b| match conn.request("POST", path, b.as_bytes())? {
            (200, body) => Ok(Some(client::without_timing(&body).to_vec())),
            (status, _) => Err(io::Error::other(format!("set-up {path} answered {status}"))),
        })
        .collect()
}

fn setup_once(dpipe: &Path, load: &HttpLoad, extra: &[String]) -> io::Result<Warm> {
    let mut args = load.server_args.clone();
    args.extend_from_slice(extra);
    let server = Server::start(dpipe, &args)?;
    let plans = post_each(&server, "/plan", &load.plan_first)?;
    let firsts = if load.warm_prefix > 0 {
        let none = vec![None; load.req.bodies.len()];
        let seq = &load.req.seq[..load.warm_prefix];
        let mut conns: Vec<Option<Conn>> = (0..CONNECTIONS).map(|_| None).collect();
        let phase = drive(
            &server.addr,
            &mut conns,
            load.path,
            &load.req.bodies,
            seq,
            &none,
            "",
        );
        if phase.failed > 0 {
            server.stop();
            return Err(io::Error::other("set-up requests failed"));
        }
        phase.firsts
    } else {
        post_each(&server, load.path, &load.req.bodies)?
    };
    Ok(Warm {
        server,
        firsts,
        plans,
    })
}

/// Sets up `SETUP_REPEATS` times; returns the set-up times and the last,
/// still running, set-up.
fn setup(dpipe: &Path, load: &HttpLoad, extra: &[String]) -> io::Result<(Vec<f64>, Warm)> {
    let mut times = Vec::new();
    let mut last: Option<Warm> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = last.take() {
            prev.server.stop();
        }
        let t = Instant::now();
        let warm = setup_once(dpipe, load, extra)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(warm);
    }
    last.map(|w| (times, w))
        .ok_or_else(|| io::Error::other("no set-up ran"))
}

/// Replays the sequence after the warm prefix, slice by slice, over the
/// same `CONNECTIONS` connections throughout.
fn timed(load: &HttpLoad, warm: &Warm) -> Phase {
    let pid = warm.server.pid();
    let seq = &load.req.seq[load.warm_prefix..];
    let mut conns: Vec<Option<Conn>> = (0..CONNECTIONS).map(|_| None).collect();
    let ranges = slices(seq.len(), load.req.block);
    let mut phase = Phase {
        firsts: warm.firsts.clone(),
        planned_slices: ranges.len(),
        ..Phase::default()
    };
    let started = Instant::now();
    for range in ranges {
        if !in_budget(started, load.budget, phase.slices.len()) {
            break;
        }
        let cpu0 = sut::proc_cpu_ms(pid);
        let mut part = drive(
            &warm.server.addr,
            &mut conns,
            load.path,
            &load.req.bodies,
            &seq[range],
            &phase.firsts,
            load.handling_key,
        );
        part.cpu_ms = sut::proc_cpu_ms(pid) - cpu0;
        phase.absorb(part);
    }
    phase
}

fn run_http(ctx: &Ctx, load: HttpLoad, out: &mut Outcome) -> io::Result<()> {
    let (setup_times, warm) = setup(&ctx.dpipe, &load, &[])?;
    let (h0, m0, e0) = cache_counters(&warm.server);
    let phase = timed(&load, &warm);
    let (h1, m1, e1) = cache_counters(&warm.server);
    let rss = sut::proc_peak_rss_mb(warm.server.pid());
    warm.server.stop();

    let geo_docs = if load.plan_first.is_empty() {
        &phase.firsts
    } else {
        &warm.plans
    };
    let geo = plan_geomean(geo_docs);
    if !ctx.trace {
        e2e(out, &phase, &setup_times, rss, geo);
        out.notes.push(format!(
            "cache hit share {:.4} over {} lookups",
            (h1 - h0) / ((h1 - h0) + (m1 - m0)),
            (h1 - h0) + (m1 - m0)
        ));
    } else {
        out.attempted += phase.attempted;
        out.failed += phase.failed;
    }
    if load.warm_prefix > 0 {
        reference_check(ctx, &load.req.bodies, &phase.firsts, out);
    }
    if !load.plan_first.is_empty() {
        zero_fault_check(ctx, &phase.firsts, &warm.plans, out);
    }
    if !ctx.trace {
        return Ok(());
    }

    // Traced run: the same set-up and sequence against a server writing
    // sampled per-request traces.
    let dir = ctx.work.join("http-traces");
    let _ = std::fs::remove_dir_all(&dir);
    let sample = (load.req.seq.len() / TRACE_FILES).max(1);
    let extra = vec![
        "--trace-dir".to_owned(),
        dir.display().to_string(),
        "--trace-sample".to_owned(),
        sample.to_string(),
    ];
    let traced_warm = setup_once(&ctx.dpipe, &load, &extra)?;
    let traced = timed(&load, &traced_warm);
    traced_warm.server.stop();
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let mut roots = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&dir) {
        for entry in entries.flatten() {
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            let Some(trace) = spans::from_chrome(&text) else {
                continue;
            };
            let is_load = trace.iter().any(|s| s.name == "plan_service");
            if let (true, Some(root)) = (is_load, spans::find(&trace, "request")) {
                roots.push(root.dur_us as f64 / 1e3);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let wire: Vec<f64> = phase
        .lat_ms
        .iter()
        .zip(&phase.server_ms)
        .map(|(rtt, server)| (rtt - server) * 1e3)
        .collect();
    let lookups = (m1 - m0) + (h1 - h0);
    let requests = phase.attempted as f64;
    let m = &mut out.metrics;
    m.push(Metric::new("http.wire_us", median(&wire), "us", wire.len()));
    m.push(Metric::new(
        "serve.queue_ms",
        median(&phase.queue_ms),
        "ms",
        phase.queue_ms.len(),
    ));
    m.push(Metric::new(
        "serve.hit_share",
        (h1 - h0) / lookups,
        "1",
        lookups as usize,
    ));
    m.push(Metric::new(
        "serve.evictions_per_req",
        (e1 - e0) / requests,
        "1",
        requests as usize,
    ));
    let traced_p50 = traced.p50();
    m.push(Metric::new(
        "trace.overhead_share",
        traced_p50 / phase.p50() - 1.0,
        "1",
        traced.lat_ms.len(),
    ));
    m.push(Metric::new(
        "trace.coverage_share",
        median(&roots) / traced_p50,
        "1",
        roots.len(),
    ));
    Ok(())
}

/// Zero-fault replays must reproduce the plan's predicted iteration time.
fn zero_fault_check(
    ctx: &Ctx,
    firsts: &[Option<Vec<u8>>],
    plans: &[Option<Vec<u8>>],
    out: &mut Outcome,
) {
    for (i, pair) in gen::replay_pairs(ctx.seed).iter().enumerate() {
        if pair.kind != FaultKind::None {
            continue;
        }
        out.attempted += 1;
        let simulated = firsts[i].as_deref().and_then(parse_doc).and_then(|d| {
            d.get("simulation")?
                .get("report")?
                .get("simulated_iteration_s")?
                .as_f64()
        });
        let predicted = plans[pair.spec]
            .as_deref()
            .and_then(parse_doc)
            .and_then(|d| plan_field(&d, "iteration_time_s")?.as_f64());
        let agree = matches!((simulated, predicted), (Some(s), Some(p)) if (s - p).abs() <= 1e-6 * p.abs().max(1.0));
        if !agree {
            out.failed += 1;
            out.notes.push(format!(
                "zero-fault replay of spec {} gave {simulated:?}, plan predicts {predicted:?}",
                pair.spec
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

pub fn run(ctx: &Ctx, workload: &str, out: &mut Outcome) -> io::Result<()> {
    // The traced run replays half the sequence untraced and half traced.
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let n = blocks(workload, seconds);
    let budget = Duration::from_secs_f64(seconds);
    let req = gen::requests(workload, ctx.seed, n)
        .ok_or_else(|| io::Error::other(format!("unknown workload `{workload}`")))?;
    let capacity = |c: usize| vec!["--cache-capacity".to_owned(), c.to_string()];
    let probe_bodies: Vec<String>;
    match workload {
        "cli_plan" => {
            probe_bodies = req.bodies.iter().take(PROBE_SPECS).cloned().collect();
            run_cli(ctx, &req, budget, out)?;
        }
        "zipf_mix" => {
            probe_bodies = req.bodies.iter().take(PROBE_SPECS).cloned().collect();
            let load = HttpLoad {
                path: "/plan",
                handling_key: "plan_ms",
                server_args: capacity(gen::ZIPF_CAPACITY),
                warm_prefix: gen::ZIPF_CAPACITY,
                plan_first: Vec::new(),
                budget,
                req,
            };
            run_http(ctx, load, out)?;
        }
        _ => {
            let specs = gen::replay_specs();
            probe_bodies = specs.clone();
            let load = HttpLoad {
                path: "/simulate",
                handling_key: "simulate_ms",
                server_args: capacity(4096),
                warm_prefix: 0,
                plan_first: specs,
                budget,
                req,
            };
            run_http(ctx, load, out)?;
        }
    }
    if ctx.trace {
        // Every workload's traced run times the fault simulator on
        // replay_faults' pairs, so the sim layers are measured whichever
        // workloads a benchmark run includes.
        let specs = gen::replay_specs();
        let sim_pairs: Vec<(String, String)> = gen::replay_pairs(ctx.seed)
            .into_iter()
            .map(|p| (specs[p.spec].clone(), p.faults))
            .collect();
        if workload != "cli_plan" {
            // At the parallelism the server plans with.
            let traces = layers::plan_traces(&probe_bodies, 1);
            out.metrics.extend(layers::planner_phases(&traces));
            let few = &probe_bodies[..probe_bodies.len().min(4)];
            out.metrics.push(layers::cli_overhead(&ctx.dpipe, few));
        }
        out.metrics.extend(layers::serve_probes(&probe_bodies));
        out.metrics.extend(layers::sim_probes(&sim_pairs));
    }
    Ok(())
}

fn run_cli(ctx: &Ctx, req: &Requests, budget: Duration, out: &mut Outcome) -> io::Result<()> {
    let mut setup_times = Vec::new();
    let phase = cli_phase(ctx, req, budget, false, &mut setup_times)?;
    if !ctx.trace {
        let (_, rss) = sut::children_usage();
        e2e(out, &phase, &setup_times, rss, plan_geomean(&phase.firsts));
        reference_check(ctx, &req.bodies, &phase.firsts, out);
        return Ok(());
    }
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    reference_check(ctx, &req.bodies, &phase.firsts, out);
    let traced = cli_phase(ctx, req, budget, true, &mut Vec::new())?;
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let mut traces = Vec::new();
    for k in 0..req.bodies.len() {
        let path = trace_path(ctx, k);
        if let Some(t) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| spans::from_chrome(&t))
        {
            traces.push(t);
        }
        let _ = std::fs::remove_file(path);
    }
    let roots: Vec<f64> = traces
        .iter()
        .filter_map(|t| spans::find(t, "plan").map(|s| s.dur_us as f64 / 1e3))
        .collect();
    let traced_p50 = traced.p50();
    let m = &mut out.metrics;
    m.push(zero("http.wire_us", "us"));
    m.push(zero("serve.queue_ms", "ms"));
    m.push(zero("serve.hit_share", "1"));
    m.push(zero("serve.evictions_per_req", "1"));
    m.push(Metric::new(
        "trace.overhead_share",
        traced_p50 / phase.p50() - 1.0,
        "1",
        traced.lat_ms.len(),
    ));
    m.push(Metric::new(
        "trace.coverage_share",
        median(&roots) / traced_p50,
        "1",
        roots.len(),
    ));
    m.extend(layers::planner_phases(&traces));
    m.push(layers::cli_overhead(&ctx.dpipe, &req.bodies[..PROBE_SPECS]));
    Ok(())
}

fn trace_path(ctx: &Ctx, key: usize) -> std::path::PathBuf {
    ctx.work.join(format!("cli-trace-{key}.json"))
}

/// One `dpipe plan` process per request, one at a time (the config search
/// already fans across both cores), slice by slice. Before each slice it
/// times `CLI_SETUPS_PER_SLICE` set-ups into `setup_s`: child start to exit
/// for the first spec, the CLI user's fixed cost.
fn cli_phase(
    ctx: &Ctx,
    req: &Requests,
    budget: Duration,
    traced: bool,
    setup_s: &mut Vec<f64>,
) -> io::Result<Phase> {
    let ranges = slices(req.seq.len(), req.block);
    let mut phase = Phase {
        firsts: vec![None; req.bodies.len()],
        planned_slices: ranges.len(),
        ..Phase::default()
    };
    let started = Instant::now();
    for range in ranges {
        if !in_budget(started, budget, phase.slices.len()) {
            break;
        }
        for _ in 0..CLI_SETUPS_PER_SLICE {
            let t = Instant::now();
            sut::cli_plan(&ctx.dpipe, &req.bodies[0], &[])?;
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let firsts = std::mem::take(&mut phase.firsts);
        phase.absorb(cli_slice(ctx, req, &req.seq[range], firsts, traced));
    }
    Ok(phase)
}

fn cli_slice(
    ctx: &Ctx,
    req: &Requests,
    seq: &[usize],
    firsts: Vec<Option<Vec<u8>>>,
    traced: bool,
) -> Phase {
    let mut p = Phase {
        firsts,
        ..Phase::default()
    };
    let (cpu0, _) = sut::children_usage();
    let started = Instant::now();
    for &k in seq {
        p.attempted += 1;
        let extra = if traced {
            vec![
                "--trace".to_owned(),
                trace_path(ctx, k).display().to_string(),
            ]
        } else {
            Vec::new()
        };
        let t = Instant::now();
        let result = sut::cli_plan(&ctx.dpipe, &req.bodies[k], &extra);
        let lat = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(body) => match &p.firsts[k] {
                Some(first) if *first != body => p.failed += 1,
                Some(_) => p.lat_ms.push(lat),
                None => {
                    p.firsts[k] = Some(body);
                    p.lat_ms.push(lat);
                }
            },
            Err(_) => p.failed += 1,
        }
    }
    p.wall_s = started.elapsed().as_secs_f64();
    p.cpu_ms = sut::children_usage().0 - cpu0;
    p
}
