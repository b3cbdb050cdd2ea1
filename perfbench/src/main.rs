//! `perfbench`: drives the `dpipe` binary as a child process and reports
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --dpipe PATH --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Every metric is printed as `name = value unit (n=samples)`; the last
//! line of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. The exit code is 1 when any output check failed.

mod layers;
mod sut;
mod workloads;

use perfbench::sentinel;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub struct Ctx {
    pub dpipe: PathBuf,
    /// Scratch directory for trace files, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        }
    }
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra human-readable lines (p99, check failures).
    pub notes: Vec<String>,
}

fn parse_args() -> Result<(Ctx, String), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("bad arguments {argv:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let num =
        |k: &str| -> Result<f64, String> { get(k)?.parse().map_err(|_| format!("bad --{k}")) };
    let ctx = Ctx {
        dpipe: PathBuf::from(get("dpipe")?),
        work: PathBuf::from(get("work")?),
        seed: get("seed")?.parse().map_err(|_| "bad --seed".to_owned())?,
        seconds: num("seconds")?,
        trace: num("trace")? != 0.0,
    };
    Ok((ctx, get("workload")?.clone()))
}

/// A JSON number with all its digits (non-finite values become null).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let (ctx, workload) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !ctx.dpipe.is_file() {
        eprintln!("perfbench: no dpipe binary at {}", ctx.dpipe.display());
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: creating {} failed: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let before = sentinel::measure();
    let mut out = Outcome::default();
    let result = workloads::run(&ctx, &workload, &mut out);
    let after = sentinel::measure();
    let mode = if ctx.trace { "traced" } else { "untraced" };
    println!(
        "# {workload} seed={} {mode}: sentinel {before:.2} GB/s before, {after:.2} GB/s after",
        ctx.seed
    );
    if let Err(e) = result {
        eprintln!("perfbench: {workload} failed: {e}");
        return ExitCode::from(2);
    }
    for m in &out.metrics {
        println!(
            "{workload} {} = {:.6} {} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        println!("{workload} {note}");
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
