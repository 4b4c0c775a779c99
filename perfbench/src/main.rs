//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run builds a workload's inputs from the seed, drives the crates'
//! public functions for about `--seconds`, checks the outputs, and
//! prints every metric by name and unit. The last line of standard
//! output is the JSON result. With `--trace 1` the run reports the
//! per-layer metrics instead — every layer, each measured in the setting
//! of the workload it belongs to — and writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. See `perfbench/README.md`.

mod catalog;
mod host;
mod lossy;
mod openloop;
mod report;
mod serve;
mod sharded;
mod spans;
mod sweep;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use impatience_json::Json;

use report::Report;
use spans::Tracer;

/// What every workload receives.
pub struct Ctx {
    pub seed: u64,
    /// The measuring budget of the run.
    pub seconds: f64,
    pub traced: bool,
    /// Worker threads / connections: the host's core count.
    pub nproc: usize,
    /// A scratch directory inside the working directory, removed at exit.
    pub tmp: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Does another iteration lasting `last` seconds still fit in `share`
    /// of the measuring budget counted from `start`?
    pub fn room(&self, start: Instant, share: f64, last: f64) -> bool {
        start.elapsed().as_secs_f64() + last <= self.seconds * share
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = catalog::DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut traced = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    catalog::WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| *w == value)
                        .ok_or_else(|| {
                            format!("unknown workload {value}; one of {:?}", catalog::WORKLOADS)
                        })?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

/// Where, how and on what a result was measured.
fn provenance(raw: &[String], args: &Args, nproc: usize) -> Json {
    let mut command = vec![Json::from("perfbench")];
    command.extend(raw.iter().map(|a| Json::from(a.as_str())));
    Json::obj([
        ("command", Json::Array(command)),
        ("workload", Json::from(args.workload)),
        ("seed", Json::from(args.seed)),
        ("default_seed", Json::from(catalog::DEFAULT_SEED)),
        ("holdout_seed", Json::from(catalog::HOLDOUT_SEED)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.traced)),
        ("nproc", Json::from(nproc)),
        (
            "cpu_model",
            host::cpu_model().map_or(Json::Null, Json::from),
        ),
        (
            "rustc",
            impatience_obs::manifest::rustc_version().map_or(Json::Null, Json::from),
        ),
        // Only inside a git checkout: elsewhere git would search the
        // parent directories.
        (
            "git_rev",
            Path::new(".git")
                .exists()
                .then(impatience_obs::git_revision)
                .flatten()
                .map_or(Json::Null, Json::from),
        ),
    ])
}

/// The order a traced run measures the workloads in: `sharded_large`
/// first, so that `sim.sharded.rss_mib` reads the process's peak before
/// the others add to it.
const TRACE_ORDER: [&str; 4] = ["sharded_large", "lossy_qcr", "paper_sweep", "solve_service"];

fn run_workload(workload: &str, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    match workload {
        "paper_sweep" => sweep::run(ctx, report),
        "sharded_large" => sharded::run(ctx, report),
        "lossy_qcr" => lossy::run(ctx, report),
        "solve_service" => serve::run(ctx, report),
        other => unreachable!("parse_args admits only catalog workloads, got {other}"),
    }
}

fn run(raw: &[String]) -> Result<String, String> {
    let args = parse_args(raw)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prov = provenance(raw, &args, nproc);
    println!("provenance {prov}");

    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        nproc,
        tmp: tmp.clone(),
        tracer: Tracer::new(args.traced),
    };
    let mut report = Report::new(args.traced);
    let ticks = host::cpu_ticks();
    let workloads = if args.traced {
        &TRACE_ORDER[..]
    } else {
        std::slice::from_ref(&args.workload)
    };
    let outcome = workloads
        .iter()
        .try_for_each(|w| run_workload(w, &ctx, &mut report));
    println!(
        "host steal share during the run: {:.3}",
        host::steal_since(ticks)
    );
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    outcome?;
    if args.traced {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    } else {
        report.set("peak_rss_mib", host::peak_rss_mib());
    }
    report.render()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
