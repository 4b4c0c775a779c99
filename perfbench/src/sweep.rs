//! `paper_sweep`: a reduced `impatience reproduce`. Two seeded specs —
//! a §6.2 `loss_sweep` (50 pure-P2P nodes, 50 items, ρ = 5, μ = 0.05,
//! Pareto ω = 1; QCR against OPT/UNI/SQRT/PROP/DOM) and a `trace_suite`
//! on a seeded synthetic conference trace — parsed with `Spec::parse`
//! and run with `exp::run_spec` at `nproc` workers.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use impatience_core::demand::DemandProfile;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::fixed::uniform;
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::het_greedy::greedy_heterogeneous;
use impatience_core::utility::{parse_utility, DelayUtility};
use impatience_core::welfare::HeterogeneousSystem;
use impatience_exp::suite::{paper_homogeneous_setting, pareto_demand};
use impatience_exp::{run_spec, ExecContext, Spec};
use impatience_obs::{Event, Progress, Recorder, Sink, TallySink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::run_trials;
use impatience_traces::gen::ConferenceConfig;
use impatience_traces::{ContactTrace, TraceStats};

use crate::host;
use crate::report::{median, quiet_median, time_setup, Report};
use crate::Ctx;

/// Simulated minutes per homogeneous trial.
const DURATION: f64 = 3_000.0;
const LOSS_TRIALS: usize = 6;
const LOSS_TAUS: [f64; 3] = [1.0, 10.0, 100.0];
const TRACE_TRIALS: usize = 2;
const TRACE_TAUS: [f64; 2] = [1.0, 100.0];
/// The profiled slice: the loss sweep's τ = 10 cell at two trials.
const SLICE_TAU: f64 = 10.0;
const SLICE_TRIALS: usize = 2;
/// QCR's loss against OPT on the homogeneous step cells, in percent.
/// EXPERIMENTS.md reports −7.4 … +1.9 at 15 trials of 5000 min and the
/// paper's "within 15 % of OPT"; QCR above OPT is sampling noise, which
/// at this run's 6 trials of 3000 min reaches several percent.
const QCR_BAND: (f64, f64) = (-15.0, 10.0);

/// The conference trace is the fixed one of Fig. 5 (the repository's
/// stand-in for the Infocom'06 trace); the workload seed drives the
/// trials run on it. A seed-drawn trace would make the trace size, and
/// with it the process's peak memory, vary from seed to seed.
const CONFERENCE_SEED: u64 = 20_060_424;

/// The seeded specs of one workload seed.
pub struct Specs {
    pub loss: String,
    pub trace: String,
    pub slice: String,
}

fn loss_spec(name: &str, file: &str, taus: &[f64], trials: usize, seed: u64) -> String {
    let values: Vec<String> = taus.iter().map(|t| format!("{t:?}")).collect();
    format!(
        r#"name = "{name}"
kind = "loss_sweep"
title = "benchmark loss sweep"

[setting]
nodes = 50
items = 50
rho = 5
mu = 0.05
bin = 60.0
warmup_fraction = 0.3
duration = {DURATION:?}
trials = {trials}

[[sweep]]
file = "{file}"
param = "tau"
family = "step"
values = [{values}]
seed = {seed}
"#,
        values = values.join(", ")
    )
}

impl Specs {
    pub fn new(seed: u64) -> Specs {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EE9);
        let loss_seed = rng.below(1 << 32);
        let suite_seed = rng.below(1 << 32);
        let values: Vec<String> = TRACE_TAUS.iter().map(|t| format!("{t:?}")).collect();
        let trace = format!(
            r#"name = "bench_trace"
kind = "trace_suite"
title = "benchmark conference suite"

[setting]
trace = "conference"
trace_seed = {CONFERENCE_SEED}
items = 50
rho = 5
bin = 60.0
warmup_fraction = 0.25
trials = {TRACE_TRIALS}

[[sweep]]
file = "bench_trace_loss"
param = "tau"
family = "step"
values = [{values}]
seed = {suite_seed}
"#,
            values = values.join(", ")
        );
        Specs {
            loss: loss_spec(
                "bench_loss",
                "bench_step_loss",
                &LOSS_TAUS,
                LOSS_TRIALS,
                loss_seed,
            ),
            slice: loss_spec(
                "bench_slice",
                "bench_slice",
                &[SLICE_TAU],
                SLICE_TRIALS,
                loss_seed,
            ),
            trace,
        }
    }

    fn parse(&self) -> Result<[Spec; 3], String> {
        let p = |text: &str, name: &str| {
            Spec::parse(text, Path::new(name)).map_err(|e| format!("{name}: {e}"))
        };
        Ok([
            p(&self.loss, "bench_loss.toml")?,
            p(&self.trace, "bench_trace.toml")?,
            p(&self.slice, "bench_slice.toml")?,
        ])
    }

    fn conference(&self) -> ContactTrace {
        ConferenceConfig::default().generate(&mut Xoshiro256::seed_from_u64(CONFERENCE_SEED))
    }
}

/// Keeps each cell's wall time from the `ExperimentDone` events; worker
/// recorders stay tally-only.
#[derive(Default)]
struct CellWalls(Vec<f64>);

impl Sink for CellWalls {
    const WANTS_EVENTS: bool = false;

    fn record(&mut self, event: &Event) {
        if let Event::ExperimentDone { wall_s, .. } = event {
            self.0.push(*wall_s);
        }
    }
}

/// Run specs into `out`; returns the number of cells and of skipped
/// trials.
fn run_specs<S: Sink>(
    specs: &[&Spec],
    out: &Path,
    workers: usize,
    rec: &mut Recorder<S>,
) -> Result<(u64, u64), String> {
    let (mut cells, mut skipped) = (0, 0);
    for spec in specs {
        let mut ctx = ExecContext {
            out_dir: out.to_path_buf(),
            checkpoint_dir: None,
            workers: Some(workers),
            cli_args: Vec::new(),
            quiet: true,
            rec: &mut *rec,
            progress: Progress::disabled(),
        };
        let report = run_spec(spec, &mut ctx).map_err(|e| format!("{}: {e}", spec.name))?;
        cells += report.cells as u64;
        skipped += report.skipped.len() as u64;
    }
    Ok((cells, skipped))
}

/// The QCR column of a loss CSV (`tau,QCR,UNI,...`).
fn qcr_losses(csv: &str) -> Option<Vec<f64>> {
    let mut lines = csv.lines();
    let col = lines.next()?.split(',').position(|h| h == "QCR")?;
    lines.map(|l| l.split(',').nth(col)?.parse().ok()).collect()
}

struct Pass {
    wall: f64,
    dir: PathBuf,
}

/// One sweep pass: both specs, timed together.
fn pass<S: Sink>(
    ctx: &Ctx,
    specs: &[Spec; 3],
    k: usize,
    rec: &mut Recorder<S>,
    report: &mut Report,
) -> Result<Pass, String> {
    let dir = ctx.tmp.join(format!("pass-{k}"));
    let t0 = Instant::now();
    let (cells, skipped) = run_specs(&[&specs[0], &specs[1]], &dir, ctx.nproc, rec)?;
    let wall = t0.elapsed().as_secs_f64();
    report.ops(cells, skipped);
    let csv = std::fs::read_to_string(dir.join("bench_step_loss.csv")).unwrap_or_default();
    let losses = qcr_losses(&csv).unwrap_or_default();
    println!("pass {k}: {wall:.3} s, QCR loss vs OPT at tau {LOSS_TAUS:?}: {losses:.2?} %");
    let in_band = losses.len() == LOSS_TAUS.len()
        && losses.iter().all(|x| (QCR_BAND.0..=QCR_BAND.1).contains(x));
    report.check(
        &format!("pass {k}: QCR loss vs OPT in {QCR_BAND:?} %"),
        in_band,
    );
    Ok(Pass { wall, dir })
}

/// One run of the slice into `dir`, with spans armed or not: the wall
/// time, the span calls recorded, and the CSV bytes.
fn slice(
    ctx: &Ctx,
    slice: &Spec,
    dir: &Path,
    profiled: bool,
) -> Result<(f64, u64, Option<Vec<u8>>), String> {
    if profiled {
        impatience_obs::span::enable();
    }
    let t0 = Instant::now();
    let result = run_specs(&[slice], dir, ctx.nproc, &mut Recorder::disabled());
    let wall = t0.elapsed().as_secs_f64();
    impatience_obs::span::disable();
    let spans: u64 = impatience_obs::span::take_report()
        .phases
        .iter()
        .map(|p| p.calls)
        .sum();
    result?;
    let csv = std::fs::read(dir.join("bench_slice.csv")).ok();
    let _ = std::fs::remove_dir_all(dir);
    Ok((wall, spans, csv))
}

fn setup(s: &Specs) -> Result<([Spec; 3], ContactTrace), String> {
    Ok((s.parse()?, s.conference()))
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let specs_text = Specs::new(ctx.seed);
    let mut setups = Vec::new();
    let (specs, trace) = time_setup(&mut setups, || setup(&specs_text))?;
    println!("conference trace: {} contacts", trace.len());
    if ctx.traced {
        return traced(ctx, &specs_text, &specs, &trace, report);
    }

    // A first pass warms up and counts the contacts a pass simulates;
    // the timed passes run with the recorder off, as `reproduce` does.
    let mut tally = Recorder::new(TallySink);
    let warm = pass(ctx, &specs, 0, &mut tally, report)?;
    let _ = std::fs::remove_dir_all(&warm.dir);
    let contacts = tally.counters.get("contacts");
    let started = Instant::now();
    let mut walls: Vec<(f64, f64)> = Vec::new();
    while walls.len() < 3 || ctx.room(started, 0.95, walls[walls.len() - 1].0) {
        time_setup(&mut setups, || setup(&specs_text))?;
        let ticks = host::cpu_ticks();
        let p = pass(
            ctx,
            &specs,
            walls.len() + 1,
            &mut Recorder::disabled(),
            report,
        )?;
        walls.push((p.wall, host::steal_since(ticks)));
        let _ = std::fs::remove_dir_all(&p.dir);
    }
    // The slice unprofiled, then profiled: the CSV bytes must not change.
    let (_, _, plain) = slice(ctx, &specs[2], &ctx.tmp.join("slice"), false)?;
    let (_, _, csv) = slice(ctx, &specs[2], &ctx.tmp.join("slice-p"), true)?;
    report.check(
        "profiled slice: CSV bytes equal the unprofiled run's",
        plain.is_some() && csv == plain,
    );
    let wall = quiet_median(&walls);
    println!(
        "{} sweep passes of {contacts} contacts, median {wall:.3} s",
        walls.len()
    );
    report.set("setup_s", median(&setups));
    report.set("op_p50_ms", wall * 1e3);
    report.set("work_per_s", contacts as f64 / wall);
    Ok(())
}

fn step_utility(tau: f64) -> Arc<dyn DelayUtility> {
    parse_utility(&format!("step:{tau}")).expect("a valid step utility")
}

/// Contacts a homogeneous trial of `seed` sees: the engine seeds its
/// contact stream exactly like this.
fn stream_contacts(source: &ContactSource, seed: u64) -> u64 {
    source.stream(&mut Xoshiro256::seed_from_u64(seed)).count() as u64
}

fn traced(
    ctx: &Ctx,
    text: &Specs,
    specs: &[Spec; 3],
    trace: &ContactTrace,
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let root = t.new_id();

    // Set-up layers.
    let mut parse = Vec::new();
    let mut gen = Vec::new();
    for _ in 0..5 {
        parse.push(t.span("exp.spec_parse", root, 0, |_| text.parse()).1 * 1e3);
        gen.push(
            t.span("traces.conference.generate", root, 0, |_| text.conference())
                .1
                * 1e3,
        );
    }
    report.set("exp.spec_parse_ms", median(&parse));
    report.set("traces.conference.gen_ms", median(&gen));

    // One pass untraced, one traced: the traced one keeps each cell's
    // wall and the engine's tallies.
    let plain = pass(ctx, specs, 0, &mut Recorder::disabled(), report)?;
    let mut rec = Recorder::new(CellWalls::default());
    let (p, _) = t.span("exp.run_spec", root, 0, |_| {
        pass(ctx, specs, 1, &mut rec, report)
    });
    let p = p?;
    report.set(
        "bench.trace_overhead_ratio.paper_sweep",
        p.wall / plain.wall,
    );
    let cells: f64 = rec.sink().0.iter().sum();
    report.set("exp.overhead_share", (1.0 - cells / p.wall).max(0.0));
    let c = &rec.counters;
    report.set("sim.engine.contacts", c.get("contacts") as f64);
    report.set(
        "sim.engine.immediate_hit_share",
        c.get("immediate_hits") as f64 / c.get("requests").max(1) as f64,
    );

    // The sampler alone, then the serial engine on the same stream with
    // a pinned allocation and with QCR.
    let (config, source, system) = paper_homogeneous_setting(step_utility(SLICE_TAU), DURATION);
    let seed = ctx.seed;
    let mut stream_ns = Vec::new();
    let mut contacts = 0;
    for k in 0..5 {
        let (n, s) = t.span("traces.stream", root, 0, |_| {
            stream_contacts(&source, seed + k)
        });
        contacts = n;
        stream_ns.push(s * 1e9 / n as f64);
    }
    report.set("traces.stream.ns_per_contact", median(&stream_ns));
    let uni = PolicyKind::Static {
        label: "UNI",
        counts: uniform(50, 50, 5),
    };
    let per_contact =
        |name: &'static str, cfg: &SimConfig, src: &ContactSource, policy: &PolicyKind, n: u64| {
            let mut ns = Vec::new();
            let mut last = None;
            for _ in 0..3 {
                let (out, s) = t.span(name, root, 0, |_| {
                    run_trial(cfg, src, policy.clone(), seed + 4)
                });
                ns.push(s * 1e9 / n as f64);
                last = Some(out);
            }
            (median(&ns), last.expect("ran at least once"))
        };
    let (static_ns, _) = per_contact("sim.engine.static", &config, &source, &uni, contacts);
    let (qcr_ns, qcr) = per_contact(
        "sim.engine.qcr",
        &config,
        &source,
        &PolicyKind::qcr_default(),
        contacts,
    );
    report.set("sim.engine.ns_per_contact.static", static_ns);
    report.set("sim.engine.ns_per_contact.qcr", qcr_ns);
    report.set("sim.policy.qcr.ns_per_contact", qcr_ns - static_ns);
    report.set(
        "sim.policy.qcr.mandates_created",
        qcr.metrics.mandates_created as f64,
    );
    report.set(
        "sim.policy.qcr.transmissions",
        qcr.metrics.transmissions as f64,
    );

    let trace_source = ContactSource::trace(trace.clone());
    let trace_config = SimConfig::builder(50, 5)
        .demand(pareto_demand(50))
        .profile(DemandProfile::uniform(50, trace.nodes()))
        .utility(step_utility(SLICE_TAU))
        .bin(60.0)
        .warmup_fraction(0.25)
        .build();
    let (trace_ns, _) = per_contact(
        "sim.engine.trace",
        &trace_config,
        &trace_source,
        &uni,
        trace.len() as u64,
    );
    report.set("sim.engine.ns_per_contact.trace", trace_ns);

    // The trial runner on one cell of the sweep.
    let (agg, _) = t.span("sim.runner.run_trials", root, 0, |_| {
        run_trials(
            &config,
            &source,
            &PolicyKind::qcr_default(),
            2 * ctx.nproc,
            seed,
        )
    });
    report.set("sim.runner.worker_utilization", agg.worker_utilization);
    report.set(
        "sim.runner.busy_s",
        agg.mean_trial_wall_s * agg.trials as f64,
    );

    // The solvers behind OPT.
    let demand = pareto_demand(50);
    let utility = step_utility(SLICE_TAU);
    let mut greedy = Vec::new();
    for _ in 0..50 {
        let (_, s) = t.span("core.solver.greedy", root, 0, |_| {
            greedy_homogeneous(&system, &demand, utility.as_ref())
        });
        greedy.push(s * 1e6);
    }
    report.set("core.solver.greedy_us", median(&greedy));
    let stats = TraceStats::from_trace(trace);
    let hsys = HeterogeneousSystem::pure_p2p(stats.rates().clone(), 5);
    let profile = DemandProfile::uniform(50, trace.nodes());
    let mut het = Vec::new();
    for _ in 0..3 {
        let (_, s) = t.span("core.solver.het_greedy", root, 0, |_| {
            greedy_heterogeneous(&hsys, &demand, &profile, utility.as_ref())
        });
        het.push(s * 1e3);
    }
    report.set("core.solver.het_greedy_ms", median(&het));

    // The span profiler: price when armed, spans it records.
    let (plain_wall, _, plain) = slice(ctx, &specs[2], &ctx.tmp.join("slice"), false)?;
    let (profiled_wall, spans, csv) = slice(ctx, &specs[2], &ctx.tmp.join("slice-p"), true)?;
    report.check(
        "profiled slice: CSV bytes equal the unprofiled run's",
        plain.is_some() && csv == plain,
    );
    report.set("obs.span.armed_ratio", profiled_wall / plain_wall);
    report.set("obs.span.spans_recorded", spans as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_specs() {
        let (a, b, c) = (Specs::new(5), Specs::new(5), Specs::new(6));
        assert_eq!((&a.loss, &a.trace, &a.slice), (&b.loss, &b.trace, &b.slice));
        assert_ne!(a.loss, c.loss);
        assert_ne!(a.trace, c.trace);
        let [loss, trace, slice] = a.parse().expect("the specs parse");
        assert_eq!(loss.plan().expect("plan").outputs, ["bench_step_loss"]);
        assert_eq!(trace.plan().expect("plan").outputs, ["bench_trace_loss"]);
        assert_eq!(slice.plan().expect("plan").outputs, ["bench_slice"]);
        assert_eq!(a.conference().len(), b.conference().len());
    }

    #[test]
    fn the_qcr_column_is_read_by_header() {
        let csv = "tau,QCR,UNI\n1,-7.5,-50\n10,-0.25,-3\n";
        assert_eq!(qcr_losses(csv), Some(vec![-7.5, -0.25]));
        assert_eq!(qcr_losses("tau,UNI\n1,2\n"), None);
    }
}
