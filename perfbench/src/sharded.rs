//! `sharded_large`: QCR trials of `run_trial_sharded` at 200 000 nodes,
//! μ = 8.5e-7 per pair-minute, T = 1000 min (about 1.7 × 10⁷ contacts),
//! on `nproc` workers — above the engine's inline threshold, so the
//! shard phases really run in parallel. The horizon is a third of the
//! CLI's default so that a run holds several trials to take a median of;
//! events per epoch, which decide the threshold, do not depend on it.

use std::time::Instant;

use impatience_core::demand::Popularity;
use impatience_core::utility::parse_utility;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::policy::PolicyKind;
use impatience_sim::sharded::{run_trial_sharded, validate_sharded, ShardedOutcome};

use crate::host;
use crate::report::{median, quiet_median, time_setup, Report};
use crate::Ctx;

const NODES: usize = 200_000;
const MU: f64 = 8.5e-7;
const DURATION: f64 = 1_000.0;
/// Horizon of the warm-up trial in set-up.
const WARM_UP_MINUTES: f64 = 10.0;
const ITEMS: usize = 50;
const RHO: usize = 5;

fn setting() -> Result<(SimConfig, ContactSource), String> {
    let config = SimConfig::builder(ITEMS, RHO)
        .demand(Popularity::pareto(ITEMS, 1.0).demand_rates(1.0))
        .utility(parse_utility("step:10").map_err(|e| e.to_string())?)
        .bin(60.0)
        .warmup_fraction(0.25)
        .build();
    let source = ContactSource::homogeneous(NODES, MU, DURATION);
    validate_sharded(&config, &source, &PolicyKind::qcr_default()).map_err(|e| e.to_string())?;
    Ok((config, source))
}

/// The trial seed of a workload seed.
fn trial_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5AAD
}

fn trial(
    config: &SimConfig,
    source: &ContactSource,
    seed: u64,
    workers: usize,
) -> Result<(ShardedOutcome, f64), String> {
    let t0 = Instant::now();
    let out = run_trial_sharded(config, source, PolicyKind::qcr_default(), seed, workers)
        .map_err(|e| e.to_string())?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Contacts are Poisson with mean C(N, 2)·μ·T; a count more than six
/// standard deviations off means the engine dropped or invented some.
fn plausible(contacts: u64) -> bool {
    let mean = (NODES * (NODES - 1) / 2) as f64 * MU * DURATION;
    (contacts as f64 - mean).abs() <= 6.0 * mean.sqrt()
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Set-up: the setting, then a warm-up trial of the same population
    // over a short horizon, which pays the engine's fixed per-trial cost
    // (node state for 200 000 nodes, per-shard streams) once before
    // anything is timed.
    let prepare = || -> Result<(SimConfig, ContactSource), String> {
        let (config, source) = setting()?;
        let warm = ContactSource::homogeneous(NODES, MU, WARM_UP_MINUTES);
        trial(&config, &warm, 0, ctx.nproc)?;
        Ok((config, source))
    };
    // Set up seven times before measuring, not before every trial: a
    // warm-up trial between measured trials would churn the allocator
    // and move the peak memory from run to run.
    let mut setups = Vec::new();
    for _ in 0..6 {
        time_setup(&mut setups, prepare)?;
    }
    let (config, source) = time_setup(&mut setups, prepare)?;
    let seed = trial_seed(ctx.seed);
    if ctx.traced {
        return traced(ctx, &config, &source, seed, report);
    }

    // Repeat the same trial: every repetition must reproduce the first
    // bit for bit.
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let mut last = 0.0;
    while walls.len() < 3 || ctx.room(started, 1.0, last) {
        let ticks = host::cpu_ticks();
        let (out, wall) = trial(&config, &source, seed, ctx.nproc)?;
        let steal = host::steal_since(ticks);
        last = wall;
        report.ops(1, 0);
        let got = (out.event_digest, out.contacts_processed);
        let want = *first.get_or_insert(got);
        report.check(
            &format!(
                "repetition {}: digest and contacts {got:x?} equal {want:x?}",
                walls.len()
            ),
            got == want,
        );
        report.check(
            &format!("{} contacts is a plausible Poisson count", got.1),
            plausible(got.1),
        );
        walls.push((wall, steal));
        println!(
            "trial {}: {wall:.3} s, {:.3} Mcontacts/s, steal {steal:.3}",
            walls.len(),
            got.1 as f64 / wall / 1e6
        );
    }
    println!("{} sharded trials at {} workers", walls.len(), ctx.nproc);
    let wall = quiet_median(&walls);
    let contacts = first.map_or(0, |(_, n)| n);
    report.set("setup_s", median(&setups));
    report.set("op_p50_ms", wall * 1e3);
    report.set("work_per_s", contacts as f64 / wall);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    config: &SimConfig,
    source: &ContactSource,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    // The first full-size trial pays for faulting in its memory; the
    // overhead ratio compares two warm trials.
    trial(config, source, seed, ctx.nproc)?;
    let (_, plain) = trial(config, source, seed, ctx.nproc)?;
    let cpu0 = host::process_cpu_s();
    let (wide, wall_n) = t.span("sim.sharded.trial", 0, 0, |_| {
        trial(config, source, seed, ctx.nproc)
    });
    let cpu = host::process_cpu_s() - cpu0;
    let (wide, _) = wide?;
    let (one, wall_1) = t.span("sim.sharded.trial_w1", 0, 0, |_| {
        trial(config, source, seed, 1)
    });
    let (one, _) = one?;
    report.ops(4, 0);
    let n = wide.contacts_processed as f64;
    report.set("bench.trace_overhead_ratio.sharded_large", wall_n / plain);
    report.set("sim.sharded.ns_per_contact", wall_n * 1e9 / n);
    report.set("sim.sharded.ns_per_contact_w1", wall_1 * 1e9 / n);
    report.set(
        "sim.sharded.parallel_efficiency",
        wall_1 / (ctx.nproc as f64 * wall_n),
    );
    report.set("sim.sharded.cpu_util", cpu / (wall_n * ctx.nproc as f64));
    report.set("sim.sharded.contacts_processed", n);
    report.set("sim.sharded.rss_mib", host::peak_rss_mib());
    report.check(
        &format!(
            "w1 digest/contacts {:x}/{} equal w{} {:x}/{}",
            one.event_digest,
            one.contacts_processed,
            ctx.nproc,
            wide.event_digest,
            wide.contacts_processed
        ),
        (one.event_digest, one.contacts_processed) == (wide.event_digest, wide.contacts_processed),
    );
    Ok(())
}
