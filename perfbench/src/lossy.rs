//! `lossy_qcr`: the message-passing QCR runtime (`run_net_trials`) on 50
//! Poisson nodes with 10 % loss, 2 % duplication and reorder window 3,
//! at `nproc` workers.

use std::time::Instant;

use impatience_core::demand::Popularity;
use impatience_core::rng::Xoshiro256;
use impatience_core::utility::parse_utility;
use impatience_net::{
    run_net_trial, run_net_trials, run_net_trials_observed, NetAggregate, NetConfig,
};
use impatience_obs::{Recorder, TallySink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::faults::{FaultConfig, MsgFaults};

use crate::host;
use crate::report::{median, quiet_median, time_setup, Report};
use crate::Ctx;

const NODES: usize = 50;
const MU: f64 = 0.05;
const DURATION: f64 = 2_000.0;
const ITEMS: usize = 50;
const RHO: usize = 5;
/// Trials per batch, per worker.
const TRIALS_PER_WORKER: usize = 4;

struct Setting {
    config: SimConfig,
    source: ContactSource,
    net: NetConfig,
}

fn setting(seed: u64) -> Result<Setting, String> {
    let faults = FaultConfig {
        seed,
        msg: Some(MsgFaults {
            loss_p: 0.10,
            dup_p: 0.02,
            reorder_window: 3,
        }),
        ..FaultConfig::default()
    };
    faults.validate().map_err(|e| e.to_string())?;
    let config = SimConfig::builder(ITEMS, RHO)
        .demand(Popularity::pareto(ITEMS, 1.0).demand_rates(1.0))
        .utility(parse_utility("step:10").map_err(|e| e.to_string())?)
        .bin(60.0)
        .warmup_fraction(0.25)
        .faults(faults)
        .build();
    let source = ContactSource::homogeneous(NODES, MU, DURATION);
    let net = NetConfig::default();
    net.validate().map_err(|e| e.to_string())?;
    Ok(Setting {
        config,
        source,
        net,
    })
}

/// Contacts of trial `seed`: the runtime seeds its contact stream
/// exactly like this.
fn contacts(source: &ContactSource, seed: u64) -> u64 {
    source.stream(&mut Xoshiro256::seed_from_u64(seed)).count() as u64
}

/// One batch: checks every trial's conservation audit (the runner fails
/// the batch on the first violation) and the merged ledger.
fn batch(
    s: &Setting,
    trials: usize,
    base: u64,
    report: &mut Report,
) -> Option<(NetAggregate, f64)> {
    let t0 = Instant::now();
    let result = run_net_trials(&s.config, &s.source, &s.net, trials, base);
    let wall = t0.elapsed().as_secs_f64();
    match result {
        Ok(agg) => {
            report.ops(trials as u64, 0);
            report.check(
                "conservation holds on every trial",
                agg.conservation.holds(),
            );
            Some((agg, wall))
        }
        Err(e) => {
            report.ops(trials as u64, trials as u64);
            report.check(&format!("batch failed: {e}"), false);
            None
        }
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let trials = TRIALS_PER_WORKER * ctx.nproc;
    let base = ctx.seed.wrapping_mul(1_000);
    // Set-up: the setting, and the batch's contact count (sampled with
    // the trials' own seeds) that throughput is reported against.
    let prepare = || -> Result<(Setting, u64), String> {
        let s = setting(ctx.seed)?;
        let total = (0..trials as u64)
            .map(|k| contacts(&s.source, base + k))
            .sum();
        Ok((s, total))
    };
    let mut setups = Vec::new();
    let (s, total) = time_setup(&mut setups, prepare)?;
    if ctx.traced {
        return traced(ctx, &s, trials, base, total, report);
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    let (mut batches, mut last) = (0, 0.0);
    while batches < 3 || ctx.room(started, 1.0, last) {
        batches += 1;
        time_setup(&mut setups, prepare)?;
        let ticks = host::cpu_ticks();
        let t0 = Instant::now();
        let outcome = batch(&s, trials, base, report);
        last = t0.elapsed().as_secs_f64();
        let steal = host::steal_since(ticks);
        let Some((agg, wall)) = outcome else {
            continue;
        };
        let sent = *first.get_or_insert(agg.stats.msgs_sent);
        report.check(
            &format!(
                "batch {batches} repeats the first ({} messages)",
                agg.stats.msgs_sent
            ),
            agg.stats.msgs_sent == sent,
        );
        walls.push((wall, steal));
    }
    if walls.is_empty() {
        return Err("every batch failed".into());
    }
    let wall = quiet_median(&walls);
    println!(
        "{} batches of {trials} trials, {total} contacts each, median {wall:.3} s",
        walls.len()
    );
    report.set("setup_s", median(&setups));
    report.set("op_p50_ms", wall * 1e3);
    report.set("work_per_s", total as f64 / wall);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    s: &Setting,
    trials: usize,
    base: u64,
    total: u64,
    report: &mut Report,
) -> Result<(), String> {
    let t = &ctx.tracer;
    let (_, plain) = batch(s, trials, base, report).ok_or("the untraced batch failed")?;
    let (agg, wall) = t.span("net.run_net_trials", 0, 0, |_| {
        let mut rec = Recorder::new(TallySink);
        run_net_trials_observed(&s.config, &s.source, &s.net, trials, base, None, &mut rec)
    });
    let agg = agg.map_err(|e| e.to_string())?;
    report.ops(trials as u64, 0);
    report.check(
        "conservation holds (traced batch)",
        agg.conservation.holds(),
    );
    report.set("bench.trace_overhead_ratio.lossy_qcr", wall / plain);
    let st = &agg.stats;
    report.set("net.msgs_per_contact", st.msgs_sent as f64 / total as f64);
    report.set(
        "net.retry_share",
        st.retries as f64 / st.msgs_sent.max(1) as f64,
    );
    report.set(
        "net.delivered_share",
        st.msgs_delivered as f64 / st.msgs_sent.max(1) as f64,
    );

    // The kernel alone: one trial on this thread.
    let mut ns = Vec::new();
    for k in 0..3 {
        let (out, secs) = t.span("net.kernel.trial", 0, 0, |_| {
            run_net_trial(&s.config, &s.source, &s.net, base + k)
        });
        let out = out.map_err(|e| e.to_string())?;
        report.ops(1, 0);
        report.check(
            "conservation holds (single trial)",
            out.conservation.holds(),
        );
        ns.push(secs * 1e9 / out.stats.msgs_sent.max(1) as f64);
    }
    report.set("net.kernel.ns_per_msg", median(&ns));
    Ok(())
}
