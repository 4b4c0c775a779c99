//! Parallel multi-trial runner for the distributed kernel.
//!
//! One kernel per trial, trials sharded over OS threads with a
//! work-stealing claim counter (the engine runner's scheme). Trial `k`
//! uses seed `base_seed + k` — the same convention as
//! [`impatience_sim::runner::run_trials`], so a net batch and an engine
//! batch on the same `base_seed` run *paired* randomness: identical
//! contact streams, sticky fills, and demand arrivals, which is what the
//! differential oracle leans on. Per-trial tallies and event streams are
//! absorbed into the caller's recorder **in trial order**, so all
//! observability output is independent of the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use impatience_obs::stats::percentile_sorted;
use impatience_obs::{MemorySink, Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};

use crate::config::NetConfig;
use crate::error::NetError;
use crate::kernel::{run_net_trial_observed, Conservation, NetStats, NetTrialOutcome};

/// Aggregate of many independent distributed trials.
#[derive(Clone, Debug)]
pub struct NetAggregate {
    /// Number of trials.
    pub trials: usize,
    /// Post-warm-up average observed gain rate, one entry per trial.
    pub rates: Vec<f64>,
    /// Mean of `rates`.
    pub mean_rate: f64,
    /// 5th percentile of `rates` (nearest rank).
    pub p5_rate: f64,
    /// 95th percentile of `rates` (nearest rank).
    pub p95_rate: f64,
    /// Transport/protocol counters summed over trials.
    pub stats: NetStats,
    /// Conservation terms summed over trials (each trial already passed
    /// its own audit or the batch would have errored).
    pub conservation: Conservation,
    /// Trials that finished degraded (supervisor kill / event cap).
    pub degraded_trials: usize,
    /// Mean final replica count per item.
    pub mean_final_replicas: Vec<f64>,
    /// Mean requests still unfulfilled at the horizon per trial.
    pub mean_unfulfilled: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_s: f64,
}

/// Run `trials` distributed trials in parallel and aggregate.
///
/// The first trial error (in trial order, not completion order) aborts
/// the batch — a conservation violation on seed `base_seed + k` is
/// reported for that seed whatever the thread interleaving was.
pub fn run_net_trials(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    trials: usize,
    base_seed: u64,
) -> Result<NetAggregate, NetError> {
    run_net_trials_observed(
        config,
        source,
        net,
        trials,
        base_seed,
        None,
        &mut Recorder::disabled(),
    )
}

/// [`run_net_trials`] with instrumentation and an explicit worker count
/// (`None` picks one per available core).
#[allow(clippy::too_many_arguments)]
pub fn run_net_trials_observed<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    trials: usize,
    base_seed: u64,
    workers: Option<usize>,
    rec: &mut Recorder<S>,
) -> Result<NetAggregate, NetError> {
    assert!(trials > 0, "need at least one trial");
    let batch_start = Instant::now();
    let workers = workers
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .max(1)
        .min(trials);

    let shape = (
        rec.delay.range(),
        rec.inter_contact.range(),
        rec.delay.buckets(),
    );
    let live = rec.is_active();
    let results = shard(trials, workers, &|k| {
        let seed = base_seed + k as u64;
        if live {
            let mut wrec = Recorder::with_shape(MemorySink::new(), shape.0, shape.1, shape.2);
            let outcome = run_net_trial_observed(config, source, net, seed, &mut wrec);
            (outcome, Some(wrec))
        } else {
            (
                run_net_trial_observed(config, source, net, seed, &mut Recorder::disabled()),
                None,
            )
        }
    });

    // Trial-order merge: recorder state stays worker-count independent,
    // and the first error reported is the lowest-seed one.
    let mut outcomes: Vec<NetTrialOutcome> = Vec::with_capacity(trials);
    for (outcome, wrec) in results {
        let outcome = outcome?;
        if let Some(wrec) = wrec {
            rec.absorb(&wrec);
            if S::WANTS_EVENTS {
                for event in &wrec.into_sink().events {
                    rec.sink_mut().record(event);
                }
            }
        }
        outcomes.push(outcome);
    }

    let warmup = config.warmup_fraction;
    let rates: Vec<f64> = outcomes
        .iter()
        .map(|o| o.metrics.average_observed_rate(warmup))
        .collect();
    let mean_rate = rates.iter().sum::<f64>() / trials as f64;
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);

    let mut stats = NetStats::default();
    let mut conservation = Conservation::default();
    let mut degraded_trials = 0;
    let items = outcomes[0].final_replicas.len();
    let mut mean_final_replicas = vec![0.0; items];
    let mut unfulfilled = 0.0;
    for o in &outcomes {
        stats.merge(&o.stats);
        conservation.minted += o.conservation.minted;
        conservation.executed += o.conservation.executed;
        conservation.discarded += o.conservation.discarded;
        conservation.pooled += o.conservation.pooled;
        conservation.escrowed += o.conservation.escrowed;
        degraded_trials += usize::from(o.degraded);
        for (acc, &r) in mean_final_replicas.iter_mut().zip(&o.final_replicas) {
            *acc += r as f64 / trials as f64;
        }
        unfulfilled += o.metrics.unfulfilled as f64;
    }

    Ok(NetAggregate {
        trials,
        mean_rate,
        p5_rate: percentile_sorted(&sorted, 0.05),
        p95_rate: percentile_sorted(&sorted, 0.95),
        rates,
        stats,
        conservation,
        degraded_trials,
        mean_final_replicas,
        mean_unfulfilled: unfulfilled / trials as f64,
        workers,
        wall_s: batch_start.elapsed().as_secs_f64(),
    })
}

/// Work-stealing shard: idle workers claim the next trial index; results
/// return in trial order.
fn shard<T: Send>(trials: usize, workers: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= trials {
                        break;
                    }
                    local.push((k, job(k)));
                }
                local
            }));
        }
        let mut all: Vec<(usize, T)> = Vec::with_capacity(trials);
        for handle in handles {
            match handle.join() {
                Ok(local) => all.extend(local),
                // A trial panicked: re-raise it on the caller's thread.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all.sort_by_key(|(k, _)| *k);
        all.into_iter().map(|(_, r)| r).collect()
    })
}
