//! Chaos contracts of the distributed QCR runtime: crashing a node in
//! the middle of its two-phase mandate traffic never duplicates or
//! leaks a mandate (the quiesce audit stays exact) at any worker count,
//! and the fault log is bit-identical at 1, 2, and 8 workers; a wedged
//! node is condemned by the heartbeat supervisor and degrades the run
//! instead of hanging it; and a seeded loss+duplication+reorder+churn
//! soak terminates conserving on every seed.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::utility::Step;
use impatience_net::{run_net_trial, run_net_trials_observed, ChaosEvent, ChaosKind, NetConfig};
use impatience_obs::{Event, MemorySink, Recorder};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::faults::{Churn, FaultConfig, MsgFaults};

fn config(faults: Option<FaultConfig>) -> SimConfig {
    let mut builder = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0);
    if let Some(fc) = faults {
        builder = builder.faults(fc);
    }
    builder.build()
}

/// Chaos kills timed to land inside the trial's active phase, while
/// mandate handoffs are in flight.
fn kill_config() -> NetConfig {
    NetConfig {
        chaos: vec![
            ChaosEvent {
                t: 250.0,
                node: 3,
                kind: ChaosKind::Kill { down_for: 80.0 },
            },
            ChaosEvent {
                t: 600.0,
                node: 7,
                kind: ChaosKind::Kill { down_for: 120.0 },
            },
        ],
        ..NetConfig::default()
    }
}

/// Run a chaotic lossy batch at the given worker count; return the
/// recorded fault events plus a digest of the stats and conservation.
fn chaos_log(workers: usize) -> (Vec<String>, String) {
    let config = config(Some(FaultConfig {
        seed: 11,
        msg: Some(MsgFaults {
            loss_p: 0.08,
            dup_p: 0.02,
            reorder_window: 2,
        }),
        ..FaultConfig::default()
    }));
    let source = ContactSource::homogeneous(12, 0.08, 1_200.0);
    let mut rec = Recorder::new(MemorySink::new());
    let agg = run_net_trials_observed(
        &config,
        &source,
        &kill_config(),
        4,
        42,
        Some(workers),
        &mut rec,
    )
    .expect("chaos batch must conserve");
    assert!(
        agg.stats.crashes >= 8,
        "both kills should fire in every trial, saw {} crashes",
        agg.stats.crashes
    );
    assert_eq!(agg.stats.crashes, agg.stats.restarts, "every kill restarts");
    assert!(agg.stats.handoffs_started > 0, "mandates should move");
    let log = rec
        .into_sink()
        .events
        .iter()
        .filter(|e| matches!(e, Event::Fault { .. }))
        .map(|e| e.to_json().to_string())
        .collect();
    (log, format!("{:?} {:?}", agg.stats, agg.conservation))
}

#[test]
fn kill_mid_handoff_conserves_at_1_2_and_8_workers() {
    let one = chaos_log(1);
    assert!(
        one.0.iter().any(|l| l.contains("net_msg_loss")),
        "loss faults should be logged"
    );
    assert_eq!(one, chaos_log(2), "2 workers diverged");
    assert_eq!(one, chaos_log(8), "8 workers diverged");
    // Golden values: equal worker counts alone would not catch a protocol
    // change that shifts every worker count the same way.
    assert_eq!(one.0.len(), 8237, "fault log length");
    assert_eq!(
        one.1,
        "NetStats { msgs_sent: 74708, msgs_delivered: 67912, msgs_lost: 6007, \
         msgs_duplicated: 1392, transport_closed: 2181, retries: 7924, ack_timeouts: 0, \
         handshake_timeouts: 822, handoffs_started: 840, handoffs_applied: 431, \
         acks_received: 840, execs_applied: 409, crashes: 8, restarts: 8, stalls: 0, \
         requests_expired: 0, heartbeats: 472 } \
         Conservation { minted: 409, executed: 409, discarded: 0, pooled: 0, escrowed: 0 }"
    );
}

#[test]
fn stalled_node_degrades_instead_of_hanging() {
    let config = config(None);
    let source = ContactSource::homogeneous(10, 0.1, 1_500.0);
    let net = NetConfig {
        chaos: vec![ChaosEvent {
            t: 200.0,
            node: 2,
            kind: ChaosKind::Stall,
        }],
        ..NetConfig::default()
    };
    let out = run_net_trial(&config, &source, &net, 9).expect("stall must not break the audit");
    assert!(out.degraded, "a condemned node degrades the trial");
    assert_eq!(out.stats.stalls, 1, "the supervisor condemns exactly once");
    assert!(out.conservation.holds(), "conservation survives the stall");
}

#[test]
fn lossy_churn_soak_terminates_conserving_on_every_seed() {
    let config = config(Some(FaultConfig {
        seed: 3,
        churn: Some(Churn {
            mean_up: 300.0,
            mean_down: 40.0,
        }),
        msg: Some(MsgFaults {
            loss_p: 0.10,
            dup_p: 0.03,
            reorder_window: 3,
        }),
        ..FaultConfig::default()
    }));
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let net = NetConfig::default();
    for seed in 0..6 {
        let out = run_net_trial(&config, &source, &net, seed)
            .unwrap_or_else(|e| panic!("seed {seed} failed: {e}"));
        assert!(out.conservation.holds(), "seed {seed} leaked mandates");
        assert!(
            out.metrics.fulfillments() > 0,
            "seed {seed} fulfilled nothing"
        );
    }
}
