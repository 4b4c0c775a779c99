//! Contracts of the distributed QCR runtime's message layer: the wire
//! codec round-trips every frame and rejects truncation/corruption with
//! typed errors; the message-fault family is inert on the in-process
//! engine (bit-identical trajectories with or without it attached); the
//! distributed batch is deterministic per seed and independent of the
//! worker count; message loss degrades welfare boundedly instead of
//! wedging; the clean-transport runtime statistically matches the
//! engine under the oracle's paired-seed differential; and literal
//! goldens pin every counter, ledger term, replica count and rate of a
//! lossy and a clean batch, so a kernel refactor must stay bit-identical.

use std::sync::Arc;

use impatience_core::demand::Popularity;
use impatience_core::hash::fnv1a64;
use impatience_core::utility::Step;
use impatience_net::{run_net_trial, run_net_trials_observed, Msg, NetConfig, WireError};
use impatience_obs::Recorder;
use impatience_oracle::net_vs_engine;
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::engine::run_trial;
use impatience_sim::faults::{FaultConfig, MsgFaults};
use impatience_sim::policy::PolicyKind;
use proptest::prelude::*;

fn small_config(items: usize, rho: usize) -> SimConfig {
    SimConfig::builder(items, rho)
        .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
        .utility(Arc::new(Step::new(10.0)))
        .bin(100.0)
        .build()
}

fn with_msg_faults(mut config: SimConfig, msg: MsgFaults) -> SimConfig {
    config.faults = Some(FaultConfig {
        seed: 5,
        msg: Some(msg),
        ..FaultConfig::default()
    });
    config
}

// ---------------------------------------------------------------- codec

fn arb_u32s(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..1_000_000, 0..max_len)
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            0u64..u64::MAX,
            arb_u32s(24),
            proptest::collection::vec((0u32..1_000_000, 0u64..1_000_000_000), 0..24),
        )
            .prop_map(|(window, items, mandates)| Msg::CacheAdvert {
                window,
                items,
                mandates,
            }),
        (0u64..u64::MAX, arb_u32s(24)).prop_map(|(window, wants)| Msg::Request { window, wants }),
        (0u64..u64::MAX, arb_u32s(24)).prop_map(|(window, grants)| Msg::Fulfill { window, grants }),
        (
            0u64..u64::MAX,
            0u32..1_000_000,
            0u64..1_000_000_000,
            0u32..2
        )
            .prop_map(|(xfer, item, count, execute)| Msg::MandateHandoff {
                xfer,
                item,
                count,
                execute: execute == 1,
            }),
        (0u64..u64::MAX, 0u64..1_000_000_000)
            .prop_map(|(xfer, consumed)| Msg::MandateAck { xfer, consumed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_every_frame(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert_eq!(Msg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncated_frames_fail_typed(msg in arb_msg(), cut in 0usize..64) {
        let bytes = msg.encode();
        let cut = cut % bytes.len();
        // Every prefix fails with a typed [`WireError`] — truncation,
        // bad magic, checksum mismatch — never a panic or a bogus frame.
        let decoded: Result<Msg, WireError> = Msg::decode(&bytes[..cut]);
        prop_assert!(decoded.is_err());
    }

    #[test]
    fn corrupted_frames_fail_typed(msg in arb_msg(), pos in 0usize..4096, bit in 0u32..8) {
        let mut bytes = msg.encode();
        let len = bytes.len();
        bytes[pos % len] ^= 1u8 << bit;
        // Any single-bit flip breaks the magic, the kind, the payload
        // checksum, or a length prefix — never yields a clean decode of
        // a *different* frame, and never panics.
        if let Ok(decoded) = Msg::decode(&bytes) {
            prop_assert_eq!(decoded, msg);
        }
    }
}

// --------------------------------------------- engine-inert fault family

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The message-fault family is consumed only by the net transport:
    // attaching an *active* config to the in-process engine must leave
    // its trajectory bit-for-bit unchanged.
    #[test]
    fn msg_faults_are_inert_on_the_engine(
        seed in 0u64..500,
        loss in 0.01f64..0.9,
        dup in 0.0f64..0.5,
        reorder in 0u32..8,
    ) {
        let clean = small_config(8, 2);
        let faulty = with_msg_faults(
            small_config(8, 2),
            MsgFaults { loss_p: loss, dup_p: dup, reorder_window: reorder },
        );
        let source = ContactSource::homogeneous(10, 0.08, 600.0);
        let a = run_trial(&clean, &source, PolicyKind::qcr_default(), seed);
        let b = run_trial(&faulty, &source, PolicyKind::qcr_default(), seed);
        prop_assert_eq!(a.final_replicas, b.final_replicas);
        prop_assert_eq!(
            a.metrics.observed_rate_series(),
            b.metrics.observed_rate_series()
        );
    }
}

// ------------------------------------------------- batch determinism

fn batch(config: &SimConfig, source: &ContactSource, workers: usize) -> (Vec<f64>, String) {
    let agg = run_net_trials_observed(
        config,
        source,
        &NetConfig::default(),
        6,
        42,
        Some(workers),
        &mut Recorder::disabled(),
    )
    .expect("batch must conserve");
    let stats = format!("{:?} {:?}", agg.stats, agg.conservation);
    (agg.rates, stats)
}

#[test]
fn net_batches_are_worker_count_independent() {
    let config = with_msg_faults(
        small_config(10, 2),
        MsgFaults {
            loss_p: 0.08,
            dup_p: 0.02,
            reorder_window: 3,
        },
    );
    let source = ContactSource::homogeneous(12, 0.08, 1_000.0);
    let one = batch(&config, &source, 1);
    assert_eq!(one, batch(&config, &source, 2), "2 workers diverged");
    assert_eq!(one, batch(&config, &source, 8), "8 workers diverged");
}

// ------------------------------------------------------- bounded loss

#[test]
fn loss_degrades_welfare_boundedly() {
    let source = ContactSource::homogeneous(12, 0.08, 1_500.0);
    let clean = batch(&small_config(10, 2), &source, 2).0;
    let lossy = batch(
        &with_msg_faults(
            small_config(10, 2),
            MsgFaults {
                loss_p: 0.10,
                dup_p: 0.02,
                reorder_window: 3,
            },
        ),
        &source,
        2,
    )
    .0;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (c, l) = (mean(&clean), mean(&lossy));
    assert!(c > 0.0, "clean batch should fulfill");
    assert!(
        l > 0.5 * c,
        "10% loss should be mostly masked by retries, got {l} vs clean {c}"
    );
}

// ----------------------------------------------- differential agreement

#[test]
fn clean_transport_matches_engine_within_clt_budget() {
    let config = SimConfig::builder(10, 2)
        .demand(Popularity::pareto(10, 1.0).demand_rates(1.0))
        .utility(Arc::new(Step::new(10.0)))
        .bin(60.0)
        .warmup_fraction(0.25)
        .build();
    let source = ContactSource::homogeneous(12, 0.1, 1_200.0);
    let cmp = net_vs_engine(&config, &source, &NetConfig::default(), 5, 42, 3.5)
        .expect("differential batch must conserve");
    assert!(
        cmp.agrees(),
        "distributed QCR diverged from the engine: {}",
        cmp.describe()
    );
}

// ------------------------------------------------------ literal goldens

/// fnv1a64 over the little-endian bits of a float series.
fn series_hash(xs: impl IntoIterator<Item = f64>) -> u64 {
    let bytes: Vec<u8> = xs.into_iter().flat_map(f64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// Everything a batch reports, as one string: counters, the mandate
/// audit, mean final replicas, and hashes of the per-trial mean rates
/// and of every trial's observed-rate series.
fn fingerprint(config: &SimConfig, source: &ContactSource, workers: usize) -> String {
    let (trials, base) = (4, 42);
    let net = NetConfig::default();
    let agg = run_net_trials_observed(
        config,
        source,
        &net,
        trials,
        base,
        Some(workers),
        &mut Recorder::disabled(),
    )
    .expect("batch must conserve");
    let series = (0..trials as u64).flat_map(|k| {
        run_net_trial(config, source, &net, base + k)
            .expect("trial must conserve")
            .metrics
            .observed_rate_series()
    });
    format!(
        "{:?} {:?} replicas {:?} rates {:#018x} series {:#018x}",
        agg.stats,
        agg.conservation,
        agg.mean_final_replicas,
        series_hash(agg.rates.iter().copied()),
        series_hash(series),
    )
}

/// The benchmark's lossy mix (10 % loss, 2 % duplication, reorder
/// window 3, no churn) on a small population.
#[test]
fn lossy_batch_matches_its_golden_at_1_and_2_workers() {
    let config = with_msg_faults(
        small_config(10, 2),
        MsgFaults {
            loss_p: 0.10,
            dup_p: 0.02,
            reorder_window: 3,
        },
    );
    let source = ContactSource::homogeneous(16, 0.05, 800.0);
    let golden = "NetStats { msgs_sent: 69218, msgs_delivered: 63377, msgs_lost: 6946, \
                  msgs_duplicated: 1292, transport_closed: 187, retries: 8429, ack_timeouts: 0, \
                  handshake_timeouts: 158, handoffs_started: 972, handoffs_applied: 502, \
                  acks_received: 969, execs_applied: 468, crashes: 0, restarts: 0, stalls: 0, \
                  requests_expired: 0, heartbeats: 404 } \
                  Conservation { minted: 471, executed: 468, discarded: 0, pooled: 1, escrowed: 2 } \
                  replicas [5.75, 5.0, 2.75, 2.75, 3.25, 2.5, 2.75, 2.75, 1.75, 2.75] \
                  rates 0x0a7fc39549f91b4c series 0x3940de2fd0c503b0";
    assert_eq!(fingerprint(&config, &source, 1), golden, "1 worker");
    assert_eq!(fingerprint(&config, &source, 2), golden, "2 workers");
}

#[test]
fn clean_batch_matches_its_golden_at_1_and_2_workers() {
    let config = small_config(10, 2);
    let source = ContactSource::homogeneous(16, 0.05, 800.0);
    let golden = "NetStats { msgs_sent: 42492, msgs_delivered: 42492, msgs_lost: 0, \
                  msgs_duplicated: 0, transport_closed: 0, retries: 114, ack_timeouts: 0, \
                  handshake_timeouts: 0, handoffs_started: 1039, handoffs_applied: 542, \
                  acks_received: 1039, execs_applied: 497, crashes: 0, restarts: 0, stalls: 0, \
                  requests_expired: 0, heartbeats: 404 } \
                  Conservation { minted: 498, executed: 497, discarded: 0, pooled: 1, escrowed: 0 } \
                  replicas [6.5, 4.75, 3.25, 3.0, 2.75, 2.5, 2.0, 2.75, 2.5, 2.0] \
                  rates 0xccaa9a864cee607f series 0x2b6ca28fb81d8f04";
    assert_eq!(fingerprint(&config, &source, 1), golden, "1 worker");
    assert_eq!(fingerprint(&config, &source, 2), golden, "2 workers");
}
