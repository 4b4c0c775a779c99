//! Intra-trial sharded engine: one trial spread over worker threads.
//!
//! The serial engine ([`crate::engine`]) processes one global event
//! sequence; at a million nodes and ~10⁹ contacts that single sequence
//! *is* the wall-clock bill. This module shards the population into
//! [`LOGICAL_SHARDS`] contiguous node blocks and splits each trial into
//! fixed-width **epochs** — each metrics bin subdivided so one epoch
//! spans roughly one per-node inter-meeting time `1/(μ(n−1))`, the
//! fastest timescale a pending request can resolve on. Within an epoch:
//!
//! 1. **boundary (serial)** — at bin starts the welfare snapshot is
//!    recorded on the summed per-shard replica counts; at every epoch
//!    boundary the cache-slot faults due by it fire, in schedule order,
//!    from one RNG;
//! 2. **phase A** — each shard independently processes its
//!    *intra-shard* contacts and its request arrivals, merged in time
//!    order, exactly like the serial event loop restricted to the block;
//! 3. **phase B** — the 120 *cross-shard* pair lanes, in 15 tournament
//!    rounds of 8 disjoint shard pairs (the circle method), so every
//!    lane gets exclusive `&mut` access to its two shard states.
//!
//! ## Scheduling
//!
//! An epoch's 136 tasks (16 phase-A tasks, 120 lanes) are
//! **dependency-scheduled**, not separated by barriers: shard `s` runs
//! its phase-A task, then its lane of round 0, 1, …, 14, and the lane of
//! `s` and `t` in round `r` is ready as soon as both have finished round
//! `r − 1` (phase A when `r = 0`) — other shards may still be in earlier
//! rounds. Any worker takes any ready task, the calling thread included,
//! and threads are spawned once per epoch (none when the epoch is too
//! small to be worth it, [`epoch_threads`]). Idle workers are timed by
//! the `wait` span, next to the per-task `shard` and `cross` spans
//! ([`phase_shares`]).
//!
//! ## Determinism at any worker count
//!
//! Every task owns its entire random state: a contact-lane RNG, a
//! request RNG, and a policy RNG, each forked from the trial master with
//! a fixed stream id in a fixed order at startup. Worker threads only
//! decide *when* a task runs, never *what* it computes: a task touches
//! only its own lane and its one or two shard states, and the schedule
//! hands every shard state the same task sequence (A, round 0, …,
//! round 14) in any execution order. Metrics fragments are merged and
//! fault logs concatenated in fixed (shard, then lane) order after the
//! last epoch, so every output bit — welfare series, fault log, event
//! digest — is a pure function of `(config, source, policy, seed)`,
//! independent of `workers`. `tests::worker_counts_are_bit_identical`,
//! `tests/sharded_engine.rs` and the CI shard gate enforce exactly that,
//! fault injection included.
//!
//! The sharded trajectory is a *different* (equally valid) realization of
//! the same stochastic model than the serial engine's: contacts are
//! sampled per lane instead of globally (the superposition of the 136
//! independent lane Poisson processes is the global process), requests
//! per shard, and cross-shard meetings within an epoch observe the state
//! left by phase A of that epoch. Statistics agree; bits do not, and are
//! not required to — the bit-identity discipline of
//! `tests/fault_tolerance.rs` applies *across worker counts*, not across
//! engines.
//!
//! ## Memory at scale
//!
//! Per-lane contacts are sampled **streaming** — each lane keeps one
//! lookahead event plus a [`crate::contact_bin`]-encoded batch buffer of
//! at most [`DEFAULT_BATCH`] fixed-width records, so trace memory is
//! O(lanes), not O(contacts). Node state is the flat SoA
//! [`CacheArena`]/[`RequestArena`], one per shard block, allocated per
//! trial. The caches are seeded straight into the blocks by the same
//! initializers the serial engine uses (`state::seed_sticky_and_fill`,
//! `policy::load_counts`, generic over node access), so no
//! whole-population copy of the node state ever exists.
//!
//! ## Supported configurations
//!
//! Pure-P2P populations on homogeneous Poisson contact sources, with QCR
//! / Passive / Static policies, uniform demand profiles, and fault
//! injection minus churn. Everything else is rejected up front with
//! [`ConfigError::UnsupportedSharded`]; notably the validator never
//! materializes a population-sized demand profile (at 10⁶ nodes a
//! uniform profile matrix would dwarf the node state itself).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use impatience_core::hash::{FNV64_OFFSET, FNV64_PRIME};
use impatience_core::rng::{AliasTable, Xoshiro256};
use impatience_core::types::SystemModel;
use impatience_core::utility::DelayUtility;
use impatience_obs::span::PhaseReport;
use impatience_traces::{pair_from_index, ContactEvent};

use crate::config::{ConfigError, ContactSource, SimConfig};
use crate::contact_bin::{decode_record_unchecked, encode_record, DEFAULT_BATCH, RECORD_BYTES};
use crate::engine::TrialOutcome;
use crate::faults::ContactDrop;
use crate::metrics::Metrics;
use crate::policy::{load_counts, Fulfillment, MandateHost, MandatePool, PolicyKind, QcrParams};
use crate::state::{
    copy_into, seed_sticky_and_fill, CacheArena, CacheMut, EvictionPolicy, NodeCaches, RequestArena,
};

/// Number of logical shards, fixed regardless of worker count: tasks are
/// defined per logical shard, workers merely schedule them, which is what
/// makes `--shards 1/2/8` bit-identical by construction.
pub const LOGICAL_SHARDS: usize = 16;

/// Cross-shard lanes: one per unordered shard pair.
const CROSS_LANES: usize = LOGICAL_SHARDS * (LOGICAL_SHARDS - 1) / 2;

// Stream ids for forking per-task RNGs off the trial master (contact /
// request / policy) and off the fault base (drop chains, cache clock).
// The split *order* at startup is fixed; ids only need to be distinct.
const LANE_CONTACT_STREAM: u64 = 0x5AAD_0C01_7AC7_0000;
const SHARD_REQUEST_STREAM: u64 = 0x5AAD_0E02_12E9_0000;
const SHARD_POLICY_STREAM: u64 = 0x5AAD_0203_90C1_0000;
const LANE_POLICY_STREAM: u64 = 0x5AAD_0204_C205_0000;
const LANE_DROP_STREAM: u64 = 0x5AAD_FA17_0002_0000;
const CACHE_FAULT_STREAM: u64 = 0x5AAD_FA17_0003_0000;

/// One injected fault, in the order the owning task observed it — the
/// sharded analogue of the recorder's fault events, kept as a plain
/// vector so the CI bit-identity gate can compare whole logs across
/// worker counts.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRecord {
    /// Event time (minutes).
    pub time: f64,
    /// Fault kind (`"contact_drop"`, `"cache_fault"`, `"trace_truncated"`).
    pub kind: &'static str,
    /// Primary node involved.
    pub node: u32,
    /// Second node (drops) or lost item (cache faults).
    pub aux: u32,
}

/// Result of one sharded trial: the usual [`TrialOutcome`] plus the
/// artifacts the worker-count bit-identity gate compares.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// Metrics, final replicas and label, exactly as the serial engine
    /// reports them.
    pub outcome: TrialOutcome,
    /// Every injected fault, concatenated in fixed (boundary, shard,
    /// lane) order.
    pub fault_log: Vec<FaultRecord>,
    /// FNV-1a digest over every processed meeting (time, pair,
    /// fulfillment count) and per-shard transmission totals, folded in
    /// fixed task order — a compact stand-in for "the full event trace is
    /// identical".
    pub event_digest: u64,
    /// Contacts processed (admitted) across all lanes.
    pub contacts_processed: u64,
}

/// Where a profiled sharded run's thread time went, read from the spans
/// the engine records: `sharded_trial` on the calling thread, one
/// `sharded_worker` per spawned thread and epoch, and under either the
/// per-task `shard` (phase A) and `cross` (phase B) spans and `wait`
/// (a worker idle because no task is ready).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseShares {
    /// Wall time of the `sharded_trial` and `sharded_worker` spans,
    /// summed over threads (seconds).
    pub thread_s: f64,
    /// Share of `thread_s` in phase-A tasks.
    pub phase_a: f64,
    /// Share of `thread_s` in phase-B lanes.
    pub phase_b: f64,
    /// Share of `thread_s` waiting for a ready task.
    pub wait: f64,
}

impl std::fmt::Display for PhaseShares {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let other = 1.0 - self.phase_a - self.phase_b - self.wait;
        write!(
            f,
            "sharded split: phase A {:.1}%, phase B {:.1}%, wait {:.1}%, other {:.1}% of {:.3} s thread time",
            100.0 * self.phase_a,
            100.0 * self.phase_b,
            100.0 * self.wait,
            100.0 * other,
            self.thread_s
        )
    }
}

/// The phase split of a profiled run's report, or `None` when it holds
/// no sharded spans.
pub fn phase_shares(report: &PhaseReport) -> Option<PhaseShares> {
    let (mut thread_s, mut a, mut b, mut wait) = (0.0, 0.0, 0.0, 0.0);
    for p in &report.phases {
        let mut up = p.path.rsplit('/');
        let leaf = up.next().unwrap_or_default();
        let under_engine = matches!(up.next(), Some("sharded_trial" | "sharded_worker"));
        match leaf {
            "sharded_trial" | "sharded_worker" => thread_s += p.wall_s,
            "shard" if under_engine => a += p.wall_s,
            "cross" if under_engine => b += p.wall_s,
            "wait" if under_engine => wait += p.wall_s,
            _ => {}
        }
    }
    (thread_s > 0.0).then(|| PhaseShares {
        thread_s,
        phase_a: a / thread_s,
        phase_b: b / thread_s,
        wait: wait / thread_s,
    })
}

/// Check that `(config, source, policy)` is inside the sharded engine's
/// supported subset (see the module docs), without materializing any
/// population-sized state.
pub fn validate_sharded(
    config: &SimConfig,
    source: &ContactSource,
    policy: &PolicyKind,
) -> Result<(), ConfigError> {
    let unsupported = |feature: &'static str| Err(ConfigError::UnsupportedSharded { feature });
    source.try_validate()?;
    if !matches!(source, ContactSource::Homogeneous { .. }) {
        return unsupported("trace contact sources (only homogeneous Poisson)");
    }
    if matches!(policy, PolicyKind::HillClimb { .. }) {
        return unsupported("the hill-climbing baseline");
    }
    if config.dedicated_servers.is_some() {
        return unsupported("dedicated populations");
    }
    if !config.demand_shifts.is_empty() {
        return unsupported("demand shifts");
    }
    if config.items == 0 {
        return Err(ConfigError::ZeroItems);
    }
    if config.demand.items() != config.items {
        return Err(ConfigError::CatalogMismatch {
            what: "demand",
            expected: config.items,
            found: config.demand.items(),
        });
    }
    // Origins are sampled uniformly per shard; a non-uniform profile has
    // no per-shard factorization. The comparison below touches only the
    // *configured* profile's width — never `nodes` — so validating a
    // million-node run stays O(existing profile size).
    let uniform = impatience_core::demand::DemandProfile::uniform(
        config.items.max(1),
        config.profile.nodes().max(1),
    );
    if config.profile != uniform {
        return unsupported("non-uniform demand profiles");
    }
    if config.utility.requires_dedicated() {
        return Err(ConfigError::RequiresDedicated {
            utility: config.utility.kind().to_string(),
        });
    }
    if config.bin <= 0.0 || config.bin.is_nan() {
        return Err(ConfigError::InvalidBin { bin: config.bin });
    }
    if !(0.0..0.9).contains(&config.warmup_fraction) {
        return Err(ConfigError::InvalidWarmup {
            fraction: config.warmup_fraction,
        });
    }
    if config.rho.checked_mul(source.nodes()).is_none() {
        return Err(ConfigError::CacheOverflow {
            rho: config.rho,
            servers: source.nodes(),
        });
    }
    if let Some(faults) = &config.faults {
        faults.validate()?;
        if faults.churn.is_some() {
            // Churn gates contacts on a *global* per-node up/down state;
            // a lane cannot know toggles scheduled by other lanes'
            // events without a cross-shard barrier per contact.
            return unsupported("server churn (drop/cache/truncation faults are supported)");
        }
    }
    Ok(())
}

/// The `(start, len)` node block of each logical shard: contiguous,
/// sizes differing by at most one (empty blocks when `nodes <
/// LOGICAL_SHARDS`).
fn shard_blocks(nodes: usize) -> Vec<(usize, usize)> {
    let base = nodes / LOGICAL_SHARDS;
    let extra = nodes % LOGICAL_SHARDS;
    let mut blocks = Vec::with_capacity(LOGICAL_SHARDS);
    let mut start = 0;
    for s in 0..LOGICAL_SHARDS {
        let len = base + usize::from(s < extra);
        blocks.push((start, len));
        start += len;
    }
    blocks
}

/// Index of the cross lane for shard pair `s < t` in lexicographic
/// order.
fn cross_index(s: usize, t: usize) -> usize {
    debug_assert!(s < t && t < LOGICAL_SHARDS);
    s * (2 * LOGICAL_SHARDS - s - 1) / 2 + (t - s - 1)
}

/// Tournament rounds of phase B.
const ROUNDS: usize = LOGICAL_SHARDS - 1;

/// The shard that `s` meets in tournament round `round` (0..15) — the
/// circle method: shard 15 sits still, the rest rotate, so every round
/// pairs the 16 shards disjointly and across the 15 rounds every
/// unordered pair meets exactly once
/// (`tests::tournament_covers_every_pair_once`).
fn partner(round: usize, s: usize) -> usize {
    debug_assert!(round < ROUNDS && s < LOGICAL_SHARDS);
    if s == ROUNDS {
        round
    } else if s == round {
        ROUNDS
    } else {
        (2 * round + ROUNDS - s) % ROUNDS
    }
}

/// Which node pairs one contact lane covers.
#[derive(Clone, Copy)]
enum LaneKind {
    /// All pairs within one block.
    Intra { start: usize, n: usize },
    /// All pairs between two blocks (`start_a` block precedes
    /// `start_b`'s, so sampled pairs are already normalized `a < b`).
    Cross {
        start_a: usize,
        n_a: usize,
        start_b: usize,
        n_b: usize,
    },
}

/// A streaming contact sampler for one lane, batched through the compact
/// binary record format, with the lane's share of the fault model (the
/// Gilbert drop chain and trace truncation act per lane; cache faults
/// are global and live at the epoch boundary).
struct LaneContacts {
    rng: Xoshiro256,
    kind: LaneKind,
    /// Total Poisson rate of the lane (μ × pair count).
    rate: f64,
    duration: f64,
    t: f64,
    lookahead: Option<ContactEvent>,
    done: bool,
    /// Encoded batch of upcoming events (≤ [`DEFAULT_BATCH`] records),
    /// reused across refills — the lane's whole trace memory.
    buf: Vec<u8>,
    pos: usize,
    // Fault model.
    drop: Option<ContactDrop>,
    in_burst: bool,
    drop_rng: Xoshiro256,
    truncate_at: f64,
    truncation_reported: bool,
}

impl LaneContacts {
    fn new(
        kind: LaneKind,
        mu: f64,
        duration: f64,
        rng: Xoshiro256,
        drop: Option<ContactDrop>,
        mut drop_rng: Xoshiro256,
        truncate_at: f64,
    ) -> Self {
        let pairs = match kind {
            LaneKind::Intra { n, .. } => n * n.saturating_sub(1) / 2,
            LaneKind::Cross { n_a, n_b, .. } => n_a * n_b,
        };
        // Warm the Gilbert chain exactly like the serial FaultState: the
        // first decision is already stationary.
        let in_burst = match drop {
            Some(d) => drop_rng.bernoulli(d.p),
            None => false,
        };
        let mut lane = LaneContacts {
            rng,
            kind,
            rate: mu * pairs as f64,
            duration,
            t: 0.0,
            lookahead: None,
            done: false,
            buf: Vec::new(),
            pos: 0,
            drop,
            in_burst,
            drop_rng,
            truncate_at,
            truncation_reported: false,
        };
        if lane.rate <= 0.0 {
            lane.done = true;
        } else {
            lane.advance();
        }
        lane
    }

    /// Sample the next event into `lookahead` (or mark the lane done).
    fn advance(&mut self) {
        if self.done {
            self.lookahead = None;
            return;
        }
        self.t += self.rng.exp(self.rate);
        if !self.t.is_finite() || self.t > self.duration {
            self.done = true;
            self.lookahead = None;
            return;
        }
        let (a, b) = match self.kind {
            LaneKind::Intra { start, n } => {
                let pairs = (n * (n - 1) / 2) as u64;
                let (la, lb) = pair_from_index(n, self.rng.below(pairs));
                (start as u32 + la, start as u32 + lb)
            }
            LaneKind::Cross {
                start_a,
                n_a,
                start_b,
                n_b,
            } => (
                (start_a + self.rng.index(n_a)) as u32,
                (start_b + self.rng.index(n_b)) as u32,
            ),
        };
        self.lookahead = Some(ContactEvent { time: self.t, a, b });
    }

    /// Refill the batch buffer with events strictly before `limit`.
    fn refill(&mut self, limit: f64) {
        self.buf.clear();
        self.pos = 0;
        while self.buf.len() < DEFAULT_BATCH * RECORD_BYTES {
            match self.lookahead {
                Some(e) if e.time < limit => {
                    encode_record(&e, &mut self.buf);
                    self.advance();
                }
                _ => break,
            }
        }
    }

    /// Next buffered event before `limit` without consuming it.
    fn peek_before(&mut self, limit: f64) -> Option<ContactEvent> {
        if self.pos == self.buf.len() {
            self.refill(limit);
            if self.buf.is_empty() {
                return None;
            }
        }
        Some(decode_record_unchecked(
            &self.buf[self.pos..self.pos + RECORD_BYTES],
        ))
    }

    /// Consume the next event before `limit`.
    fn next_before(&mut self, limit: f64) -> Option<ContactEvent> {
        let e = self.peek_before(limit)?;
        self.pos += RECORD_BYTES;
        Some(e)
    }

    /// Fault admission for a sampled contact: truncation first, then one
    /// Gilbert transition per surviving contact — the serial
    /// `FaultState::admit_contact` restricted to this lane's chain.
    fn admit(&mut self, e: &ContactEvent, ctx: &mut TaskCtx) -> bool {
        if e.time > self.truncate_at {
            if !self.truncation_reported {
                self.truncation_reported = true;
                ctx.faults.push(FaultRecord {
                    time: self.truncate_at,
                    kind: "trace_truncated",
                    node: 0,
                    aux: 0,
                });
            }
            ctx.metrics.contacts_dropped += 1;
            return false;
        }
        if let Some(drop) = self.drop {
            if self.in_burst {
                if self.drop_rng.bernoulli(1.0 / drop.mean_burst) {
                    self.in_burst = false;
                }
            } else {
                let enter = drop.p / (drop.mean_burst * (1.0 - drop.p));
                if self.drop_rng.bernoulli(enter) {
                    self.in_burst = true;
                }
            }
            if self.in_burst {
                ctx.metrics.contacts_dropped += 1;
                ctx.faults.push(FaultRecord {
                    time: e.time,
                    kind: "contact_drop",
                    node: e.a,
                    aux: e.b,
                });
                return false;
            }
        }
        true
    }
}

/// One shard's node-owned state: the block's caches, pending requests,
/// per-item replica counts *within the block*, and QCR mandate pools
/// (locally indexed), plus a shared view of the trial's sticky seeds.
struct ShardState {
    start: usize,
    len: usize,
    caches: CacheArena,
    replicas: Vec<u32>,
    mandates: Vec<MandatePool>,
    sticky_owner: Arc<[usize]>,
    requests: RequestArena<f64>,
    transmissions: u64,
}

impl ShardState {
    /// Empty caches for the block `start..start + len`; the sticky seeds
    /// are filled in once the whole population is seeded.
    fn new(start: usize, len: usize, items: usize, rho: usize, eviction: EvictionPolicy) -> Self {
        let mut caches = CacheArena::new(len, len, rho);
        caches.set_eviction(eviction);
        let mut requests = RequestArena::new();
        requests.reset(len);
        ShardState {
            start,
            len,
            caches,
            replicas: vec![0; items],
            mandates: vec![MandatePool::new(); len],
            sticky_owner: Arc::default(),
            requests,
            transmissions: 0,
        }
    }
}

/// The shard states in block order, addressed by global node id: the
/// cache initializers seed the blocks in place, with the RNG draws of a
/// whole-population seeding.
impl NodeCaches for [ShardState] {
    fn nodes(&self) -> usize {
        self.last().map_or(0, |s| s.start + s.len)
    }

    fn items(&self) -> usize {
        self.first().map_or(0, |s| s.replicas.len())
    }

    fn capacity_of(&self, n: usize) -> usize {
        let s = &self[shard_of(self, n)];
        s.caches.capacity_of(n - s.start)
    }

    fn cache_mut(&mut self, n: usize) -> (CacheMut<'_>, &mut [u32]) {
        let s = &mut self[shard_of(self, n)];
        (s.caches.node_mut(n - s.start), &mut s.replicas)
    }
}

/// Index of the shard whose block holds node `n` (empty blocks sit at
/// the end and never match).
fn shard_of(states: &[ShardState], n: usize) -> usize {
    states.partition_point(|s| s.start <= n) - 1
}

/// Per-task accumulators: everything a task writes that outlives it,
/// merged in fixed order after the trial.
struct TaskCtx {
    rng: Xoshiro256,
    metrics: Metrics,
    fulfilled: Vec<Fulfillment>,
    waits: Vec<f64>,
    gains: Vec<f64>,
    digest: u64,
    contacts: u64,
    faults: Vec<FaultRecord>,
}

impl TaskCtx {
    fn new(rng: Xoshiro256, duration: f64, bin: f64) -> Self {
        TaskCtx {
            rng,
            metrics: Metrics::new(duration, bin),
            fulfilled: Vec::new(),
            waits: Vec::new(),
            gains: Vec::new(),
            digest: FNV64_OFFSET,
            contacts: 0,
            faults: Vec::new(),
        }
    }
}

/// A phase-A task: shard state plus its intra lane and request process.
struct Shard {
    state: ShardState,
    ctx: TaskCtx,
    contacts: LaneContacts,
    req_rng: Xoshiro256,
    req_rate: f64,
    next_request: f64,
}

/// A phase-B task: the cross lane of one shard pair (shard states are
/// lent to it for the round).
struct CrossLane {
    contacts: LaneContacts,
    ctx: TaskCtx,
}

/// Immutable per-trial context shared (read-only) by every task.
struct SimEnv {
    utility: Arc<dyn DelayUtility>,
    h_zero: f64,
    item_sampler: Option<AliasTable>,
    /// The QCR protocol, for mandate-driven policies.
    qcr: Option<QcrParams>,
}

/// The one or two shard states a meeting touches, with node-id-keyed
/// accessors so the meeting logic is written once for both phases.
enum Ends<'a> {
    One(&'a mut ShardState),
    /// Ordered: `.0`'s block precedes `.1`'s.
    Two(&'a mut ShardState, &'a mut ShardState),
}

impl Ends<'_> {
    fn state_of(&self, node: usize) -> &ShardState {
        match self {
            Ends::One(s) => s,
            Ends::Two(sa, sb) => {
                if node >= sb.start {
                    sb
                } else {
                    sa
                }
            }
        }
    }

    fn state_of_mut(&mut self, node: usize) -> &mut ShardState {
        match self {
            Ends::One(s) => s,
            Ends::Two(sa, sb) => {
                if node >= sb.start {
                    sb
                } else {
                    sa
                }
            }
        }
    }

    /// Both-direction request fulfillment at a meeting, exactly as the
    /// serial exchange: pending requests of each side are walked in
    /// insertion order against the peer's cache; misses increment query
    /// counters. The `created > time` guard skips requests the owning
    /// shard created *later in the epoch* than this cross-shard meeting
    /// — they do not exist yet at the meeting's own time.
    fn exchange(&mut self, time: f64, a: usize, b: usize, fulfilled: &mut Vec<Fulfillment>) {
        for (n, m) in [(a, b), (b, a)] {
            match self {
                Ends::One(s) => {
                    let ShardState {
                        start,
                        caches,
                        requests,
                        ..
                    } = &mut **s;
                    let cache_m = caches.node(m - *start);
                    if cache_m.capacity() == 0 {
                        continue;
                    }
                    requests.retain(n - *start, |item, created, queries| {
                        keep_or_fulfill(cache_m, n, item, created, queries, time, fulfilled)
                    });
                }
                Ends::Two(sa, sb) => {
                    let (sn, sm): (&mut ShardState, &ShardState) =
                        if n >= sb.start { (sb, sa) } else { (sa, sb) };
                    let cache_m = sm.caches.node(m - sm.start);
                    if cache_m.capacity() == 0 {
                        continue;
                    }
                    let start_n = sn.start;
                    sn.requests.retain(n - start_n, |item, created, queries| {
                        keep_or_fulfill(cache_m, n, item, created, queries, time, fulfilled)
                    });
                }
            }
        }
    }

    /// LRU bookkeeping: serving a request counts as a use of the
    /// server's copy.
    fn touch(&mut self, node: usize, item: u32) {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        s.caches.node_mut(local).touch(item);
    }
}

impl MandateHost for Ends<'_> {
    fn holds(&self, node: usize, item: u32) -> bool {
        let s = self.state_of(node);
        s.caches.holds(node - s.start, item)
    }

    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool {
        let s = self.state_of_mut(node);
        let cache = s.caches.node_mut(node - s.start);
        copy_into(cache, item, &mut s.replicas, &mut s.transmissions, rng)
    }

    fn pool(&self, node: usize) -> &MandatePool {
        let s = self.state_of(node);
        &s.mandates[node - s.start]
    }

    fn pool_mut(&mut self, node: usize) -> &mut MandatePool {
        let s = self.state_of_mut(node);
        let local = node - s.start;
        &mut s.mandates[local]
    }

    fn sticky_owner(&self, item: u32) -> usize {
        let (Ends::One(s) | Ends::Two(s, _)) = self;
        s.sticky_owner[item as usize]
    }
}

/// The retain body shared by both `Ends` variants.
fn keep_or_fulfill(
    cache_m: crate::state::CacheRef<'_>,
    n: usize,
    item: u32,
    created: f64,
    queries: &mut u64,
    time: f64,
    fulfilled: &mut Vec<Fulfillment>,
) -> bool {
    if created > time {
        return true; // not yet created at this meeting's time
    }
    if cache_m.holds(item) {
        fulfilled.push(Fulfillment {
            node: n,
            item,
            queries: *queries + 1,
            wait: time - created,
        });
        false
    } else {
        *queries += 1;
        true
    }
}

/// One word-wise FNV-1a step of the event digest.
#[inline]
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV64_PRIME)
}

/// Process one admitted meeting: exchange, gains, then the policy step.
fn process_meeting(
    time: f64,
    a: usize,
    b: usize,
    ends: &mut Ends<'_>,
    ctx: &mut TaskCtx,
    env: &SimEnv,
) {
    ctx.contacts += 1;
    ctx.fulfilled.clear();
    ends.exchange(time, a, b, &mut ctx.fulfilled);
    for f in ctx.fulfilled.iter() {
        let server = if f.node == a { b } else { a };
        ends.touch(server, f.item);
    }
    // Batched gain evaluation, identical to the serial engine.
    ctx.waits.clear();
    ctx.waits.extend(ctx.fulfilled.iter().map(|f| f.wait));
    ctx.gains.clear();
    env.utility.h_batch(&ctx.waits, &mut ctx.gains);
    for &gain in ctx.gains.iter() {
        ctx.metrics.record_fulfillment(time, gain);
    }
    ctx.digest = fnv(
        fnv(fnv(fnv(ctx.digest, time.to_bits()), a as u64), b as u64),
        ctx.fulfilled.len() as u64,
    );
    if let Some(qcr) = &env.qcr {
        qcr.meet(ends, a, b, &ctx.fulfilled, &mut ctx.metrics, &mut ctx.rng);
    }
}

/// Phase A for one shard: intra-shard contacts and request arrivals,
/// merged in time order (requests win ties, as in the serial loop),
/// strictly below `limit`.
fn run_phase_a(shard: &mut Shard, env: &SimEnv, limit: f64, duration: f64) {
    let _span = impatience_obs::span!("shard");
    loop {
        let ct = shard
            .contacts
            .peek_before(limit)
            .map_or(f64::INFINITY, |e| e.time);
        let rt = if shard.next_request < limit && shard.next_request <= duration {
            shard.next_request
        } else {
            f64::INFINITY
        };
        if !ct.is_finite() && !rt.is_finite() {
            break;
        }
        if rt <= ct {
            let sampler = env.item_sampler.as_ref().expect("arrivals imply demand");
            let item = sampler.sample(&mut shard.req_rng) as u32;
            let local = shard.req_rng.index(shard.state.len);
            shard.ctx.metrics.requests_created += 1;
            if shard.state.caches.holds(local, item) {
                shard.ctx.metrics.immediate_hits += 1;
                shard.ctx.metrics.record_fulfillment(rt, env.h_zero);
            } else {
                shard.state.requests.push(local, item, rt);
            }
            shard.next_request = rt + shard.req_rng.exp(shard.req_rate);
        } else {
            let e = shard.contacts.next_before(limit).expect("peeked above");
            if !shard.contacts.admit(&e, &mut shard.ctx) {
                continue;
            }
            let (a, b) = (e.a as usize, e.b as usize);
            let mut ends = Ends::One(&mut shard.state);
            process_meeting(e.time, a, b, &mut ends, &mut shard.ctx, env);
        }
    }
}

/// Phase B for one shard pair: drain the cross lane below `limit`.
fn run_phase_b(
    sa: &mut ShardState,
    sb: &mut ShardState,
    lane: &mut CrossLane,
    env: &SimEnv,
    limit: f64,
) {
    let _span = impatience_obs::span!("cross");
    while let Some(e) = lane.contacts.next_before(limit) {
        if !lane.contacts.admit(&e, &mut lane.ctx) {
            continue;
        }
        let (a, b) = (e.a as usize, e.b as usize);
        let mut ends = Ends::Two(sa, sb);
        process_meeting(e.time, a, b, &mut ends, &mut lane.ctx, env);
    }
}

/// Minimum expected events in an epoch before its tasks are worth
/// handing to worker threads; below it they run inline on the calling
/// thread. Purely a scheduling decision — results are identical either
/// way — but it keeps small populations (whose whole epoch is a handful
/// of events) faster single-threaded than threaded.
const PARALLEL_THRESHOLD: f64 = 4096.0;

/// Epochs per metrics bin, and the epoch width.
///
/// The exchange epoch must be short against the fastest dynamics a
/// request sees — the per-node meeting process, rate μ(n−1) — because
/// within one epoch a shard's intra contacts run before its cross
/// contacts regardless of event times, so waits can be mis-ordered by up
/// to one epoch width. Subdividing each metrics bin so an epoch spans
/// about one per-node inter-meeting time keeps that reordering error far
/// below typical fulfillment delays; the cap bounds the per-epoch
/// overhead when μ·n·bin is huge.
fn epoch_plan(nodes: usize, mu: f64, bin: f64) -> (usize, f64) {
    let per_bin = ((bin * mu * nodes.saturating_sub(1) as f64).ceil() as usize).clamp(1, 256);
    (per_bin, bin / per_bin as f64)
}

/// Threads [`run_trial_sharded`] runs each epoch's tasks on, the calling
/// thread included: `workers` (capped at the 16 tasks that can run at
/// once) when an epoch expects at least `PARALLEL_THRESHOLD` (4096) events —
/// μ·C(n, 2)·w contacts plus demand·w requests for epoch width `w` —
/// and 1 (inline) otherwise.
pub fn epoch_threads(config: &SimConfig, source: &ContactSource, workers: usize) -> usize {
    let ContactSource::Homogeneous { nodes, mu, .. } = *source else {
        return 1;
    };
    let (_, width) = epoch_plan(nodes, mu, config.bin);
    let pairs = nodes as f64 * nodes.saturating_sub(1) as f64 / 2.0;
    let events = (mu * pairs + config.demand.total()) * width;
    if events >= PARALLEL_THRESHOLD {
        workers.clamp(1, LOGICAL_SHARDS)
    } else {
        1
    }
}

/// One task of an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Task {
    /// Phase A of one shard.
    Intra(usize),
    /// Phase B: the cross lane of shards `s < t`, in tournament round
    /// `round`.
    Cross { round: usize, s: usize, t: usize },
}

/// Dependency bookkeeping of one epoch. Shard `s` runs its phase-A task,
/// then its lane of round 0, 1, …, 14; the lane of `s` and `t` in round
/// `r` is ready once both have finished round `r − 1` (phase A when
/// `r = 0`). Every shard state therefore sees the same task sequence
/// whatever order the workers pick ready tasks in.
#[derive(Default)]
struct Schedule {
    /// Tasks finished per shard: 0 before phase A, `r + 1` once the lane
    /// of round `r − 1` is done (phase A counts as round −1).
    finished: [usize; LOGICAL_SHARDS],
}

impl Schedule {
    /// The tasks ready at the start of an epoch: every shard's phase A.
    fn first_tasks() -> impl Iterator<Item = Task> {
        (0..LOGICAL_SHARDS).map(Task::Intra)
    }

    /// Record `task` finished and queue the lanes it made ready.
    fn finish(&mut self, task: Task, ready: &mut VecDeque<Task>) {
        let (first, second) = match task {
            Task::Intra(s) => (s, None),
            Task::Cross { s, t, .. } => (s, Some(t)),
        };
        for x in std::iter::once(first).chain(second) {
            self.finished[x] += 1;
        }
        for x in std::iter::once(first).chain(second) {
            let round = self.finished[x] - 1;
            if round == ROUNDS {
                continue;
            }
            let y = partner(round, x);
            if self.finished[y] == self.finished[x] {
                ready.push_back(Task::Cross {
                    round,
                    s: x.min(y),
                    t: x.max(y),
                });
            }
        }
    }
}

/// What the workers of one epoch share: the task states, each lent to
/// at most one running task, the schedule and its ready queue.
struct Board<'a> {
    shards: Vec<Option<&'a mut Shard>>,
    lanes: Vec<Option<&'a mut CrossLane>>,
    schedule: Schedule,
    ready: VecDeque<Task>,
    /// Tasks not yet finished this epoch.
    remaining: usize,
    /// Tasks lent to a worker right now.
    running: usize,
    /// Workers waiting for a ready task.
    idle: usize,
    /// A task panicked: every worker stops.
    failed: bool,
}

fn lock<'m, 'a>(board: &'m Mutex<Board<'a>>) -> MutexGuard<'m, Board<'a>> {
    board
        .lock()
        .expect("no worker panics while holding the board")
}

/// Stops the other workers when a task panics on this one, so the scope
/// joins and re-raises the panic instead of waiting forever.
struct StopOnPanic<'m, 'a> {
    board: &'m Mutex<Board<'a>>,
    wake: &'m Condvar,
}

impl Drop for StopOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut b = self.board.lock().unwrap_or_else(PoisonError::into_inner);
            b.failed = true;
            self.wake.notify_all();
        }
    }
}

/// Run every task of one epoch, strictly below `limit`, on `threads`
/// threads: the calling thread plus `threads − 1` spawned for this epoch
/// (none when `threads` is 1). Any worker takes any ready task; each
/// task owns all the state it touches while it runs, so the thread
/// assignment cannot influence any result bit.
fn run_epoch(
    shards: &mut [Shard],
    lanes: &mut [CrossLane],
    env: &SimEnv,
    limit: f64,
    duration: f64,
    threads: usize,
) {
    let board = Mutex::new(Board {
        shards: shards.iter_mut().map(Some).collect(),
        lanes: lanes.iter_mut().map(Some).collect(),
        schedule: Schedule::default(),
        ready: Schedule::first_tasks().collect(),
        remaining: LOGICAL_SHARDS + CROSS_LANES,
        running: 0,
        idle: 0,
        failed: false,
    });
    let wake = Condvar::new();
    let work = || work(&board, &wake, env, limit, duration);
    if threads <= 1 {
        work();
        return;
    }
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _span = impatience_obs::span!("sharded_worker");
                work();
            });
        }
        work();
    });
}

/// One worker's loop: take a ready task, run it with the board
/// unlocked, return its state and queue what it made ready, until the
/// epoch is done. Idle time is the `wait` span.
fn work(board: &Mutex<Board<'_>>, wake: &Condvar, env: &SimEnv, limit: f64, duration: f64) {
    let _stop = StopOnPanic { board, wake };
    let mut b = lock(board);
    loop {
        if b.failed || b.remaining == 0 {
            return;
        }
        let Some(task) = b.ready.pop_front() else {
            assert!(
                b.running > 0,
                "shard schedule stalled with {} tasks left",
                b.remaining
            );
            let _span = impatience_obs::span!("wait");
            b.idle += 1;
            b = wake
                .wait(b)
                .expect("no worker panics while holding the board");
            b.idle -= 1;
            continue;
        };
        b.running += 1;
        match task {
            Task::Intra(s) => {
                let shard = b.shards[s].take().expect("a ready shard is idle");
                drop(b);
                run_phase_a(shard, env, limit, duration);
                b = lock(board);
                b.shards[s] = Some(shard);
            }
            Task::Cross { s, t, .. } => {
                let j = cross_index(s, t);
                let sa = b.shards[s].take().expect("a ready shard is idle");
                let sb = b.shards[t].take().expect("a ready shard is idle");
                let lane = b.lanes[j].take().expect("each lane runs once");
                drop(b);
                run_phase_b(&mut sa.state, &mut sb.state, lane, env, limit);
                b = lock(board);
                b.shards[s] = Some(sa);
                b.shards[t] = Some(sb);
                b.lanes[j] = Some(lane);
            }
        }
        b.running -= 1;
        b.remaining -= 1;
        let Board {
            schedule, ready, ..
        } = &mut *b;
        schedule.finish(task, ready);
        if b.remaining == 0 {
            wake.notify_all();
        } else {
            // This worker takes one ready task itself.
            for _ in 0..b.ready.len().saturating_sub(1).min(b.idle) {
                wake.notify_one();
            }
        }
    }
}

/// The Poisson clock of global cache-slot faults, applied serially at
/// epoch boundaries (a global process cannot be owned by any one task).
struct CacheFaultClock {
    next: f64,
    rate: f64,
    rng: Xoshiro256,
    servers: usize,
}

/// Run one sharded trial. `workers` is the number of OS threads used to
/// execute the fixed per-shard/per-lane task set; any value produces
/// bit-identical output (see the module docs).
///
/// # Errors
/// [`ConfigError`] when the configuration is outside the supported
/// subset ([`validate_sharded`]).
///
/// # Panics
/// Panics for trial seeds listed in `FaultConfig::panic_on_seeds`
/// (the chaos hook), exactly like the serial engine.
pub fn run_trial_sharded(
    config: &SimConfig,
    source: &ContactSource,
    policy: PolicyKind,
    seed: u64,
    workers: usize,
) -> Result<ShardedOutcome, ConfigError> {
    validate_sharded(config, source, &policy)?;
    let _trial_span = impatience_obs::span!("sharded_trial");
    let (nodes, mu, duration) = match source {
        ContactSource::Homogeneous {
            nodes,
            mu,
            duration,
        } => (*nodes, *mu, *duration),
        ContactSource::Trace(_) => unreachable!("validated"),
    };
    let (items, rho, bin) = (config.items, config.rho, config.bin);
    if let Some(f) = &config.faults {
        assert!(
            !f.panic_on_seeds.contains(&seed),
            "fault injection: chaos panic for trial seed {seed}"
        );
    }
    let faults = config.faults.as_ref().filter(|f| f.is_active());
    let blocks = shard_blocks(nodes);

    // ---- fixed RNG derivation order (independent of everything else) ----
    let mut master = Xoshiro256::seed_from_u64(seed);
    let mut intra_rngs: Vec<Xoshiro256> = (0..LOGICAL_SHARDS)
        .map(|s| master.split(LANE_CONTACT_STREAM ^ s as u64))
        .collect();
    let mut cross_rngs: Vec<Xoshiro256> = (0..CROSS_LANES)
        .map(|j| master.split(LANE_CONTACT_STREAM ^ (LOGICAL_SHARDS + j) as u64))
        .collect();
    let mut req_rngs: Vec<Xoshiro256> = (0..LOGICAL_SHARDS)
        .map(|s| master.split(SHARD_REQUEST_STREAM ^ s as u64))
        .collect();
    let mut shard_policy_rngs: Vec<Xoshiro256> = (0..LOGICAL_SHARDS)
        .map(|s| master.split(SHARD_POLICY_STREAM ^ s as u64))
        .collect();
    let mut lane_policy_rngs: Vec<Xoshiro256> = (0..CROSS_LANES)
        .map(|j| master.split(LANE_POLICY_STREAM ^ j as u64))
        .collect();
    // Fault streams fork from the fault base, never from the master.
    let (mut lane_drop_rngs, cache_clock, truncate_at, drop_cfg) = match faults {
        Some(f) => {
            let mut base = Xoshiro256::seed_from_u64(seed ^ f.seed.rotate_left(23));
            let drops: Vec<Xoshiro256> = (0..LOGICAL_SHARDS + CROSS_LANES)
                .map(|l| base.split(LANE_DROP_STREAM ^ l as u64))
                .collect();
            let mut cache_rng = base.split(CACHE_FAULT_STREAM);
            let rate = f.cache.map_or(0.0, |c| c.rate) * nodes as f64;
            let next = if rate > 0.0 {
                cache_rng.exp(rate)
            } else {
                f64::INFINITY
            };
            let clock = CacheFaultClock {
                next,
                rate,
                rng: cache_rng,
                servers: nodes,
            };
            let truncate_at = f.truncate_fraction.map_or(f64::INFINITY, |x| x * duration);
            (drops, Some(clock), truncate_at, f.drop)
        }
        None => (Vec::new(), None, f64::INFINITY, None),
    };
    let mut next_drop_rng = |l: usize| -> Xoshiro256 {
        if lane_drop_rngs.is_empty() {
            Xoshiro256::seed_from_u64(0)
        } else {
            std::mem::replace(&mut lane_drop_rngs[l], Xoshiro256::seed_from_u64(0))
        }
    };

    // ---- cache seeding, straight into the shard blocks ----
    let mut states: Vec<ShardState> = blocks
        .iter()
        .map(|&(start, len)| ShardState::new(start, len, items, rho, config.eviction))
        .collect();
    let mut sticky_owner = vec![usize::MAX; items];
    match &policy {
        PolicyKind::Static { counts, .. } => load_counts(&mut states[..], counts, &mut master),
        _ => seed_sticky_and_fill(&mut states[..], &mut sticky_owner, &mut master),
    }
    let sticky_owner: Arc<[usize]> = sticky_owner.into();
    let label = policy.label();
    let protocol_utility = config
        .protocol_utility
        .clone()
        .unwrap_or_else(|| config.utility.clone());
    let qcr = QcrParams::for_policy(&policy, protocol_utility, nodes, mu, items, rho);

    let total_rate = config.demand.total();
    let env = SimEnv {
        utility: config.utility.clone(),
        h_zero: config.utility.h_zero(),
        item_sampler: (total_rate > 0.0).then(|| AliasTable::new(config.demand.rates())),
        qcr,
    };

    // ---- build tasks ----
    let mut shards: Vec<Shard> = Vec::with_capacity(LOGICAL_SHARDS);
    for (s, mut state) in states.into_iter().enumerate() {
        let (start, len) = blocks[s];
        state.sticky_owner = Arc::clone(&sticky_owner);
        let req_rate = if nodes > 0 {
            total_rate * len as f64 / nodes as f64
        } else {
            0.0
        };
        let mut req_rng = std::mem::replace(&mut req_rngs[s], Xoshiro256::seed_from_u64(0));
        let next_request = if req_rate > 0.0 {
            req_rng.exp(req_rate)
        } else {
            f64::INFINITY
        };
        shards.push(Shard {
            state,
            ctx: TaskCtx::new(
                std::mem::replace(&mut shard_policy_rngs[s], Xoshiro256::seed_from_u64(0)),
                duration,
                bin,
            ),
            contacts: LaneContacts::new(
                LaneKind::Intra { start, n: len },
                mu,
                duration,
                std::mem::replace(&mut intra_rngs[s], Xoshiro256::seed_from_u64(0)),
                drop_cfg,
                next_drop_rng(s),
                truncate_at,
            ),
            req_rng,
            req_rate,
            next_request,
        });
    }
    let mut lanes: Vec<CrossLane> = Vec::with_capacity(CROSS_LANES);
    for s in 0..LOGICAL_SHARDS {
        for t in (s + 1)..LOGICAL_SHARDS {
            let j = cross_index(s, t);
            lanes.push(CrossLane {
                contacts: LaneContacts::new(
                    LaneKind::Cross {
                        start_a: blocks[s].0,
                        n_a: blocks[s].1,
                        start_b: blocks[t].0,
                        n_b: blocks[t].1,
                    },
                    mu,
                    duration,
                    std::mem::replace(&mut cross_rngs[j], Xoshiro256::seed_from_u64(0)),
                    drop_cfg,
                    next_drop_rng(LOGICAL_SHARDS + j),
                    truncate_at,
                ),
                ctx: TaskCtx::new(
                    std::mem::replace(&mut lane_policy_rngs[j], Xoshiro256::seed_from_u64(0)),
                    duration,
                    bin,
                ),
            });
        }
    }

    // ---- epoch loop ----
    let (epochs_per_bin, epoch_width) = epoch_plan(nodes, mu, bin);
    let threads = epoch_threads(config, source, workers);
    let mut metrics = Metrics::new(duration, bin);
    let mut boundary_faults: Vec<FaultRecord> = Vec::new();
    let mut cache_clock = cache_clock;
    let snapshot_system = (mu > 0.0).then(|| SystemModel::pure_p2p(nodes, rho, mu));
    let mut replica_sum = vec![0u32; items];
    let bins = (duration / bin).ceil() as usize;
    let total_epochs = bins * epochs_per_bin;
    for epoch in 0..total_epochs {
        let (bin_idx, sub) = (epoch / epochs_per_bin, epoch % epochs_per_bin);
        let boundary = bin_idx as f64 * bin + sub as f64 * epoch_width;
        let limit = if epoch + 1 == total_epochs {
            f64::INFINITY
        } else {
            let (nb, ns) = ((epoch + 1) / epochs_per_bin, (epoch + 1) % epochs_per_bin);
            nb as f64 * bin + ns as f64 * epoch_width
        };
        // Serial boundary: at bin starts, snapshot on the summed
        // replicas (the state every lane saw at the end of the previous
        // epoch); at every epoch boundary, the global cache faults due
        // by it.
        if let Some(system) = snapshot_system.as_ref().filter(|_| sub == 0) {
            let _span = impatience_obs::span!("snapshot");
            replica_sum.iter_mut().for_each(|r| *r = 0);
            for sh in &shards {
                for (i, &r) in sh.state.replicas.iter().enumerate() {
                    replica_sum[i] += r;
                }
            }
            metrics.record_snapshot(
                boundary,
                &replica_sum,
                system,
                &config.demand,
                config.utility.as_ref(),
            );
        }
        if let Some(clock) = cache_clock.as_mut() {
            while clock.next <= boundary {
                let when = clock.next;
                clock.next += clock.rng.exp(clock.rate);
                let node = clock.rng.index(clock.servers);
                let s = blocks.partition_point(|&(start, _)| start <= node) - 1;
                let state = &mut shards[s].state;
                let local = node - state.start;
                if let Some(item) = state
                    .caches
                    .node_mut(local)
                    .drop_random_non_sticky(&mut clock.rng)
                {
                    state.replicas[item as usize] -= 1;
                    metrics.cache_faults += 1;
                    boundary_faults.push(FaultRecord {
                        time: when,
                        kind: "cache_fault",
                        node: node as u32,
                        aux: item,
                    });
                }
            }
        }
        run_epoch(&mut shards, &mut lanes, &env, limit, duration, threads);
    }

    // ---- settlement and fixed-order reduction ----
    let _settle_span = impatience_obs::span!("settle");
    let h_inf = config.utility.h_infinity();
    let mut final_replicas = vec![0u32; items];
    let mut event_digest = FNV64_OFFSET;
    let mut contacts_processed = 0;
    let mut fault_log = boundary_faults;
    for sh in shards.iter_mut() {
        sh.ctx.metrics.unfulfilled = sh.state.requests.len();
        for (_, _, created) in sh.state.requests.iter() {
            let age = (duration - created).max(f64::MIN_POSITIVE);
            let gain = if h_inf.is_finite() {
                h_inf
            } else {
                config.utility.h(age)
            };
            sh.ctx.metrics.record_settlement(duration, gain);
        }
        sh.ctx.metrics.transmissions = sh.state.transmissions;
        metrics.merge(&sh.ctx.metrics);
        for (i, &r) in sh.state.replicas.iter().enumerate() {
            final_replicas[i] += r;
        }
        event_digest = fnv(fnv(event_digest, sh.ctx.digest), sh.state.transmissions);
        contacts_processed += sh.ctx.contacts;
        fault_log.append(&mut sh.ctx.faults);
    }
    for lane in lanes.iter_mut() {
        metrics.merge(&lane.ctx.metrics);
        event_digest = fnv(event_digest, lane.ctx.digest);
        contacts_processed += lane.ctx.contacts;
        fault_log.append(&mut lane.ctx.faults);
    }

    Ok(ShardedOutcome {
        outcome: TrialOutcome {
            metrics,
            final_replicas,
            label,
        },
        fault_log,
        event_digest,
        contacts_processed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CacheFaults, Churn, FaultConfig};
    use crate::policy::scenarios::{self, Scenario};
    use crate::state::SimState;
    use impatience_core::demand::Popularity;
    use impatience_core::prelude::uniform;
    use impatience_core::utility::Step;

    /// A shard block `start..start + 2` for the shared QCR scenarios:
    /// scenario end `e` (if any) sits at `ends[e]`, a local index.
    fn scenario_block(
        s: &Scenario,
        start: usize,
        ends: [Option<usize>; 2],
        sticky_owner: &Arc<[usize]>,
    ) -> ShardState {
        let mut caches = CacheArena::new(2, 2, 2);
        let mut replicas = vec![0; scenarios::ITEMS];
        for (e, local) in ends.iter().enumerate() {
            if let Some(local) = *local {
                s.load_cache(e, caches.node_mut(local));
                for &item in s.caches[e] {
                    replicas[item as usize] += 1;
                }
            }
        }
        let mut requests = RequestArena::new();
        requests.reset(2);
        ShardState {
            start,
            len: 2,
            caches,
            replicas,
            mandates: vec![MandatePool::new(); 2],
            sticky_owner: Arc::clone(sticky_owner),
            requests,
            transmissions: 0,
        }
    }

    #[test]
    fn qcr_scenarios_within_one_block() {
        for s in scenarios::SCENARIOS {
            let sticky: Arc<[usize]> = s.sticky_owners([0, 1]).into();
            let mut block = scenario_block(s, 0, [Some(0), Some(1)], &sticky);
            s.check(&mut Ends::One(&mut block), [0, 1]);
        }
    }

    #[test]
    fn qcr_scenarios_across_two_blocks() {
        // End 0 is node 1 (the last of block 0..2), end 1 is node 2 (the
        // first of block 2..4): both local-index offsets are exercised.
        for s in scenarios::SCENARIOS {
            let sticky: Arc<[usize]> = s.sticky_owners([1, 2]).into();
            let mut low = scenario_block(s, 0, [Some(1), None], &sticky);
            let mut high = scenario_block(s, 2, [None, Some(0)], &sticky);
            s.check(&mut Ends::Two(&mut low, &mut high), [1, 2]);
        }
    }

    fn small_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    fn faulty_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .faults(FaultConfig {
                seed: 9,
                drop: Some(ContactDrop {
                    p: 0.2,
                    mean_burst: 2.0,
                }),
                cache: Some(CacheFaults { rate: 0.002 }),
                truncate_fraction: Some(0.9),
                ..FaultConfig::default()
            })
            .build()
    }

    #[test]
    fn tournament_covers_every_pair_once() {
        let mut seen = vec![0u32; CROSS_LANES];
        for round in 0..ROUNDS {
            for s in 0..LOGICAL_SHARDS {
                let t = partner(round, s);
                assert!(t != s && t < LOGICAL_SHARDS, "round {round}: {s} meets {t}");
                assert_eq!(partner(round, t), s, "round {round} is not a pairing");
                if s < t {
                    seen[cross_index(s, t)] += 1;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    /// Run one epoch's schedule to the end, starting a random ready task
    /// or finishing a random running one at each step, and check what
    /// each shard saw: phase A, then rounds 0..15 in order, never two
    /// tasks at once, and every lane exactly once.
    fn drive_schedule(seed: u64) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut schedule = Schedule::default();
        let mut ready: VecDeque<Task> = Schedule::first_tasks().collect();
        let mut running: Vec<Task> = Vec::new();
        let mut seen: Vec<Vec<Option<usize>>> = vec![Vec::new(); LOGICAL_SHARDS];
        let mut busy = [false; LOGICAL_SHARDS];
        let mut lane_runs = vec![0u32; CROSS_LANES];
        while !ready.is_empty() || !running.is_empty() {
            let start = !ready.is_empty() && (running.is_empty() || rng.bernoulli(0.5));
            if start {
                let task = ready.remove(rng.index(ready.len())).unwrap();
                let (shards, round) = match task {
                    Task::Intra(s) => (vec![s], None),
                    Task::Cross { round, s, t } => {
                        assert!(s < t && partner(round, s) == t, "{task:?}");
                        lane_runs[cross_index(s, t)] += 1;
                        (vec![s, t], Some(round))
                    }
                };
                for x in shards {
                    assert!(!busy[x], "{task:?} starts while shard {x} is busy");
                    busy[x] = true;
                    seen[x].push(round);
                }
                running.push(task);
            } else {
                let task = running.swap_remove(rng.index(running.len()));
                match task {
                    Task::Intra(s) => busy[s] = false,
                    Task::Cross { s, t, .. } => (busy[s], busy[t]) = (false, false),
                }
                schedule.finish(task, &mut ready);
            }
        }
        let want: Vec<Option<usize>> = std::iter::once(None).chain((0..ROUNDS).map(Some)).collect();
        for (x, got) in seen.iter().enumerate() {
            assert_eq!(got, &want, "seed {seed}: shard {x}");
        }
        assert!(
            lane_runs.iter().all(|&c| c == 1),
            "seed {seed}: {lane_runs:?}"
        );
    }

    #[test]
    fn schedule_keeps_every_shard_sequence_in_any_completion_order() {
        for seed in 0..200 {
            drive_schedule(seed);
        }
    }

    /// Seeding the shard blocks in place draws the same numbers and
    /// leaves the same caches, sticky seeds and replica counts as seeding
    /// one whole-population state, for both initializers.
    #[test]
    fn block_seeding_matches_whole_population_seeding() {
        let (nodes, items, rho) = (23, 30, 3);
        let sizes = [5, 0, 7, 1, 10];
        let counts = uniform(items, nodes, rho);
        for fixed in [false, true] {
            let mut rng = Xoshiro256::seed_from_u64(14);
            let mut whole = SimState::new(nodes, items, rho);
            let mut states: Vec<ShardState> = Vec::new();
            let mut start = 0;
            for len in sizes {
                states.push(ShardState::new(
                    start,
                    len,
                    items,
                    rho,
                    EvictionPolicy::Random,
                ));
                start += len;
            }
            let mut block_rng = rng.clone();
            let mut sticky = vec![usize::MAX; items];
            if fixed {
                load_counts(&mut whole, &counts, &mut rng);
                load_counts(&mut states[..], &counts, &mut block_rng);
            } else {
                whole.seed_sticky_and_fill(&mut rng);
                seed_sticky_and_fill(&mut states[..], &mut sticky, &mut block_rng);
                assert_eq!(sticky, whole.sticky_owner);
            }
            assert_eq!(rng.next_u64(), block_rng.next_u64(), "same draws");
            let mut replicas = vec![0; items];
            for st in &states {
                for local in 0..st.len {
                    let (got, want) = (st.caches.node(local), whole.caches.node(st.start + local));
                    assert_eq!(got.items(), want.items());
                    assert_eq!(got.sticky_item(), want.sticky_item());
                }
                for (sum, r) in replicas.iter_mut().zip(&st.replicas) {
                    *sum += r;
                }
            }
            assert_eq!(replicas, whole.replicas, "fixed = {fixed}");
        }
    }

    #[test]
    fn blocks_partition_the_population() {
        for nodes in [0, 1, 5, 16, 17, 100, 1013] {
            let blocks = shard_blocks(nodes);
            assert_eq!(blocks.len(), LOGICAL_SHARDS);
            assert_eq!(blocks.iter().map(|b| b.1).sum::<usize>(), nodes);
            let mut expect = 0;
            for &(start, len) in &blocks {
                assert_eq!(start, expect);
                expect += len;
            }
            let (min, max) = blocks
                .iter()
                .fold((usize::MAX, 0), |(lo, hi), b| (lo.min(b.1), hi.max(b.1)));
            assert!(max - min <= 1, "uneven blocks for {nodes}: {blocks:?}");
        }
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        // The tentpole gate: same seed, 1/2/8 workers, fault injection on
        // — every artifact must match bit for bit.
        let config = faulty_config(10, 2);
        let source = ContactSource::homogeneous(48, 0.02, 1_000.0);
        let runs: Vec<ShardedOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&w| run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 7, w).unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.event_digest, runs[0].event_digest);
            assert_eq!(r.fault_log, runs[0].fault_log);
            assert_eq!(r.contacts_processed, runs[0].contacts_processed);
            assert_eq!(r.outcome.final_replicas, runs[0].outcome.final_replicas);
            let (a, b) = (&r.outcome.metrics, &runs[0].outcome.metrics);
            assert_eq!(a.observed_rate_series(), b.observed_rate_series());
            assert_eq!(a.expected_utility_series(), b.expected_utility_series());
            assert_eq!(a.requests_created, b.requests_created);
            assert_eq!(a.transmissions, b.transmissions);
            assert_eq!(a.contacts_dropped, b.contacts_dropped);
            assert_eq!(a.cache_faults, b.cache_faults);
            assert_eq!(a.unfulfilled, b.unfulfilled);
        }
        assert!(runs[0].outcome.metrics.contacts_dropped > 0, "drops active");
        assert!(!runs[0].fault_log.is_empty(), "faults recorded");
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(40, 0.03, 1_000.0);
        let a = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 3, 2).unwrap();
        let b = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 3, 2).unwrap();
        assert_eq!(a.event_digest, b.event_digest);
        assert_eq!(a.outcome.final_replicas, b.outcome.final_replicas);
        let c = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 4, 2).unwrap();
        assert_ne!(a.event_digest, c.event_digest);
    }

    #[test]
    fn qcr_preserves_cache_budget_and_serves_requests() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(40, 0.03, 2_000.0);
        let out = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 5, 2).unwrap();
        let m = &out.outcome.metrics;
        assert_eq!(out.outcome.label, "QCR");
        let total: u32 = out.outcome.final_replicas.iter().sum();
        assert_eq!(total, 80, "global cache must stay full");
        for (i, &r) in out.outcome.final_replicas.iter().enumerate() {
            assert!(r >= 1, "item {i} lost despite sticky replica");
        }
        assert!(m.requests_created > 300);
        assert!(
            m.fulfillments() > m.requests_created / 2,
            "most requests should be fulfilled ({} of {})",
            m.fulfillments(),
            m.requests_created
        );
        assert!(out.contacts_processed > 0);
        // Snapshots cover every bin.
        let series = m.expected_utility_series();
        assert_eq!(series.len(), 20);
        assert!(series.iter().all(|v| v.is_finite()), "{series:?}");
    }

    #[test]
    fn static_allocation_never_changes() {
        let items = 10;
        let counts = uniform(items, 40, 2);
        let config = small_config(items, 2);
        let source = ContactSource::homogeneous(40, 0.03, 1_000.0);
        let policy = PolicyKind::Static {
            label: "UNI",
            counts: counts.clone(),
        };
        let out = run_trial_sharded(&config, &source, policy, 5, 2).unwrap();
        assert_eq!(out.outcome.final_replicas, counts.counts());
        assert_eq!(out.outcome.metrics.transmissions, 0);
        assert_eq!(out.outcome.label, "UNI");
    }

    #[test]
    fn small_populations_leave_some_shards_empty() {
        let config = small_config(5, 1);
        let source = ContactSource::homogeneous(5, 0.05, 500.0);
        let out = run_trial_sharded(&config, &source, PolicyKind::qcr_default(), 1, 8).unwrap();
        assert!(out.outcome.metrics.requests_created > 0);
        assert_eq!(out.outcome.final_replicas.iter().sum::<u32>(), 5);
    }

    #[test]
    fn unsupported_configurations_are_rejected() {
        let config = small_config(5, 2);
        let source = ContactSource::homogeneous(20, 0.05, 500.0);
        let qcr = PolicyKind::qcr_default;
        // Trace source.
        let trace = ContactSource::trace(impatience_traces::ContactTrace::new(4, 10.0, vec![]));
        assert!(matches!(
            validate_sharded(&config, &trace, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Hill climbing.
        assert!(matches!(
            validate_sharded(
                &config,
                &source,
                &PolicyKind::HillClimb {
                    moves_per_contact: 1
                }
            ),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Dedicated population.
        let dedicated = SimConfig::builder(5, 2).dedicated_servers(4).build();
        assert!(matches!(
            validate_sharded(&dedicated, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Demand shifts.
        let shifted = SimConfig::builder(5, 2)
            .demand_shift(100.0, Popularity::pareto(5, 1.0).demand_rates(1.0))
            .build();
        assert!(matches!(
            validate_sharded(&shifted, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Churn.
        let churny = SimConfig::builder(5, 2)
            .faults(FaultConfig {
                churn: Some(Churn {
                    mean_up: 50.0,
                    mean_down: 10.0,
                }),
                ..FaultConfig::default()
            })
            .build();
        assert!(matches!(
            validate_sharded(&churny, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // Non-uniform profile.
        let clustered = SimConfig::builder(5, 2)
            .profile(impatience_core::demand::DemandProfile::clustered(
                5, 20, 4, 4.0,
            ))
            .build();
        assert!(matches!(
            validate_sharded(&clustered, &source, &qcr()),
            Err(ConfigError::UnsupportedSharded { .. })
        ));
        // The supported subset passes.
        validate_sharded(&config, &source, &qcr()).unwrap();
    }
}
