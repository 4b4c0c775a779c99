//! The deterministic discrete-event kernel hosting the node tasks.
//!
//! There is no wall clock and no thread scheduler anywhere in this
//! crate: one kernel runs one trial on one thread, driving independent
//! node state machines (`node::Node`) through a single
//! time-ordered event queue — message deliveries, link closures, node
//! timers, churn toggles, chaos injections, and supervisor sweeps. All
//! nondeterminism comes from seeded RNG streams (the trial RNG for
//! demand, one forked stream per node, and the PR 3 fault-seed
//! discipline for transport chaos), so a trial is a pure function of
//! `(config, source, net, seed)` — the same property the in-process
//! engine has, which is what makes differential verification against it
//! meaningful.
//!
//! The transport is an *unreliable link* abstraction: a contact from the
//! [`ContactSource`] opens a link for [`NetConfig::window`] minutes;
//! messages submitted on an open link arrive after a delay unless the
//! message-fault family ([`MsgFaults`]) loses, duplicates, or reorders
//! them; messages in flight when the link closes are dropped. Every
//! retry, timeout, and backoff in the node layer exists because of this
//! transport.

use std::borrow::Cow;
use std::collections::{BTreeMap, BinaryHeap};

use impatience_core::rng::{AliasTable, Xoshiro256};
use impatience_obs::{Recorder, Sink};
use impatience_sim::config::{ContactSource, SimConfig};
use impatience_sim::contact_bin::BatchedContacts;
use impatience_sim::faults::{FaultState, MsgFaults, MSG_STREAM_ID};
use impatience_sim::policy::QcrParams;
use impatience_sim::state::SimState;
use impatience_sim::Metrics;

use crate::config::{ChaosKind, NetConfig};
use crate::error::NetError;
use crate::node::{Ctx, Node, Timer};
use crate::wire::Msg;

/// Stream id for the per-node RNG forks (continues the
/// `sim::faults` stream-id family).
const NODE_STREAM_ID: u64 = 0xFA17_0005_0DE5_EED5;

/// Anti-wedge backstop when [`NetConfig::max_events`] is 0: no realistic
/// trial comes near it, and a protocol bug that loops cannot hang the
/// process — the run degrades instead.
const AUTO_EVENT_CAP: u64 = 20_000_000;

/// Transport/protocol counters of one trial (or, merged, of a batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames submitted to an open link (duplicates included).
    pub msgs_sent: u64,
    /// Frames delivered to a live node.
    pub msgs_delivered: u64,
    /// Frames destroyed by injected loss.
    pub msgs_lost: u64,
    /// Extra copies injected by duplication faults.
    pub msgs_duplicated: u64,
    /// Sends or deliveries on a closed link / to a dead node.
    pub transport_closed: u64,
    /// Protocol retransmissions (adverts, requests, handoffs).
    pub retries: u64,
    /// Transfers that exhausted their retry budget and parked.
    pub ack_timeouts: u64,
    /// Windows that closed without completing an advert exchange.
    pub handshake_timeouts: u64,
    /// Two-phase mandate transfers initiated.
    pub handoffs_started: u64,
    /// Custody handoffs applied at the receiver.
    pub handoffs_applied: u64,
    /// Acks received back at the escrow holder.
    pub acks_received: u64,
    /// Mandated copies actually written by an execute transfer.
    pub execs_applied: u64,
    /// Node crashes (churn schedule + chaos kills).
    pub crashes: u64,
    /// Node restarts from checkpoint.
    pub restarts: u64,
    /// Nodes condemned by the supervisor's heartbeat timeout.
    pub stalls: u64,
    /// Requests abandoned by the deadline budget.
    pub requests_expired: u64,
    /// Heartbeats observed by the supervisor.
    pub heartbeats: u64,
}

impl NetStats {
    /// Accumulate another trial's counters.
    pub fn merge(&mut self, o: &NetStats) {
        self.msgs_sent += o.msgs_sent;
        self.msgs_delivered += o.msgs_delivered;
        self.msgs_lost += o.msgs_lost;
        self.msgs_duplicated += o.msgs_duplicated;
        self.transport_closed += o.transport_closed;
        self.retries += o.retries;
        self.ack_timeouts += o.ack_timeouts;
        self.handshake_timeouts += o.handshake_timeouts;
        self.handoffs_started += o.handoffs_started;
        self.handoffs_applied += o.handoffs_applied;
        self.acks_received += o.acks_received;
        self.execs_applied += o.execs_applied;
        self.crashes += o.crashes;
        self.restarts += o.restarts;
        self.stalls += o.stalls;
        self.requests_expired += o.requests_expired;
        self.heartbeats += o.heartbeats;
    }
}

/// The quiesce-time mandate audit (exact `u64` arithmetic).
///
/// Invariant: `minted == executed + discarded + pooled + escrowed`.
/// Every mandate that entered a pool is either consumed by a (possibly
/// rejected) execution, destroyed at a documented cap clamp, sitting in
/// some node's pool, or escrowed in a transfer whose ack never arrived.
/// A crash mid-handoff moves mandates between these buckets but can
/// never change the sum — that is the point of the two-phase protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Mandates minted into pools over the trial.
    pub minted: u64,
    /// Mandates consumed by execute transfers.
    pub executed: u64,
    /// Mandates destroyed at pool-cap clamps.
    pub discarded: u64,
    /// Mandates in node pools at quiesce.
    pub pooled: u64,
    /// Mandates outstanding in unacked escrow at quiesce.
    pub escrowed: u64,
}

impl Conservation {
    /// Does the invariant hold?
    pub fn holds(&self) -> bool {
        self.minted == self.executed + self.discarded + self.pooled + self.escrowed
    }
}

/// Running mint/execute/discard tallies (the first three terms of
/// [`Conservation`]; the pool and escrow terms are read at quiesce).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ledger {
    pub minted: u64,
    pub executed: u64,
    pub discarded: u64,
}

/// Kernel-side record of one request — the omniscient "user" ledger
/// that books each request's welfare exactly once, whatever the node
/// tasks crash into.
#[derive(Clone, Copy, Debug)]
pub struct ReqRecord {
    /// Arrival time.
    pub created: f64,
    /// Origin node.
    pub node: u32,
    /// Requested item.
    pub item: u32,
    /// Welfare booked by a fulfillment.
    pub fulfilled: bool,
    /// Abandoned (crash without checkpoint, dead origin, or deadline).
    pub lost: bool,
    /// Settlement already recorded (deadline expiry).
    pub settled: bool,
}

/// Result of one distributed trial.
#[derive(Clone, Debug)]
pub struct NetTrialOutcome {
    /// The same welfare accounting the engine produces.
    pub metrics: Metrics,
    /// Replica counts at quiesce.
    pub final_replicas: Vec<u32>,
    /// Transport and protocol counters.
    pub stats: NetStats,
    /// The (passing) mandate audit.
    pub conservation: Conservation,
    /// The run survived but lost capacity (supervisor kill or event-cap
    /// breach) — `impatience netrun` exits 9 on this.
    pub degraded: bool,
}

/// Kernel events. Ordered by time with a monotonic sequence tiebreak,
/// so the queue order is deterministic even at equal times.
#[derive(Clone, Debug)]
enum Ev {
    /// A frame arrives at `to` (decoded at delivery).
    Deliver { to: u32, from: u32, bytes: Vec<u8> },
    /// A contact window closes.
    LinkDown { a: u32, b: u32, window: u64 },
    /// A node-local timer fires (ignored if the incarnation moved on).
    Timer {
        node: u32,
        incarnation: u32,
        timer: Timer,
    },
    /// Churn-schedule crash.
    ChurnDown { node: u32 },
    /// Churn-schedule restart.
    ChurnUp { node: u32 },
    /// A scheduled chaos injection (index into `NetConfig::chaos`).
    Chaos { idx: usize },
    /// Supervisor sweep over heartbeat ages.
    Supervise,
    /// Deadline-budget sweep over outstanding requests.
    DeadlineSweep,
}

struct QEntry {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for QEntry {
    fn eq(&self, o: &Self) -> bool {
        self.t == o.t && self.seq == o.seq
    }
}
impl Eq for QEntry {}
impl PartialOrd for QEntry {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for QEntry {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        o.t.total_cmp(&self.t).then_with(|| o.seq.cmp(&self.seq))
    }
}

struct Queue {
    heap: BinaryHeap<QEntry>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, t: f64, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QEntry { t, seq, ev });
    }
}

#[derive(Clone, Copy, Debug)]
struct Link {
    up_until: f64,
    window: u64,
}

/// The unreliable in-process link layer.
struct Transport {
    links: BTreeMap<(u32, u32), Link>,
    /// Active message-fault family (None ⇒ clean transport, and the
    /// fault RNG is never consumed — bit-identical to no config at all).
    faults: Option<MsgFaults>,
    fault_rng: Xoshiro256,
    delay: f64,
    strict: bool,
}

fn link_key(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

impl Transport {
    fn link_up(&self, t: f64, a: u32, b: u32) -> bool {
        self.links
            .get(&link_key(a, b))
            .is_some_and(|l| t <= l.up_until)
    }

    fn open(&mut self, t: f64, a: u32, b: u32, window: u64, until: f64) {
        self.links.insert(
            (a.min(b), a.max(b)),
            Link {
                up_until: until.max(t),
                window,
            },
        );
    }

    /// Close the link if `window` is still its current window. Returns
    /// whether the link actually closed.
    fn close(&mut self, a: u32, b: u32, window: u64) -> bool {
        let key = link_key(a, b);
        if self.links.get(&key).is_some_and(|l| l.window == window) {
            self.links.remove(&key);
            true
        } else {
            false
        }
    }

    /// Submit a frame. Applies loss/duplication/reordering faults and
    /// schedules the surviving copies as [`Ev::Deliver`].
    #[allow(clippy::too_many_arguments)]
    fn send<S: Sink>(
        &mut self,
        t: f64,
        from: u32,
        to: u32,
        msg: &Msg,
        q: &mut Queue,
        stats: &mut NetStats,
        rec: &mut Recorder<S>,
        fatal: &mut Option<NetError>,
    ) {
        if !self.link_up(t, from, to) {
            stats.transport_closed += 1;
            if self.strict && fatal.is_none() {
                *fatal = Some(NetError::TransportClosed { from, to, at: t });
            }
            return;
        }
        stats.msgs_sent += 1;
        let mut copies = 1u32;
        let extra = |rng: &mut Xoshiro256, m: &MsgFaults, delay: f64| {
            if m.reorder_window > 0 {
                rng.f64() * m.reorder_window as f64 * delay
            } else {
                0.0
            }
        };
        if let Some(m) = self.faults {
            if m.loss_p > 0.0 && self.fault_rng.bernoulli(m.loss_p) {
                stats.msgs_lost += 1;
                rec.fault(t, "net_msg_loss", from, to);
                return;
            }
            if m.dup_p > 0.0 && self.fault_rng.bernoulli(m.dup_p) {
                copies = 2;
                stats.msgs_duplicated += 1;
                rec.fault(t, "net_msg_dup", from, to);
            }
        }
        let bytes = msg.encode();
        for _ in 0..copies {
            let jitter = match self.faults {
                Some(m) => extra(&mut self.fault_rng, &m, self.delay),
                None => 0.0,
            };
            q.push(
                t + self.delay + jitter,
                Ev::Deliver {
                    to,
                    from,
                    bytes: bytes.clone(),
                },
            );
        }
    }
}

/// Run one distributed trial (uninstrumented).
pub fn run_net_trial(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    seed: u64,
) -> Result<NetTrialOutcome, NetError> {
    run_net_trial_observed(config, source, net, seed, &mut Recorder::disabled())
}

/// Run one distributed trial with instrumentation.
///
/// Deterministic by `(config, source, net, seed)`: the trial RNG seeds
/// the contact stream and sticky fill in the engine's order, per-node
/// RNGs fork off it, and transport chaos runs on the PR 3 fault-seed
/// discipline — so results are independent of how many worker threads a
/// batch uses.
#[allow(clippy::too_many_lines)]
pub fn run_net_trial_observed<S: Sink>(
    config: &SimConfig,
    source: &ContactSource,
    net: &NetConfig,
    seed: u64,
    rec: &mut Recorder<S>,
) -> Result<NetTrialOutcome, NetError> {
    net.validate()?;
    let wall_start = rec.is_active().then(std::time::Instant::now);
    rec.trial_start();

    // --- mirror the engine's trial initialization order exactly ---
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut contacts = BatchedContacts::new(source.stream(&mut rng));
    let n_nodes = contacts.nodes();
    let duration = contacts.duration();
    let config: Cow<'_, SimConfig> = if config.profile.nodes() == config.clients(n_nodes) {
        Cow::Borrowed(config)
    } else {
        Cow::Owned(config.for_nodes(n_nodes))
    };
    config.validate(n_nodes);

    let servers = config.dedicated_servers.unwrap_or(n_nodes);
    let client_base = if config.dedicated_servers.is_some() {
        servers
    } else {
        0
    };
    let mut state = match config.dedicated_servers {
        Some(k) => SimState::new_dedicated(n_nodes, k, config.items, config.rho),
        None => SimState::new(n_nodes, config.items, config.rho),
    };
    state.set_eviction(config.eviction);
    state.seed_sticky_and_fill(&mut rng);

    let utility = config.utility.clone();
    // ψ is driven by the protocol utility (the engine's override, else
    // the welfare utility) at the source's mean rate, as in the engine.
    let protocol = config
        .protocol_utility
        .clone()
        .unwrap_or_else(|| config.utility.clone());
    let qcr = QcrParams::new(
        net.qcr.clone(),
        protocol,
        servers,
        source.mean_rate(),
        config.items,
        config.rho,
    );

    if let Some(f) = &config.faults {
        assert!(
            !f.panic_on_seeds.contains(&seed),
            "fault injection: chaos panic for trial seed {seed}"
        );
    }
    // The full fault config drives contact admission and cache faults —
    // the *same* streams the engine consumes, so contacts involving
    // churned-down nodes vanish in both runtimes at the same instants.
    let mut faults = config
        .faults
        .as_ref()
        .filter(|f| f.is_active())
        .map(|f| FaultState::new(f, n_nodes, servers, duration, seed));
    // Churn additionally crashes/restarts the node *tasks* here (the
    // engine only suppresses contacts): same schedule, same seeds.
    let churn_toggles = config
        .faults
        .as_ref()
        .map(|f| f.churn_schedule(n_nodes, duration, seed))
        .unwrap_or_default();
    let msg_faults = config
        .faults
        .as_ref()
        .and_then(|f| f.msg)
        .filter(MsgFaults::is_active);
    let fault_seed = config.faults.as_ref().map_or(0, |f| f.seed);
    let fault_rng =
        Xoshiro256::seed_from_u64(seed ^ fault_seed.rotate_left(23)).split(MSG_STREAM_ID);

    let mut metrics = Metrics::new(duration, config.bin);
    let mut shifts = config.demand_shifts.iter().peekable();
    let mut current_demand = &config.demand;
    let mut total_rate = current_demand.total();
    let mut item_sampler = (total_rate > 0.0).then(|| AliasTable::new(current_demand.rates()));
    let mut next_request = if total_rate > 0.0 {
        rng.exp(total_rate)
    } else {
        f64::INFINITY
    };

    // --- node tasks ---
    let mut nodes: Vec<Node> = (0..n_nodes)
        .map(|i| Node::new(i as u32, rng.split(NODE_STREAM_ID ^ i as u64)))
        .collect();
    let mut q = Queue {
        heap: BinaryHeap::new(),
        seq: 0,
    };
    for (tt, node, up) in &churn_toggles {
        q.push(
            *tt,
            if *up {
                Ev::ChurnUp { node: *node }
            } else {
                Ev::ChurnDown { node: *node }
            },
        );
    }
    for (idx, c) in net.chaos.iter().enumerate() {
        if (c.node as usize) < n_nodes {
            q.push(c.t, Ev::Chaos { idx });
        }
    }
    q.push(net.heartbeat_every, Ev::Supervise);
    if let Some(d) = net.deadline {
        q.push(d, Ev::DeadlineSweep);
    }
    for node in nodes.iter_mut() {
        let hb = net.heartbeat_every * (0.5 + 0.5 * node.rng.f64());
        let ck = net.checkpoint_every * (0.5 + 0.5 * node.rng.f64());
        q.push(
            hb,
            Ev::Timer {
                node: node.id,
                incarnation: 0,
                timer: Timer::Heartbeat,
            },
        );
        q.push(
            ck,
            Ev::Timer {
                node: node.id,
                incarnation: 0,
                timer: Timer::Checkpoint,
            },
        );
    }

    let mut transport = Transport {
        links: BTreeMap::new(),
        faults: msg_faults,
        fault_rng,
        delay: net.msg_delay,
        strict: net.strict,
    };
    let mut stats = NetStats::default();
    let mut ledger = Ledger::default();
    let mut registry: Vec<ReqRecord> = Vec::new();
    let mut last_seen = vec![0.0f64; n_nodes];
    let mut condemned = vec![false; n_nodes];
    let mut next_window: u64 = 0;
    let mut next_xfer: u64 = 0;
    let mut fatal: Option<NetError> = None;
    let mut degraded = false;
    let mut out: Vec<(u32, Msg)> = Vec::new();
    let mut timers: Vec<(f64, Timer)> = Vec::new();
    let event_cap = if net.max_events > 0 {
        net.max_events
    } else {
        AUTO_EVENT_CAP
    };
    let mut events: u64 = 0;

    // Builds a `Ctx` and calls one node handler, then drains its
    // outgoing messages through the transport and arms its timers.
    macro_rules! dispatch {
        ($t:expr, $node:expr, $call:ident ( $($arg:expr),* )) => {{
            let id = $node as usize;
            {
                let mut c = Ctx {
                    t: $t,
                    state: &mut state,
                    metrics: &mut metrics,
                    stats: &mut stats,
                    ledger: &mut ledger,
                    registry: &mut registry,
                    out: &mut out,
                    timers: &mut timers,
                    rec: &mut *rec,
                    utility: utility.as_ref(),
                    qcr: &qcr,
                    cfg: net,
                    next_xfer: &mut next_xfer,
                    fatal: &mut fatal,
                };
                nodes[id].$call(&mut c, $($arg),*);
            }
            for (to, msg) in out.drain(..) {
                transport.send($t, $node, to, &msg, &mut q, &mut stats, rec, &mut fatal);
            }
            let inc = nodes[id].incarnation;
            for (ft, timer) in timers.drain(..) {
                q.push(ft, Ev::Timer { node: $node, incarnation: inc, timer });
            }
        }};
    }

    macro_rules! settle_expired {
        ($t:expr, $ids:expr) => {
            for id in $ids {
                let r = &mut registry[id as usize];
                if r.fulfilled || r.settled {
                    continue;
                }
                r.lost = true;
                r.settled = true;
                stats.requests_expired += 1;
                let age = ($t - r.created).max(f64::MIN_POSITIVE);
                let h_inf = utility.h_infinity();
                let gain = if h_inf.is_finite() {
                    h_inf
                } else {
                    utility.h(age)
                };
                metrics.record_settlement($t, gain);
                rec.unfulfilled($t, r.node, r.item, age);
            }
        };
    }

    loop {
        if let Some(e) = fatal.take() {
            return Err(e);
        }
        let next_contact_t = contacts.peek().map_or(f64::INFINITY, |e| e.time);
        let next_heap_t = q.heap.peek().map_or(f64::INFINITY, |e| e.t);
        let t = next_request.min(next_contact_t).min(next_heap_t);
        if let Some(&&(shift_t, ref rates)) = shifts.peek() {
            if shift_t <= t.min(duration) {
                shifts.next();
                current_demand = rates;
                total_rate = current_demand.total();
                item_sampler = (total_rate > 0.0).then(|| AliasTable::new(current_demand.rates()));
                next_request = if total_rate > 0.0 {
                    shift_t + rng.exp(total_rate)
                } else {
                    f64::INFINITY
                };
                continue;
            }
        }
        if !t.is_finite() || t > duration {
            break;
        }
        events += 1;
        if events > event_cap {
            degraded = true;
            rec.fault(t, "net_event_cap", 0, 0);
            break;
        }
        if let Some(fs) = faults.as_mut() {
            fs.apply_cache_faults(t, &mut state, &mut metrics, rec);
        }

        if next_request <= next_contact_t && next_request <= next_heap_t {
            // --- request arrival (the engine's demand process verbatim) ---
            let sampler = item_sampler.as_ref().expect("arrivals imply demand");
            let item = sampler.sample(&mut rng) as u32;
            let origin = client_base + config.profile.sample_origin(item as usize, &mut rng);
            metrics.requests_created += 1;
            rec.request(next_request, origin as u32, item);
            if state.caches.holds(origin, item) {
                metrics.immediate_hits += 1;
                metrics.record_fulfillment(next_request, utility.h_zero());
                rec.immediate_hit(next_request, origin as u32, item);
            } else {
                let req_id = registry.len() as u64;
                registry.push(ReqRecord {
                    created: next_request,
                    node: origin as u32,
                    item,
                    fulfilled: false,
                    lost: false,
                    settled: false,
                });
                let n = &mut nodes[origin];
                if n.alive && !n.stalled {
                    n.on_request_arrival(req_id, item, next_request);
                } else {
                    // The origin task is down: nobody will ever query
                    // for this request; it settles at the horizon.
                    registry[req_id as usize].lost = true;
                }
            }
            next_request += rng.exp(total_rate);
        } else if next_contact_t <= next_heap_t {
            // --- contact: open a window, wake both endpoints ---
            let e = contacts.next().expect("peeked above");
            if let Some(fs) = faults.as_mut() {
                if !fs.admit_contact(e.time, e.a, e.b, &mut metrics, rec) {
                    continue;
                }
            }
            rec.contact(e.time, e.a, e.b);
            let window = next_window;
            next_window += 1;
            transport.open(e.time, e.a, e.b, window, e.time + net.window);
            q.push(
                e.time + net.window,
                Ev::LinkDown {
                    a: e.a,
                    b: e.b,
                    window,
                },
            );
            for id in [e.a, e.b] {
                let n = &nodes[id as usize];
                if n.alive && !n.stalled {
                    dispatch!(
                        e.time,
                        id,
                        on_contact(if id == e.a { e.b } else { e.a }, window)
                    );
                }
            }
        } else {
            // --- kernel event ---
            let QEntry { ev, .. } = q.heap.pop().expect("peeked above");
            match ev {
                Ev::Deliver { to, from, bytes } => {
                    let msg = Msg::decode(&bytes)?;
                    let alive = {
                        let n = &nodes[to as usize];
                        n.alive && !n.stalled
                    };
                    if !transport.link_up(t, from, to) || !alive {
                        stats.transport_closed += 1;
                    } else {
                        stats.msgs_delivered += 1;
                        dispatch!(t, to, on_msg(from, msg));
                    }
                }
                Ev::LinkDown { a, b, window } => {
                    if transport.close(a, b, window) {
                        for id in [a, b] {
                            let n = &nodes[id as usize];
                            if n.alive && !n.stalled {
                                dispatch!(t, id, on_link_down(if id == a { b } else { a }, window));
                            }
                        }
                    }
                }
                Ev::Timer {
                    node,
                    incarnation,
                    timer,
                } => {
                    let n = &nodes[node as usize];
                    if !n.alive || n.stalled || n.incarnation != incarnation {
                        continue;
                    }
                    match timer {
                        Timer::Heartbeat => {
                            last_seen[node as usize] = t;
                            stats.heartbeats += 1;
                            q.push(
                                t + net.heartbeat_every,
                                Ev::Timer {
                                    node,
                                    incarnation,
                                    timer,
                                },
                            );
                        }
                        Timer::Checkpoint => {
                            nodes[node as usize].checkpoint();
                            q.push(
                                t + net.checkpoint_every,
                                Ev::Timer {
                                    node,
                                    incarnation,
                                    timer,
                                },
                            );
                        }
                        Timer::WindowRetry { peer, .. } => {
                            let up = transport.link_up(t, node, peer);
                            dispatch!(t, node, on_timer(timer, up));
                        }
                        Timer::XferRetry { xfer } => {
                            let Some(peer) = nodes[node as usize].escrow.get(&xfer).map(|x| x.peer)
                            else {
                                continue; // acked in the meantime
                            };
                            let up = transport.link_up(t, node, peer);
                            dispatch!(t, node, on_timer(timer, up));
                        }
                    }
                }
                Ev::ChurnDown { node } => {
                    let idx = node as usize;
                    if nodes[idx].alive && !condemned[idx] {
                        nodes[idx].stalled = false;
                        let lost = nodes[idx].crash();
                        for id in &lost {
                            registry[*id as usize].lost = true;
                        }
                        stats.crashes += 1;
                        rec.fault(t, "net_node_crash", node, lost.len() as u32);
                    }
                }
                Ev::ChurnUp { node } => {
                    let idx = node as usize;
                    if !nodes[idx].alive && !condemned[idx] {
                        nodes[idx].restart();
                        last_seen[idx] = t;
                        stats.restarts += 1;
                        rec.fault(t, "net_node_restart", node, 0);
                        let inc = nodes[idx].incarnation;
                        q.push(
                            t + net.heartbeat_every * 0.5,
                            Ev::Timer {
                                node,
                                incarnation: inc,
                                timer: Timer::Heartbeat,
                            },
                        );
                        q.push(
                            t + net.checkpoint_every,
                            Ev::Timer {
                                node,
                                incarnation: inc,
                                timer: Timer::Checkpoint,
                            },
                        );
                        // Re-arm retries for escrow that survived the
                        // crash; the next contact with each peer also
                        // re-drives them.
                        let xfers: Vec<u64> = nodes[idx]
                            .escrow
                            .iter()
                            .filter(|(_, x)| !x.parked)
                            .map(|(&id, _)| id)
                            .collect();
                        for x in xfers {
                            q.push(
                                t + net.rto_cap * 0.75,
                                Ev::Timer {
                                    node,
                                    incarnation: inc,
                                    timer: Timer::XferRetry { xfer: x },
                                },
                            );
                        }
                    }
                }
                Ev::Chaos { idx } => {
                    let c = net.chaos[idx];
                    let target = c.node as usize;
                    match c.kind {
                        ChaosKind::Kill { down_for } => {
                            if nodes[target].alive && !condemned[target] {
                                nodes[target].stalled = false;
                                let lost = nodes[target].crash();
                                for id in &lost {
                                    registry[*id as usize].lost = true;
                                }
                                stats.crashes += 1;
                                rec.fault(t, "net_node_crash", c.node, lost.len() as u32);
                            }
                            q.push(t + down_for, Ev::ChurnUp { node: c.node });
                        }
                        ChaosKind::Stall => {
                            if nodes[target].alive && !nodes[target].stalled {
                                nodes[target].stalled = true;
                                rec.fault(t, "net_node_stall", c.node, 0);
                            }
                        }
                    }
                }
                Ev::Supervise => {
                    for idx in 0..n_nodes {
                        if nodes[idx].alive
                            && !condemned[idx]
                            && t - last_seen[idx] > net.heartbeat_timeout
                        {
                            // Wedged task: remove it and degrade the run
                            // rather than hang waiting for it.
                            nodes[idx].alive = false;
                            nodes[idx].stalled = false;
                            condemned[idx] = true;
                            degraded = true;
                            stats.stalls += 1;
                            rec.fault(t, "net_node_stalled", idx as u32, 0);
                        }
                    }
                    q.push(t + net.heartbeat_every, Ev::Supervise);
                }
                Ev::DeadlineSweep => {
                    let d = net.deadline.expect("sweep implies deadline");
                    for node in nodes.iter_mut().take(n_nodes) {
                        if node.alive && !node.stalled {
                            let expired = node.expire_deadline(t, d);
                            settle_expired!(t, expired);
                        }
                    }
                    // Limbo requests at dead/stalled nodes expire too:
                    // the user's patience does not care about servers.
                    let overdue: Vec<u64> = registry
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| !r.fulfilled && !r.settled && t - r.created > d)
                        .map(|(i, _)| i as u64)
                        .collect();
                    settle_expired!(t, overdue);
                    q.push(t + d * 0.5, Ev::DeadlineSweep);
                }
            }
        }
    }
    if let Some(e) = fatal.take() {
        return Err(e);
    }

    // --- quiesce: settle, audit, report ---
    metrics.unfulfilled = registry.iter().filter(|r| !r.fulfilled).count() as u64;
    let h_inf = utility.h_infinity();
    for r in registry.iter_mut().filter(|r| !r.fulfilled && !r.settled) {
        let age = (duration - r.created).max(f64::MIN_POSITIVE);
        let gain = if h_inf.is_finite() {
            h_inf
        } else {
            utility.h(age)
        };
        metrics.record_settlement(duration, gain);
        rec.unfulfilled(duration, r.node, r.item, age);
        r.settled = true;
    }
    metrics.transmissions = state.transmissions;

    let pooled: u64 = nodes.iter().flat_map(|n| n.pool.values()).sum();
    let mut escrowed: u64 = 0;
    for n in &nodes {
        for (id, x) in &n.escrow {
            let consumed = nodes[x.peer as usize].applied.get(id).copied().unwrap_or(0);
            escrowed += x.count - consumed.min(x.count);
        }
    }
    let conservation = Conservation {
        minted: ledger.minted,
        executed: ledger.executed,
        discarded: ledger.discarded,
        pooled,
        escrowed,
    };
    if !conservation.holds() {
        return Err(NetError::ConservationViolation {
            minted: conservation.minted,
            executed: conservation.executed,
            discarded: conservation.discarded,
            pooled: conservation.pooled,
            escrowed: conservation.escrowed,
        });
    }

    if let Some(start) = wall_start {
        rec.trial_done(seed, start.elapsed().as_secs_f64());
    }
    Ok(NetTrialOutcome {
        metrics,
        final_replicas: state.replicas.clone(),
        stats,
        conservation,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::demand::Popularity;
    use impatience_core::utility::Step;
    use std::sync::Arc;

    fn small_config(items: usize, rho: usize) -> SimConfig {
        SimConfig::builder(items, rho)
            .demand(Popularity::pareto(items, 1.0).demand_rates(0.5))
            .utility(Arc::new(Step::new(10.0)))
            .bin(100.0)
            .build()
    }

    #[test]
    fn clean_trial_fulfills_and_conserves() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_net_trial(&config, &source, &NetConfig::default(), 1).unwrap();
        assert!(out.metrics.requests_created > 500);
        assert!(
            out.metrics.fulfillments() > out.metrics.requests_created / 2,
            "most requests should be fulfilled ({} of {})",
            out.metrics.fulfillments(),
            out.metrics.requests_created
        );
        assert!(out.stats.msgs_sent > 0);
        assert!(out.stats.handoffs_started > 0, "mandates should move");
        assert!(out.conservation.minted > 0, "fulfillments should mint");
        assert!(out.conservation.executed > 0, "mandates should execute");
        assert!(!out.degraded);
        assert_eq!(out.stats.msgs_lost, 0, "clean transport loses nothing");
        // The global cache budget and sticky replicas survive.
        let total: u32 = out.final_replicas.iter().sum();
        assert_eq!(total, 20, "global cache must stay full");
        for (i, &r) in out.final_replicas.iter().enumerate() {
            assert!(r >= 1, "item {i} lost despite sticky replica");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = small_config(8, 2);
        let source = ContactSource::homogeneous(8, 0.08, 1_500.0);
        let net = NetConfig::default();
        let a = run_net_trial(&config, &source, &net, 7).unwrap();
        let b = run_net_trial(&config, &source, &net, 7).unwrap();
        assert_eq!(a.final_replicas, b.final_replicas);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.conservation, b.conservation);
        assert_eq!(
            a.metrics.observed_rate_series(),
            b.metrics.observed_rate_series()
        );
        let c = run_net_trial(&config, &source, &net, 8).unwrap();
        assert_ne!(
            a.metrics.observed_rate_series(),
            c.metrics.observed_rate_series()
        );
    }

    #[test]
    fn lossy_transport_terminates_and_conserves() {
        use impatience_sim::faults::{FaultConfig, MsgFaults};
        let mut config = small_config(10, 2);
        config.faults = Some(FaultConfig {
            seed: 41,
            msg: Some(MsgFaults {
                loss_p: 0.10,
                dup_p: 0.02,
                reorder_window: 3,
            }),
            ..FaultConfig::default()
        });
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let out = run_net_trial(&config, &source, &NetConfig::default(), 3).unwrap();
        assert!(out.stats.msgs_lost > 0, "loss must actually fire");
        assert!(out.stats.msgs_duplicated > 0);
        assert!(out.stats.retries > 0, "loss should force retries");
        assert!(out.conservation.holds());
        assert!(
            out.metrics.fulfillments() > out.metrics.requests_created / 3,
            "lossy transport still mostly works ({} of {})",
            out.metrics.fulfillments(),
            out.metrics.requests_created
        );
    }

    #[test]
    fn inactive_msg_faults_match_no_faults_exactly() {
        use impatience_sim::faults::{FaultConfig, MsgFaults};
        let source = ContactSource::homogeneous(8, 0.08, 1_000.0);
        let clean = small_config(8, 2);
        let mut zeroed = small_config(8, 2);
        zeroed.faults = Some(FaultConfig {
            seed: 99,
            msg: Some(MsgFaults::default()),
            ..FaultConfig::default()
        });
        let net = NetConfig::default();
        let a = run_net_trial(&clean, &source, &net, 5).unwrap();
        let b = run_net_trial(&zeroed, &source, &net, 5).unwrap();
        assert_eq!(a.final_replicas, b.final_replicas);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.metrics.observed_rate_series(),
            b.metrics.observed_rate_series()
        );
    }

    #[test]
    fn chaos_kill_preserves_conservation() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 2_000.0);
        let net = NetConfig {
            chaos: vec![
                crate::config::ChaosEvent {
                    t: 500.0,
                    node: 3,
                    kind: ChaosKind::Kill { down_for: 200.0 },
                },
                crate::config::ChaosEvent {
                    t: 900.0,
                    node: 7,
                    kind: ChaosKind::Kill { down_for: 50.0 },
                },
            ],
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 11).unwrap();
        assert_eq!(out.stats.crashes, 2);
        assert_eq!(out.stats.restarts, 2);
        assert!(out.conservation.holds());
        assert!(!out.degraded, "kills with restarts do not degrade");
    }

    #[test]
    fn stalled_node_is_condemned_not_hung() {
        let config = small_config(10, 2);
        let source = ContactSource::homogeneous(10, 0.1, 3_000.0);
        let net = NetConfig {
            chaos: vec![crate::config::ChaosEvent {
                t: 300.0,
                node: 2,
                kind: ChaosKind::Stall,
            }],
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 13).unwrap();
        assert_eq!(out.stats.stalls, 1, "supervisor must condemn the node");
        assert!(out.degraded, "a condemned node degrades the run");
        assert!(out.conservation.holds());
    }

    #[test]
    fn deadline_budget_expires_requests() {
        // One item, tiny population, very slow contacts: many requests
        // cannot be served before a tight deadline.
        let config = small_config(6, 1);
        let source = ContactSource::homogeneous(6, 0.005, 2_000.0);
        let net = NetConfig {
            deadline: Some(50.0),
            ..NetConfig::default()
        };
        let out = run_net_trial(&config, &source, &net, 17).unwrap();
        assert!(out.stats.requests_expired > 0);
        assert!(out.conservation.holds());
    }
}
