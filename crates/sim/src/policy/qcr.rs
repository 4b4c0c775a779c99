//! Query Counting Replication with mandate routing (paper §5).
//!
//! On each fulfilled request the final query-counter value `y` is fed to
//! the reaction function `ψ(y) ∝ (|S|/y)·φ(|S|/y)` (Property 2), and that
//! many replication *mandates* for the item are minted at the fulfilled
//! node. A mandate executes when its holder meets a node lacking the item
//! *while the holder still has a copy* — in an opportunistic network that
//! coincidence is rare for unpopular items, so unrouted mandate pools
//! diverge and the allocation drifts (Fig. 3). Mandate routing (§5.3)
//! repairs this: at every meeting, mandates migrate toward nodes holding
//! the replicas they need, with the item's sticky seed node preferred
//! (it can never lose its copy).

use std::collections::BTreeMap;
use std::sync::Arc;

use impatience_core::rng::Xoshiro256;
use impatience_core::utility::DelayUtility;

use crate::metrics::Metrics;
use crate::policy::{Fulfillment, PolicyKind, ReplicationPolicy};
use crate::state::SimState;

/// How many replicas to mint per fulfillment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reaction {
    /// The impatience-matched reaction `ψ(y)` of Property 2 (default).
    Psi,
    /// A constant count — "passive replication", which drives the cache
    /// toward the proportional allocation regardless of impatience.
    Constant(f64),
}

/// Tunable knobs of the QCR implementation (§6.1 defaults).
#[derive(Clone, Debug)]
pub struct QcrConfig {
    /// Move mandates toward replica holders at each meeting (§5.3).
    /// Turning this off reproduces the divergence pathology of Fig. 3.
    pub mandate_routing: bool,
    /// "Replication with rewriting": meeting a node that already holds
    /// the item consumes a mandate even though no copy is made. The
    /// paper's experiments run with rewriting *off*.
    pub rewriting: bool,
    /// Multiplier applied to the reaction function (its proportionality
    /// constant is free; this trades convergence speed against churn).
    pub gain_scale: f64,
    /// Auto-normalize the reaction so that a fulfillment at the *uniform-
    /// allocation* query count `y* = |I|/ρ` mints about one replica.
    /// Property 2 leaves ψ's constant free; without normalization, steep
    /// reactions (e.g. ψ(y) = y² for α = −1) mint hundreds of replicas
    /// per fulfillment and the resulting cache churn destroys the very
    /// allocation QCR is building.
    pub normalize_reaction: bool,
    /// Per-fulfillment cap on minted mandates — bounds transient spikes
    /// of ψ for very rare items; hits are counted in the metrics.
    pub mandate_cap: u64,
    /// Reaction function choice.
    pub reaction: Reaction,
}

impl Default for QcrConfig {
    fn default() -> Self {
        QcrConfig {
            mandate_routing: true,
            rewriting: false,
            gain_scale: 1.0,
            normalize_reaction: true,
            mandate_cap: 20,
            reaction: Reaction::Psi,
        }
    }
}

/// A node's outstanding mandates: item → count (never zero, never above
/// the cap).
pub type MandatePool = BTreeMap<u32, u64>;

/// What [`QcrParams::execute`] and [`QcrParams::route`] need from an
/// engine: cache membership, copying, the mandate pools and the sticky
/// seeds, all keyed by global node id. Drivers implement it over their
/// own state layout and call the core through generics.
pub trait MandateHost {
    /// Does `node` hold a copy of `item`?
    fn holds(&self, node: usize, item: u32) -> bool;
    /// Copy `item` into `node`'s cache with random replacement; `true`
    /// if a new replica was created.
    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool;
    /// `node`'s mandate pool.
    fn pool(&self, node: usize) -> &MandatePool;
    /// `node`'s mandate pool, mutably.
    fn pool_mut(&mut self, node: usize) -> &mut MandatePool;
    /// The node holding `item`'s sticky seed replica.
    fn sticky_owner(&self, item: u32) -> usize;
}

/// The QCR protocol of one trial: knobs, the ψ scaling derived from
/// them, and the mint / execute / route rules. The serial policy, the
/// sharded engine and the message-passing runtime all drive this one
/// implementation, so a welfare difference between them can only come
/// from how they schedule meetings, never from drifted arithmetic.
#[derive(Clone)]
pub struct QcrParams {
    cfg: QcrConfig,
    utility: Arc<dyn DelayUtility>,
    /// Cache-carrying nodes `|S|`, fed to ψ.
    servers: f64,
    /// Reference contact rate used to evaluate ψ (the designer's estimate
    /// of μ; the proportionality constant of ψ is free, but its shape in
    /// `y` depends on μ for some families).
    mu_ref: f64,
    /// Combined multiplier on ψ (gain_scale × normalization × damping).
    scale: f64,
}

impl QcrParams {
    /// Parameters for `servers` cache-carrying nodes, a catalog of
    /// `items` items and cache capacity `rho`. A non-positive `mu_ref`
    /// falls back to 1.
    pub fn new(
        cfg: QcrConfig,
        utility: Arc<dyn DelayUtility>,
        servers: usize,
        mu_ref: f64,
        items: usize,
        rho: usize,
    ) -> Self {
        assert!(cfg.gain_scale > 0.0, "gain scale must be positive");
        assert!(servers > 0, "need at least one cache-carrying node");
        let mu_ref = if mu_ref > 0.0 { mu_ref } else { 1.0 };
        let mut scale = cfg.gain_scale;
        if cfg.normalize_reaction && cfg.reaction == Reaction::Psi {
            // Expected query count under the uniform allocation:
            // y* = |S|/x̄ with x̄ = ρ|S|/|I|.
            let y_ref = (items as f64 / rho.max(1) as f64).max(1.0);
            let psi_ref = utility.psi(y_ref, servers as f64, mu_ref);
            if psi_ref.is_finite() && psi_ref > 0.0 {
                scale /= psi_ref;
                // Steepness damping: when ψ grows steeply in y (ratio
                // r = ψ(2y*)/ψ(y*) > 1, e.g. ψ(y) = y³ for α = −2), a
                // half-replicated item mints r× the normal batch, the
                // resulting overshoot knocks other items down, and the
                // allocation oscillates instead of settling. Damping
                // by r³ (calibrated across the power and step
                // families; see the ablation bench) trades
                // convergence speed for stability; the equilibrium
                // itself is scale-free (Property 2).
                let psi_2ref = utility.psi(2.0 * y_ref, servers as f64, mu_ref);
                let r = psi_2ref / psi_ref;
                if r.is_finite() && r > 1.0 {
                    scale /= r * r * r;
                }
            }
        }
        QcrParams {
            cfg,
            utility,
            servers: servers as f64,
            mu_ref,
            scale,
        }
    }

    /// Parameters for a mandate-driven policy: QCR as configured, or
    /// passive replication as QCR with a constant reaction. `None` for
    /// policies without mandates.
    pub fn for_policy(
        policy: &PolicyKind,
        utility: Arc<dyn DelayUtility>,
        servers: usize,
        mu_ref: f64,
        items: usize,
        rho: usize,
    ) -> Option<Self> {
        let cfg = match policy {
            PolicyKind::Qcr(cfg) => cfg.clone(),
            PolicyKind::Passive { replicas } => QcrConfig {
                reaction: Reaction::Constant(*replicas),
                ..QcrConfig::default()
            },
            PolicyKind::Static { .. } | PolicyKind::HillClimb { .. } => return None,
        };
        Some(Self::new(cfg, utility, servers, mu_ref, items, rho))
    }

    /// Per-item cap on a pool (and on one fulfillment's mint).
    pub fn cap(&self) -> u64 {
        self.cfg.mandate_cap
    }

    /// Mint mandates into `pool` for a fulfillment after `queries`
    /// failed lookups; returns how many entered the pool.
    pub fn mint(
        &self,
        pool: &mut MandatePool,
        item: u32,
        queries: u64,
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) -> u64 {
        if queries == 0 {
            // Immediate self-cache hit: the item is plentiful where it is
            // demanded; ψ(0⁺) → 0 for every built-in family.
            return 0;
        }
        let raw = match self.cfg.reaction {
            Reaction::Psi => {
                self.utility.psi(queries as f64, self.servers, self.mu_ref) * self.scale
            }
            Reaction::Constant(k) => k * self.cfg.gain_scale,
        };
        if raw.is_nan() || raw <= 0.0 {
            return 0; // nothing to mint
        }
        // Stochastic rounding preserves the expected replica count.
        let mut count = raw.floor() as u64;
        if rng.bernoulli(raw - count as f64) {
            count += 1;
        }
        if count > self.cfg.mandate_cap {
            metrics.mandate_cap_hits += 1;
            count = self.cfg.mandate_cap;
        }
        if count == 0 {
            return 0;
        }
        // The per-item pool at a node is bounded by the same cap:
        // outstanding mandates beyond it are discarded, which bounds the
        // overshoot a burst of fulfillments can cause.
        let added = self.deposit(pool, item, count);
        metrics.mandates_created += added;
        added
    }

    /// Add `count` mandates of `item` to `pool`, clamped at the cap;
    /// returns how many entered (the rest are discarded).
    pub fn deposit(&self, pool: &mut MandatePool, item: u32, count: u64) -> u64 {
        let slot = pool.entry(item).or_insert(0);
        let before = *slot;
        *slot = (before + count).min(self.cfg.mandate_cap);
        let added = *slot - before;
        if *slot == 0 {
            pool.remove(&item);
        }
        added
    }

    /// The §5.3 routing rule: how many of `total` mandates for an item
    /// end up at side `a` of a meeting. The copy holder takes all; when
    /// both (or neither) hold the item, a holding sticky seed takes 2/3,
    /// otherwise the split is even and `odd_to_a` — called only for an
    /// odd total — decides where the leftover goes.
    pub fn split(
        total: u64,
        holds_a: bool,
        holds_b: bool,
        sticky_a: bool,
        sticky_b: bool,
        odd_to_a: impl FnOnce() -> bool,
    ) -> u64 {
        match (holds_a, holds_b) {
            (true, false) => total,
            (false, true) => 0,
            _ => {
                let seed_share = (total * 2).div_ceil(3);
                if holds_a && sticky_a {
                    seed_share
                } else if holds_b && sticky_b {
                    total - seed_share
                } else {
                    total / 2 + u64::from(total % 2 == 1 && odd_to_a())
                }
            }
        }
    }

    /// One meeting of `a` and `b`: mint for its fulfillments, execute
    /// mandates in both directions, then route what remains.
    pub fn meet<H: MandateHost>(
        &self,
        host: &mut H,
        a: usize,
        b: usize,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) {
        for f in fulfilled {
            self.mint(host.pool_mut(f.node), f.item, f.queries, metrics, rng);
        }
        self.execute(host, a, b, rng);
        self.execute(host, b, a, rng);
        if self.cfg.mandate_routing {
            self.route(host, a, b, rng);
        }
    }

    /// Execute eligible mandates held by `carrier` against peer `peer`:
    /// one copy of each mandated item may be produced per meeting, and
    /// only when the carrier itself possesses a replica to transmit —
    /// §5.3's possession requirement ("it could be that, when a replica
    /// of the item needs to be produced, this item is no longer in the
    /// possession of the node desiring to replicate it"). Mandates whose
    /// carrier lacks the item *stall*; mandate routing exists precisely
    /// to move them to nodes that can execute them.
    pub fn execute<H: MandateHost>(
        &self,
        host: &mut H,
        carrier: usize,
        peer: usize,
        rng: &mut Xoshiro256,
    ) {
        let items: Vec<u32> = host.pool(carrier).keys().copied().collect();
        for item in items {
            if !host.holds(carrier, item) {
                continue; // stalled: replica lost to random replacement
            }
            let burn = if host.holds(peer, item) {
                self.cfg.rewriting // without rewriting the contact is ignored
            } else {
                host.replicate(peer, item, rng)
            };
            if burn {
                let pool = host.pool_mut(carrier);
                let left = pool.get(&item).map_or(0, |c| c.saturating_sub(1));
                set_pool(pool, item, left);
            }
        }
    }

    /// Route mandates between the two meeting nodes (§5.3 / §6.1) by
    /// [`QcrParams::split`], flipping a coin for an odd leftover.
    pub fn route<H: MandateHost>(&self, host: &mut H, a: usize, b: usize, rng: &mut Xoshiro256) {
        let mut items: Vec<u32> = host
            .pool(a)
            .keys()
            .chain(host.pool(b).keys())
            .copied()
            .collect();
        items.sort_unstable();
        items.dedup();
        for item in items {
            let count = |n: usize| host.pool(n).get(&item).copied().unwrap_or(0);
            let total = (count(a) + count(b)).min(self.cfg.mandate_cap);
            if total == 0 {
                continue;
            }
            let sticky = host.sticky_owner(item);
            let to_a = Self::split(
                total,
                host.holds(a, item),
                host.holds(b, item),
                sticky == a,
                sticky == b,
                || rng.bernoulli(0.5),
            );
            set_pool(host.pool_mut(a), item, to_a);
            set_pool(host.pool_mut(b), item, total - to_a);
        }
    }
}

fn set_pool(pool: &mut MandatePool, item: u32, count: u64) {
    if count == 0 {
        pool.remove(&item);
    } else {
        pool.insert(item, count);
    }
}

/// The serial engine's QCR policy: the shared protocol plus one mandate
/// pool per node.
pub struct Qcr {
    params: QcrParams,
    mandates: Vec<MandatePool>,
}

impl Qcr {
    /// A QCR policy instance (per trial) over a population of `nodes`.
    pub fn new(params: QcrParams, nodes: usize) -> Self {
        Qcr {
            params,
            mandates: vec![MandatePool::new(); nodes],
        }
    }

    /// Total outstanding mandates (diagnostic; diverges without routing).
    pub fn outstanding_mandates(&self) -> u64 {
        self.mandates.iter().flat_map(|m| m.values()).sum()
    }
}

/// The serial engine's view of a meeting: global state plus the pools.
struct SerialHost<'a> {
    state: &'a mut SimState,
    mandates: &'a mut [MandatePool],
}

impl MandateHost for SerialHost<'_> {
    fn holds(&self, node: usize, item: u32) -> bool {
        self.state.caches.holds(node, item)
    }

    fn replicate(&mut self, node: usize, item: u32, rng: &mut Xoshiro256) -> bool {
        self.state.replicate(item, node, rng)
    }

    fn pool(&self, node: usize) -> &MandatePool {
        &self.mandates[node]
    }

    fn pool_mut(&mut self, node: usize) -> &mut MandatePool {
        &mut self.mandates[node]
    }

    fn sticky_owner(&self, item: u32) -> usize {
        self.state.sticky_owner[item as usize]
    }
}

impl ReplicationPolicy for Qcr {
    #[allow(clippy::too_many_arguments)]
    fn after_contact(
        &mut self,
        _t: f64,
        a: usize,
        b: usize,
        state: &mut SimState,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    ) {
        let mut host = SerialHost {
            state,
            mandates: &mut self.mandates,
        };
        self.params.meet(&mut host, a, b, fulfilled, metrics, rng);
    }
}

/// Execute/route scenarios shared by every [`MandateHost`] driver's unit
/// tests, so the serial host and both sharded meeting shapes replay the
/// identical table.
#[cfg(test)]
pub(crate) mod scenarios {
    use super::*;
    use crate::state::CacheMut;
    use impatience_core::utility::Step;

    /// Items in a scenario's catalog; every cache has ρ = 2 slots.
    pub(crate) const ITEMS: usize = 4;

    pub(crate) enum Op {
        /// Execute the mandates of end `.0` against end `.1`.
        Execute(usize, usize),
        /// Route between end 0 and end 1.
        Route,
    }

    /// Two meeting ends, their caches and pools, a sequence of protocol
    /// steps and the expected pools and caches afterwards.
    pub(crate) struct Scenario {
        pub name: &'static str,
        pub rewriting: bool,
        pub caches: [&'static [u32]; 2],
        /// An end's sticky seed (pinned in its cache).
        pub sticky: [Option<u32>; 2],
        pub pools: [&'static [(u32, u64)]; 2],
        pub ops: &'static [Op],
        pub seed: u64,
        pub expect_pools: [&'static [(u32, u64)]; 2],
        pub expect_caches: [&'static [u32]; 2],
    }

    pub(crate) const SCENARIOS: &[Scenario] = &[
        Scenario {
            name: "execution copies only from holders to non-holders",
            rewriting: false,
            caches: [&[1], &[]],
            sticky: [None, None],
            pools: [&[(1, 2)], &[]],
            // The second execution meets a peer that now holds the item:
            // without rewriting the mandate is kept.
            ops: &[Op::Execute(0, 1), Op::Execute(0, 1)],
            seed: 3,
            expect_pools: [&[(1, 1)], &[]],
            expect_caches: [&[1], &[1]],
        },
        Scenario {
            name: "rewriting consumes a mandate without copying",
            rewriting: true,
            caches: [&[1], &[1]],
            sticky: [None, None],
            pools: [&[(1, 2)], &[]],
            ops: &[Op::Execute(0, 1)],
            seed: 4,
            expect_pools: [&[(1, 1)], &[]],
            expect_caches: [&[1], &[1]],
        },
        Scenario {
            name: "execution requires carrier possession",
            rewriting: false,
            caches: [&[], &[1]],
            sticky: [None, None],
            pools: [&[(1, 2)], &[]],
            ops: &[Op::Execute(0, 1)],
            seed: 31,
            expect_pools: [&[(1, 2)], &[]],
            expect_caches: [&[], &[1]],
        },
        Scenario {
            name: "mandates of a lost replica cannot execute",
            rewriting: false,
            caches: [&[], &[]],
            sticky: [None, None],
            pools: [&[(1, 3)], &[]],
            ops: &[Op::Execute(0, 1), Op::Execute(1, 0)],
            seed: 5,
            expect_pools: [&[(1, 3)], &[]],
            expect_caches: [&[], &[]],
        },
        Scenario {
            name: "routing moves mandates to the holder",
            rewriting: false,
            caches: [&[], &[2]],
            sticky: [None, None],
            pools: [&[(2, 5)], &[]],
            ops: &[Op::Route],
            seed: 6,
            expect_pools: [&[], &[(2, 5)]],
            expect_caches: [&[], &[2]],
        },
        Scenario {
            name: "routing splits evenly between two holders",
            rewriting: false,
            caches: [&[2], &[2]],
            sticky: [None, None],
            pools: [&[(2, 6)], &[]],
            ops: &[Op::Route],
            seed: 7,
            expect_pools: [&[(2, 3)], &[(2, 3)]],
            expect_caches: [&[2], &[2]],
        },
        Scenario {
            name: "routing gives the sticky seed 2/3",
            rewriting: false,
            caches: [&[2], &[2]],
            sticky: [Some(2), None],
            pools: [&[], &[(2, 6)]],
            ops: &[Op::Route],
            seed: 8,
            expect_pools: [&[(2, 4)], &[(2, 2)]],
            expect_caches: [&[2], &[2]],
        },
        Scenario {
            name: "routing flips a coin for an odd leftover and clamps at the cap",
            rewriting: false,
            caches: [&[0], &[]],
            sticky: [None, None],
            // Item 3: nobody holds it, so 7 splits 3 + 3 and this seed's
            // coin sends the leftover to end 1. Item 0: 15 + 10 clamp to
            // the cap of 20, all at the holder.
            pools: [&[(0, 15), (3, 7)], &[(0, 10)]],
            ops: &[Op::Route],
            seed: 9,
            expect_pools: [&[(0, 20), (3, 3)], &[(3, 4)]],
            expect_caches: [&[0], &[]],
        },
        Scenario {
            name: "execute then route, both directions",
            rewriting: false,
            caches: [&[0, 1], &[2]],
            sticky: [Some(0), Some(2)],
            pools: [&[(0, 2), (2, 1)], &[(1, 4), (2, 2)]],
            ops: &[Op::Execute(0, 1), Op::Execute(1, 0), Op::Route],
            seed: 10,
            // End 0 copies item 0 over; end 1 copies its seed item 2
            // back, evicting item 1. Routing then keeps item 0's mandate
            // at its seed, splits item 1 evenly and gives both of item
            // 2's mandates (2/3 of 2, rounded up) to its seed.
            expect_pools: [&[(0, 1), (1, 2)], &[(1, 2), (2, 2)]],
            expect_caches: [&[0, 2], &[0, 2]],
        },
    ];

    impl Scenario {
        /// Load end `e`'s cache (its sticky seed pinned first).
        pub(crate) fn load_cache(&self, e: usize, mut cache: CacheMut<'_>) {
            if let Some(item) = self.sticky[e] {
                cache.pin_sticky(item);
            }
            for &item in self.caches[e] {
                if self.sticky[e] != Some(item) {
                    cache.fill(item);
                }
            }
        }

        /// Sticky owner per item when the two ends are nodes `ids`.
        pub(crate) fn sticky_owners(&self, ids: [usize; 2]) -> Vec<usize> {
            let mut owners = vec![usize::MAX; ITEMS];
            for (sticky, node) in self.sticky.iter().zip(ids) {
                if let Some(item) = *sticky {
                    owners[item as usize] = node;
                }
            }
            owners
        }

        /// Seed the pools, run the steps on `host` (caches loaded, ends
        /// at nodes `ids`) and check the outcome through the trait.
        pub(crate) fn check<H: MandateHost>(&self, host: &mut H, ids: [usize; 2]) {
            for (pool, node) in self.pools.iter().zip(ids) {
                host.pool_mut(node).extend(pool.iter().copied());
            }
            let cfg = QcrConfig {
                rewriting: self.rewriting,
                ..QcrConfig::default()
            };
            let params = QcrParams::new(cfg, Arc::new(Step::new(10.0)), 4, 0.05, ITEMS, 2);
            let mut rng = Xoshiro256::seed_from_u64(self.seed);
            for op in self.ops {
                match *op {
                    Op::Execute(c, p) => params.execute(host, ids[c], ids[p], &mut rng),
                    Op::Route => params.route(host, ids[0], ids[1], &mut rng),
                }
            }
            for (e, node) in ids.into_iter().enumerate() {
                let pool: Vec<(u32, u64)> = host.pool(node).iter().map(|(&i, &c)| (i, c)).collect();
                assert_eq!(pool, self.expect_pools[e], "{}: pool of end {e}", self.name);
                let held: Vec<u32> = (0..ITEMS as u32).filter(|&i| host.holds(node, i)).collect();
                assert_eq!(
                    held, self.expect_caches[e],
                    "{}: cache of end {e}",
                    self.name
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::scenarios::SCENARIOS;
    use super::*;
    use impatience_core::utility::Step;

    fn params(cfg: QcrConfig) -> QcrParams {
        QcrParams::new(cfg, Arc::new(Step::new(10.0)), 4, 0.05, 4, 2)
    }

    fn outstanding(pool: &MandatePool) -> u64 {
        pool.values().sum()
    }

    #[test]
    fn minting_respects_zero_queries_and_cap() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut metrics = Metrics::new(100.0, 10.0);
        let p = params(QcrConfig {
            mandate_cap: 3,
            reaction: Reaction::Constant(10.0),
            ..QcrConfig::default()
        });
        let mut pool = MandatePool::new();
        assert_eq!(p.mint(&mut pool, 1, 0, &mut metrics, &mut rng), 0);
        assert_eq!(outstanding(&pool), 0, "y=0 must mint nothing");
        assert_eq!(p.mint(&mut pool, 1, 5, &mut metrics, &mut rng), 3);
        assert_eq!(outstanding(&pool), 3, "cap must clamp");
        assert_eq!(metrics.mandate_cap_hits, 1);
        assert_eq!(metrics.mandates_created, 3);
        // A full pool takes nothing more, and says so.
        assert_eq!(p.mint(&mut pool, 1, 5, &mut metrics, &mut rng), 0);
        assert_eq!(metrics.mandates_created, 3);
    }

    #[test]
    fn deposit_clamps_at_the_cap_and_reports_what_entered() {
        let p = params(QcrConfig {
            mandate_cap: 5,
            ..QcrConfig::default()
        });
        let mut pool = MandatePool::new();
        assert_eq!(p.deposit(&mut pool, 2, 3), 3);
        assert_eq!(p.deposit(&mut pool, 2, 4), 2);
        assert_eq!(pool.get(&2), Some(&5));
        let closed = params(QcrConfig {
            mandate_cap: 0,
            ..QcrConfig::default()
        });
        assert_eq!(closed.deposit(&mut pool, 3, 4), 0);
        assert!(!pool.contains_key(&3), "no zero entries");
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut metrics = Metrics::new(100.0, 10.0);
        let p = params(QcrConfig {
            reaction: Reaction::Constant(0.3),
            // Effectively uncapped so the pool can accumulate the mean.
            mandate_cap: u64::MAX,
            ..QcrConfig::default()
        });
        let mut pool = MandatePool::new();
        let n = 20_000;
        for _ in 0..n {
            p.mint(&mut pool, 1, 1, &mut metrics, &mut rng);
        }
        let mean = outstanding(&pool) as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn constant_reaction_acts_as_passive() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut metrics = Metrics::new(100.0, 10.0);
        let passive = PolicyKind::Passive { replicas: 1.0 };
        let p = QcrParams::for_policy(&passive, Arc::new(Step::new(10.0)), 4, 0.05, 4, 2)
            .expect("passive replication runs on mandates");
        let mut pool = MandatePool::new();
        p.mint(&mut pool, 1, 50, &mut metrics, &mut rng);
        assert_eq!(outstanding(&pool), 1, "one replica per fulfillment");
        let fixed = PolicyKind::Static {
            label: "UNI",
            counts: impatience_core::allocation::ReplicaCounts::zero(4, 2),
        };
        assert!(QcrParams::for_policy(&fixed, Arc::new(Step::new(10.0)), 4, 0.05, 4, 2).is_none());
    }

    #[test]
    fn split_coin_and_lower_id_tie_break_agree_off_the_tie() {
        for total in 0..=21u64 {
            for bits in 0..16u8 {
                let [ha, hb, sa, sb] = [0, 1, 2, 3].map(|k| bits & (1 << k) != 0);
                let tie = ha == hb && !(ha && sa) && !(hb && sb);
                if tie && total % 2 == 1 {
                    // The only place the two callers differ: the coin
                    // (serial, sharded) or the lower id (net) decides.
                    assert_eq!(
                        QcrParams::split(total, ha, hb, sa, sb, || true),
                        total / 2 + 1
                    );
                    assert_eq!(QcrParams::split(total, ha, hb, sa, sb, || false), total / 2);
                    continue;
                }
                // Even totals, sticky shares and holder-only totals never
                // consult the tie-break, so both callers agree.
                let to_a = QcrParams::split(total, ha, hb, sa, sb, || unreachable!("no coin"));
                // ⌈2t/3⌉ = t − ⌊t/3⌋.
                let seed_share = total - total / 3;
                let expected = match (ha, hb) {
                    (true, false) => total,
                    (false, true) => 0,
                    _ if ha && sa => seed_share,
                    _ if hb && sb => total - seed_share,
                    _ => total / 2,
                };
                assert_eq!(to_a, expected, "total {total}, bits {bits:04b}");
            }
        }
    }

    #[test]
    fn scenarios_through_the_serial_host() {
        for s in SCENARIOS {
            let mut state = SimState::new(2, scenarios::ITEMS, 2);
            for e in 0..2 {
                s.load_cache(e, state.caches.node_mut(e));
                for &item in s.caches[e] {
                    state.replicas[item as usize] += 1;
                }
            }
            state.sticky_owner = s.sticky_owners([0, 1]);
            let mut mandates = vec![MandatePool::new(); 2];
            let mut host = SerialHost {
                state: &mut state,
                mandates: &mut mandates,
            };
            s.check(&mut host, [0, 1]);
        }
    }

    #[test]
    fn no_routing_leaves_mandates_at_origin() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut state = SimState::new(4, 4, 2);
        state.seed_sticky_and_fill(&mut rng);
        let mut metrics = Metrics::new(100.0, 10.0);
        let cfg = QcrConfig {
            mandate_routing: false,
            reaction: Reaction::Constant(4.0),
            ..QcrConfig::default()
        };
        let mut p = Qcr::new(params(cfg), 4);
        // A fulfillment at node 0 mints 4 mandates; without routing they
        // stay at node 0 no matter how many contacts occur.
        let f = Fulfillment {
            node: 0,
            item: 3,
            queries: 2,
            wait: 1.0,
        };
        p.after_contact(1.0, 0, 1, &mut state, &[f], &mut metrics, &mut rng);
        let at_zero = outstanding(&p.mandates[0]);
        assert!(at_zero > 0);
        assert_eq!(p.outstanding_mandates(), at_zero, "nothing elsewhere");
    }
}
