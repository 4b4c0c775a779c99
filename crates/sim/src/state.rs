//! Mutable simulation state: node caches and replica bookkeeping.
//!
//! Caches follow the paper's rules (§5.1, §6.1): fixed capacity `ρ`,
//! random replacement on insertion, and one *sticky* replica per item that
//! can never be erased — the initial seeder keeps its copy, preventing
//! absorbing states where an item vanishes from the system.
//!
//! # Storage layout
//!
//! Cache state lives in a struct-of-arrays [`CacheArena`]: one flat slot
//! array (stride ρ), one flat stamp array, and per-node `len`/`sticky`/
//! `clock` vectors, all indexed by node id. Compared to the earlier
//! one-heap-object-per-node layout (a `Vec` of per-node caches, each with
//! its own slot vector and membership bitset) this removes ~5 allocations
//! per node and the per-node `|I|`-bit membership set — at n = 10⁶ nodes
//! the old layout cost gigabytes and a pointer chase per lookup, the
//! arena costs `n·ρ` words and an ≤ ρ-element scan. Cache-carrying nodes
//! occupy the id prefix `0..cache_nodes` (in a dedicated population the
//! servers come first; in pure P2P every node carries a cache), so
//! capacity is a branch, not a lookup. The sharded engine keeps one arena
//! per contiguous node block; the trial-start initializers reach either
//! layout through the crate's `NodeCaches` trait.
//!
//! Per-node views ([`CacheRef`]/[`CacheMut`]) expose the same operations
//! the per-node objects had, with identical RNG consumption and victim
//! selection, so trajectories are bit-identical to the previous layout.

use impatience_core::allocation::AllocationMatrix;
use impatience_core::rng::Xoshiro256;

/// Which occupant a full cache evicts on insertion.
///
/// The paper's model and analysis (Eq. 7) assume **random** replacement;
/// the alternatives are provided for ablation — recency-based policies
/// couple the cache contents to the request process and bias the
/// allocation away from the ψ-driven equilibrium.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Uniformly random non-sticky occupant (the paper's rule).
    #[default]
    Random,
    /// Least recently *used* (an insertion or a served request counts as
    /// a use).
    Lru,
    /// Oldest insertion (first in, first out).
    Fifo,
}

/// `sticky` sentinel: no pinned slot.
const NO_STICKY: u32 = u32::MAX;

/// Struct-of-arrays cache state for a whole population.
///
/// Nodes `0..cache_nodes` carry `rho`-slot caches; the rest (clients in a
/// dedicated population) have zero capacity and no arena storage.
#[derive(Clone, Debug)]
pub struct CacheArena {
    /// Total population size (servers + clients).
    nodes: usize,
    /// Nodes `0..cache_nodes` carry caches.
    cache_nodes: usize,
    /// Per-cache capacity ρ (the slot stride).
    rho: usize,
    /// Item held in each slot: node `n` owns `slots[n·ρ .. n·ρ + len[n]]`.
    slots: Vec<u32>,
    /// Per-slot timestamp (insertion for FIFO, last use for LRU).
    stamps: Vec<u64>,
    /// Occupied-slot count per cache-carrying node.
    len: Vec<u32>,
    /// Slot index of the sticky item per node ([`NO_STICKY`] = none).
    sticky: Vec<u32>,
    /// Logical clock driving the stamps, per node.
    clock: Vec<u64>,
    /// Eviction rule (arena-wide; the ablation hook applies globally).
    eviction: EvictionPolicy,
}

impl CacheArena {
    /// Empty caches: nodes `0..cache_nodes` get capacity `rho`, the rest
    /// capacity zero.
    pub fn new(nodes: usize, cache_nodes: usize, rho: usize) -> Self {
        assert!(cache_nodes <= nodes);
        CacheArena {
            nodes,
            cache_nodes,
            rho,
            slots: vec![0; cache_nodes * rho],
            stamps: vec![0; cache_nodes * rho],
            len: vec![0; cache_nodes],
            sticky: vec![NO_STICKY; cache_nodes],
            clock: vec![0; cache_nodes],
            eviction: EvictionPolicy::Random,
        }
    }

    /// Reset to the freshly-constructed state for the given shape,
    /// reusing existing allocations (the scratch-pool hook). The result
    /// is indistinguishable from [`CacheArena::new`].
    pub fn reset(&mut self, nodes: usize, cache_nodes: usize, rho: usize) {
        assert!(cache_nodes <= nodes);
        self.nodes = nodes;
        self.cache_nodes = cache_nodes;
        self.rho = rho;
        self.slots.clear();
        self.slots.resize(cache_nodes * rho, 0);
        self.stamps.clear();
        self.stamps.resize(cache_nodes * rho, 0);
        self.len.clear();
        self.len.resize(cache_nodes, 0);
        self.sticky.clear();
        self.sticky.resize(cache_nodes, NO_STICKY);
        self.clock.clear();
        self.clock.resize(cache_nodes, 0);
        self.eviction = EvictionPolicy::Random;
    }

    /// Total population size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of cache-carrying nodes (capacity > 0), i.e. servers.
    pub fn cache_nodes(&self) -> usize {
        if self.rho > 0 {
            self.cache_nodes
        } else {
            0
        }
    }

    /// Per-cache capacity of node `n` (ρ for servers, 0 for clients).
    #[inline]
    pub fn capacity_of(&self, n: usize) -> usize {
        if n < self.cache_nodes {
            self.rho
        } else {
            0
        }
    }

    /// Set the eviction rule (arena-wide ablation hook; call before
    /// seeding).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        self.eviction = policy;
    }

    /// Whether node `n` holds `item` — an ≤ ρ-element scan of its slots.
    #[inline]
    pub fn holds(&self, n: usize, item: u32) -> bool {
        if n >= self.cache_nodes {
            return false;
        }
        let base = n * self.rho;
        self.slots[base..base + self.len[n] as usize].contains(&item)
    }

    /// Shared view of node `n`'s cache.
    #[inline]
    pub fn node(&self, n: usize) -> CacheRef<'_> {
        assert!(n < self.nodes);
        CacheRef { arena: self, n }
    }

    /// Mutable view of node `n`'s cache.
    #[inline]
    pub fn node_mut(&mut self, n: usize) -> CacheMut<'_> {
        assert!(n < self.nodes);
        CacheMut { arena: self, n }
    }

    /// Iterate over all per-node views in node order.
    pub fn iter(&self) -> impl Iterator<Item = CacheRef<'_>> {
        (0..self.nodes).map(|n| CacheRef { arena: self, n })
    }
}

/// Shared view of one node's cache inside a [`CacheArena`].
#[derive(Clone, Copy)]
pub struct CacheRef<'a> {
    arena: &'a CacheArena,
    n: usize,
}

impl CacheRef<'_> {
    #[inline]
    fn base(&self) -> usize {
        self.n * self.arena.rho
    }

    /// Capacity ρ (0 for client nodes).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.arena.capacity_of(self.n)
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        if self.n < self.arena.cache_nodes {
            self.arena.len[self.n] as usize
        } else {
            0
        }
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this node holds `item`.
    #[inline]
    pub fn holds(&self, item: u32) -> bool {
        self.arena.holds(self.n, item)
    }

    /// The item pinned as sticky here, if any.
    pub fn sticky_item(&self) -> Option<u32> {
        if self.n >= self.arena.cache_nodes {
            return None;
        }
        let s = self.arena.sticky[self.n];
        (s != NO_STICKY).then(|| self.arena.slots[self.base() + s as usize])
    }

    /// Items currently cached.
    pub fn items(&self) -> &'_ [u32] {
        if self.n >= self.arena.cache_nodes {
            return &[];
        }
        let base = self.base();
        &self.arena.slots[base..base + self.arena.len[self.n] as usize]
    }
}

/// Mutable view of one node's cache inside a [`CacheArena`].
pub struct CacheMut<'a> {
    arena: &'a mut CacheArena,
    n: usize,
}

impl CacheMut<'_> {
    #[inline]
    fn base(&self) -> usize {
        self.n * self.arena.rho
    }

    fn len(&self) -> usize {
        if self.n < self.arena.cache_nodes {
            self.arena.len[self.n] as usize
        } else {
            0
        }
    }

    fn capacity(&self) -> usize {
        self.arena.capacity_of(self.n)
    }

    fn sticky(&self) -> Option<usize> {
        if self.n >= self.arena.cache_nodes {
            return None;
        }
        let s = self.arena.sticky[self.n];
        (s != NO_STICKY).then_some(s as usize)
    }

    /// Whether this node holds `item`.
    #[inline]
    pub fn holds(&self, item: u32) -> bool {
        self.arena.holds(self.n, item)
    }

    /// Position of `item` among the occupied slots, if present.
    fn position(&self, item: u32) -> Option<usize> {
        let base = self.base();
        self.arena.slots[base..base + self.len()]
            .iter()
            .position(|&i| i == item)
    }

    /// Record a *use* of `item` (a request served from this cache);
    /// relevant under [`EvictionPolicy::Lru`] only.
    pub fn touch(&mut self, item: u32) {
        if self.arena.eviction != EvictionPolicy::Lru {
            return;
        }
        if let Some(pos) = self.position(item) {
            self.arena.clock[self.n] += 1;
            let base = self.base();
            self.arena.stamps[base + pos] = self.arena.clock[self.n];
        }
    }

    /// Pin `item` as this node's sticky replica (inserting it if absent).
    ///
    /// # Panics
    /// Panics if a different sticky item is already pinned, or if the
    /// cache is full of *other* items and has no free slot (pin sticky
    /// items before filling).
    pub fn pin_sticky(&mut self, item: u32) {
        assert!(self.sticky().is_none(), "cache already has a sticky item");
        if let Some(pos) = self.position(item) {
            self.arena.sticky[self.n] = pos as u32;
            return;
        }
        assert!(
            self.len() < self.capacity(),
            "no free slot to pin the sticky replica"
        );
        self.arena.clock[self.n] += 1;
        let (base, len) = (self.base(), self.len());
        self.arena.slots[base + len] = item;
        self.arena.stamps[base + len] = self.arena.clock[self.n];
        self.arena.len[self.n] += 1;
        self.arena.sticky[self.n] = len as u32;
    }

    /// Fill a free slot with `item` (no eviction). Returns `false` if the
    /// item is already present.
    ///
    /// # Panics
    /// Panics if the cache is full.
    pub fn fill(&mut self, item: u32) -> bool {
        if self.holds(item) {
            return false;
        }
        assert!(
            self.len() < self.capacity(),
            "cache is full; use insert_evict"
        );
        self.arena.clock[self.n] += 1;
        let (base, len) = (self.base(), self.len());
        self.arena.slots[base + len] = item;
        self.arena.stamps[base + len] = self.arena.clock[self.n];
        self.arena.len[self.n] += 1;
        true
    }

    /// Replace the specific occupant `old` with `new` (used by the
    /// hill-climbing baseline, which chooses its victim deliberately).
    /// Returns `false` (unchanged) if `old` is absent, sticky, or `new`
    /// is already present.
    pub fn swap_item(&mut self, old: u32, new: u32) -> bool {
        if !self.holds(old) || self.holds(new) {
            return false;
        }
        let Some(pos) = self.position(old) else {
            return false;
        };
        if Some(pos) == self.sticky() {
            return false;
        }
        self.arena.clock[self.n] += 1;
        let base = self.base();
        self.arena.slots[base + pos] = new;
        self.arena.stamps[base + pos] = self.arena.clock[self.n];
        true
    }

    /// Insert `item`, evicting a uniformly random non-sticky occupant if
    /// the cache is full. Returns the evicted item, if any.
    ///
    /// Returns `Err(())` without modification when the item is already
    /// present, or when every slot is sticky (cannot evict).
    #[allow(clippy::result_unit_err)] // rejection carries no information beyond itself
    pub fn insert_evict(&mut self, item: u32, rng: &mut Xoshiro256) -> Result<Option<u32>, ()> {
        if self.holds(item) || self.capacity() == 0 {
            return Err(());
        }
        let (base, len) = (self.base(), self.len());
        if len < self.capacity() {
            self.arena.clock[self.n] += 1;
            self.arena.slots[base + len] = item;
            self.arena.stamps[base + len] = self.arena.clock[self.n];
            self.arena.len[self.n] += 1;
            return Ok(None);
        }
        // Choose a victim slot among non-sticky slots.
        let sticky = self.sticky();
        let candidates = len - usize::from(sticky.is_some());
        if candidates == 0 {
            return Err(());
        }
        let pick = match self.arena.eviction {
            EvictionPolicy::Random => {
                let mut pick = rng.index(candidates);
                if let Some(sticky) = sticky {
                    if pick >= sticky {
                        pick += 1;
                    }
                }
                pick
            }
            // LRU and FIFO: smallest stamp among non-sticky slots.
            EvictionPolicy::Lru | EvictionPolicy::Fifo => (0..len)
                .filter(|&s| Some(s) != sticky)
                .min_by_key(|&s| self.arena.stamps[base + s])
                .expect("candidates > 0"),
        };
        let evicted = self.arena.slots[base + pick];
        self.arena.clock[self.n] += 1;
        self.arena.slots[base + pick] = item;
        self.arena.stamps[base + pick] = self.arena.clock[self.n];
        Ok(Some(evicted))
    }

    /// Erase a uniformly random non-sticky occupant (fault injection:
    /// a slot failure loses its content without a replacement arriving).
    /// Returns the lost item, or `None` when nothing is erasable.
    pub fn drop_random_non_sticky(&mut self, rng: &mut Xoshiro256) -> Option<u32> {
        let sticky = self.sticky();
        let len = self.len();
        let candidates = len - usize::from(sticky.is_some());
        if candidates == 0 {
            return None;
        }
        let mut pick = rng.index(candidates);
        if let Some(sticky) = sticky {
            if pick >= sticky {
                pick += 1;
            }
        }
        let base = self.base();
        let lost = self.arena.slots[base + pick];
        // Shift the tail down one slot (the arena analogue of Vec::remove).
        self.arena
            .slots
            .copy_within(base + pick + 1..base + len, base + pick);
        self.arena
            .stamps
            .copy_within(base + pick + 1..base + len, base + pick);
        self.arena.len[self.n] -= 1;
        // The sticky slot's index shifts down when a lower slot vanishes.
        if let Some(sticky) = sticky {
            if sticky > pick {
                self.arena.sticky[self.n] = (sticky - 1) as u32;
            }
        }
        Some(lost)
    }
}

/// `next`-link sentinel: end of a queue / end of the free list.
const NIL: u32 = u32::MAX;

/// Flat arena of per-node pending-request queues.
///
/// Replaces the engines' per-node `Vec<Request>` jagged vectors: all
/// requests live in struct-of-arrays entry storage threaded into
/// per-node FIFO lists, with freed entries recycled through a free list.
/// After warmup a trial's steady-state request population churns in
/// place with **zero allocation**; across trials the arena is part of
/// [`crate::engine::TrialScratch`] and is reused outright.
///
/// `P` is the engine-specific creation stamp: `f64` event time for the
/// continuous engine, `u64` slot index for the discrete one. Queue order
/// is insertion order, exactly matching `Vec::push` + `retain_mut`, so
/// fulfillment and settlement sequences — and therefore RNG consumption
/// and metrics — are bit-identical to the jagged layout.
#[derive(Clone, Debug)]
pub struct RequestArena<P: Copy> {
    /// First pending entry per node ([`NIL`] = empty).
    head: Vec<u32>,
    /// Last pending entry per node (push target).
    tail: Vec<u32>,
    /// Entry link: next entry in the same node's queue, or free list.
    next: Vec<u32>,
    /// Requested item per entry.
    item: Vec<u32>,
    /// Creation stamp per entry.
    created: Vec<P>,
    /// Unanswered-query count per entry (the QCR reaction input).
    queries: Vec<u64>,
    /// Head of the recycled-entry list.
    free: u32,
    /// Live entries across all nodes.
    len: u64,
}

impl<P: Copy> Default for RequestArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Copy> RequestArena<P> {
    /// Empty arena for zero nodes; call [`RequestArena::reset`] to size.
    pub fn new() -> Self {
        RequestArena {
            head: Vec::new(),
            tail: Vec::new(),
            next: Vec::new(),
            item: Vec::new(),
            created: Vec::new(),
            queries: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Clear all queues and size for `nodes`, keeping entry capacity.
    pub fn reset(&mut self, nodes: usize) {
        self.head.clear();
        self.head.resize(nodes, NIL);
        self.tail.clear();
        self.tail.resize(nodes, NIL);
        self.next.clear();
        self.item.clear();
        self.created.clear();
        self.queries.clear();
        self.free = NIL;
        self.len = 0;
    }

    /// Total pending requests across all nodes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no request is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a fresh request (zero queries) to `node`'s queue.
    pub fn push(&mut self, node: usize, item: u32, created: P) {
        let slot = if self.free != NIL {
            let slot = self.free as usize;
            self.free = self.next[slot];
            self.item[slot] = item;
            self.created[slot] = created;
            self.queries[slot] = 0;
            self.next[slot] = NIL;
            slot as u32
        } else {
            self.item.push(item);
            self.created.push(created);
            self.queries.push(0);
            self.next.push(NIL);
            (self.item.len() - 1) as u32
        };
        if self.tail[node] == NIL {
            self.head[node] = slot;
        } else {
            self.next[self.tail[node] as usize] = slot;
        }
        self.tail[node] = slot;
        self.len += 1;
    }

    /// Walk `node`'s queue in insertion order; `keep(item, created,
    /// queries)` decides per request whether it stays pending. Removed
    /// entries are recycled. Semantically `Vec::retain_mut`.
    pub fn retain(&mut self, node: usize, mut keep: impl FnMut(u32, P, &mut u64) -> bool) {
        let mut prev = NIL;
        let mut cur = self.head[node];
        while cur != NIL {
            let i = cur as usize;
            let after = self.next[i];
            if keep(self.item[i], self.created[i], &mut self.queries[i]) {
                prev = cur;
            } else {
                if prev == NIL {
                    self.head[node] = after;
                } else {
                    self.next[prev as usize] = after;
                }
                if self.tail[node] == cur {
                    self.tail[node] = prev;
                }
                self.next[i] = self.free;
                self.free = cur;
                self.len -= 1;
            }
            cur = after;
        }
    }

    /// Iterate every pending request as `(node, item, created)` — nodes
    /// ascending, each queue in insertion order (the settlement sweep).
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, P)> + '_ {
        self.head.iter().enumerate().flat_map(move |(node, &h)| {
            let mut cur = h;
            std::iter::from_fn(move || {
                if cur == NIL {
                    return None;
                }
                let i = cur as usize;
                cur = self.next[i];
                Some((node, self.item[i], self.created[i]))
            })
        })
    }
}

/// Global mutable simulation state.
#[derive(Clone, Debug)]
pub struct SimState {
    /// Per-node caches (struct-of-arrays).
    pub caches: CacheArena,
    /// Live replica count per item (kept in sync with the caches).
    pub replicas: Vec<u32>,
    /// Sticky-seed node of each item (`usize::MAX` = none).
    pub sticky_owner: Vec<usize>,
    /// Total item copies transferred between nodes (energy proxy).
    pub transmissions: u64,
}

impl SimState {
    /// Apply an eviction rule to every cache (ablation hook; call before
    /// seeding).
    pub fn set_eviction(&mut self, policy: EvictionPolicy) {
        self.caches.set_eviction(policy);
    }
}

impl Default for SimState {
    /// A zero-node, zero-item state (a scratch placeholder to `reset`).
    fn default() -> Self {
        SimState::new(0, 0, 0)
    }
}

impl SimState {
    /// Empty caches, no sticky seeds (pure P2P: every node has capacity
    /// `rho`).
    pub fn new(nodes: usize, items: usize, rho: usize) -> Self {
        SimState {
            caches: CacheArena::new(nodes, nodes, rho),
            replicas: vec![0; items],
            sticky_owner: vec![usize::MAX; items],
            transmissions: 0,
        }
    }

    /// Dedicated population: nodes `0..servers` carry `rho`-slot caches,
    /// the remaining (client) nodes have zero capacity.
    pub fn new_dedicated(nodes: usize, servers: usize, items: usize, rho: usize) -> Self {
        assert!(servers <= nodes);
        SimState {
            caches: CacheArena::new(nodes, servers, rho),
            replicas: vec![0; items],
            sticky_owner: vec![usize::MAX; items],
            transmissions: 0,
        }
    }

    /// Reset to the state [`SimState::new`] would build (or
    /// [`SimState::new_dedicated`] when `servers < nodes`), reusing the
    /// existing allocations — the scratch-pool hook that removes per-trial
    /// state construction from the campaign hot path.
    pub fn reset(&mut self, nodes: usize, servers: usize, items: usize, rho: usize) {
        self.caches.reset(nodes, servers, rho);
        self.replicas.clear();
        self.replicas.resize(items, 0);
        self.sticky_owner.clear();
        self.sticky_owner.resize(items, usize::MAX);
        self.transmissions = 0;
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.caches.nodes()
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.replicas.len()
    }

    /// QCR warm start (§6.1): pin item `i`'s sticky replica on a server
    /// (round robin in random server order), then fill every remaining
    /// slot with distinct random items so the global cache starts full.
    /// Zero-capacity (client) caches are skipped.
    pub fn seed_sticky_and_fill(&mut self, rng: &mut Xoshiro256) {
        let mut owners = std::mem::take(&mut self.sticky_owner);
        seed_sticky_and_fill(self, &mut owners, rng);
        self.sticky_owner = owners;
    }

    /// Number of cache-carrying (server) nodes.
    pub fn servers(&self) -> usize {
        self.caches.cache_nodes()
    }

    /// Pin caches to a precomputed allocation (for the fixed-allocation
    /// competitors). No sticky slots; the policies never mutate caches.
    /// Column `k` of the matrix maps to the `k`-th cache-carrying node
    /// (in a dedicated population, servers occupy the low node ids).
    pub fn load_allocation(&mut self, alloc: &AllocationMatrix) {
        load_allocation(self, alloc);
    }

    /// Fault injection: erase a random non-sticky slot of `server`,
    /// keeping the replica count in sync. Returns the lost item, if any.
    pub fn fail_cache_slot(&mut self, server: usize, rng: &mut Xoshiro256) -> Option<u32> {
        let lost = self.caches.node_mut(server).drop_random_non_sticky(rng)?;
        self.replicas[lost as usize] -= 1;
        Some(lost)
    }

    /// Copy `item` into `to`'s cache with random replacement (respecting
    /// sticky slots). Returns `true` if a new replica was created.
    pub fn replicate(&mut self, item: u32, to: usize, rng: &mut Xoshiro256) -> bool {
        let cache = self.caches.node_mut(to);
        copy_into(
            cache,
            item,
            &mut self.replicas,
            &mut self.transmissions,
            rng,
        )
    }
}

/// Node-keyed access to caches and the replica counts they are booked
/// in, whether one arena holds the whole population ([`SimState`]) or
/// the sharded engine splits it into per-shard blocks. The trial-start
/// initializers ([`seed_sticky_and_fill`], [`load_allocation`]) are
/// written once against it.
pub(crate) trait NodeCaches {
    /// Population size; node ids are `0..nodes()`.
    fn nodes(&self) -> usize;
    /// Catalog size.
    fn items(&self) -> usize;
    /// Cache capacity of node `n` (0 for clients).
    fn capacity_of(&self, n: usize) -> usize;
    /// Node `n`'s cache and the per-item replica counts it is booked in.
    fn cache_mut(&mut self, n: usize) -> (CacheMut<'_>, &mut [u32]);
}

impl NodeCaches for SimState {
    fn nodes(&self) -> usize {
        self.caches.nodes()
    }

    fn items(&self) -> usize {
        self.replicas.len()
    }

    fn capacity_of(&self, n: usize) -> usize {
        self.caches.capacity_of(n)
    }

    fn cache_mut(&mut self, n: usize) -> (CacheMut<'_>, &mut [u32]) {
        (self.caches.node_mut(n), &mut self.replicas)
    }
}

/// [`SimState::seed_sticky_and_fill`] over any node layout;
/// `sticky_owner[i]` records item `i`'s seed node.
pub(crate) fn seed_sticky_and_fill<C: NodeCaches + ?Sized>(
    caches: &mut C,
    sticky_owner: &mut [usize],
    rng: &mut Xoshiro256,
) {
    let items = caches.items();
    let mut node_order: Vec<usize> = (0..caches.nodes())
        .filter(|&n| caches.capacity_of(n) > 0)
        .collect();
    assert!(!node_order.is_empty(), "no cache-carrying nodes to seed");
    let nodes = node_order.len();
    rng.shuffle(&mut node_order);
    for item in 0..items {
        let node = node_order[item % nodes];
        let (mut cache, replicas) = caches.cache_mut(node);
        let room = cache.len() < cache.capacity();
        if cache.sticky().is_none() && room {
            cache.pin_sticky(item as u32);
            sticky_owner[item] = node;
            replicas[item] += 1;
        } else if room && cache.fill(item as u32) {
            // More items than nodes: overflow seeds are regular
            // (non-sticky) copies on the next nodes with room.
            replicas[item] += 1;
        }
    }
    // Fill remaining slots with random distinct items.
    for &node in &node_order {
        let (mut cache, replicas) = caches.cache_mut(node);
        let mut guard = 0;
        while cache.len() < cache.capacity() {
            let item = rng.index(items) as u32;
            if cache.fill(item) {
                replicas[item as usize] += 1;
            }
            guard += 1;
            if guard > 100 * items {
                break; // catalog smaller than capacity: leave free
            }
        }
    }
}

/// [`SimState::load_allocation`] over any node layout.
pub(crate) fn load_allocation<C: NodeCaches + ?Sized>(caches: &mut C, alloc: &AllocationMatrix) {
    let servers = (0..caches.nodes()).filter(|&n| caches.capacity_of(n) > 0);
    assert_eq!(
        alloc.servers(),
        servers.count(),
        "allocation server count mismatch"
    );
    assert_eq!(alloc.items(), caches.items());
    let mut col = 0;
    for node in 0..caches.nodes() {
        if caches.capacity_of(node) == 0 {
            continue;
        }
        let (mut cache, replicas) = caches.cache_mut(node);
        for item in alloc.cache_of(col) {
            if cache.fill(item as u32) {
                replicas[item] += 1;
            }
        }
        col += 1;
    }
}

/// Copy `item` into `cache` with random replacement, keeping the replica
/// and transmission books; `true` if a new replica was created. Shared by
/// [`SimState::replicate`] and the sharded engine's per-block copies.
#[inline]
pub(crate) fn copy_into(
    mut cache: CacheMut<'_>,
    item: u32,
    replicas: &mut [u32],
    transmissions: &mut u64,
    rng: &mut Xoshiro256,
) -> bool {
    match cache.insert_evict(item, rng) {
        Ok(evicted) => {
            replicas[item as usize] += 1;
            if let Some(old) = evicted {
                replicas[old as usize] -= 1;
            }
            *transmissions += 1;
            true
        }
        Err(()) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node arena stands in for the former per-node cache object.
    fn single(rho: usize) -> CacheArena {
        CacheArena::new(1, 1, rho)
    }

    #[test]
    fn cache_fill_and_membership() {
        let mut a = single(3);
        let mut c = a.node_mut(0);
        assert!(c.fill(4));
        assert!(!c.fill(4));
        assert!(c.fill(7));
        assert!(c.holds(4));
        assert!(!c.holds(5));
        assert_eq!(a.node(0).len(), 2);
        assert!(!a.node(0).is_empty());
    }

    #[test]
    fn eviction_is_random_but_never_sticky() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut a = single(3);
        let mut c = a.node_mut(0);
        c.pin_sticky(0);
        c.fill(1);
        c.fill(2);
        // Insert many items: 0 must survive every eviction.
        for item in 3..10u32 {
            let evicted = a.node_mut(0).insert_evict(item, &mut rng).unwrap();
            assert_ne!(evicted, Some(0), "sticky item evicted");
            assert!(a.node(0).holds(0));
            assert_eq!(a.node(0).len(), 3);
        }
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut rng = Xoshiro256::seed_from_u64(40);
        let mut a = single(3);
        a.set_eviction(EvictionPolicy::Fifo);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        assert_eq!(c.insert_evict(3, &mut rng), Ok(Some(0)));
        assert_eq!(c.insert_evict(4, &mut rng), Ok(Some(1)));
        assert!(c.holds(2) && c.holds(3) && c.holds(4));
    }

    #[test]
    fn lru_touch_protects_recently_used() {
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut a = single(3);
        a.set_eviction(EvictionPolicy::Lru);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.fill(2);
        // Without a touch, item 0 (oldest) would go; touching it shifts
        // the eviction to item 1.
        c.touch(0);
        assert_eq!(c.insert_evict(3, &mut rng), Ok(Some(1)));
        assert!(c.holds(0));
    }

    #[test]
    fn lru_respects_sticky() {
        let mut rng = Xoshiro256::seed_from_u64(42);
        let mut a = single(2);
        a.set_eviction(EvictionPolicy::Lru);
        let mut c = a.node_mut(0);
        c.pin_sticky(0); // oldest stamp, but pinned
        c.fill(1);
        assert_eq!(c.insert_evict(2, &mut rng), Ok(Some(1)));
        assert!(c.holds(0));
    }

    #[test]
    fn touch_is_noop_outside_lru() {
        let mut rng = Xoshiro256::seed_from_u64(43);
        let mut a = single(2);
        a.set_eviction(EvictionPolicy::Fifo);
        let mut c = a.node_mut(0);
        c.fill(0);
        c.fill(1);
        c.touch(0); // FIFO ignores uses
        assert_eq!(c.insert_evict(2, &mut rng), Ok(Some(0)));
    }

    #[test]
    fn insert_existing_is_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut a = single(2);
        let mut c = a.node_mut(0);
        c.fill(1);
        assert_eq!(c.insert_evict(1, &mut rng), Err(()));
    }

    #[test]
    fn all_sticky_cache_rejects_eviction() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut a = single(1);
        let mut c = a.node_mut(0);
        c.pin_sticky(2);
        assert_eq!(c.insert_evict(4, &mut rng), Err(()));
        assert!(c.holds(2));
    }

    #[test]
    fn pin_sticky_on_existing_item() {
        let mut a = single(2);
        let mut c = a.node_mut(0);
        c.fill(3);
        c.pin_sticky(3);
        assert_eq!(a.node(0).sticky_item(), Some(3));
        assert_eq!(a.node(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already has a sticky item")]
    fn second_sticky_rejected() {
        let mut a = single(3);
        a.node_mut(0).pin_sticky(0);
        a.node_mut(0).pin_sticky(1);
    }

    #[test]
    fn client_nodes_have_no_storage() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut a = CacheArena::new(3, 1, 2);
        a.node_mut(0).fill(1);
        assert_eq!(a.capacity_of(2), 0);
        assert!(!a.node(2).holds(1));
        assert!(a.node(2).items().is_empty());
        assert_eq!(a.node(2).sticky_item(), None);
        assert_eq!(a.node_mut(2).insert_evict(1, &mut rng), Err(()));
        assert!(a.node_mut(2).drop_random_non_sticky(&mut rng).is_none());
    }

    #[test]
    fn seed_sticky_and_fill_invariants() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut state = SimState::new(50, 50, 5);
        state.seed_sticky_and_fill(&mut rng);
        // Every item has a sticky owner and ≥ 1 replica.
        for item in 0..50 {
            assert!(
                state.sticky_owner[item] != usize::MAX,
                "item {item} unseeded"
            );
            assert!(state.replicas[item] >= 1);
            let owner = state.sticky_owner[item];
            assert_eq!(state.caches.node(owner).sticky_item(), Some(item as u32));
        }
        // Caches are full and replica counts consistent.
        let mut recount = vec![0u32; 50];
        for c in state.caches.iter() {
            assert_eq!(c.len(), 5);
            for &i in c.items() {
                recount[i as usize] += 1;
            }
        }
        assert_eq!(recount, state.replicas);
        // Budget: 250 slots in use.
        assert_eq!(state.replicas.iter().map(|&r| r as u64).sum::<u64>(), 250);
    }

    #[test]
    fn seed_with_more_items_than_nodes() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut state = SimState::new(4, 10, 3);
        state.seed_sticky_and_fill(&mut rng);
        // Only 4 sticky seeds possible; every node has exactly one.
        let sticky_count = state
            .sticky_owner
            .iter()
            .filter(|&&o| o != usize::MAX)
            .count();
        assert_eq!(sticky_count, 4);
        for c in state.caches.iter() {
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn drop_random_keeps_sticky_tracked() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut a = single(4);
        let mut c = a.node_mut(0);
        c.fill(1);
        c.fill(2);
        c.pin_sticky(7); // sticky lands in slot 2
        c.fill(3);
        for _ in 0..3 {
            let lost = a.node_mut(0).drop_random_non_sticky(&mut rng).unwrap();
            assert_ne!(lost, 7, "sticky item erased");
            assert_eq!(
                a.node(0).sticky_item(),
                Some(7),
                "sticky slot index drifted"
            );
        }
        assert_eq!(a.node(0).len(), 1);
        assert!(a.node_mut(0).drop_random_non_sticky(&mut rng).is_none());
        assert!(a.node(0).holds(7));
    }

    #[test]
    fn fail_cache_slot_syncs_replicas() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        let mut state = SimState::new(2, 5, 2);
        state.caches.node_mut(0).fill(1);
        state.caches.node_mut(0).fill(4);
        state.replicas = vec![0, 1, 0, 0, 1];
        let lost = state.fail_cache_slot(0, &mut rng).unwrap();
        assert_eq!(state.replicas[lost as usize], 0);
        assert_eq!(state.replicas.iter().sum::<u32>(), 1);
        // Drained caches fail without effect.
        let _ = state.fail_cache_slot(1, &mut rng);
        state.replicas = vec![0; 5];
        assert!(state.fail_cache_slot(1, &mut rng).is_none());
    }

    #[test]
    fn replicate_updates_counts() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut state = SimState::new(3, 5, 2);
        state.caches.node_mut(0).fill(1);
        state.replicas[1] = 1;
        assert!(state.replicate(1, 2, &mut rng));
        assert_eq!(state.replicas[1], 2);
        assert_eq!(state.transmissions, 1);
        // Duplicate insert is a no-op.
        assert!(!state.replicate(1, 2, &mut rng));
        assert_eq!(state.transmissions, 1);
    }

    #[test]
    fn replicate_with_eviction_keeps_global_count() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let mut state = SimState::new(2, 4, 1);
        state.caches.node_mut(0).fill(0);
        state.caches.node_mut(1).fill(1);
        state.replicas = vec![1, 1, 0, 0];
        assert!(state.replicate(2, 1, &mut rng));
        assert_eq!(state.replicas, vec![1, 0, 1, 0]);
        let total: u32 = state.replicas.iter().sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn load_allocation_matches_matrix() {
        let counts = impatience_core::allocation::ReplicaCounts::new(vec![2, 1, 0], 3);
        let alloc = AllocationMatrix::from_counts(&counts, 2);
        let mut state = SimState::new(3, 3, 2);
        state.load_allocation(&alloc);
        assert_eq!(state.replicas, vec![2, 1, 0]);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut used = SimState::new(12, 8, 3);
        used.set_eviction(EvictionPolicy::Lru);
        used.seed_sticky_and_fill(&mut rng);
        used.replicate(0, 3, &mut rng);
        used.reset(9, 4, 6, 2);
        let fresh = SimState::new_dedicated(9, 4, 6, 2);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
        // And the reset state behaves identically under the same seed.
        let mut r1 = Xoshiro256::seed_from_u64(5);
        let mut r2 = Xoshiro256::seed_from_u64(5);
        let mut fresh = fresh;
        used.seed_sticky_and_fill(&mut r1);
        fresh.seed_sticky_and_fill(&mut r2);
        assert_eq!(format!("{used:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn request_arena_matches_vec_retain_semantics() {
        // Mirror a jagged Vec<Vec<(item, created, queries)>> through the
        // same operation sequence and require identical contents/order.
        let mut arena: RequestArena<f64> = RequestArena::new();
        arena.reset(3);
        let mut model: Vec<Vec<(u32, f64, u64)>> = vec![Vec::new(); 3];
        let mut rng = Xoshiro256::seed_from_u64(77);
        for step in 0..200u32 {
            let node = rng.index(3);
            if rng.bernoulli(0.6) {
                let item = step % 7;
                arena.push(node, item, step as f64);
                model[node].push((item, step as f64, 0));
            } else {
                let drop_item = step % 7;
                arena.retain(node, |item, _, q| {
                    if item == drop_item {
                        false
                    } else {
                        *q += 1;
                        true
                    }
                });
                model[node].retain_mut(|r| {
                    if r.0 == drop_item {
                        false
                    } else {
                        r.2 += 1;
                        true
                    }
                });
            }
        }
        let expect: Vec<(usize, u32, f64)> = model
            .iter()
            .enumerate()
            .flat_map(|(n, q)| q.iter().map(move |&(i, c, _)| (n, i, c)))
            .collect();
        let got: Vec<(usize, u32, f64)> = arena.iter().collect();
        assert_eq!(got, expect);
        assert_eq!(arena.len() as usize, expect.len());
        // Reset recycles storage and empties every queue.
        arena.reset(2);
        assert!(arena.is_empty());
        assert_eq!(arena.iter().count(), 0);
    }

    #[test]
    fn request_arena_recycles_entries() {
        let mut arena: RequestArena<u64> = RequestArena::new();
        arena.reset(1);
        for round in 0..50u64 {
            arena.push(0, 1, round);
            arena.push(0, 2, round);
            arena.retain(0, |item, _, _| item != 1);
            arena.retain(0, |item, _, _| item != 2);
        }
        assert!(arena.is_empty());
        // Steady-state churn must not grow entry storage unboundedly.
        assert!(arena.item.len() <= 2, "entries not recycled");
    }
}
