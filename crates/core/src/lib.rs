//! # impatience-core
//!
//! Theory layer of the *Age of Impatience* reproduction (Reich & Chaintreau,
//! CoNEXT 2009): delay-utility functions, social-welfare computation, and
//! optimal cache-allocation solvers for P2P content dissemination over
//! opportunistic (delay-tolerant) networks.
//!
//! ## The model in one paragraph
//!
//! A population of *server* nodes `S`, each with a cache of `ρ` equally sized
//! slots, opportunistically serves a population of *client* nodes `C`
//! requesting items from a catalog `I`. A request for item `i` issued by
//! client `n` is fulfilled at the first meeting with a node caching a replica
//! of `i`; meetings follow (in the analytical model) independent memoryless
//! contact processes with rates `μ_{m,n}`. The user's *impatience* is a
//! monotonically decreasing delay-utility `h_i(t)`: the value of receiving
//! item `i` after waiting `t`. The *social welfare* of a global cache
//! allocation `x` is `U(x) = Σ_i d_i Σ_n π_{i,n} E[h_i(Y_{i,n}(x))]` where
//! `d_i` are demand rates and `Y` the fulfillment delay (paper Eq. 1).
//!
//! ## What lives where
//!
//! * [`utility`] — the delay-utility families of §3.2 (step, exponential,
//!   power, negative logarithm), their differential form `c = −h′`, and the
//!   two transforms the paper builds on them: the equilibrium condition
//!   `φ` (Property 1) and the QCR reaction function `ψ` (Property 2).
//! * [`welfare`] — expected gains `U_{i,n}(x)` (Lemma 1) and the homogeneous
//!   closed forms (Eqs. 2–5), plus fully heterogeneous evaluation.
//! * [`solver`] — the greedy allocator of Theorem 2 (exact under
//!   homogeneous contacts), the lazy submodular greedy of Theorem 1
//!   (`1−1/e` guarantee, heterogeneous), the relaxed water-filling optimum
//!   of Property 1, and the fixed heuristics (UNI/SQRT/PROP/DOM) used as
//!   competitors in §6.
//! * [`allocation`] — replica-count vectors and per-server allocation
//!   matrices with feasibility invariants.
//! * [`demand`] — content-popularity models (Pareto/Zipf, …) and per-node
//!   demand profiles `π_{i,n}`.
//! * [`hash`] — FNV-1a (64- and 32-bit), shared by content hashes, wire
//!   checksums and event digests.
//! * [`rng`] — a deterministic, dependency-free xoshiro256++ PRNG and the
//!   samplers used throughout the workspace (exponential, Pareto, Poisson,
//!   alias method). Bit-stable results across toolchain upgrades.
//! * [`numeric`] — the small numerical toolbox (adaptive quadrature,
//!   bisection, Lanczos Γ) backing the closed-form-free code paths.
//!
//! ## Quickstart
//!
//! ```
//! use impatience_core::prelude::*;
//!
//! // 50 items with Pareto(ω=1) popularity, 50 pure-P2P nodes, cache ρ=5.
//! let demand = Popularity::pareto(50, 1.0).demand_rates(1.0);
//! let system = SystemModel::pure_p2p(50, 5, 0.05);
//! let utility = Power::new(0.0); // "waiting cost" impatience
//!
//! // Exact optimal allocation under homogeneous contacts (Theorem 2).
//! let opt = greedy_homogeneous(&system, &demand, &utility);
//! let welfare = social_welfare_homogeneous(&system, &demand, &utility, &opt.as_f64());
//! assert!(welfare > f64::NEG_INFINITY);
//! // Popular items get at least as many replicas as unpopular ones:
//! assert!(opt.counts()[0] >= opt.counts()[49]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod allocation;
pub mod demand;
pub mod hash;
pub mod numeric;
pub mod rng;
pub mod solver;
pub mod types;
pub mod utility;
pub mod welfare;

pub mod prelude {
    //! Convenience re-exports of the most used types.
    pub use crate::allocation::{AllocationMatrix, ReplicaCounts};
    pub use crate::demand::{DemandProfile, DemandRates, Popularity};
    pub use crate::rng::Xoshiro256;
    pub use crate::solver::fixed::{dominant, proportional, sqrt_proportional, uniform};
    pub use crate::solver::greedy::{
        brute_force_homogeneous, greedy_homogeneous, try_greedy_homogeneous,
    };
    pub use crate::solver::het_greedy::greedy_heterogeneous;
    pub use crate::solver::relaxed::{relaxed_optimum, try_relaxed_optimum};
    pub use crate::solver::SolverError;
    pub use crate::types::{ItemId, NodeId, Population, SystemModel};
    pub use crate::utility::{Custom, DelayUtility, Exponential, NegLog, Power, Step, UtilityKind};
    pub use crate::welfare::{
        expected_gain_continuous, social_welfare_heterogeneous, social_welfare_homogeneous,
        social_welfare_homogeneous_discrete,
    };
}
