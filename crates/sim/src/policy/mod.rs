//! Replication policies: what happens to the caches when nodes meet.
//!
//! The engine handles request fulfillment and query counting; a policy
//! only decides how to *replicate* content. See [`Qcr`] for the paper's
//! distributed scheme and [`StaticAllocation`] for the fixed competitors.

mod hill_climb;
mod qcr;
mod static_alloc;

pub use hill_climb::HillClimb;
#[cfg(test)]
pub(crate) use qcr::scenarios;
pub use qcr::{MandateHost, MandatePool, Qcr, QcrConfig, QcrParams, Reaction};
pub use static_alloc::StaticAllocation;

use std::sync::Arc;

use impatience_core::allocation::ReplicaCounts;
use impatience_core::rng::Xoshiro256;
use impatience_core::utility::DelayUtility;

use crate::metrics::Metrics;
use crate::state::SimState;

/// One fulfilled request, reported by the engine to the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fulfillment {
    /// The node whose request was fulfilled.
    pub node: usize,
    /// The item.
    pub item: u32,
    /// Final query-counter value (number of meetings until fulfillment,
    /// inclusive; 0 for immediate self-cache hits).
    pub queries: u64,
    /// Waiting time experienced.
    pub wait: f64,
}

/// A replication policy instance (one per trial; owns its protocol
/// state, e.g. QCR's mandate pools).
pub trait ReplicationPolicy {
    /// Called once per contact `(a, b)` at time `t`, after the engine has
    /// processed fulfillments (both directions). The policy may mutate
    /// caches through `state`.
    #[allow(clippy::too_many_arguments)] // a contact carries exactly this context
    fn after_contact(
        &mut self,
        t: f64,
        a: usize,
        b: usize,
        state: &mut SimState,
        fulfilled: &[Fulfillment],
        metrics: &mut Metrics,
        rng: &mut Xoshiro256,
    );

    /// Initialize caches at trial start. Default: QCR-style sticky seed +
    /// random fill.
    fn initialize(&mut self, state: &mut SimState, rng: &mut Xoshiro256) {
        state.seed_sticky_and_fill(rng);
    }
}

/// Cloneable descriptor of a policy, instantiated per trial.
#[derive(Clone)]
pub enum PolicyKind {
    /// Query Counting Replication (§5) with the given knobs.
    Qcr(QcrConfig),
    /// A fixed allocation (perfect control channel): caches are pinned to
    /// the given replica counts and never change.
    Static {
        /// Human-readable label (e.g. "OPT", "UNI").
        label: &'static str,
        /// The allocation to pin.
        counts: ReplicaCounts,
    },
    /// Passive replication: a constant number of replicas per
    /// fulfillment (mandate machinery shared with QCR). Converges toward
    /// the proportional allocation (§6.2).
    Passive {
        /// Replicas created per fulfillment.
        replicas: f64,
    },
    /// §4.1's hill-climbing baseline: full-knowledge welfare marginals,
    /// but cache changes only through local moves at meetings.
    HillClimb {
        /// Improving moves attempted per meeting per node.
        moves_per_contact: usize,
    },
}

impl PolicyKind {
    /// QCR with default knobs (mandate routing on, rewriting off).
    pub fn qcr_default() -> Self {
        PolicyKind::Qcr(QcrConfig::default())
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            PolicyKind::Qcr(cfg) => {
                if cfg.mandate_routing {
                    "QCR".into()
                } else {
                    "QCR-no-routing".into()
                }
            }
            PolicyKind::Static { label, .. } => (*label).into(),
            PolicyKind::Passive { replicas } => format!("PASSIVE({replicas})"),
            PolicyKind::HillClimb { .. } => "HILL".into(),
        }
    }

    /// Instantiate the policy for one trial on a population of `nodes`
    /// nodes of which `servers` carry caches, with `items` items and
    /// cache capacity `rho`.
    #[allow(clippy::too_many_arguments)] // one scalar per system dimension
    pub fn instantiate(
        &self,
        utility: Arc<dyn DelayUtility>,
        nodes: usize,
        servers: usize,
        mu_ref: f64,
        items: usize,
        rho: usize,
        demand: &impatience_core::demand::DemandRates,
    ) -> Box<dyn ReplicationPolicy> {
        if let Some(params) =
            QcrParams::for_policy(self, utility.clone(), servers, mu_ref, items, rho)
        {
            return Box::new(Qcr::new(params, nodes));
        }
        match self {
            PolicyKind::Qcr(_) | PolicyKind::Passive { .. } => {
                unreachable!("mandate policies are built above")
            }
            PolicyKind::Static { counts, .. } => Box::new(StaticAllocation::new(counts.clone())),
            PolicyKind::HillClimb { moves_per_contact } => {
                let mu = if mu_ref > 0.0 { mu_ref } else { 1.0 };
                let system = if servers == nodes {
                    impatience_core::types::SystemModel::pure_p2p(nodes, rho, mu)
                } else {
                    impatience_core::types::SystemModel::dedicated(
                        nodes - servers,
                        servers,
                        rho,
                        mu,
                    )
                };
                Box::new(HillClimb::new(
                    system,
                    demand.clone(),
                    utility,
                    *moves_per_contact,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(PolicyKind::qcr_default().label(), "QCR");
        let no_routing = PolicyKind::Qcr(QcrConfig {
            mandate_routing: false,
            ..QcrConfig::default()
        });
        assert_eq!(no_routing.label(), "QCR-no-routing");
        let s = PolicyKind::Static {
            label: "UNI",
            counts: ReplicaCounts::zero(3, 2),
        };
        assert_eq!(s.label(), "UNI");
        assert_eq!(PolicyKind::Passive { replicas: 1.0 }.label(), "PASSIVE(1)");
    }
}
