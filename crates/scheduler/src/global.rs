//! Global (cluster-tier) request routing (paper §4.5, first tier).
//!
//! [`GlobalPolicyKind`] names every routing policy. The simulators route
//! through the [`router`](crate::router) subsystem
//! ([`RoutingTier`](crate::RoutingTier)), which runs each policy over an
//! incrementally-maintained [`RouterView`](crate::RouterView). The seed's
//! stateless router for the four original policies lives on as the
//! differential oracle `GlobalPolicy` in the dev-only `vidur-oracle` crate.

use serde::{Deserialize, Serialize};

/// Which routing policy the global scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GlobalPolicyKind {
    /// Cycle through replicas.
    RoundRobin,
    /// Route to the replica with the fewest unfinished requests.
    LeastOutstanding,
    /// Uniform random choice.
    Random,
    /// Stateful deferred routing (paper §4.5): hold requests centrally and
    /// only bind one to a replica whose outstanding count is below
    /// `max_outstanding`, avoiding early binding under bursts.
    Deferred {
        /// Largest outstanding-request count at which a replica still
        /// accepts new work.
        max_outstanding: usize,
    },
    /// Deferred routing that drains the held queue in (priority, arrival)
    /// order: the most urgent waiting tier binds first, spread across the
    /// least-loaded replicas. Tier-only (see
    /// [`RoutingTier`](crate::RoutingTier)).
    PriorityAware {
        /// Largest outstanding-request count at which a replica still
        /// accepts new work.
        max_outstanding: usize,
    },
    /// Weighted fair-share admission (WFQ-style virtual time per tenant):
    /// under contention the tenant with the least weighted service bound so
    /// far binds first. Weights come from the cluster configuration.
    /// Tier-only (see [`RoutingTier`](crate::RoutingTier)).
    FairShare {
        /// Largest outstanding-request count at which a replica still
        /// accepts new work.
        max_outstanding: usize,
    },
    /// Sticky tenant→replica routing with load-aware spill, modelling
    /// KV/prefix reuse on a tenant's home replica. Tier-only (see
    /// [`RoutingTier`](crate::RoutingTier)).
    Affinity {
        /// How many outstanding requests above the least-loaded replica the
        /// home replica may be before requests spill away from it.
        spill_margin: usize,
    },
    /// KV-aware routing on observed replica state: among the replicas
    /// within a small outstanding-load band of the least-loaded one, prefer
    /// the largest expected prefix-cache hit for the arriving request
    /// (published per arrival via
    /// [`RoutingTier::set_route_prefix_hits`](crate::RoutingTier::set_route_prefix_hits)),
    /// breaking ties toward the most free KV blocks, then the fewest
    /// outstanding requests. The band keeps hot prefixes from starving the
    /// rest of the fleet. Tier-only (see
    /// [`RoutingTier`](crate::RoutingTier)).
    KvAware,
}

impl std::fmt::Display for GlobalPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlobalPolicyKind::RoundRobin => f.write_str("round-robin"),
            GlobalPolicyKind::LeastOutstanding => f.write_str("least-outstanding"),
            GlobalPolicyKind::Random => f.write_str("random"),
            // The parameter is part of the identity: search/report labels
            // must distinguish two deferred configs.
            GlobalPolicyKind::Deferred { max_outstanding } => {
                write!(f, "deferred(max={max_outstanding})")
            }
            GlobalPolicyKind::PriorityAware { max_outstanding } => {
                write!(f, "priority-aware(max={max_outstanding})")
            }
            GlobalPolicyKind::FairShare { max_outstanding } => {
                write!(f, "fair-share(max={max_outstanding})")
            }
            GlobalPolicyKind::Affinity { spill_margin } => {
                write!(f, "affinity(spill={spill_margin})")
            }
            GlobalPolicyKind::KvAware => f.write_str("kv-aware"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_distinguishes_parameters() {
        // Two deferred configs must not collapse to the same label.
        let a = GlobalPolicyKind::Deferred { max_outstanding: 4 }.to_string();
        let b = GlobalPolicyKind::Deferred {
            max_outstanding: 48,
        }
        .to_string();
        assert_ne!(a, b);
        assert_eq!(a, "deferred(max=4)");
        assert_eq!(
            GlobalPolicyKind::FairShare { max_outstanding: 8 }.to_string(),
            "fair-share(max=8)"
        );
        assert_eq!(
            GlobalPolicyKind::PriorityAware { max_outstanding: 8 }.to_string(),
            "priority-aware(max=8)"
        );
        assert_eq!(
            GlobalPolicyKind::Affinity { spill_margin: 2 }.to_string(),
            "affinity(spill=2)"
        );
    }
}
