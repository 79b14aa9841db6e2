//! The seed's global (cluster-tier) router: a stateless-per-call policy
//! over an explicit outstanding-count slice, kept as the executable spec for
//! the four seed policies. The simulators route through
//! [`RoutingTier`](vidur_scheduler::RoutingTier), which re-expresses those
//! policies over an incrementally-maintained view — byte-identical
//! decisions, pinned by `tests/routing_equivalence.rs` — and adds the
//! stateful tier policies this spec router deliberately refuses to run.

use vidur_core::rng::SimRng;
use vidur_scheduler::GlobalPolicyKind;

/// The global scheduler: picks a replica index for each arrival.
///
/// # Example
///
/// ```
/// use vidur_oracle::GlobalPolicy;
/// use vidur_scheduler::GlobalPolicyKind;
/// let mut g = GlobalPolicy::new(GlobalPolicyKind::RoundRobin, 3, 1);
/// assert_eq!(g.route(&[0, 0, 0]), 0);
/// assert_eq!(g.route(&[1, 0, 0]), 1);
/// assert_eq!(g.route(&[1, 1, 0]), 2);
/// assert_eq!(g.route(&[1, 1, 1]), 0);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalPolicy {
    kind: GlobalPolicyKind,
    num_replicas: usize,
    next: usize,
    rng: SimRng,
}

impl GlobalPolicy {
    /// Creates a router over `num_replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas == 0`.
    pub fn new(kind: GlobalPolicyKind, num_replicas: usize, seed: u64) -> Self {
        assert!(num_replicas > 0, "need at least one replica");
        GlobalPolicy {
            kind,
            num_replicas,
            next: 0,
            rng: SimRng::new(seed),
        }
    }

    /// The policy in use.
    pub fn kind(&self) -> GlobalPolicyKind {
        self.kind
    }

    /// Picks the replica for the next request. `outstanding` holds each
    /// replica's current unfinished-request count.
    ///
    /// # Panics
    ///
    /// Panics if `outstanding.len()` differs from the configured replica
    /// count.
    pub fn route(&mut self, outstanding: &[usize]) -> usize {
        self.try_route(outstanding)
            .expect("non-deferring policies always route")
    }

    /// Like [`route`](Self::route), but may return `None` for deferring
    /// policies when no replica should accept the request yet. The caller
    /// (the cluster simulator) re-offers deferred requests whenever replica
    /// load drops.
    pub fn try_route(&mut self, outstanding: &[usize]) -> Option<usize> {
        assert_eq!(
            outstanding.len(),
            self.num_replicas,
            "replica count changed mid-simulation"
        );
        match self.kind {
            GlobalPolicyKind::RoundRobin => {
                let r = self.next;
                self.next = (self.next + 1) % self.num_replicas;
                Some(r)
            }
            GlobalPolicyKind::LeastOutstanding => outstanding
                .iter()
                .enumerate()
                .min_by_key(|&(_, &n)| n)
                .map(|(i, _)| i),
            GlobalPolicyKind::Random => {
                Some(self.rng.next_below(self.num_replicas as u64) as usize)
            }
            GlobalPolicyKind::Deferred { max_outstanding } => outstanding
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n < max_outstanding)
                .min_by_key(|&(_, &n)| n)
                .map(|(i, _)| i),
            GlobalPolicyKind::PriorityAware { .. }
            | GlobalPolicyKind::FairShare { .. }
            | GlobalPolicyKind::Affinity { .. }
            | GlobalPolicyKind::KvAware => panic!(
                "{} is a stateful tier policy: route through \
                 vidur_scheduler::RoutingTier",
                self.kind
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::RoundRobin, 4, 0);
        let picks: Vec<usize> = (0..8).map(|_| g.route(&[0; 4])).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn least_outstanding_picks_min() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::LeastOutstanding, 3, 0);
        assert_eq!(g.route(&[5, 2, 9]), 1);
        assert_eq!(g.route(&[5, 2, 1]), 2);
        // Ties go to the lowest index (deterministic).
        assert_eq!(g.route(&[3, 3, 3]), 0);
    }

    #[test]
    fn random_covers_all_replicas() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::Random, 4, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[g.route(&[0; 4])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_random_given_seed() {
        let mut a = GlobalPolicy::new(GlobalPolicyKind::Random, 4, 9);
        let mut b = GlobalPolicy::new(GlobalPolicyKind::Random, 4, 9);
        for _ in 0..32 {
            assert_eq!(a.route(&[0; 4]), b.route(&[0; 4]));
        }
    }

    #[test]
    fn deferred_holds_under_load() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::Deferred { max_outstanding: 4 }, 2, 0);
        // Both replicas saturated: defer.
        assert_eq!(g.try_route(&[4, 5]), None);
        // One frees up: bind to it.
        assert_eq!(g.try_route(&[4, 3]), Some(1));
        assert_eq!(g.try_route(&[0, 3]), Some(0));
    }

    #[test]
    #[should_panic(expected = "always route")]
    fn route_panics_for_deferred_when_full() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::Deferred { max_outstanding: 1 }, 1, 0);
        g.route(&[5]);
    }

    #[test]
    #[should_panic(expected = "replica count")]
    fn mismatched_outstanding_panics() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::RoundRobin, 2, 0);
        g.route(&[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "stateful tier policy")]
    fn spec_router_refuses_tier_policies() {
        let mut g = GlobalPolicy::new(GlobalPolicyKind::FairShare { max_outstanding: 4 }, 2, 0);
        g.try_route(&[0, 0]);
    }
}
