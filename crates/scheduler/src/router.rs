//! The global routing tier (paper §4.5, first tier).
//!
//! [`RoutingTier`] runs every policy [`GlobalPolicyKind`] names over a view
//! of replica state that it maintains **incrementally** as requests
//! arrive, dispatch and finish: outstanding requests, free KV blocks and
//! health per replica, in-system requests per tenant, and the prefix hits
//! published for the request being routed. Routing a request never
//! rebuilds a load vector. The tier also owns the deferred queue and
//! per-tenant routing statistics. The aggregated cluster runs one tier; a
//! disaggregated deployment runs one per pool.
//!
//! Eight policies ship: the four seed policies (round-robin,
//! least-outstanding, random, deferred — byte-identical decisions to the
//! seed's `GlobalPolicy`), plus the stateful policies the seed could not
//! express: priority-aware deferred routing, weighted fair-share (WFQ-style
//! virtual time per tenant), sticky tenant affinity with load-aware spill,
//! and KV-aware placement. The seed's stateless router survives as the
//! executable spec `GlobalPolicy` in the dev-only `vidur-oracle` crate,
//! whose `crates/oracle/tests/routing_equivalence.rs` pins the two against
//! each other.

use crate::global::GlobalPolicyKind;
use std::cmp::Reverse;
use std::collections::VecDeque;
use vidur_core::rng::SimRng;

/// What the routing tier knows about one arriving request — the routing key
/// plus the attributes stateful policies route on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Opaque caller key (the simulators use the trace index) returned when
    /// a deferred request finally binds.
    pub key: u64,
    /// Tenant index (0 for single-tenant runs).
    pub tenant: u32,
    /// Priority class: 0 is the most urgent.
    pub priority: u8,
    /// Service demand in tokens (prompt + output) — the fair-share credit
    /// a dispatch costs its tenant.
    pub tokens: u64,
}

/// Membership state of one replica behind the tier. Only [`Live`]
/// replicas receive new work; the other states exist for elastic fleets
/// (fault injection and autoscaling — see `vidur_simulator::faults`).
///
/// [`Live`]: ReplicaHealth::Live
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaHealth {
    /// Routable: the replica accepts new dispatches.
    #[default]
    Live,
    /// Gracefully draining: running work finishes, no new dispatches.
    Draining,
    /// Warming up (model load + weight transfer): not yet routable.
    Warming,
    /// Powered off or crashed.
    Down,
}

/// Live load of one replica.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaLoad {
    /// Requests dispatched to the replica and not yet finished (equals the
    /// replica scheduler's `outstanding()` — waiting, parked, or running).
    outstanding: usize,
    /// Free KV blocks, as last published by the driver (0 until then).
    free_kv_blocks: u64,
}

/// The replica and tenant state every policy decides on. Replica loads
/// update on dispatch/finish, per-tenant in-system counts on
/// arrival/finish; nothing is rebuilt per arrival.
#[derive(Debug)]
struct RouterView {
    replicas: Vec<ReplicaLoad>,
    /// Membership state per replica; all `Live` in a static fleet.
    health: Vec<ReplicaHealth>,
    /// Replicas whose health is not `Live` (0 in a static fleet).
    non_live: usize,
    /// Requests currently in the system (deferred or dispatched,
    /// unfinished) per tenant. Grown on first sight of a tenant.
    tenant_in_system: Vec<usize>,
    /// Expected prefix-cache hit tokens per replica *for the request being
    /// routed* (all zero unless the driver published hits for it).
    prefix_hits: Vec<u64>,
    /// Per-tenant fair-share weights (index = tenant id), as configured.
    weights: Vec<f64>,
}

impl RouterView {
    fn is_routable(&self, replica: usize) -> bool {
        self.health[replica] == ReplicaHealth::Live
    }

    fn num_routable(&self) -> usize {
        self.replicas.len() - self.non_live
    }

    /// The routable replica with the fewest outstanding requests, among
    /// those strictly below `cap` (lowest index on ties — the seed's
    /// `min_by_key` tie-break), or `None` when there is none (defer).
    fn least_outstanding_below(&self, cap: usize) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, l)| l.outstanding < cap && self.is_routable(i))
            .min_by_key(|&(_, l)| l.outstanding)
            .map(|(i, _)| i)
    }

    /// `tenant`'s fair-share weight: a missing or non-positive weight
    /// counts as 1.0.
    fn tenant_weight(&self, tenant: u32) -> f64 {
        match self.weights.get(tenant as usize) {
            Some(&w) if w > 0.0 => w,
            _ => 1.0,
        }
    }
}

/// `v[idx]`, growing `v` with `fill` on first sight of `idx`.
fn slot<T: Clone>(v: &mut Vec<T>, idx: u32, fill: T) -> &mut T {
    let idx = idx as usize;
    if idx >= v.len() {
        v.resize(idx + 1, fill);
    }
    &mut v[idx]
}

/// Sentinel for "tenant has no home replica yet".
const NO_HOME: usize = usize::MAX;

/// How many outstanding requests above the least-loaded replica a
/// [`GlobalPolicyKind::KvAware`] candidate may carry and still attract work
/// on a cache hit. A hit saves one prefix prefill — never worth an
/// unbounded queue — so hot prefixes must not pile their whole arrival
/// stream onto one replica while the rest of the fleet idles.
const KV_AWARE_LOAD_MARGIN: usize = 4;

/// What the stateful policies remember between requests.
#[derive(Debug)]
enum PolicyState {
    /// The policy decides on the view alone.
    None,
    /// The next replica in the cycle.
    RoundRobin { next: usize },
    /// The draw stream (the seed's `Random` stream).
    Random { rng: SimRng },
    /// Per-tenant virtual time, and the start tag of the last served
    /// request: the floor an idle tenant's clock catches up to on return,
    /// so sleeping never banks unbounded credit.
    FairShare { vtime: Vec<f64>, vfloor: f64 },
    /// Per-tenant home replica, [`NO_HOME`] until the tenant's first
    /// request and after its home leaves the routable set.
    Affinity { home: Vec<usize> },
}

/// Per-tenant routing statistics accumulated by a [`RoutingTier`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantRouting {
    /// Requests bound to a replica (immediately or after deferral).
    pub routed: u64,
    /// Requests that were held in the deferred queue at least once.
    pub deferred: u64,
    /// Tokens (prompt + output) of routed requests — the fair-share
    /// service measure.
    pub tokens: u64,
}

/// The shared global scheduling tier: the policy a [`GlobalPolicyKind`]
/// names, the live replica view it decides on, the deferred queue, and
/// per-tenant routing statistics.
///
/// # Example
///
/// ```
/// use vidur_scheduler::{GlobalPolicyKind, RouteRequest, RoutingTier};
/// let mut tier = RoutingTier::new(GlobalPolicyKind::RoundRobin, 3, 1, &[]);
/// let req = |key| RouteRequest { key, tenant: 0, priority: 0, tokens: 100 };
/// assert_eq!(tier.route(req(0)), Some(0));
/// assert_eq!(tier.route(req(1)), Some(1));
/// assert_eq!(tier.route(req(2)), Some(2));
/// assert_eq!(tier.route(req(3)), Some(0));
/// ```
#[derive(Debug)]
pub struct RoutingTier {
    kind: GlobalPolicyKind,
    state: PolicyState,
    view: RouterView,
    /// Requests the policy holds, in arrival order.
    deferred: VecDeque<RouteRequest>,
    tenants: Vec<TenantRouting>,
}

impl RoutingTier {
    /// Builds a tier over `num_replicas` replicas. `seed` feeds the random
    /// policy's RNG; `weights` are the per-tenant fair-share weights (index
    /// = tenant id, missing entries weigh 1.0; ignored by other policies).
    ///
    /// # Panics
    ///
    /// Panics if `num_replicas == 0`.
    pub fn new(kind: GlobalPolicyKind, num_replicas: usize, seed: u64, weights: &[f64]) -> Self {
        assert!(num_replicas > 0, "need at least one replica");
        let state = match kind {
            GlobalPolicyKind::RoundRobin => PolicyState::RoundRobin { next: 0 },
            GlobalPolicyKind::Random => PolicyState::Random {
                rng: SimRng::new(seed),
            },
            GlobalPolicyKind::FairShare { .. } => PolicyState::FairShare {
                vtime: Vec::new(),
                vfloor: 0.0,
            },
            GlobalPolicyKind::Affinity { .. } => PolicyState::Affinity { home: Vec::new() },
            _ => PolicyState::None,
        };
        RoutingTier {
            kind,
            state,
            view: RouterView {
                replicas: vec![ReplicaLoad::default(); num_replicas],
                health: vec![ReplicaHealth::Live; num_replicas],
                non_live: 0,
                tenant_in_system: Vec::new(),
                prefix_hits: vec![0; num_replicas],
                weights: weights.to_vec(),
            },
            deferred: VecDeque::new(),
            tenants: Vec::new(),
        }
    }

    /// The policy this tier runs.
    pub fn kind(&self) -> GlobalPolicyKind {
        self.kind
    }

    /// Requests dispatched to `replica` and not yet finished.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn outstanding(&self, replica: usize) -> usize {
        self.view.replicas[replica].outstanding
    }

    /// Requests currently held by the deferring policy.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Per-tenant routing statistics accumulated so far (index = tenant id).
    pub fn tenant_stats(&self) -> &[TenantRouting] {
        &self.tenants
    }

    /// Routes an arriving request. `Some(replica)` means the caller must
    /// dispatch it there now; `None` means the tier holds it — the caller
    /// re-polls via [`RoutingTier::next_ready`] whenever load drops.
    pub fn route(&mut self, req: RouteRequest) -> Option<usize> {
        let in_system = slot(&mut self.view.tenant_in_system, req.tenant, 0);
        if let PolicyState::FairShare { vtime, vfloor } = &mut self.state {
            if *in_system == 0 {
                let v = slot(vtime, req.tenant, 0.0);
                *v = v.max(*vfloor);
            }
        }
        *in_system += 1;
        match self.try_place(&req) {
            Some(target) => {
                self.commit(&req, target);
                Some(target)
            }
            None => {
                slot(&mut self.tenants, req.tenant, TenantRouting::default()).deferred += 1;
                self.deferred.push_back(req);
                None
            }
        }
    }

    /// Binds and returns the next deferred request the policy is willing to
    /// place, or `None` when the queue is empty or every held request must
    /// keep waiting. Call in a loop after completions free capacity.
    ///
    /// Priority-aware routing offers the most urgent held request first and
    /// fair share the one whose tenant has the least virtual time; every
    /// other policy offers the oldest. Ties go to the oldest.
    pub fn next_ready(&mut self) -> Option<(RouteRequest, usize)> {
        let mut held = self.deferred.iter().enumerate();
        let (idx, _) = match (self.kind, &self.state) {
            (GlobalPolicyKind::PriorityAware { .. }, _) => held.min_by_key(|(_, r)| r.priority),
            (GlobalPolicyKind::FairShare { .. }, PolicyState::FairShare { vtime, .. }) => {
                // A tenant's first arrival gave it a clock, so every held
                // request's tenant has one.
                let v = |r: &RouteRequest| vtime[r.tenant as usize];
                held.min_by(|(_, a), (_, b)| v(a).total_cmp(&v(b)))
            }
            _ => held.next(),
        }?;
        let req = self.deferred[idx];
        let target = self.try_place(&req)?;
        self.deferred.remove(idx);
        self.commit(&req, target);
        Some((req, target))
    }

    /// Records that a previously dispatched request of `tenant` finished on
    /// `replica`. The request's total tokens are not needed: no policy
    /// reads a replica's outstanding tokens.
    ///
    /// # Panics
    ///
    /// Panics if the tier never saw a dispatch to `replica` (a driver bug).
    pub fn on_finished(&mut self, replica: usize, tenant: u32, _tokens: u64) {
        let load = &mut self.view.replicas[replica];
        assert!(load.outstanding > 0, "finish without dispatch on {replica}");
        load.outstanding -= 1;
        let t = slot(&mut self.view.tenant_in_system, tenant, 0);
        *t = t.saturating_sub(1);
    }

    /// Publishes a replica's current free KV block count (the signal
    /// KV-aware routing breaks hit ties on; optional).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn set_free_kv_blocks(&mut self, replica: usize, blocks: u64) {
        self.view.replicas[replica].free_kv_blocks = blocks;
    }

    /// Publishes the expected prefix-cache hit tokens per replica for the
    /// *next* request offered to [`RoutingTier::route`]. The scratch is
    /// per-arrival advisory state: drivers that route on hits refresh it
    /// before every `route` call, and runs without a prefix cache never
    /// call it (leaving every hit at 0, which no shipped policy acts on).
    ///
    /// # Panics
    ///
    /// Panics if `hits.len()` differs from the replica count.
    pub fn set_route_prefix_hits(&mut self, hits: &[u64]) {
        assert_eq!(
            hits.len(),
            self.view.prefix_hits.len(),
            "one hit entry per replica"
        );
        self.view.prefix_hits.copy_from_slice(hits);
    }

    /// Sets a replica's membership state. Under affinity, tenants homed on
    /// a replica that leaves the routable set re-home (onto the then
    /// least-loaded live replica) at their next request. The driver is
    /// responsible for evicting/requeueing the replica's work — the tier
    /// only stops (or resumes) routing to it.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn set_health(&mut self, replica: usize, health: ReplicaHealth) {
        let view = &mut self.view;
        let old = view.health[replica];
        if old == health {
            return;
        }
        view.non_live -= usize::from(old != ReplicaHealth::Live);
        view.non_live += usize::from(health != ReplicaHealth::Live);
        view.health[replica] = health;
        if let PolicyState::Affinity { home } = &mut self.state {
            if health != ReplicaHealth::Live {
                home.iter_mut()
                    .filter(|h| **h == replica)
                    .for_each(|h| *h = NO_HOME);
            }
        }
    }

    /// Membership state of `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.view.health[replica]
    }

    /// Fraction of the weighted fair share `tenant` actually received:
    /// `(tokens_t / Σ tokens) / (w_t / Σ w)`, both sums over the tenants
    /// that took part (routed or deferred at least one request). A tenant
    /// whose every request is still held takes part, so its backlog is not
    /// hidden. 1.0 is exact attainment; `None` for non-fair-share policies
    /// or before any tokens routed.
    pub fn fair_share_attainment(&self, tenant: u32) -> Option<f64> {
        if !matches!(self.kind, GlobalPolicyKind::FairShare { .. }) {
            return None;
        }
        let (mut total_tokens, mut total_weight) = (0, 0.0);
        for (t, s) in self.tenants.iter().enumerate() {
            if s.routed + s.deferred > 0 {
                total_tokens += s.tokens;
                total_weight += self.view.tenant_weight(t as u32);
            }
        }
        if total_tokens == 0 {
            return None;
        }
        let stat = self.tenants.get(tenant as usize)?;
        let share = stat.tokens as f64 / total_tokens as f64;
        let entitled = self.view.tenant_weight(tenant) / total_weight;
        Some(share / entitled)
    }

    /// Picks a replica for `req` under the tier's policy, or `None` to hold
    /// it.
    fn try_place(&mut self, req: &RouteRequest) -> Option<usize> {
        let view = &self.view;
        match (self.kind, &mut self.state) {
            (GlobalPolicyKind::RoundRobin, PolicyState::RoundRobin { next }) => {
                if view.num_routable() == 0 {
                    return None;
                }
                // With the whole fleet live this is the classic one-step
                // modulo cursor; with churn it walks past non-routable
                // replicas.
                loop {
                    let r = *next;
                    *next = (r + 1) % view.replicas.len();
                    if view.is_routable(r) {
                        return Some(r);
                    }
                }
            }
            (GlobalPolicyKind::LeastOutstanding, _) => view.least_outstanding_below(usize::MAX),
            (GlobalPolicyKind::Random, PolicyState::Random { rng }) => {
                let routable = view.num_routable();
                if routable == 0 {
                    return None;
                }
                // The draw-th routable replica in index order: with the
                // whole fleet live, the seed's stream and placement.
                let draw = rng.next_below(routable as u64) as usize;
                (0..view.replicas.len())
                    .filter(|&r| view.is_routable(r))
                    .nth(draw)
            }
            (
                GlobalPolicyKind::Deferred { max_outstanding }
                | GlobalPolicyKind::PriorityAware { max_outstanding }
                | GlobalPolicyKind::FairShare { max_outstanding },
                _,
            ) => view.least_outstanding_below(max_outstanding),
            (GlobalPolicyKind::Affinity { spill_margin }, PolicyState::Affinity { home }) => {
                let least = view.least_outstanding_below(usize::MAX)?;
                // A tenant homes on the replica least loaded at its first
                // request; `set_health` clears homes that stop being
                // routable, so a set home is always live.
                let home = slot(home, req.tenant, NO_HOME);
                if *home == NO_HOME {
                    *home = least;
                }
                let home = *home;
                // A known cache hit on the home overrides the spill margin:
                // the recomputation a spill would cost is exactly what
                // stickiness exists to avoid. Without a prefix cache the
                // hit is always 0 and the margin decides alone.
                let load = |r: usize| view.replicas[r].outstanding;
                if view.prefix_hits[home] > 0 || load(home) <= load(least) + spill_margin {
                    Some(home)
                } else {
                    Some(least)
                }
            }
            (GlobalPolicyKind::KvAware, _) => {
                // Among the routable replicas within the load margin of the
                // least loaded: the largest hit, then the most free KV
                // blocks, then the fewest outstanding, then the lowest index.
                let least = view.replicas[view.least_outstanding_below(usize::MAX)?].outstanding;
                (0..view.replicas.len())
                    .filter(|&r| view.is_routable(r))
                    .filter(|&r| view.replicas[r].outstanding <= least + KV_AWARE_LOAD_MARGIN)
                    .min_by_key(|&r| {
                        let load = view.replicas[r];
                        (
                            Reverse(view.prefix_hits[r]),
                            Reverse(load.free_kv_blocks),
                            load.outstanding,
                        )
                    })
            }
            (kind, state) => unreachable!("{kind:?} runs with {state:?}"),
        }
    }

    /// Accounts a dispatch of `req` to `target`: the replica's load, the
    /// tenant's statistics and, under fair share, the tenant's virtual time.
    fn commit(&mut self, req: &RouteRequest, target: usize) {
        self.view.replicas[target].outstanding += 1;
        let stat = slot(&mut self.tenants, req.tenant, TenantRouting::default());
        stat.routed += 1;
        stat.tokens += req.tokens;
        if let PolicyState::FairShare { vtime, vfloor } = &mut self.state {
            let v = slot(vtime, req.tenant, 0.0);
            let start = *v;
            *v = start + req.tokens as f64 / self.view.tenant_weight(req.tenant);
            *vfloor = vfloor.max(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(key: u64, tenant: u32, priority: u8, tokens: u64) -> RouteRequest {
        RouteRequest {
            key,
            tenant,
            priority,
            tokens,
        }
    }

    #[test]
    fn round_robin_cycles_like_seed() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::RoundRobin, 4, 0, &[]);
        let picks: Vec<Option<usize>> = (0..8).map(|i| tier.route(req(i, 0, 0, 10))).collect();
        let expect: Vec<Option<usize>> =
            [0, 1, 2, 3, 0, 1, 2, 3].iter().map(|&r| Some(r)).collect();
        assert_eq!(picks, expect);
    }

    #[test]
    fn least_outstanding_tracks_incremental_view() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::LeastOutstanding, 3, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(1));
        assert_eq!(tier.route(req(2, 0, 0, 10)), Some(2));
        assert_eq!(tier.route(req(3, 0, 0, 10)), Some(0));
        tier.on_finished(2, 0, 10);
        assert_eq!(tier.route(req(4, 0, 0, 10)), Some(2));
        assert_eq!(tier.outstanding(0), 2);
        assert_eq!(tier.outstanding(2), 1);
    }

    #[test]
    fn deferred_holds_and_drains_fifo() {
        let kind = GlobalPolicyKind::Deferred { max_outstanding: 1 };
        let mut tier = RoutingTier::new(kind, 2, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(1));
        assert_eq!(tier.route(req(2, 0, 0, 10)), None);
        assert_eq!(tier.route(req(3, 0, 0, 10)), None);
        assert_eq!(tier.deferred_len(), 2);
        assert!(tier.next_ready().is_none(), "both replicas saturated");
        tier.on_finished(1, 0, 10);
        let (r, target) = tier.next_ready().expect("capacity freed");
        assert_eq!((r.key, target), (2, 1));
        assert!(tier.next_ready().is_none());
        tier.on_finished(0, 0, 10);
        let (r, target) = tier.next_ready().expect("second drain");
        assert_eq!((r.key, target), (3, 0));
    }

    #[test]
    fn priority_aware_binds_urgent_tier_first() {
        let kind = GlobalPolicyKind::PriorityAware { max_outstanding: 1 };
        let mut tier = RoutingTier::new(kind, 1, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 1, 10)), Some(0));
        // Held: bulk (prio 2) arrives before urgent (prio 0).
        assert_eq!(tier.route(req(1, 0, 2, 10)), None);
        assert_eq!(tier.route(req(2, 0, 0, 10)), None);
        tier.on_finished(0, 0, 10);
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 2, "most urgent waiting tier binds first");
        tier.on_finished(0, 0, 10);
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 1);
    }

    #[test]
    fn fair_share_prefers_light_tenant_under_contention() {
        let kind = GlobalPolicyKind::FairShare { max_outstanding: 1 };
        let mut tier = RoutingTier::new(kind, 1, 0, &[]);
        // Heavy tenant 0 floods; light tenant 1 sends one request later.
        assert_eq!(tier.route(req(0, 0, 0, 1000)), Some(0));
        assert_eq!(tier.route(req(1, 0, 0, 1000)), None);
        assert_eq!(tier.route(req(2, 0, 0, 1000)), None);
        assert_eq!(tier.route(req(3, 1, 0, 1000)), None);
        tier.on_finished(0, 0, 1000);
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 3, "light tenant has the smaller virtual time");
        tier.on_finished(0, 1, 1000);
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 1, "heavy tenant resumes FIFO");
    }

    #[test]
    fn fair_share_weights_scale_credit() {
        let kind = GlobalPolicyKind::FairShare { max_outstanding: 1 };
        // Tenant 0 weighs 4x tenant 1: after one dispatch each, tenant 0's
        // virtual time is smaller, so its next request binds first.
        let mut tier = RoutingTier::new(kind, 1, 0, &[4.0, 1.0]);
        assert_eq!(tier.route(req(0, 0, 0, 400)), Some(0));
        assert_eq!(tier.route(req(1, 1, 0, 400)), None);
        assert_eq!(tier.route(req(2, 0, 0, 400)), None);
        tier.on_finished(0, 0, 400);
        // vtime: tenant0 = 100, tenant1 = 0 -> tenant 1 first.
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 1);
        tier.on_finished(0, 1, 400);
        let (r, _) = tier.next_ready().expect("drain");
        assert_eq!(r.key, 2);
        let a0 = tier.fair_share_attainment(0).unwrap();
        let a1 = tier.fair_share_attainment(1).unwrap();
        // Tenant 0 routed 2/3 of tokens but is entitled to 4/5.
        assert!(a0 < 1.0 && a1 > 1.0, "{a0} {a1}");
    }

    #[test]
    fn fair_share_attainment_counts_only_tenants_that_took_part() {
        let kind = GlobalPolicyKind::FairShare { max_outstanding: 4 };
        // Tenant 1 never sends a request: it is owed nothing.
        let mut tier = RoutingTier::new(kind, 2, 0, &[]);
        assert!(tier.route(req(0, 0, 0, 100)).is_some());
        assert!(tier.route(req(1, 2, 0, 100)).is_some());
        assert_eq!(tier.fair_share_attainment(0), Some(1.0));
        assert_eq!(tier.fair_share_attainment(2), Some(1.0));
        // Tenant 1's only request is still held: it takes part, so the
        // other tenant's surplus shows.
        let kind = GlobalPolicyKind::FairShare { max_outstanding: 1 };
        let mut tier = RoutingTier::new(kind, 1, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 0, 100)), Some(0));
        assert_eq!(tier.route(req(1, 1, 0, 100)), None);
        assert_eq!(tier.fair_share_attainment(0), Some(2.0));
        assert_eq!(tier.fair_share_attainment(1), Some(0.0));
    }

    #[test]
    fn fair_share_idle_tenant_catches_up() {
        let kind = GlobalPolicyKind::FairShare { max_outstanding: 2 };
        let mut tier = RoutingTier::new(kind, 1, 0, &[]);
        // Tenant 0 works for a long stretch while tenant 1 sleeps.
        for i in 0..50 {
            if tier.route(req(i, 0, 0, 100)).is_none() {
                tier.on_finished(0, 0, 100);
                tier.next_ready();
            }
        }
        while tier.outstanding(0) > 0 {
            tier.on_finished(0, 0, 100);
            tier.next_ready();
        }
        // Tenant 1 wakes: its clock catches up to the served floor, so it
        // gets at most a bounded advantage, not 50 requests' worth.
        assert_eq!(tier.route(req(100, 1, 0, 100)), Some(0));
        assert_eq!(tier.route(req(101, 0, 0, 100)), Some(0));
        assert_eq!(tier.route(req(102, 1, 0, 100)), None);
        assert_eq!(tier.route(req(103, 0, 0, 100)), None);
        tier.on_finished(0, 1, 100);
        let (r, _) = tier.next_ready().expect("drain");
        // One catch-up dispatch each: FIFO-by-vtime resumes, tenant 1's
        // second request is not owed the whole idle period.
        assert_eq!(r.key, 102);
    }

    #[test]
    fn affinity_sticks_until_spill() {
        let kind = GlobalPolicyKind::Affinity { spill_margin: 2 };
        let mut tier = RoutingTier::new(kind, 3, 0, &[]);
        // Tenant 0's first request pins it to replica 0.
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(2, 0, 0, 10)), Some(0));
        // Margin 2 exceeded (home 3 vs min 0): spill to least-loaded.
        assert_eq!(tier.route(req(3, 0, 0, 10)), Some(1));
        // Tenant 1 homes on the emptiest replica.
        assert_eq!(tier.route(req(4, 1, 0, 10)), Some(2));
        assert_eq!(tier.route(req(5, 1, 0, 10)), Some(2));
        // Home drains: tenant 0 goes home again.
        tier.on_finished(0, 0, 10);
        tier.on_finished(0, 0, 10);
        assert_eq!(tier.route(req(6, 0, 0, 10)), Some(0));
    }

    #[test]
    fn tenant_stats_accumulate() {
        let kind = GlobalPolicyKind::Deferred { max_outstanding: 1 };
        let mut tier = RoutingTier::new(kind, 1, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(1, 1, 0, 20)), None);
        tier.on_finished(0, 0, 10);
        tier.next_ready().expect("drain");
        let stats = tier.tenant_stats();
        assert_eq!(
            stats[0],
            TenantRouting {
                routed: 1,
                deferred: 0,
                tokens: 10
            }
        );
        assert_eq!(
            stats[1],
            TenantRouting {
                routed: 1,
                deferred: 1,
                tokens: 20
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        RoutingTier::new(GlobalPolicyKind::RoundRobin, 0, 0, &[]);
    }

    #[test]
    fn round_robin_skips_non_live_replicas() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::RoundRobin, 4, 0, &[]);
        tier.set_health(1, ReplicaHealth::Down);
        tier.set_health(3, ReplicaHealth::Draining);
        let picks: Vec<Option<usize>> = (0..4).map(|i| tier.route(req(i, 0, 0, 10))).collect();
        assert_eq!(picks, vec![Some(0), Some(2), Some(0), Some(2)]);
        // Recovery folds the replica back into the cycle (3 still drains).
        tier.set_health(1, ReplicaHealth::Live);
        let picks: Vec<Option<usize>> = (4..8).map(|i| tier.route(req(i, 0, 0, 10))).collect();
        assert_eq!(picks, vec![Some(0), Some(1), Some(2), Some(0)]);
    }

    #[test]
    fn random_draws_only_live_replicas() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::Random, 4, 9, &[]);
        tier.set_health(0, ReplicaHealth::Down);
        tier.set_health(2, ReplicaHealth::Warming);
        for i in 0..64 {
            let r = tier.route(req(i, 0, 0, 1)).expect("live replicas exist");
            assert!(r == 1 || r == 3, "drew non-live replica {r}");
        }
    }

    #[test]
    fn policies_defer_when_fleet_dark_and_recover() {
        for kind in [
            GlobalPolicyKind::RoundRobin,
            GlobalPolicyKind::LeastOutstanding,
            GlobalPolicyKind::Random,
            GlobalPolicyKind::Deferred { max_outstanding: 4 },
            GlobalPolicyKind::PriorityAware { max_outstanding: 4 },
            GlobalPolicyKind::FairShare { max_outstanding: 4 },
            GlobalPolicyKind::Affinity { spill_margin: 2 },
            GlobalPolicyKind::KvAware,
        ] {
            let mut tier = RoutingTier::new(kind, 2, 7, &[]);
            tier.set_health(0, ReplicaHealth::Down);
            tier.set_health(1, ReplicaHealth::Down);
            assert_eq!(tier.route(req(0, 0, 0, 10)), None, "{kind:?}");
            assert!(tier.next_ready().is_none(), "{kind:?}");
            tier.set_health(1, ReplicaHealth::Live);
            let (r, target) = tier
                .next_ready()
                .unwrap_or_else(|| panic!("{kind:?} must drain the deferred queue on recovery"));
            assert_eq!((r.key, target), (0, 1), "{kind:?}");
        }
    }

    #[test]
    fn kv_aware_prefers_hits_then_free_kv_then_load() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::KvAware, 3, 0, &[]);
        // No hits, no published KV: pure least-outstanding (lowest index).
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        // Free-KV signal breaks the no-hit tie toward the roomiest replica.
        tier.set_free_kv_blocks(0, 10);
        tier.set_free_kv_blocks(1, 50);
        tier.set_free_kv_blocks(2, 30);
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(1));
        // A published hit dominates both free KV and load.
        tier.set_route_prefix_hits(&[0, 0, 64]);
        assert_eq!(tier.route(req(2, 0, 0, 10)), Some(2));
        // Hits beat bigger hits-free replicas; ties fall back to free KV.
        tier.set_route_prefix_hits(&[128, 0, 128]);
        tier.set_free_kv_blocks(2, 60);
        assert_eq!(tier.route(req(3, 0, 0, 10)), Some(2));
    }

    #[test]
    fn kv_aware_skips_non_live_replicas() {
        let mut tier = RoutingTier::new(GlobalPolicyKind::KvAware, 3, 0, &[]);
        tier.set_route_prefix_hits(&[512, 0, 0]);
        tier.set_health(0, ReplicaHealth::Down);
        let r = tier.route(req(0, 0, 0, 10)).expect("live replicas exist");
        assert_ne!(r, 0, "hits on a down replica must not attract work");
    }

    #[test]
    fn affinity_hit_on_home_overrides_spill() {
        let kind = GlobalPolicyKind::Affinity { spill_margin: 1 };
        let mut tier = RoutingTier::new(kind, 2, 0, &[]);
        // Tenant 0 homes on replica 0 and exceeds the spill margin.
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(0));
        assert_eq!(tier.route(req(2, 0, 0, 10)), Some(1), "margin exceeded");
        // Same load, but now the home holds this request's prefix: stick.
        tier.set_route_prefix_hits(&[64, 0]);
        assert_eq!(tier.route(req(3, 0, 0, 10)), Some(0), "hit beats spill");
    }

    #[test]
    fn affinity_homes_migrate_on_drain() {
        let kind = GlobalPolicyKind::Affinity { spill_margin: 8 };
        let mut tier = RoutingTier::new(kind, 3, 0, &[]);
        assert_eq!(tier.route(req(0, 0, 0, 10)), Some(0), "tenant 0 homes on 0");
        assert_eq!(tier.route(req(1, 0, 0, 10)), Some(0));
        // Home drains: the sticky home migrates to a live replica and new
        // requests follow it there.
        tier.set_health(0, ReplicaHealth::Draining);
        let moved = tier.route(req(2, 0, 0, 10)).expect("live replicas exist");
        assert_ne!(moved, 0, "request followed the home off the drain");
        assert_eq!(tier.route(req(3, 0, 0, 10)), Some(moved), "new home sticks");
    }
}
