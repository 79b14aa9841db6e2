//! The global routing tier (paper §4.5, first tier) as a real subsystem.
//!
//! The seed's stateless enum-match router survives as the executable spec
//! `GlobalPolicy` in the dev-only `vidur-oracle` crate, whose
//! `crates/oracle/tests/routing_equivalence.rs` pins the two against each
//! other. This module is what the simulators actually run:
//!
//! * [`RouterView`] — live replica state (outstanding requests, in-system
//!   tokens, free KV blocks, per-tenant in-system counts), maintained
//!   **incrementally** by the tier as requests dispatch and finish. Routing
//!   a request never rebuilds a load vector.
//! * [`Router`] — the policy trait: placement decisions plus the deferred
//!   queue discipline, both driven purely by the view and the request. In
//!   the spirit of KML-style kernel policies, a router is a pluggable
//!   heuristic over observable system state, not a branch in the simulator.
//! * [`RoutingTier`] — owns the view, the deferred-queue bookkeeping the
//!   cluster simulator used to hand-roll, and per-tenant routing statistics.
//!   Both the aggregated cluster and each pool of a disaggregated deployment
//!   dispatch through one of these.
//!
//! Seven policies ship: the four seed policies (round-robin,
//! least-outstanding, random, deferred — byte-identical decisions to the
//! seed's `GlobalPolicy`), plus the stateful tier policies
//! the seed could not express: priority-aware deferred routing, weighted
//! fair-share (WFQ-style virtual time per tenant), and sticky tenant
//! affinity with load-aware spill.

use crate::global::GlobalPolicyKind;
use std::collections::VecDeque;
use std::fmt;
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

/// Live load state of one replica, maintained incrementally by the tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplicaLoad {
    /// Requests dispatched to the replica and not yet finished (equals the
    /// replica scheduler's `outstanding()` — waiting, parked, or running).
    pub outstanding: usize,
    /// Total tokens (prompt + output) of those outstanding requests.
    pub outstanding_tokens: u64,
    /// Free KV blocks, as last published by the driver via
    /// [`RoutingTier::set_free_kv_blocks`] (0 until first published).
    pub free_kv_blocks: u64,
}

/// The incrementally-maintained view of cluster state a [`Router`] decides
/// on. Replica loads update on dispatch/finish; per-tenant in-system counts
/// update on arrival/finish; nothing is rebuilt per arrival.
#[derive(Debug, Clone)]
pub struct RouterView {
    replicas: Vec<ReplicaLoad>,
    /// Membership state per replica; all [`ReplicaHealth::Live`] in a
    /// static fleet.
    health: Vec<ReplicaHealth>,
    /// Replicas whose health is not `Live` (0 in a static fleet — the
    /// routable-only scans reduce to the classic whole-fleet scans then).
    non_live: usize,
    /// Requests currently in the system (deferred or dispatched, unfinished)
    /// per tenant. Grown on first sight of a tenant.
    tenant_in_system: Vec<usize>,
    /// Expected prefix-cache hit tokens per replica *for the request being
    /// routed*, published per arrival via
    /// [`RoutingTier::set_route_prefix_hits`] (all zero until then, and in
    /// every run without a prefix cache).
    prefix_hits: Vec<u64>,
    /// Per-tenant fair-share weights (index = tenant id), as configured.
    weights: Vec<f64>,
}

impl RouterView {
    fn new(num_replicas: usize, weights: &[f64]) -> Self {
        RouterView {
            replicas: vec![ReplicaLoad::default(); num_replicas],
            health: vec![ReplicaHealth::Live; num_replicas],
            non_live: 0,
            tenant_in_system: Vec::new(),
            prefix_hits: vec![0; num_replicas],
            weights: weights.to_vec(),
        }
    }

    /// Number of replicas behind this tier.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// All replica loads, index-ordered.
    pub fn replicas(&self) -> &[ReplicaLoad] {
        &self.replicas
    }

    /// One replica's load.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn replica(&self, replica: usize) -> &ReplicaLoad {
        &self.replicas[replica]
    }

    /// Outstanding requests on `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn outstanding(&self, replica: usize) -> usize {
        self.replicas[replica].outstanding
    }

    /// Membership state of `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.health[replica]
    }

    /// True when `replica` accepts new dispatches.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn is_routable(&self, replica: usize) -> bool {
        self.health[replica] == ReplicaHealth::Live
    }

    /// Number of routable (live) replicas.
    pub fn num_routable(&self) -> usize {
        self.replicas.len() - self.non_live
    }

    fn set_health(&mut self, replica: usize, health: ReplicaHealth) -> bool {
        let old = self.health[replica];
        if old == health {
            return false;
        }
        self.non_live -= usize::from(old != ReplicaHealth::Live);
        self.non_live += usize::from(health != ReplicaHealth::Live);
        self.health[replica] = health;
        true
    }

    /// The routable replica with the fewest outstanding requests (lowest
    /// index on ties — the same tie-break as the seed's `min_by_key`), or
    /// `None` when no replica is routable.
    pub fn try_least_outstanding(&self) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.health[i] == ReplicaHealth::Live)
            .min_by_key(|&(_, l)| l.outstanding)
            .map(|(i, _)| i)
    }

    /// The least-outstanding routable replica whose count is strictly below
    /// `cap`, or `None` when every routable replica is at or over it
    /// (defer).
    pub fn least_outstanding_below(&self, cap: usize) -> Option<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|&(i, l)| l.outstanding < cap && self.health[i] == ReplicaHealth::Live)
            .min_by_key(|&(_, l)| l.outstanding)
            .map(|(i, _)| i)
    }

    /// Expected prefix-cache hit tokens on `replica` for the request
    /// currently being routed (0 unless the driver published hits for this
    /// arrival).
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn prefix_hit(&self, replica: usize) -> u64 {
        self.prefix_hits[replica]
    }

    /// Requests in the system (deferred or dispatched, unfinished) for
    /// `tenant`.
    pub fn tenant_in_system(&self, tenant: u32) -> usize {
        self.tenant_in_system
            .get(tenant as usize)
            .copied()
            .unwrap_or(0)
    }

    /// `tenant`'s fair-share weight: a missing or non-positive weight
    /// counts as 1.0.
    fn tenant_weight(&self, tenant: u32) -> f64 {
        match self.weights.get(tenant as usize) {
            Some(&w) if w > 0.0 => w,
            _ => 1.0,
        }
    }

    fn tenant_entry(&mut self, tenant: u32) -> &mut usize {
        let idx = tenant as usize;
        if idx >= self.tenant_in_system.len() {
            self.tenant_in_system.resize(idx + 1, 0);
        }
        &mut self.tenant_in_system[idx]
    }
}

/// One request held back by a deferring policy, in arrival order.
#[derive(Debug, Clone, Copy)]
pub struct DeferredEntry {
    /// The deferred request.
    pub req: RouteRequest,
    /// Tier-wide arrival sequence number (FIFO tie-break).
    pub seq: u64,
}

/// A global routing policy: decides replica placement (or deferral) for each
/// request and, for deferring policies, which held request binds next.
///
/// Implementations must be deterministic functions of their own state, the
/// request, and the [`RouterView`]; the tier guarantees the view is
/// up to date at every call.
pub trait Router: fmt::Debug + Send {
    /// Called once per arriving request *before* it is counted in the view
    /// (fair-share uses this for idle-tenant virtual-time catch-up).
    fn on_arrival(&mut self, _req: &RouteRequest, _view: &RouterView) {}

    /// Picks a replica for `req`, or `None` to defer it into the tier's
    /// held queue.
    fn try_place(&mut self, req: &RouteRequest, view: &RouterView) -> Option<usize>;

    /// Which deferred entry should bind next (an index into `deferred`).
    /// The default is FIFO. Returning `None` holds everything.
    fn select_deferred(&mut self, deferred: &[DeferredEntry], _view: &RouterView) -> Option<usize> {
        if deferred.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    /// Accounts a successful dispatch (called for immediate and deferred
    /// binds alike, after the view reflects the dispatch).
    fn on_dispatch(&mut self, _req: &RouteRequest, _target: usize, _view: &RouterView) {}

    /// Called after a replica's health changes (membership churn). Policies
    /// holding replica references migrate them here — affinity re-homes
    /// tenants whose home left the routable set.
    fn on_membership_change(&mut self, _view: &RouterView) {}
}

// ---- the four seed policies, re-expressed --------------------------------

/// Cycle through replicas (the seed's `RoundRobin`).
#[derive(Debug)]
struct RoundRobinRouter {
    next: usize,
}

impl Router for RoundRobinRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        if view.num_routable() == 0 {
            return None;
        }
        // With the whole fleet live this is the classic one-step modulo
        // cursor; with churn the cursor walks past non-routable replicas.
        let n = view.num_replicas();
        for _ in 0..n {
            let r = self.next;
            self.next = (self.next + 1) % n;
            if view.is_routable(r) {
                return Some(r);
            }
        }
        unreachable!("num_routable() > 0 guarantees a live replica in the walk")
    }
}

/// Fewest unfinished requests (the seed's `LeastOutstanding`).
#[derive(Debug)]
struct LeastOutstandingRouter;

impl Router for LeastOutstandingRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        view.try_least_outstanding()
    }
}

/// Uniform random choice (the seed's `Random`; same RNG stream).
#[derive(Debug)]
struct RandomRouter {
    rng: SimRng,
}

impl Router for RandomRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        let routable = view.num_routable();
        if routable == 0 {
            return None;
        }
        let draw = self.rng.next_below(routable as u64) as usize;
        if routable == view.num_replicas() {
            // Whole fleet live: identical RNG stream and placement to the
            // seed policy.
            return Some(draw);
        }
        // Map the draw onto the draw-th routable replica, index order.
        let mut seen = 0;
        for r in 0..view.num_replicas() {
            if view.is_routable(r) {
                if seen == draw {
                    return Some(r);
                }
                seen += 1;
            }
        }
        unreachable!("draw < num_routable()")
    }
}

/// Hold requests centrally until some replica is below `max_outstanding`
/// (the seed's stateful `Deferred`, paper §4.5).
#[derive(Debug)]
struct DeferredRouter {
    max_outstanding: usize,
}

impl Router for DeferredRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        view.least_outstanding_below(self.max_outstanding)
    }
}

// ---- the stateful tier policies ------------------------------------------

/// Deferred routing that binds the most urgent waiting tier first: the held
/// queue is drained in (priority, arrival) order, and each bind spreads onto
/// the least-loaded replica below the outstanding cap.
#[derive(Debug)]
struct PriorityAwareRouter {
    max_outstanding: usize,
}

impl Router for PriorityAwareRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        view.least_outstanding_below(self.max_outstanding)
    }

    fn select_deferred(&mut self, deferred: &[DeferredEntry], _view: &RouterView) -> Option<usize> {
        deferred
            .iter()
            .enumerate()
            .min_by_key(|&(_, e)| (e.req.priority, e.seq))
            .map(|(i, _)| i)
    }
}

/// Weighted fair-share admission (WFQ-style): each tenant accumulates
/// virtual time at `tokens / weight` per dispatched request, and under
/// contention the held queue binds the tenant with the smallest virtual
/// time first. An idle tenant's clock catches up to the served floor on
/// return, so sleeping never banks unbounded credit. Placement itself is
/// load-aware below the outstanding cap, like [`GlobalPolicyKind::Deferred`].
#[derive(Debug)]
struct FairShareRouter {
    max_outstanding: usize,
    /// Per-tenant virtual time, grown on first sight.
    vtime: Vec<f64>,
    /// Virtual time of the last served request's start tag — the floor idle
    /// tenants catch up to.
    vfloor: f64,
}

impl FairShareRouter {
    fn vtime_entry(&mut self, tenant: u32) -> &mut f64 {
        let idx = tenant as usize;
        if idx >= self.vtime.len() {
            self.vtime.resize(idx + 1, 0.0);
        }
        &mut self.vtime[idx]
    }
}

impl Router for FairShareRouter {
    fn on_arrival(&mut self, req: &RouteRequest, view: &RouterView) {
        if view.tenant_in_system(req.tenant) == 0 {
            let floor = self.vfloor;
            let v = self.vtime_entry(req.tenant);
            *v = v.max(floor);
        }
    }

    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        view.least_outstanding_below(self.max_outstanding)
    }

    fn select_deferred(&mut self, deferred: &[DeferredEntry], _view: &RouterView) -> Option<usize> {
        deferred
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let va = self
                    .vtime
                    .get(a.req.tenant as usize)
                    .copied()
                    .unwrap_or(0.0);
                let vb = self
                    .vtime
                    .get(b.req.tenant as usize)
                    .copied()
                    .unwrap_or(0.0);
                va.total_cmp(&vb).then(a.seq.cmp(&b.seq))
            })
            .map(|(i, _)| i)
    }

    fn on_dispatch(&mut self, req: &RouteRequest, _target: usize, view: &RouterView) {
        let w = view.tenant_weight(req.tenant);
        let v = self.vtime_entry(req.tenant);
        let start = *v;
        *v = start + req.tokens as f64 / w;
        self.vfloor = self.vfloor.max(start);
    }
}

/// Sentinel for "tenant has no home replica yet".
const NO_HOME: usize = usize::MAX;

/// Sticky tenant→replica routing with load-aware spill: each tenant is
/// pinned to the replica that was least loaded at its first request (the
/// KV/prefix-reuse model — a tenant's context stays hot on its home), and a
/// request only spills to the globally least-loaded replica when the home is
/// more than `spill_margin` requests above it.
#[derive(Debug)]
struct AffinityRouter {
    spill_margin: usize,
    /// Per-tenant home replica, grown on first sight.
    home: Vec<usize>,
}

impl Router for AffinityRouter {
    fn try_place(&mut self, req: &RouteRequest, view: &RouterView) -> Option<usize> {
        let least = view.try_least_outstanding()?;
        let idx = req.tenant as usize;
        if idx >= self.home.len() {
            self.home.resize(idx + 1, NO_HOME);
        }
        if self.home[idx] == NO_HOME || !view.is_routable(self.home[idx]) {
            self.home[idx] = least;
        }
        let home = self.home[idx];
        // A known cache hit on the home replica overrides the spill margin:
        // the recomputation a spill would cost is exactly what stickiness
        // exists to avoid. Without a prefix cache the hit is always 0 and
        // the classic margin rule below decides alone.
        if view.prefix_hit(home) > 0 {
            return Some(home);
        }
        if view.outstanding(home) <= view.outstanding(least) + self.spill_margin {
            Some(home)
        } else {
            Some(least)
        }
    }

    fn on_membership_change(&mut self, view: &RouterView) {
        // A tenant whose home left the routable set re-homes (onto the then
        // least-loaded live replica) at its next request.
        for home in &mut self.home {
            if *home != NO_HOME && !view.is_routable(*home) {
                *home = NO_HOME;
            }
        }
    }
}

/// How many outstanding requests above the least-loaded replica a
/// [`KvAwareRouter`] candidate may carry and still attract work on a cache
/// hit. A hit saves one prefix prefill — never worth an unbounded queue —
/// so hot prefixes must not pile their whole arrival stream onto one
/// replica while the rest of the fleet idles.
const KV_AWARE_LOAD_MARGIN: usize = 4;

/// KV-aware placement over observed replica state: among the routable
/// replicas within [`KV_AWARE_LOAD_MARGIN`] outstanding requests of the
/// least-loaded one, the largest expected prefix-cache hit for the
/// arriving request wins, ties broken toward the most free KV blocks, then
/// the fewest outstanding requests, then the lowest index. Never defers
/// while any replica is routable; with no published hits (or no prefix
/// cache) it degrades to most-free-KV placement over the least-loaded
/// band.
#[derive(Debug)]
struct KvAwareRouter;

impl Router for KvAwareRouter {
    fn try_place(&mut self, _req: &RouteRequest, view: &RouterView) -> Option<usize> {
        use std::cmp::Reverse;
        let least = (0..view.num_replicas())
            .filter(|&r| view.is_routable(r))
            .map(|r| view.replica(r).outstanding)
            .min()?;
        (0..view.num_replicas())
            .filter(|&r| view.is_routable(r))
            .filter(|&r| view.replica(r).outstanding <= least + KV_AWARE_LOAD_MARGIN)
            .min_by_key(|&r| {
                let load = view.replica(r);
                (
                    Reverse(view.prefix_hit(r)),
                    Reverse(load.free_kv_blocks),
                    load.outstanding,
                )
            })
    }
}

// ---- the tier -------------------------------------------------------------

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

/// The shared global scheduling tier: one [`Router`] policy, the live
/// [`RouterView`], the deferred-queue bookkeeping, and per-tenant routing
/// statistics. The aggregated cluster runs one tier; a disaggregated
/// deployment runs two (one per pool).
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
    router: Box<dyn Router>,
    view: RouterView,
    deferred: VecDeque<DeferredEntry>,
    seq: u64,
    tenants: Vec<TenantRouting>,
    total_routed_tokens: u64,
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
        let router: Box<dyn Router> = match kind {
            GlobalPolicyKind::RoundRobin => Box::new(RoundRobinRouter { next: 0 }),
            GlobalPolicyKind::LeastOutstanding => Box::new(LeastOutstandingRouter),
            GlobalPolicyKind::Random => Box::new(RandomRouter {
                rng: SimRng::new(seed),
            }),
            GlobalPolicyKind::Deferred { max_outstanding } => {
                Box::new(DeferredRouter { max_outstanding })
            }
            GlobalPolicyKind::PriorityAware { max_outstanding } => {
                Box::new(PriorityAwareRouter { max_outstanding })
            }
            GlobalPolicyKind::FairShare { max_outstanding } => Box::new(FairShareRouter {
                max_outstanding,
                vtime: Vec::new(),
                vfloor: 0.0,
            }),
            GlobalPolicyKind::Affinity { spill_margin } => Box::new(AffinityRouter {
                spill_margin,
                home: Vec::new(),
            }),
            GlobalPolicyKind::KvAware => Box::new(KvAwareRouter),
        };
        RoutingTier {
            kind,
            router,
            view: RouterView::new(num_replicas, weights),
            deferred: VecDeque::new(),
            seq: 0,
            tenants: Vec::new(),
            total_routed_tokens: 0,
        }
    }

    /// The policy this tier runs.
    pub fn kind(&self) -> GlobalPolicyKind {
        self.kind
    }

    /// The live replica-state view (read access for drivers and tests).
    pub fn view(&self) -> &RouterView {
        &self.view
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
        self.router.on_arrival(&req, &self.view);
        *self.view.tenant_entry(req.tenant) += 1;
        self.tenant_stats_entry(req.tenant);
        match self.router.try_place(&req, &self.view) {
            Some(target) => {
                self.commit(&req, target);
                Some(target)
            }
            None => {
                self.tenants[req.tenant as usize].deferred += 1;
                self.deferred
                    .push_back(DeferredEntry { req, seq: self.seq });
                self.seq += 1;
                None
            }
        }
    }

    /// Binds and returns the next deferred request the policy is willing to
    /// place, or `None` when the queue is empty or every held request must
    /// keep waiting. Call in a loop after completions free capacity.
    pub fn next_ready(&mut self) -> Option<(RouteRequest, usize)> {
        if self.deferred.is_empty() {
            return None;
        }
        let idx = {
            let slice = self.deferred.make_contiguous();
            self.router.select_deferred(slice, &self.view)?
        };
        let req = self.deferred[idx].req;
        let target = self.router.try_place(&req, &self.view)?;
        self.deferred.remove(idx);
        self.commit(&req, target);
        Some((req, target))
    }

    /// Records that a previously dispatched request of `tenant` carrying
    /// `tokens` total tokens finished on `replica`.
    ///
    /// # Panics
    ///
    /// Panics if the view never saw a dispatch to `replica` (a driver bug).
    pub fn on_finished(&mut self, replica: usize, tenant: u32, tokens: u64) {
        let load = &mut self.view.replicas[replica];
        assert!(load.outstanding > 0, "finish without dispatch on {replica}");
        load.outstanding -= 1;
        load.outstanding_tokens = load.outstanding_tokens.saturating_sub(tokens);
        let t = self.view.tenant_entry(tenant);
        *t = t.saturating_sub(1);
    }

    /// Publishes a replica's current free KV block count into the view
    /// (an observable signal for KV-aware policies; optional).
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

    /// Sets a replica's membership state and, on a change, notifies the
    /// policy so it can migrate replica references (affinity homes). The
    /// driver is responsible for evicting/requeueing the replica's work —
    /// the tier only stops (or resumes) routing to it.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn set_health(&mut self, replica: usize, health: ReplicaHealth) {
        if self.view.set_health(replica, health) {
            self.router.on_membership_change(&self.view);
        }
    }

    /// Membership state of `replica`.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    pub fn health(&self, replica: usize) -> ReplicaHealth {
        self.view.health(replica)
    }

    /// Fraction of the weighted fair share `tenant` actually received:
    /// `(tokens_t / total_tokens) / (w_t / Σ w)` over tenants that routed
    /// anything. 1.0 is exact attainment; `None` for non-fair-share policies
    /// or before any tokens routed.
    pub fn fair_share_attainment(&self, tenant: u32) -> Option<f64> {
        if !matches!(self.kind, GlobalPolicyKind::FairShare { .. }) {
            return None;
        }
        if self.total_routed_tokens == 0 {
            return None;
        }
        let stat = self.tenants.get(tenant as usize)?;
        let total_weight: f64 = (0..self.tenants.len() as u32)
            .map(|t| self.view.tenant_weight(t))
            .sum();
        let share = stat.tokens as f64 / self.total_routed_tokens as f64;
        let entitled = self.view.tenant_weight(tenant) / total_weight;
        Some(share / entitled)
    }

    fn tenant_stats_entry(&mut self, tenant: u32) -> &mut TenantRouting {
        let idx = tenant as usize;
        if idx >= self.tenants.len() {
            self.tenants.resize(idx + 1, TenantRouting::default());
        }
        &mut self.tenants[idx]
    }

    fn commit(&mut self, req: &RouteRequest, target: usize) {
        let load = &mut self.view.replicas[target];
        load.outstanding += 1;
        load.outstanding_tokens += req.tokens;
        let stat = self.tenant_stats_entry(req.tenant);
        stat.routed += 1;
        stat.tokens += req.tokens;
        self.total_routed_tokens += req.tokens;
        self.router.on_dispatch(req, target, &self.view);
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
        assert_eq!(tier.view().outstanding(0), 2);
        assert_eq!(tier.view().outstanding(2), 1);
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
        while tier.view().outstanding(0) > 0 {
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
