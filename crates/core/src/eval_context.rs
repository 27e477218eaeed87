//! Incremental (delta) evaluation of joint configurations.
//!
//! The search loops flip one coordinate at a time — one stream's plan, or
//! one stream's server — yet [`Evaluator::evaluate`] re-prices every
//! stream from scratch. This module caches the per-group state a full
//! evaluation produces (dense per-device Pollaczek–Khinchine
//! accumulators, per-server compute-allocation solutions, per-AP
//! bandwidth solutions, per-stream latency/energy) and re-solves *only
//! the groups a move dirties*:
//!
//! * a **plan flip** on stream `k` dirties `k`'s device queue (its
//!   service mixture changed), the compute groups of every server hosting
//!   an offloaded stream of that device (their `pre_edge` waits changed),
//!   and the bandwidth groups of those streams' APs; if the flip toggles
//!   `k` between device-only and offloading, the offloader count of
//!   `k`'s AP changes too, dirtying the servers of every offloaded
//!   stream on that AP (the fair-share tx term in their compute demand);
//! * a **placement move** of an offloaded stream `k` dirties exactly the
//!   old and new servers' compute groups and `k`'s AP's bandwidth group.
//!
//! The invariant making traces bit-identical to the full path: **every
//! cached value is a pure function of the assignment**. Group recomputes
//! iterate members in ascending stream order (the order a full rebuild
//! uses), and the pooled objective is re-summed over all `n` streams in
//! index order rather than patched in floating point — so a delta trial,
//! a committed delta, and a from-scratch rebuild produce the same bits.
//! The descent pick patches the cached pooled sum only to *rule plans
//! out*: widened by a rounding-error margin, the patch is a lower bound
//! on the exact resum, and every objective a search keeps is still that
//! resum.
//!
//! One deliberate model change enables the locality: the bandwidth
//! demand's post-transmission term now uses the construction-time
//! fair-share proxy `edge_flops × streams_per_server / cap(srv)` instead
//! of the stage-2 compute share. The previous coupling made every
//! bandwidth group depend on every compute solve (a single plan flip
//! re-solved all APs), destroying incrementality; the proxy mirrors the
//! fair-share tx estimate already used inside compute demands (and the
//! `ReferenceEnv` used for candidate generation) and is symmetric across
//! the two stages. See DESIGN.md §2.9.

use crate::diversity::{self, DiversityConfig, NO_DOMAIN};
use crate::evaluator::{
    AllocPolicies, Assignment, EvalResult, Evaluator, PlanPricing, RHO_CAP, TX_WATTS,
};
use scalpel_alloc::bandwidth_alloc::{self, BandwidthCols};
use scalpel_alloc::compute_alloc::{self, ComputeCols};
use scalpel_alloc::AllocScratch;

/// A single-coordinate change to an [`Assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Switch stream `k` to plan `idx` of its menu.
    Plan {
        /// Stream index.
        k: usize,
        /// Menu index to switch to.
        idx: usize,
    },
    /// Move stream `k` to server `srv`.
    Server {
        /// Stream index.
        k: usize,
        /// Target server.
        srv: usize,
    },
}

/// Saturating concentration-counter state for diversity-bounded
/// placement: the derived domain cap, per-domain offload tallies, and the
/// cached total excess the penalty prices. `None` when diversity is off —
/// that path stays bit-identical to the pre-diversity implementation.
#[derive(Debug, Clone)]
struct DivState {
    cfg: DiversityConfig,
    cap: usize,
    domain_load: Vec<usize>,
    excess: usize,
}

/// The stage-1 recompute of one device group (replacement values).
#[derive(Debug, Clone, Copy)]
struct DevPatch {
    device: usize,
    les2: f64,
    rho: f64,
    wait: f64,
}

/// PK wait from the dense device accumulators: `W = Λ·E[S²]/(2(1−ρ))`.
fn pk_wait(les2: f64, rho: f64) -> f64 {
    les2 / (2.0 * (1.0 - rho.min(RHO_CAP)))
}

/// One stream's objective terms: `(L/D, penalty, missed)`. The penalty is
/// `10·(L/D − 1)` past the deadline, else exactly `0.0`. This is the ONE
/// definition both the cached and the freshly-patched paths use, so a
/// cached term is bitwise the value a recompute would produce.
#[inline]
fn objective_terms(lat: f64, dl: f64) -> (f64, f64, bool) {
    let norm = lat / dl;
    if lat > dl {
        (norm, 10.0 * (norm - 1.0), true)
    } else {
        (norm, 0.0, false)
    }
}

/// Reusable buffers for one delta trial, generation-stamped so nothing
/// needs clearing between trials. The probes take it by `&mut`, so a
/// caller can keep one across many trials; the menu scans reuse the
/// context's own.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    gen: u32,
    // Patched-value overlays, indexed by stream; an entry is live iff its
    // stamp equals the current generation.
    cs_stamp: Vec<u32>,
    cs_val: Vec<f64>,
    touched_cs: Vec<usize>,
    bw_stamp: Vec<u32>,
    bw_val: Vec<f64>,
    touched_bw: Vec<usize>,
    lat_stamp: Vec<u32>,
    lat_val: Vec<f64>,
    de_val: Vec<f64>,
    te_val: Vec<f64>,
    touched_lat: Vec<usize>,
    dev: Option<DevPatch>,
    ap_delta: Option<(usize, isize)>,
    dirty_servers: Vec<usize>,
    dirty_aps: Vec<usize>,
    members: Vec<usize>,
    demands: DemandCols,
    shares: Vec<f64>,
    alloc: AllocScratch,
    pooled_sum: f64,
    objective: f64,
    misses: usize,
}

/// SoA gather buffers for one group's demand columns — the flat layout
/// `scalpel_alloc`'s column kernels sweep directly (no per-stream demand
/// struct is materialized on the hot path). The same five columns serve
/// both stages: compute groups leave `post` empty, bandwidth groups fill
/// all five.
#[derive(Debug, Default)]
struct DemandCols {
    pre: Vec<f64>,
    scaled: Vec<f64>,
    post: Vec<f64>,
    weight: Vec<f64>,
    deadline: Vec<f64>,
}

impl DemandCols {
    fn clear(&mut self) {
        self.pre.clear();
        self.scaled.clear();
        self.post.clear();
        self.weight.clear();
        self.deadline.clear();
    }

    /// Stage-2 demand of stream `k` on server `srv`. `peers` is the
    /// offloading-stream count on `k`'s AP (the fair-share tx estimate).
    #[inline]
    fn push_compute(
        &mut self,
        ev: &Evaluator,
        k: usize,
        p: &PlanPricing,
        wait: f64,
        peers: usize,
        srv: usize,
    ) {
        self.pre
            .push(wait + p.dev_full + ev.tx_full_seconds(k, p) * peers.max(1) as f64);
        self.scaled
            .push(p.remain.max(1e-6) * p.edge_flops / ev.server_caps[srv]);
        // weight ∝ urgency so the weighted-sum fallback minimizes the
        // Σ L/D objective directly
        self.weight.push(1.0 / ev.deadline_s[k]);
        self.deadline.push(ev.deadline_s[k]);
    }

    /// Stage-3 demand of stream `k` on its AP. The post-tx estimate uses
    /// the construction-time fair-share proxy (not the live compute
    /// share) so bandwidth groups stay decoupled from compute solves —
    /// the property that makes single-move dirty sets small.
    #[inline]
    fn push_bandwidth(&mut self, ev: &Evaluator, k: usize, p: &PlanPricing, wait: f64, srv: usize) {
        self.pre.push(wait + p.dev_full);
        self.scaled
            .push(p.remain.max(1e-6) * ev.tx_full_seconds(k, p));
        self.post
            .push(p.edge_flops * ev.streams_per_server / ev.server_caps[srv]);
        self.weight.push(1.0 / ev.deadline_s[k]);
        self.deadline.push(ev.deadline_s[k]);
    }

    fn compute_view(&self) -> ComputeCols<'_> {
        ComputeCols {
            pre_edge_s: &self.pre,
            edge_s_full: &self.scaled,
            weight: &self.weight,
            deadline_s: &self.deadline,
        }
    }

    fn bandwidth_view(&self) -> BandwidthCols<'_> {
        BandwidthCols {
            pre_tx_s: &self.pre,
            tx_s_full: &self.scaled,
            post_tx_s: &self.post,
            weight: &self.weight,
            deadline_s: &self.deadline,
        }
    }
}

/// A descent step replaces the running best plan only with one whose
/// objective is lower by more than this.
pub(crate) const DESCENT_TOL: f64 = 1e-12;

impl DeltaScratch {
    fn begin(&mut self, n: usize) {
        if self.cs_stamp.len() != n {
            self.cs_stamp = vec![0; n];
            self.cs_val = vec![0.0; n];
            self.bw_stamp = vec![0; n];
            self.bw_val = vec![0.0; n];
            self.lat_stamp = vec![0; n];
            self.lat_val = vec![0.0; n];
            self.de_val = vec![0.0; n];
            self.te_val = vec![0.0; n];
            self.gen = 0;
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // u32 generation wrapped: reset stamps so stale entries from
            // four billion trials ago cannot collide with the new cycle.
            self.cs_stamp.iter_mut().for_each(|s| *s = 0);
            self.bw_stamp.iter_mut().for_each(|s| *s = 0);
            self.lat_stamp.iter_mut().for_each(|s| *s = 0);
            self.gen = 1;
        }
        self.touched_cs.clear();
        self.touched_bw.clear();
        self.touched_lat.clear();
        self.dev = None;
        self.ap_delta = None;
        self.dirty_servers.clear();
        self.dirty_aps.clear();
    }
}

/// Cached evaluation state for one assignment, supporting O(dirty-groups)
/// re-pricing of single-coordinate moves. Build one with [`new`]
/// (equivalent to a full [`Evaluator::evaluate`]), probe moves with
/// [`evaluate_delta`] / [`evaluate_move`] (read-only, scratch-carried),
/// and apply them with [`commit_plan`] / [`commit_move`].
///
/// [`new`]: EvalContext::new
/// [`evaluate_delta`]: EvalContext::evaluate_delta
/// [`evaluate_move`]: EvalContext::evaluate_move
/// [`commit_plan`]: EvalContext::commit_plan
/// [`commit_move`]: EvalContext::commit_move
pub struct EvalContext<'a> {
    ev: &'a Evaluator,
    policies: AllocPolicies,
    plan_idx: Vec<usize>,
    placement: Vec<usize>,
    /// Whether each stream's current plan offloads.
    offloaded: Vec<bool>,
    /// Dense per-device Λ·E[S²] / ρ accumulators and the derived PK wait.
    dev_les2: Vec<f64>,
    dev_rho: Vec<f64>,
    dev_wait: Vec<f64>,
    /// Offloading-stream count per AP (the fair-share tx peer count).
    ap_offload: Vec<usize>,
    /// Offloaded streams per server, ascending.
    server_members: Vec<Vec<usize>>,
    compute_shares: Vec<f64>,
    bandwidth_shares: Vec<f64>,
    latency: Vec<f64>,
    /// Per-stream objective terms, cached alongside `latency`: the
    /// normalized latency `L/D`, the miss penalty `10·(L/D − 1)` (0 when
    /// the deadline is met), and the miss flag. Stored bitwise as the
    /// fresh expression computes them, so the pooled resum can add cached
    /// terms for untouched streams without re-dividing — same bits,
    /// no division on the O(n) path.
    obj_norm: Vec<f64>,
    obj_pen: Vec<f64>,
    obj_missed: Vec<bool>,
    device_energy: Vec<f64>,
    total_energy: Vec<f64>,
    /// The index-order sum of every stream's objective terms, before the
    /// division by `n` and the diversity penalty: the point the descent
    /// bound patches from.
    pooled_sum: f64,
    objective: f64,
    expected_misses: usize,
    div: Option<DivState>,
    scratch: DeltaScratch,
}

impl<'a> EvalContext<'a> {
    /// Build the cache by fully pricing `asg` (one complete evaluation).
    pub fn new(ev: &'a Evaluator, asg: Assignment, policies: AllocPolicies) -> Self {
        Self::with_diversity(ev, asg, policies, None)
    }

    /// Like [`new`], additionally pricing concentration caps: the pooled
    /// objective gains a penalty proportional to the total saturating
    /// excess over the per-domain counters. With `None` this is
    /// exactly [`new`] — not a single float differs.
    ///
    /// [`new`]: EvalContext::new
    pub fn with_diversity(
        ev: &'a Evaluator,
        asg: Assignment,
        policies: AllocPolicies,
        div: Option<DiversityConfig>,
    ) -> Self {
        let n = ev.num_streams();
        assert_eq!(asg.plan_idx.len(), n);
        assert_eq!(asg.placement.len(), n);
        let mut ctx = Self {
            ev,
            policies,
            plan_idx: asg.plan_idx,
            placement: asg.placement,
            offloaded: vec![false; n],
            dev_les2: vec![0.0; ev.num_devices],
            dev_rho: vec![0.0; ev.num_devices],
            dev_wait: vec![0.0; ev.num_devices],
            ap_offload: vec![0; ev.num_aps],
            server_members: vec![Vec::new(); ev.server_caps.len()],
            compute_shares: vec![0.0; n],
            bandwidth_shares: vec![0.0; n],
            latency: vec![0.0; n],
            obj_norm: vec![0.0; n],
            obj_pen: vec![0.0; n],
            obj_missed: vec![false; n],
            device_energy: vec![0.0; n],
            total_energy: vec![0.0; n],
            pooled_sum: 0.0,
            objective: 0.0,
            expected_misses: 0,
            div: div.map(|cfg| DivState {
                cap: diversity::domain_cap(n),
                domain_load: vec![0; cfg.num_domains()],
                excess: 0,
                cfg,
            }),
            scratch: DeltaScratch::default(),
        };
        ctx.rebuild();
        ctx
    }

    /// The diversity configuration this context prices under, if any.
    pub fn diversity(&self) -> Option<&DiversityConfig> {
        self.div.as_ref().map(|d| &d.cfg)
    }

    /// Whether switching stream `k` to plan `idx` keeps every touched
    /// concentration counter within its cap. Only a device-only →
    /// offloading toggle raises a counter (`k`'s domain);
    /// every other plan change — and diversity-off contexts — pass
    /// trivially. From a repaired start, filtering plan flips through
    /// this and placements through [`repair`] keeps the caps invariant.
    ///
    /// [`repair`]: crate::diversity::repair
    pub fn plan_within_caps(&self, k: usize, idx: usize) -> bool {
        let Some(d) = &self.div else { return true };
        if self.ev.menus[k][idx].is_device_only() || self.offloaded[k] {
            return true;
        }
        let dm = d.cfg.domain_of(self.placement[k]);
        dm == NO_DOMAIN || d.domain_load[dm] < d.cap
    }

    /// Whether moving offloaded stream `k` to server `srv` keeps the
    /// target server's failure domain within its cap.
    pub fn move_within_caps(&self, k: usize, srv: usize) -> bool {
        let Some(d) = &self.div else { return true };
        if !self.offloaded[k] || srv == self.placement[k] {
            return true;
        }
        let from = d.cfg.domain_of(self.placement[k]);
        let to = d.cfg.domain_of(srv);
        from == to || to == NO_DOMAIN || d.domain_load[to] < d.cap
    }

    /// Recompute the per-domain tallies and total excess from the group
    /// membership caches. No-op when diversity is off.
    fn div_refresh(&mut self) {
        let Some(d) = &mut self.div else { return };
        d.domain_load.iter_mut().for_each(|x| *x = 0);
        for (srv, m) in self.server_members.iter().enumerate() {
            let dm = d.cfg.domain_of(srv);
            if dm != NO_DOMAIN {
                d.domain_load[dm] += m.len();
            }
        }
        d.excess = d.domain_load.iter().map(|&c| c.saturating_sub(d.cap)).sum();
    }

    /// The total excess after `mv`, from the cached pre-move counters and
    /// the move's ±1 deltas (O(1); the probe-path twin of
    /// [`div_refresh`]'s full recount).
    ///
    /// [`div_refresh`]: EvalContext::div_refresh
    fn patched_excess(&self, mv: Move) -> usize {
        let Some(d) = &self.div else { return 0 };
        let ev = self.ev;
        let (k, new_plan, new_srv) = match mv {
            Move::Plan { k, idx } => (k, idx, self.placement[k]),
            Move::Server { k, srv } => (k, self.plan_idx[k], srv),
        };
        let old_off = self.offloaded[k];
        let new_off = !ev.menus[k][new_plan].is_device_only();
        let mut ex = d.excess as i64;
        // Excess delta of one domain counter stepping up or down by one.
        let step = |ex: &mut i64, dm: usize, up: bool| {
            if dm == NO_DOMAIN {
                return;
            }
            let count = d.domain_load[dm];
            let after = if up {
                count + 1
            } else {
                count.saturating_sub(1)
            };
            *ex += after.saturating_sub(d.cap) as i64 - count.saturating_sub(d.cap) as i64;
        };
        match (old_off, new_off) {
            (false, true) => step(&mut ex, d.cfg.domain_of(new_srv), true),
            (true, false) => step(&mut ex, d.cfg.domain_of(self.placement[k]), false),
            (true, true) => {
                let from = d.cfg.domain_of(self.placement[k]);
                let to = d.cfg.domain_of(new_srv);
                if from != to {
                    step(&mut ex, from, false);
                    step(&mut ex, to, true);
                }
            }
            (false, false) => {}
        }
        ex.max(0) as usize
    }

    /// The underlying evaluator.
    pub fn evaluator(&self) -> &'a Evaluator {
        self.ev
    }

    /// Objective of the cached assignment.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Current plan index of stream `k`.
    pub fn plan_of(&self, k: usize) -> usize {
        self.plan_idx[k]
    }

    /// Current plan indices.
    pub fn plan_indices(&self) -> &[usize] {
        &self.plan_idx
    }

    /// Current placement.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// The cached assignment, cloned.
    pub fn assignment(&self) -> Assignment {
        Assignment {
            plan_idx: self.plan_idx.clone(),
            placement: self.placement.clone(),
        }
    }

    fn plan(&self, k: usize) -> &PlanPricing {
        &self.ev.menus[k][self.plan_idx[k]]
    }

    /// Recompute every cache from the stored assignment (the full
    /// evaluation; also the oracle the delta path is verified against).
    pub fn rebuild(&mut self) {
        let ev = self.ev;
        let n = ev.num_streams();
        for k in 0..n {
            self.offloaded[k] = !self.plan(k).is_device_only();
        }
        // --- Stage 1: device queueing (independent of allocation).
        // FIFO M/G/1 per device; service is the exact exit mixture, so PK
        // gives the wait from the dense Λ·E[S²] and ρ accumulators,
        // accumulated in ascending stream order.
        self.dev_les2.iter_mut().for_each(|x| *x = 0.0);
        self.dev_rho.iter_mut().for_each(|x| *x = 0.0);
        for k in 0..n {
            let p = &ev.menus[k][self.plan_idx[k]];
            let d = ev.device_of[k];
            self.dev_les2[d] += ev.rate_hz[k] * p.es2;
            self.dev_rho[d] += ev.rate_hz[k] * p.exp_dev;
        }
        for d in 0..ev.num_devices {
            self.dev_wait[d] = pk_wait(self.dev_les2[d], self.dev_rho[d]);
        }
        // --- Group membership: offloader count per AP, members per server.
        self.ap_offload.iter_mut().for_each(|x| *x = 0);
        for m in &mut self.server_members {
            m.clear();
        }
        for k in 0..n {
            if self.offloaded[k] {
                self.ap_offload[ev.ap_of[k]] += 1;
                self.server_members[self.placement[k]].push(k);
            }
        }
        let mut s = std::mem::take(&mut self.scratch);
        // --- Stage 2: compute shares per server.
        self.compute_shares.iter_mut().for_each(|x| *x = 0.0);
        for srv in 0..ev.server_caps.len() {
            if self.server_members[srv].is_empty() {
                continue;
            }
            s.demands.clear();
            for i in 0..self.server_members[srv].len() {
                let k = self.server_members[srv][i];
                s.demands.push_compute(
                    ev,
                    k,
                    self.plan(k),
                    self.dev_wait[ev.device_of[k]],
                    self.ap_offload[ev.ap_of[k]],
                    srv,
                );
            }
            compute_alloc::allocate_cols_into(
                s.demands.compute_view(),
                self.policies.compute,
                &mut s.alloc,
                &mut s.shares,
            );
            for (i, &k) in self.server_members[srv].iter().enumerate() {
                self.compute_shares[k] = s.shares[i];
            }
        }
        // --- Stage 3: bandwidth shares per AP.
        self.bandwidth_shares.iter_mut().for_each(|x| *x = 0.0);
        for ap in 0..ev.num_aps {
            s.members.clear();
            for &k in &ev.ap_members[ap] {
                if self.offloaded[k] {
                    s.members.push(k);
                }
            }
            if s.members.is_empty() {
                continue;
            }
            s.demands.clear();
            for i in 0..s.members.len() {
                let k = s.members[i];
                s.demands.push_bandwidth(
                    ev,
                    k,
                    self.plan(k),
                    self.dev_wait[ev.device_of[k]],
                    self.placement[k],
                );
            }
            bandwidth_alloc::allocate_cols_into(
                s.demands.bandwidth_view(),
                self.policies.bandwidth,
                &mut s.alloc,
                &mut s.shares,
            );
            for (i, &k) in s.members.iter().enumerate() {
                self.bandwidth_shares[k] = s.shares[i];
            }
        }
        self.scratch = s;
        // --- Final pricing with utilization corrections.
        for k in 0..n {
            let (lat, de, te) = self.price_stream(
                k,
                self.plan(k),
                self.dev_wait[ev.device_of[k]],
                self.compute_shares[k],
                self.bandwidth_shares[k],
                self.placement[k],
            );
            self.latency[k] = lat;
            let (norm, pen, miss) = objective_terms(lat, ev.deadline_s[k]);
            self.obj_norm[k] = norm;
            self.obj_pen[k] = pen;
            self.obj_missed[k] = miss;
            self.device_energy[k] = de;
            self.total_energy[k] = te;
        }
        self.div_refresh();
        let (sum, misses) = self.sum_objective(|_| None);
        self.pooled_sum = sum;
        self.objective = self.finish(sum, self.div.as_ref().map_or(0, |d| d.excess));
        self.expected_misses = misses;
    }

    /// Pooled sum (before [`finish`]) + expected misses from per-stream
    /// latencies, with an overlay for patched streams. Always resummed
    /// over all `n` streams in index order so delta and full paths agree
    /// bitwise.
    ///
    /// Untouched streams read their cached `objective_terms` instead of
    /// re-dividing `L/D`: the cache holds exactly the bits the fresh
    /// expression produces, and the add sequence per stream is unchanged
    /// (`obj += norm`, then `obj += pen` only on a miss), so the result is
    /// bit-identical to the all-fresh resum while the O(n) loop does no
    /// division.
    ///
    /// [`finish`]: EvalContext::finish
    fn sum_objective(&self, patched: impl Fn(usize) -> Option<f64>) -> (f64, usize) {
        let n = self.latency.len();
        let mut obj = 0.0;
        let mut misses = 0usize;
        for k in 0..n {
            match patched(k) {
                None => {
                    obj += self.obj_norm[k];
                    if self.obj_missed[k] {
                        misses += 1;
                        obj += self.obj_pen[k];
                    }
                }
                Some(lat) => {
                    let dl = self.ev.deadline_s[k];
                    let (norm, pen, miss) = objective_terms(lat, dl);
                    obj += norm;
                    if miss {
                        misses += 1;
                        obj += pen;
                    }
                }
            }
        }
        (obj, misses)
    }

    /// The objective from a pooled sum: its mean over the `n` streams,
    /// plus the penalty of `excess` when diversity is on. Both steps are
    /// monotone roundings, so a lower bound on the sum finishes into a
    /// lower bound on the objective.
    fn finish(&self, sum: f64, excess: usize) -> f64 {
        let mean = sum / self.latency.len() as f64;
        match &self.div {
            Some(_) => mean + diversity::penalty(excess),
            None => mean,
        }
    }

    /// Final latency/energy of one stream from its wait, shares, server.
    fn price_stream(
        &self,
        k: usize,
        p: &PlanPricing,
        w_dev: f64,
        cs: f64,
        bw: f64,
        srv: usize,
    ) -> (f64, f64, f64) {
        let ev = self.ev;
        // Every request on the device waits the PK time first, then runs
        // its own (path-dependent) service.
        let mut lat = 0.0;
        for (i, &q) in p.behavior.exit_probs.iter().enumerate() {
            lat += q * (w_dev + p.dev_to_exit[i]);
        }
        let mut full_path = w_dev + p.dev_full;
        // Energy: device compute (service time × board power) is paid on
        // every path; radio + edge only on the offloaded tail.
        let mut dev_e = p.exp_dev * ev.device_watts[k];
        let mut tot_e = dev_e;
        if !p.is_device_only() {
            let b = bw.max(1e-9);
            let tx = ev.tx_full_seconds(k, p) / b;
            // Uplink: M/D/1 (deterministic service at the planned rate),
            // PK wait = λ·S²/(2(1−ρ)).
            let lam_tx = ev.rate_hz[k] * p.remain;
            let rho_tx = (lam_tx * tx).min(RHO_CAP);
            let w_tx = lam_tx * tx * tx / (2.0 * (1.0 - rho_tx));
            let c = cs.max(1e-9);
            let edge = p.edge_flops / (ev.server_caps[srv] * c);
            // Edge: dedicated processor-sharing slice — M/G/1-PS response
            // s/(1−ρ) (insensitive to the service law).
            let rho_edge = (ev.rate_hz[k] * p.remain * edge).min(RHO_CAP);
            full_path += w_tx + tx + ev.rtt_s[k] / 2.0 + edge / (1.0 - rho_edge);
            let radio = p.remain * tx * TX_WATTS;
            dev_e += radio;
            tot_e += radio + p.remain * p.edge_flops * ev.server_jpf[srv];
        }
        lat += p.behavior.remain_prob * full_path;
        (lat, dev_e, tot_e)
    }

    /// Price `mv` against the cached state, leaving the recomputed group
    /// values in `s` (generation-stamped overlays) without touching the
    /// context. Group members are visited in ascending stream order and
    /// the objective is re-summed over all streams, matching a rebuild.
    fn compute_patch(&self, mv: Move, s: &mut DeltaScratch) {
        self.compute_patch_groups(mv, s);
        // --- Pooled objective, resummed in stream order.
        let (sum, misses) = self.sum_objective(|j| {
            if s.lat_stamp[j] == s.gen {
                Some(s.lat_val[j])
            } else {
                None
            }
        });
        s.pooled_sum = sum;
        s.objective = self.finish(sum, self.patched_excess(mv));
        s.misses = misses;
    }

    /// The group-local part of [`compute_patch`]: re-solve every dirty
    /// device/server/AP group and re-price the touched streams into `s`,
    /// *without* the O(n) pooled-objective resum. This is the cheap probe
    /// the shard-reconciliation layer uses when it only needs the mover's
    /// own patched latency, not the global objective.
    fn compute_patch_groups(&self, mv: Move, s: &mut DeltaScratch) {
        let ev = self.ev;
        let n = ev.num_streams();
        s.begin(n);
        let (k, new_plan, new_srv) = match mv {
            Move::Plan { k, idx } => (k, idx, self.placement[k]),
            Move::Server { k, srv } => (k, self.plan_idx[k], srv),
        };
        let p_new = &ev.menus[k][new_plan];
        let old_off = self.offloaded[k];
        let new_off = !p_new.is_device_only();
        let d_k = ev.device_of[k];
        let a_k = ev.ap_of[k];
        let plan_changed = new_plan != self.plan_idx[k];
        let toggled = plan_changed && old_off != new_off;
        // Overrides for "the state after the move" while reading caches
        // that still describe the state before it.
        let plan_of = |j: usize| -> &PlanPricing {
            if j == k {
                p_new
            } else {
                &ev.menus[j][self.plan_idx[j]]
            }
        };
        let off_of = |j: usize| -> bool {
            if j == k {
                new_off
            } else {
                self.offloaded[j]
            }
        };
        let srv_of = |j: usize| -> usize {
            if j == k {
                new_srv
            } else {
                self.placement[j]
            }
        };
        // --- Stage 1: k's device group (plan moves only).
        let dev_patch = if plan_changed {
            let mut les2 = 0.0;
            let mut rho = 0.0;
            for &j in &ev.device_members[d_k] {
                let p = plan_of(j);
                les2 += ev.rate_hz[j] * p.es2;
                rho += ev.rate_hz[j] * p.exp_dev;
            }
            Some(DevPatch {
                device: d_k,
                les2,
                rho,
                wait: pk_wait(les2, rho),
            })
        } else {
            None
        };
        s.dev = dev_patch;
        let wait_of = |j: usize| -> f64 {
            match dev_patch {
                Some(dp) if ev.device_of[j] == dp.device => dp.wait,
                _ => self.dev_wait[ev.device_of[j]],
            }
        };
        // --- AP offloader-count delta (toggles only).
        if toggled {
            s.ap_delta = Some((a_k, if new_off { 1 } else { -1 }));
        }
        let ap_off_of = |ap: usize| -> usize {
            let base = self.ap_offload[ap];
            if toggled && ap == a_k {
                if new_off {
                    base + 1
                } else {
                    base - 1
                }
            } else {
                base
            }
        };
        // --- Dirty compute groups.
        match mv {
            Move::Plan { .. } => {
                if plan_changed {
                    // Device-mates' waits changed → their servers re-solve.
                    for &j in &ev.device_members[d_k] {
                        if off_of(j) {
                            s.dirty_servers.push(srv_of(j));
                        }
                    }
                    // k leaving its server is a membership change there.
                    if old_off && !new_off {
                        s.dirty_servers.push(self.placement[k]);
                    }
                }
                if toggled {
                    // Peer count on a_k changed → the fair-share tx term of
                    // every offloaded stream on that AP changed.
                    for &j in &ev.ap_members[a_k] {
                        if off_of(j) {
                            s.dirty_servers.push(srv_of(j));
                        }
                    }
                }
            }
            Move::Server { .. } => {
                if old_off {
                    s.dirty_servers.push(self.placement[k]);
                    s.dirty_servers.push(new_srv);
                }
            }
        }
        s.dirty_servers.sort_unstable();
        s.dirty_servers.dedup();
        for si in 0..s.dirty_servers.len() {
            let srv = s.dirty_servers[si];
            // Membership under the move: the cached ascending list,
            // patched for k.
            s.members.clear();
            for &j in &self.server_members[srv] {
                if j != k {
                    s.members.push(j);
                }
            }
            if new_off && new_srv == srv {
                let pos = s.members.partition_point(|&j| j < k);
                s.members.insert(pos, k);
            }
            s.demands.clear();
            for i in 0..s.members.len() {
                let j = s.members[i];
                s.demands
                    .push_compute(ev, j, plan_of(j), wait_of(j), ap_off_of(ev.ap_of[j]), srv);
            }
            compute_alloc::allocate_cols_into(
                s.demands.compute_view(),
                self.policies.compute,
                &mut s.alloc,
                &mut s.shares,
            );
            for i in 0..s.members.len() {
                let j = s.members[i];
                if s.cs_stamp[j] != s.gen {
                    s.touched_cs.push(j);
                }
                s.cs_stamp[j] = s.gen;
                s.cs_val[j] = s.shares[i];
            }
        }
        if !new_off {
            // A non-offloading stream holds no compute share.
            if s.cs_stamp[k] != s.gen {
                s.touched_cs.push(k);
            }
            s.cs_stamp[k] = s.gen;
            s.cs_val[k] = 0.0;
        }
        // --- Dirty bandwidth groups (decoupled from compute solves).
        match mv {
            Move::Plan { .. } => {
                if plan_changed {
                    for &j in &ev.device_members[d_k] {
                        if off_of(j) {
                            s.dirty_aps.push(ev.ap_of[j]);
                        }
                    }
                    if old_off || new_off {
                        s.dirty_aps.push(a_k);
                    }
                }
            }
            Move::Server { .. } => {
                // post_tx depends on k's server capacity.
                if old_off {
                    s.dirty_aps.push(a_k);
                }
            }
        }
        s.dirty_aps.sort_unstable();
        s.dirty_aps.dedup();
        for ai in 0..s.dirty_aps.len() {
            let ap = s.dirty_aps[ai];
            s.members.clear();
            for &j in &ev.ap_members[ap] {
                if off_of(j) {
                    s.members.push(j);
                }
            }
            s.demands.clear();
            for i in 0..s.members.len() {
                let j = s.members[i];
                s.demands
                    .push_bandwidth(ev, j, plan_of(j), wait_of(j), srv_of(j));
            }
            bandwidth_alloc::allocate_cols_into(
                s.demands.bandwidth_view(),
                self.policies.bandwidth,
                &mut s.alloc,
                &mut s.shares,
            );
            for i in 0..s.members.len() {
                let j = s.members[i];
                if s.bw_stamp[j] != s.gen {
                    s.touched_bw.push(j);
                }
                s.bw_stamp[j] = s.gen;
                s.bw_val[j] = s.shares[i];
            }
        }
        if !new_off {
            if s.bw_stamp[k] != s.gen {
                s.touched_bw.push(k);
            }
            s.bw_stamp[k] = s.gen;
            s.bw_val[k] = 0.0;
        }
        // --- Re-price dirty streams: k's device-mates (wait and/or k's
        // plan changed) plus anyone whose share moved.
        if plan_changed {
            for &j in &ev.device_members[d_k] {
                if s.lat_stamp[j] != s.gen {
                    s.lat_stamp[j] = s.gen;
                    s.touched_lat.push(j);
                }
            }
        }
        for i in 0..s.touched_cs.len() {
            let j = s.touched_cs[i];
            if s.lat_stamp[j] != s.gen {
                s.lat_stamp[j] = s.gen;
                s.touched_lat.push(j);
            }
        }
        for i in 0..s.touched_bw.len() {
            let j = s.touched_bw[i];
            if s.lat_stamp[j] != s.gen {
                s.lat_stamp[j] = s.gen;
                s.touched_lat.push(j);
            }
        }
        for i in 0..s.touched_lat.len() {
            let j = s.touched_lat[i];
            let cs = if s.cs_stamp[j] == s.gen {
                s.cs_val[j]
            } else {
                self.compute_shares[j]
            };
            let bw = if s.bw_stamp[j] == s.gen {
                s.bw_val[j]
            } else {
                self.bandwidth_shares[j]
            };
            let (lat, de, te) = self.price_stream(j, plan_of(j), wait_of(j), cs, bw, srv_of(j));
            s.lat_val[j] = lat;
            s.de_val[j] = de;
            s.te_val[j] = te;
        }
    }

    /// Objective if stream `k` switched to plan `new_plan_idx` — read-only
    /// trial; the recomputed group state lives in `s` until the next call.
    pub fn evaluate_delta(&self, k: usize, new_plan_idx: usize, s: &mut DeltaScratch) -> f64 {
        self.compute_patch(
            Move::Plan {
                k,
                idx: new_plan_idx,
            },
            s,
        );
        s.objective
    }

    /// Objective if stream `k` moved to `new_server` — read-only trial.
    pub fn evaluate_move(&self, k: usize, new_server: usize, s: &mut DeltaScratch) -> f64 {
        self.compute_patch(Move::Server { k, srv: new_server }, s);
        s.objective
    }

    /// Stream `k`'s own normalized latency if it moved to `new_server`,
    /// priced by group re-solves only — the O(n) pooled-objective resum is
    /// skipped, so a probe costs O(|touched groups|) instead of O(n). This
    /// is what makes fleet-scale best-response reconciliation affordable:
    /// the mover's cost is exact (its latency is always re-priced when its
    /// server group changes), only the *global* objective is left stale.
    /// Device-only streams and no-op moves return the current cost.
    pub fn probe_move_cost(&self, k: usize, new_server: usize, s: &mut DeltaScratch) -> f64 {
        if !self.offloaded[k] || new_server == self.placement[k] {
            return self.latency[k] / self.ev.deadline_s[k];
        }
        self.compute_patch_groups(Move::Server { k, srv: new_server }, s);
        let lat = if s.lat_stamp[k] == s.gen {
            s.lat_val[k]
        } else {
            self.latency[k]
        };
        lat / self.ev.deadline_s[k]
    }

    /// Stream `k`'s current normalized latency (own cost in the stream
    /// game: latency over deadline).
    pub fn own_cost(&self, k: usize) -> f64 {
        self.latency[k] / self.ev.deadline_s[k]
    }

    /// Whether stream `k`'s current plan offloads (its placement matters).
    pub fn is_offloaded(&self, k: usize) -> bool {
        self.offloaded[k]
    }

    /// Score every plan in stream `k`'s menu against the current context,
    /// in menu order on the context's own scratch. Entry `i` is the
    /// pooled objective with `k` on plan `i`, everyone else unchanged.
    pub fn score_menu(&mut self, k: usize) -> Vec<f64> {
        let mut s = std::mem::take(&mut self.scratch);
        let scores = (0..self.ev.menus[k].len())
            .map(|idx| self.evaluate_delta(k, idx, &mut s))
            .collect();
        self.scratch = s;
        scores
    }

    /// A lower bound on [`evaluate_delta`]`(k, idx)` without its O(n)
    /// resum. The flip's dirty groups are re-solved as usual; the cached
    /// pooled sum is then patched by the touched streams' term changes
    /// and widened by a recursive-summation error margin, so the exact
    /// index-order resum cannot fall below it (DESIGN.md §2.9). −∞ when
    /// any value on the way is non-finite.
    ///
    /// [`evaluate_delta`]: EvalContext::evaluate_delta
    fn objective_bound(&self, k: usize, idx: usize, s: &mut DeltaScratch) -> f64 {
        let mv = Move::Plan { k, idx };
        self.compute_patch_groups(mv, s);
        let mut est = self.pooled_sum;
        let mut touched = 0.0;
        for &j in &s.touched_lat {
            let (norm, pen, _) = objective_terms(s.lat_val[j], self.ev.deadline_s[j]);
            est += norm;
            est += pen;
            est -= self.obj_norm[j];
            est -= self.obj_pen[j];
            touched += norm + pen + self.obj_norm[j] + self.obj_pen[j];
        }
        // Both resums add at most 2n terms, all ≥ 0 (L/D, and
        // 10·(L/D − 1) on a miss), so each lies within n·ε of its exact
        // sum, relatively. `est` adds 4·|touched| ≤ 4n signed terms to the
        // cached sum, so it lies within 2n·ε·(sum + touched) of its exact
        // value. The margin covers both, with room for its own roundings;
        // DESIGN.md §2.9 has the proof.
        let n = self.latency.len();
        let margin = (4 * n + 16) as f64 * f64::EPSILON * (self.pooled_sum + est.abs() + touched);
        if !margin.is_finite() {
            // A non-finite sum, estimate or term (an overflowed latency)
            // leaves the margin non-finite too: nothing is ruled out.
            return f64::NEG_INFINITY;
        }
        self.finish(est - margin, self.patched_excess(mv))
    }

    /// The plan a descent step adopts for stream `k`. Scanning the menu
    /// in order from the cached objective, each plan within the caps
    /// whose objective lies below the running best by more than
    /// [`DESCENT_TOL`] becomes the best; the current plan stands when
    /// none does. This is that scan over [`score_menu`], in one pass on
    /// the context's own scratch, but the exact [`evaluate_delta`] runs
    /// only for plans whose [`objective_bound`] passes the same test
    /// against the running best, since a plan whose bound fails it
    /// cannot pass it either. Under `eval-xcheck` every plan is priced
    /// exactly and checked against its bound.
    ///
    /// [`score_menu`]: EvalContext::score_menu
    /// [`evaluate_delta`]: EvalContext::evaluate_delta
    /// [`objective_bound`]: EvalContext::objective_bound
    pub(crate) fn descent_pick(&mut self, k: usize) -> usize {
        let mut s = std::mem::take(&mut self.scratch);
        let cur = self.plan_idx[k];
        let mut best_idx = cur;
        let mut best_obj = self.objective;
        for idx in 0..self.ev.menus[k].len() {
            if idx == cur || !self.plan_within_caps(k, idx) {
                continue;
            }
            let bound = self.objective_bound(k, idx, &mut s);
            let may_improve = bound < best_obj - DESCENT_TOL;
            if !may_improve && !cfg!(feature = "eval-xcheck") {
                continue;
            }
            let o = self.evaluate_delta(k, idx, &mut s);
            if cfg!(feature = "eval-xcheck") {
                assert!(
                    o.is_nan() || o >= bound,
                    "plan ({k},{idx}): bound {bound} exceeds exact {o}"
                );
            }
            if o < best_obj - DESCENT_TOL {
                best_obj = o;
                best_idx = idx;
            }
        }
        self.scratch = s;
        best_idx
    }

    /// Apply a priced move: flip the coordinate, splice the recomputed
    /// group values into the caches, adopt the resummed objective.
    fn apply(&mut self, mv: Move, s: &DeltaScratch) {
        let (k, new_srv) = match mv {
            Move::Plan { k, .. } => (k, self.placement[k]),
            Move::Server { k, srv } => (k, srv),
        };
        let old_off = self.offloaded[k];
        let old_srv = self.placement[k];
        if let Move::Plan { idx, .. } = mv {
            self.plan_idx[k] = idx;
        }
        let new_off = !self.plan(k).is_device_only();
        self.placement[k] = new_srv;
        self.offloaded[k] = new_off;
        if old_off && (!new_off || new_srv != old_srv) {
            let m = &mut self.server_members[old_srv];
            // Membership is maintained by this function alone; a miss can
            // only mean a bug, so flag it in debug builds but keep release
            // builds panic-free (removing nothing is then the safe no-op).
            match m.binary_search(&k) {
                Ok(pos) => {
                    m.remove(pos);
                }
                Err(_) => debug_assert!(false, "server membership out of sync"),
            }
        }
        if new_off && (!old_off || new_srv != old_srv) {
            let m = &mut self.server_members[new_srv];
            let pos = m.partition_point(|&j| j < k);
            m.insert(pos, k);
        }
        if let Some((ap, delta)) = s.ap_delta {
            self.ap_offload[ap] = (self.ap_offload[ap] as isize + delta) as usize;
        }
        if let Some(dp) = s.dev {
            self.dev_les2[dp.device] = dp.les2;
            self.dev_rho[dp.device] = dp.rho;
            self.dev_wait[dp.device] = dp.wait;
        }
        for &j in &s.touched_cs {
            self.compute_shares[j] = s.cs_val[j];
        }
        for &j in &s.touched_bw {
            self.bandwidth_shares[j] = s.bw_val[j];
        }
        for &j in &s.touched_lat {
            self.latency[j] = s.lat_val[j];
            let (norm, pen, miss) = objective_terms(s.lat_val[j], self.ev.deadline_s[j]);
            self.obj_norm[j] = norm;
            self.obj_pen[j] = pen;
            self.obj_missed[j] = miss;
            self.device_energy[j] = s.de_val[j];
            self.total_energy[j] = s.te_val[j];
        }
        self.pooled_sum = s.pooled_sum;
        self.objective = s.objective;
        self.expected_misses = s.misses;
        self.div_refresh();
    }

    fn commit(&mut self, mv: Move) -> f64 {
        let mut s = std::mem::take(&mut self.scratch);
        self.compute_patch(mv, &mut s);
        self.apply(mv, &s);
        self.scratch = s;
        #[cfg(feature = "eval-xcheck")]
        self.assert_matches_fresh();
        self.objective
    }

    /// Switch stream `k` to plan `idx` and patch the caches. Returns the
    /// new objective.
    pub fn commit_plan(&mut self, k: usize, idx: usize) -> f64 {
        self.commit(Move::Plan { k, idx })
    }

    /// Move stream `k` to server `srv` and patch the caches. Returns the
    /// new objective.
    pub fn commit_move(&mut self, k: usize, srv: usize) -> f64 {
        self.commit(Move::Server { k, srv })
    }

    /// Adopt a whole placement vector. Few changed coordinates are
    /// committed as individual moves; many trigger one rebuild — both
    /// paths land on identical bits (state is a pure function of the
    /// assignment).
    pub fn set_placement(&mut self, new_placement: &[usize]) -> f64 {
        let n = self.placement.len();
        assert_eq!(new_placement.len(), n);
        let changed = (0..n)
            .filter(|&k| new_placement[k] != self.placement[k])
            .count();
        if changed == 0 {
            return self.objective;
        }
        // Each move re-solves ~2 servers + 1 AP; a rebuild solves all of
        // them once.
        if changed * 3 >= self.ev.server_caps.len() + self.ev.num_aps {
            self.placement.copy_from_slice(new_placement);
            self.rebuild();
        } else {
            for (k, &srv) in new_placement.iter().enumerate() {
                if srv != self.placement[k] {
                    self.commit_move(k, srv);
                }
            }
        }
        self.objective
    }

    /// Adopt a whole assignment (plans + placement), incrementally when
    /// the diff is small, by rebuild otherwise.
    pub fn reconfigure(&mut self, plan_idx: &[usize], placement: &[usize]) -> f64 {
        let n = self.plan_idx.len();
        assert_eq!(plan_idx.len(), n);
        assert_eq!(placement.len(), n);
        let diff = (0..n)
            .filter(|&k| plan_idx[k] != self.plan_idx[k] || placement[k] != self.placement[k])
            .count();
        if diff * 3 >= self.ev.server_caps.len() + self.ev.num_aps + self.ev.num_devices {
            self.plan_idx.copy_from_slice(plan_idx);
            self.placement.copy_from_slice(placement);
            self.rebuild();
        } else {
            for (k, &idx) in plan_idx.iter().enumerate() {
                if idx != self.plan_idx[k] {
                    self.commit_plan(k, idx);
                }
            }
            self.set_placement(placement);
        }
        self.objective
    }

    /// Snapshot the cached pricing as an [`EvalResult`].
    pub fn result(&self) -> EvalResult {
        let n = self.latency.len();
        EvalResult {
            latency_s: self.latency.clone(),
            accuracy: (0..n).map(|k| self.plan(k).exp_accuracy).collect(),
            bandwidth_shares: self.bandwidth_shares.clone(),
            compute_shares: self.compute_shares.clone(),
            objective: self.objective,
            expected_misses: self.expected_misses,
            device_energy_j: self.device_energy.clone(),
            total_energy_j: self.total_energy.clone(),
        }
    }

    /// Consume the context into an [`EvalResult`] without copying caches.
    pub fn into_result(mut self) -> EvalResult {
        let n = self.latency.len();
        let accuracy = (0..n).map(|k| self.plan(k).exp_accuracy).collect();
        EvalResult {
            latency_s: std::mem::take(&mut self.latency),
            accuracy,
            bandwidth_shares: std::mem::take(&mut self.bandwidth_shares),
            compute_shares: std::mem::take(&mut self.compute_shares),
            objective: self.objective,
            expected_misses: self.expected_misses,
            device_energy_j: std::mem::take(&mut self.device_energy),
            total_energy_j: std::mem::take(&mut self.total_energy),
        }
    }

    /// Oracle cross-check: every cache must match a fresh full rebuild of
    /// the same assignment, bit for bit. Used by the property tests and,
    /// under the `eval-xcheck` feature, after every commit.
    pub fn assert_matches_fresh(&self) {
        let fresh = EvalContext::with_diversity(
            self.ev,
            self.assignment(),
            self.policies,
            self.div.as_ref().map(|d| d.cfg.clone()),
        );
        assert_eq!(
            self.objective.to_bits(),
            fresh.objective.to_bits(),
            "objective drifted: cached {} vs fresh {}",
            self.objective,
            fresh.objective
        );
        assert_eq!(self.expected_misses, fresh.expected_misses);
        for k in 0..self.latency.len() {
            assert_eq!(
                self.latency[k].to_bits(),
                fresh.latency[k].to_bits(),
                "latency[{k}] drifted: {} vs {}",
                self.latency[k],
                fresh.latency[k]
            );
            assert_eq!(
                self.compute_shares[k].to_bits(),
                fresh.compute_shares[k].to_bits()
            );
            assert_eq!(
                self.bandwidth_shares[k].to_bits(),
                fresh.bandwidth_shares[k].to_bits()
            );
            assert_eq!(
                self.device_energy[k].to_bits(),
                fresh.device_energy[k].to_bits()
            );
            assert_eq!(
                self.total_energy[k].to_bits(),
                fresh.total_energy[k].to_bits()
            );
        }
        for d in 0..self.dev_wait.len() {
            assert_eq!(self.dev_wait[d].to_bits(), fresh.dev_wait[d].to_bits());
        }
        assert_eq!(self.ap_offload, fresh.ap_offload);
        assert_eq!(self.server_members, fresh.server_members);
        match (&self.div, &fresh.div) {
            (Some(a), Some(b)) => {
                assert_eq!(a.excess, b.excess, "diversity excess drifted");
                assert_eq!(a.domain_load, b.domain_load, "domain tallies drifted");
            }
            (None, None) => {}
            _ => panic!("diversity state must survive a rebuild"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::diversity::DiversityConfig;

    fn context(cfg: &ScenarioConfig) -> (Evaluator, Assignment) {
        let problem = cfg.build();
        let ev = Evaluator::new(&problem, None);
        let asg = Assignment {
            plan_idx: vec![0; ev.num_streams()],
            placement: (0..ev.num_streams())
                .map(|k| k % ev.num_servers())
                .collect(),
        };
        (ev, asg)
    }

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            num_aps: 2,
            devices_per_ap: 3,
            arrival_rate_hz: 4.0,
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn fresh_context_matches_evaluator() {
        let cfg = small();
        let (ev, asg) = context(&cfg);
        let full = ev.evaluate(&asg, AllocPolicies::optimal());
        let ctx = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        assert_eq!(full.objective.to_bits(), ctx.objective().to_bits());
        let r = ctx.result();
        for k in 0..r.latency_s.len() {
            assert_eq!(full.latency_s[k].to_bits(), r.latency_s[k].to_bits());
        }
    }

    #[test]
    fn delta_trial_matches_fresh_evaluate_bitwise() {
        let cfg = small();
        let (ev, asg) = context(&cfg);
        let ctx = EvalContext::new(&ev, asg.clone(), AllocPolicies::optimal());
        let mut s = DeltaScratch::default();
        for k in 0..ev.num_streams() {
            for idx in 0..ev.menu(k).len() {
                let delta = ctx.evaluate_delta(k, idx, &mut s);
                let mut probe = asg.clone();
                probe.plan_idx[k] = idx;
                let fresh = ev.evaluate(&probe, AllocPolicies::optimal()).objective;
                assert_eq!(
                    delta.to_bits(),
                    fresh.to_bits(),
                    "plan trial ({k},{idx}): {delta} vs {fresh}"
                );
            }
            for srv in 0..ev.num_servers() {
                let delta = ctx.evaluate_move(k, srv, &mut s);
                let mut probe = asg.clone();
                probe.placement[k] = srv;
                let fresh = ev.evaluate(&probe, AllocPolicies::optimal()).objective;
                assert_eq!(
                    delta.to_bits(),
                    fresh.to_bits(),
                    "move trial ({k},{srv}): {delta} vs {fresh}"
                );
            }
        }
    }

    #[test]
    fn commits_stay_bit_identical_to_rebuild() {
        let cfg = small();
        let (ev, asg) = context(&cfg);
        let mut ctx = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        // A deterministic little walk: flip plans and move servers.
        for k in 0..ev.num_streams() {
            let idx = (k + 1) % ev.menu(k).len();
            ctx.commit_plan(k, idx);
            ctx.assert_matches_fresh();
            let srv = (k + 1) % ev.num_servers();
            ctx.commit_move(k, srv);
            ctx.assert_matches_fresh();
        }
    }

    #[test]
    fn score_menu_matches_individual_trials() {
        let cfg = small();
        let (ev, asg) = context(&cfg);
        let mut ctx = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        let mut s = DeltaScratch::default();
        for k in 0..ev.num_streams() {
            let scores = ctx.score_menu(k);
            assert_eq!(scores.len(), ev.menu(k).len());
            for (idx, &o) in scores.iter().enumerate() {
                let lone = ctx.evaluate_delta(k, idx, &mut s);
                assert_eq!(o.to_bits(), lone.to_bits());
            }
            // The current plan scores exactly the cached objective.
            assert_eq!(scores[ctx.plan_of(k)].to_bits(), ctx.objective().to_bits());
        }
    }

    /// The descent scan over `score_menu`: what `descent_pick` must
    /// return.
    fn scanned_pick(ctx: &mut EvalContext, k: usize) -> usize {
        let cur = ctx.plan_of(k);
        let mut best_idx = cur;
        let mut best_obj = ctx.objective();
        for (idx, o) in ctx.score_menu(k).into_iter().enumerate() {
            if idx != cur && ctx.plan_within_caps(k, idx) && o < best_obj - DESCENT_TOL {
                best_obj = o;
                best_idx = idx;
            }
        }
        best_idx
    }

    #[test]
    fn objective_bound_never_exceeds_the_exact_objective() {
        let mut missed = 0usize;
        let mut capped = 0usize;
        for seed in 0..4u64 {
            // Rising load, so later contexts miss deadlines.
            let cfg = ScenarioConfig {
                arrival_rate_hz: 4.0 + 8.0 * seed as f64,
                seed,
                ..small()
            };
            let (ev, _) = context(&cfg);
            let mut rng = scalpel_sim::SimRng::new(seed, 7);
            let asg = Assignment {
                plan_idx: (0..ev.num_streams())
                    .map(|k| rng.index(ev.menu(k).len()))
                    .collect(),
                placement: (0..ev.num_streams())
                    .map(|_| rng.index(ev.num_servers()))
                    .collect(),
            };
            let tight = DiversityConfig {
                server_domain: (0..ev.num_servers()).map(|srv| srv % 2).collect(),
            };
            for div in [None, Some(tight)] {
                let mut ctx =
                    EvalContext::with_diversity(&ev, asg.clone(), AllocPolicies::optimal(), div);
                capped += ctx.div.as_ref().map_or(0, |d| d.excess);
                let mut s = DeltaScratch::default();
                for k in 0..ev.num_streams() {
                    for idx in 0..ev.menu(k).len() {
                        let bound = ctx.objective_bound(k, idx, &mut s);
                        let exact = ctx.evaluate_delta(k, idx, &mut s);
                        missed += s.misses;
                        assert!(bound <= exact, "({k},{idx}): bound {bound} > exact {exact}");
                        // Tight enough to rule out all but near-ties.
                        let slack = 1e-12 * exact.abs().max(1.0);
                        assert!(exact - bound < slack, "({k},{idx}): {bound} vs {exact}");
                    }
                    assert_eq!(ctx.descent_pick(k), scanned_pick(&mut ctx, k));
                }
            }
        }
        assert!(missed > 0, "no probe missed a deadline");
        assert!(capped > 0, "no context exceeded a cap");
    }

    #[test]
    fn objective_bound_rules_nothing_out_on_an_overflowed_sum() {
        let mut problem = small().build();
        for ap in &mut problem.cluster.aps {
            ap.rtt_s = 1e308;
        }
        let ev = Evaluator::new(&problem, None);
        // Every stream on its most-offloading plan: each latency is about
        // 5e307 s, so the pooled sum overflows.
        let plan_idx = (0..ev.num_streams())
            .map(|k| {
                let menu = ev.menu(k);
                (0..menu.len())
                    .max_by(|&a, &b| {
                        let remain = |i: usize| menu[i].behavior.remain_prob;
                        remain(a).total_cmp(&remain(b))
                    })
                    .unwrap_or(0)
            })
            .collect();
        let placement = (0..ev.num_streams())
            .map(|k| k % ev.num_servers())
            .collect();
        let asg = Assignment {
            plan_idx,
            placement,
        };
        let mut ctx = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        assert!(!ctx.objective().is_finite(), "{}", ctx.objective());
        let mut s = DeltaScratch::default();
        for k in 0..ev.num_streams() {
            for idx in 0..ev.menu(k).len() {
                assert_eq!(ctx.objective_bound(k, idx, &mut s), f64::NEG_INFINITY);
            }
            assert_eq!(ctx.descent_pick(k), scanned_pick(&mut ctx, k));
        }
    }

    #[test]
    fn set_placement_rebuild_and_moves_agree() {
        let cfg = small();
        let (ev, asg) = context(&cfg);
        let mut a = EvalContext::new(&ev, asg.clone(), AllocPolicies::optimal());
        let mut b = EvalContext::new(&ev, asg, AllocPolicies::optimal());
        let target: Vec<usize> = (0..ev.num_streams())
            .map(|k| (k + 2) % ev.num_servers())
            .collect();
        // a: one-by-one committed moves; b: forced rebuild.
        for (k, &srv) in target.iter().enumerate() {
            if a.placement()[k] != srv {
                a.commit_move(k, srv);
            }
        }
        b.placement.copy_from_slice(&target);
        b.rebuild();
        assert_eq!(a.objective().to_bits(), b.objective().to_bits());
        a.assert_matches_fresh();
    }
}
