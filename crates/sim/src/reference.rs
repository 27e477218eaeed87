//! The AoS reference simulator — the bit-exactness oracle.
//!
//! This module preserves the pre-columnar (array-of-structs) simulator
//! verbatim: requests live in a slab of `InFlight` structs, device and
//! uplink stations are per-entity `Lane` structs, and each server's
//! processor-sharing state is a `BinaryHeap` ordered by virtual finish
//! tag. The columnar engine in [`crate::sim`] must produce bit-identical
//! [`SimReport`]s, trace logs, and fault accounting against this oracle
//! for *every* schedule — the `soa_equivalence` suite drives both doors
//! over arbitrary clean/faulted/recovered scenarios and compares the
//! outputs field-by-field (floats by bits).
//!
//! The oracle is compiled unconditionally (not `#[cfg(test)]`) so
//! integration tests and external harnesses can call it; it allocates a
//! fresh scratch per run and is deliberately unoptimized — clarity and
//! stability over speed.

use crate::engine::{EventKey, EventQueue};
use crate::faults::{FaultAccum, FaultClass, FaultKind};
use crate::metrics::{LatencyStats, RecoveryMetrics, SimReport, StreamAccum};
use crate::net::CachedLink;
use crate::recovery::{
    retry_timeout_s, BreakerState, CircuitBreaker, HealthSnapshot, RecoveryAccum, SnapBase,
    MAX_RETRIES, TELEMETRY_EPOCH_S,
};
use crate::rng::SimRng;
use crate::sim::EdgeSim;
use crate::task::RunTask;
use crate::time::SimTime;
use crate::tracelog::{FaultRecord, RunTrace, TaskRecord};
use crate::workload::ArrivalState;
use std::collections::binary_heap::PeekMut;

/// Events of the edge simulation (reference copy).
#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrive {
        stream: usize,
    },
    DeviceDone {
        device: usize,
        gen: u64,
    },
    TxDone {
        device: usize,
        gen: u64,
    },
    ServerCheck {
        server: usize,
        gen: u64,
    },
    Fault {
        idx: usize,
    },
    RetryTimeout {
        device: usize,
        req: u64,
        attempt: u32,
    },
    Telemetry,
}

const NIL: u32 = u32::MAX;
const NO_RUNG: u32 = u32::MAX;
const NO_SERVER: usize = usize::MAX;

/// A request with its accumulated timing breakdown (reference AoS form).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    task: RunTask,
    device_wait: f64,
    device_service: f64,
    tx_time: f64,
    req: u64,
    attempts: u32,
    /// The server this request offloads to: its stream's primary until
    /// routing picks a hedge. [`NO_SERVER`] for device-only streams,
    /// whose requests never transmit.
    server: usize,
    degrade_to: u32,
    retry_key: EventKey,
}

#[derive(Debug, Clone, Copy)]
struct FlightSlot {
    flight: InFlight,
    next: u32,
}

#[derive(Debug)]
struct FlightPool {
    slots: Vec<FlightSlot>,
    free_head: u32,
}

impl Default for FlightPool {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free_head: NIL,
        }
    }
}

impl FlightPool {
    fn alloc(&mut self, flight: InFlight) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.flight = flight;
            slot.next = NIL;
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "flight pool overflow");
            self.slots.push(FlightSlot { flight, next: NIL });
            idx
        }
    }

    fn free(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.next = self.free_head;
        self.free_head = idx;
    }

    fn get(&self, idx: u32) -> &InFlight {
        &self.slots[idx as usize].flight
    }

    fn get_mut(&mut self, idx: u32) -> &mut InFlight {
        &mut self.slots[idx as usize].flight
    }

    fn next_of(&self, idx: u32) -> u32 {
        self.slots[idx as usize].next
    }
}

#[derive(Debug, Clone, Copy)]
struct FlightList {
    head: u32,
    tail: u32,
}

impl Default for FlightList {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
        }
    }
}

impl FlightList {
    fn is_empty(&self) -> bool {
        self.head == NIL
    }

    fn push_back(&mut self, pool: &mut FlightPool, idx: u32) {
        pool.slots[idx as usize].next = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            pool.slots[self.tail as usize].next = idx;
        }
        self.tail = idx;
    }

    fn push_front(&mut self, pool: &mut FlightPool, idx: u32) {
        pool.slots[idx as usize].next = self.head;
        if self.head == NIL {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn pop_front(&mut self, pool: &mut FlightPool) -> Option<u32> {
        if self.head == NIL {
            return None;
        }
        let idx = self.head;
        self.head = pool.slots[idx as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        Some(idx)
    }

    fn unlink_after(&mut self, pool: &mut FlightPool, prev: u32, idx: u32) {
        let next = pool.slots[idx as usize].next;
        if prev == NIL {
            self.head = next;
        } else {
            pool.slots[prev as usize].next = next;
        }
        if self.tail == idx {
            self.tail = prev;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    queue: FlightList,
    current: u32,
}

impl Lane {
    fn new() -> Self {
        Self {
            queue: FlightList::default(),
            current: NIL,
        }
    }
}

/// One request in a server's processor-sharing station, keyed by its
/// virtual finish tag (see [`crate::sim`] for the derivation).
#[derive(Debug, Clone, Copy)]
struct ServedEntry {
    vtag: f64,
    seq: u64,
    flight: u32,
    weight: f64,
    entered: SimTime,
}

impl PartialEq for ServedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for ServedEntry {}
impl PartialOrd for ServedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ServedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, smallest tag on top. NaN
        // tags park after +∞ under total_cmp.
        other
            .vtag
            .total_cmp(&self.vtag)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Debug)]
struct ServerState {
    capacity_fps: f64,
    base_fps: f64,
    vclock: f64,
    total_w: f64,
    seq: u64,
    served: std::collections::BinaryHeap<ServedEntry>,
    last: SimTime,
    gen: u64,
    busy_s: f64,
}

impl ServerState {
    fn new(fps: f64) -> Self {
        Self {
            capacity_fps: fps,
            base_fps: fps,
            vclock: 0.0,
            total_w: 0.0,
            seq: 0,
            served: std::collections::BinaryHeap::new(),
            last: SimTime::ZERO,
            gen: 0,
            busy_s: 0.0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.secs_since(self.last);
        self.last = now;
        if dt <= 0.0 || self.served.is_empty() {
            return;
        }
        self.busy_s += dt;
        if self.total_w > 0.0 {
            self.vclock += dt * self.capacity_fps / self.total_w;
        }
    }

    fn admit(&mut self, flight: u32, flops: f64, weight: f64, entered: SimTime) {
        let vtag = if weight > 0.0 {
            self.vclock + flops / weight
        } else {
            f64::INFINITY
        };
        self.seq += 1;
        self.served.push(ServedEntry {
            vtag,
            seq: self.seq,
            flight,
            weight,
            entered,
        });
        self.total_w += weight;
    }

    fn pop_completions(&mut self, eps: f64, done: &mut Vec<(u32, SimTime)>) {
        while let Some(top) = self.served.peek_mut() {
            if (top.vtag - self.vclock) * top.weight <= eps {
                let e = PeekMut::pop(top);
                self.total_w -= e.weight;
                done.push((e.flight, e.entered));
            } else {
                break;
            }
        }
        if self.served.is_empty() {
            self.vclock = 0.0;
            self.total_w = 0.0;
        }
    }

    fn time_to_next_completion(&self) -> Option<f64> {
        let top = self.served.peek()?;
        if self.total_w <= 0.0 || self.total_w.is_nan() || top.vtag.is_nan() {
            return None;
        }
        Some(((top.vtag - self.vclock) * self.total_w / self.capacity_fps).max(0.0))
    }
}

/// Per-run state of the reference simulator (fresh per run).
struct RefScratch {
    queue: EventQueue<Ev>,
    pool: FlightPool,
    devices: Vec<Lane>,
    uplinks: Vec<Lane>,
    servers: Vec<ServerState>,
    links: Vec<CachedLink>,
    arrival_states: Vec<ArrivalState>,
    arrival_rngs: Vec<SimRng>,
    difficulty_rng: SimRng,
    fading_rng: SimRng,
    accums: Vec<StreamAccum>,
    generated: usize,
    horizon: SimTime,
    warmup: SimTime,
    record: bool,
    trace: Vec<TaskRecord>,
    fault_trace: Vec<FaultRecord>,
    device_up: Vec<bool>,
    dev_gen: Vec<u64>,
    ap_up: Vec<bool>,
    ap_bw_factor: Vec<f64>,
    tx_gen: Vec<u64>,
    server_up: Vec<bool>,
    arrival_pending: Vec<bool>,
    streams_by_device: Vec<Vec<usize>>,
    devices_by_ap: Vec<Vec<usize>>,
    active_faults: [usize; FaultClass::COUNT],
    device_down_at: Vec<Option<SimTime>>,
    ap_down_at: Vec<Option<SimTime>>,
    ap_degraded_at: Vec<Option<SimTime>>,
    server_throttled_at: Vec<Option<SimTime>>,
    server_down_at: Vec<Option<SimTime>>,
    ap_down_ci: Vec<u8>,
    server_down_ci: Vec<u8>,
    fa: FaultAccum,
    recovery_active: bool,
    next_req: u64,
    srv_breakers: Option<Vec<CircuitBreaker>>,
    ap_breakers: Option<Vec<CircuitBreaker>>,
    ra: RecoveryAccum,
    degrade_backlog_s: Vec<f64>,
    health: Vec<HealthSnapshot>,
    meas_completed: usize,
    meas_misses: usize,
    last_snap: SnapBase,
    done_buf: Vec<(u32, SimTime)>,
    lat_all: Vec<f64>,
}

impl RefScratch {
    fn new(sim: &EdgeSim) -> Self {
        let n_dev = sim.cluster.devices.len();
        let n_ap = sim.cluster.aps.len();
        let n_srv = sim.cluster.servers.len();
        let n_str = sim.streams.len();
        let seed = sim.config.seed;
        let (srv_breakers, ap_breakers) = match &sim.config.recovery.breakers {
            Some(bc) => (
                Some(
                    (0..n_srv)
                        .map(|_| CircuitBreaker::new(bc.clone()))
                        .collect(),
                ),
                Some((0..n_ap).map(|_| CircuitBreaker::new(bc.clone())).collect()),
            ),
            None => (None, None),
        };
        let mut streams_by_device: Vec<Vec<usize>> = vec![Vec::new(); n_dev];
        for (i, s) in sim.streams.iter().enumerate() {
            streams_by_device[s.device].push(i);
        }
        let mut devices_by_ap: Vec<Vec<usize>> = vec![Vec::new(); n_ap];
        for (d, spec) in sim.cluster.devices.iter().enumerate() {
            devices_by_ap[spec.ap].push(d);
        }
        Self {
            queue: EventQueue::new(),
            pool: FlightPool::default(),
            devices: vec![Lane::new(); n_dev],
            uplinks: vec![Lane::new(); n_dev],
            servers: sim
                .cluster
                .servers
                .iter()
                .map(|s| ServerState::new(s.proc.flops_per_sec))
                .collect(),
            links: (0..n_dev).map(|d| sim.cluster.link(d).cached()).collect(),
            arrival_states: vec![ArrivalState::default(); n_str],
            arrival_rngs: (0..n_str)
                .map(|i| SimRng::new(seed, 1000 + i as u64))
                .collect(),
            difficulty_rng: SimRng::new(seed, 1),
            fading_rng: SimRng::new(seed, 2),
            accums: (0..n_str).map(|_| StreamAccum::default()).collect(),
            generated: 0,
            horizon: SimTime::from_secs_f64(sim.config.horizon_s),
            warmup: SimTime::from_secs_f64(sim.config.warmup_s),
            record: false,
            trace: Vec::new(),
            fault_trace: Vec::new(),
            device_up: vec![true; n_dev],
            dev_gen: vec![0; n_dev],
            ap_up: vec![true; n_ap],
            ap_bw_factor: vec![1.0; n_ap],
            tx_gen: vec![0; n_dev],
            server_up: vec![true; n_srv],
            arrival_pending: vec![false; n_str],
            streams_by_device,
            devices_by_ap,
            active_faults: [0; FaultClass::COUNT],
            device_down_at: vec![None; n_dev],
            ap_down_at: vec![None; n_ap],
            ap_degraded_at: vec![None; n_ap],
            server_throttled_at: vec![None; n_srv],
            server_down_at: vec![None; n_srv],
            ap_down_ci: vec![0; n_ap],
            server_down_ci: vec![0; n_srv],
            fa: FaultAccum::default(),
            recovery_active: sim.config.recovery.is_active(),
            next_req: 0,
            srv_breakers,
            ap_breakers,
            ra: RecoveryAccum::default(),
            degrade_backlog_s: vec![0.0; n_dev],
            health: Vec::new(),
            meas_completed: 0,
            meas_misses: 0,
            last_snap: SnapBase::default(),
            done_buf: Vec::new(),
            lat_all: Vec::new(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn strand_flight(
    sim: &EdgeSim,
    pool: &mut FlightPool,
    queue: &mut EventQueue<Ev>,
    backlog: &mut f64,
    stranded: &mut usize,
    warmup: SimTime,
    horizon: SimTime,
    idx: u32,
) {
    let f = *pool.get(idx);
    if f.degrade_to != NO_RUNG {
        let extra = sim.streams[f.task.stream].degrade.rungs[f.degrade_to as usize].extra_device_s;
        *backlog = (*backlog - extra).max(0.0);
    }
    if f.task.arrival >= warmup && f.task.arrival < horizon {
        *stranded += 1;
    }
    queue.cancel(f.retry_key);
    pool.free(idx);
}

/// Run `sim` through the AoS reference engine.
///
/// Produces the [`SimReport`] the columnar simulator must reproduce
/// bit-for-bit (floats compared by bits, orderings by sequence).
pub fn run_reference(sim: &EdgeSim) -> SimReport {
    run_reference_internal(sim, false).0
}

/// [`run_reference`] with full event logging (per-completion task records
/// and per-fault records), for trace-level equivalence checks.
pub fn run_reference_logged(sim: &EdgeSim) -> (SimReport, RunTrace) {
    run_reference_internal(sim, true)
}

fn run_reference_internal(sim: &EdgeSim, record: bool) -> (SimReport, RunTrace) {
    let mut st = RefScratch::new(sim);
    st.record = record;
    Runner { sim, st: &mut st }.run()
}

struct Runner<'a> {
    sim: &'a EdgeSim,
    st: &'a mut RefScratch,
}

impl Runner<'_> {
    fn run(mut self) -> (SimReport, RunTrace) {
        let sim = self.sim;
        {
            let st = &mut *self.st;
            for i in 0..sim.streams.len() {
                let gap = st.arrival_states[i]
                    .next_gap(&sim.streams[i].arrivals, &mut st.arrival_rngs[i]);
                st.arrival_pending[i] = true;
                st.queue
                    .post(SimTime::from_secs_f64(gap), Ev::Arrive { stream: i });
            }
            for (idx, fe) in sim.config.faults.events.iter().enumerate() {
                st.queue
                    .post(SimTime::from_secs_f64(fe.at_s), Ev::Fault { idx });
            }
            if sim.config.recovery.telemetry {
                st.queue
                    .post(SimTime::from_secs_f64(TELEMETRY_EPOCH_S), Ev::Telemetry);
            }
        }
        while let Some((now, ev)) = self.st.queue.pop() {
            match ev {
                Ev::Arrive { stream } => self.on_arrive(now, stream),
                Ev::DeviceDone { device, gen } => self.on_device_done(now, device, gen),
                Ev::TxDone { device, gen } => self.on_tx_done(now, device, gen),
                Ev::ServerCheck { server, gen } => self.on_server_check(now, server, gen),
                Ev::Fault { idx } => self.on_fault(now, idx),
                Ev::RetryTimeout {
                    device,
                    req,
                    attempt,
                } => self.on_retry_timeout(now, device, req, attempt),
                Ev::Telemetry => self.on_telemetry(now),
            }
        }
        self.finish()
    }

    fn measured(&self, arrival: SimTime) -> bool {
        arrival >= self.st.warmup && arrival < self.st.horizon
    }

    fn on_arrive(&mut self, now: SimTime, stream: usize) {
        let sim = self.sim;
        let st = &mut *self.st;
        st.arrival_pending[stream] = false;
        if now >= st.horizon {
            return;
        }
        let s = &sim.streams[stream];
        if !st.device_up[s.device] {
            return;
        }
        let u = st.difficulty_rng.open01();
        let exit = s.behavior.sample_exit(u);
        let accuracy = match exit {
            Some(i) => s.acc_at_exit[i],
            None => s.acc_full,
        };
        if now >= st.warmup && now < st.horizon {
            st.generated += 1;
        }
        let req = st.next_req;
        st.next_req += 1;
        let idx = st.pool.alloc(InFlight {
            task: RunTask {
                stream,
                arrival: now,
                exit,
                accuracy,
            },
            device_wait: 0.0,
            device_service: 0.0,
            tx_time: 0.0,
            req,
            attempts: 0,
            server: s.server.unwrap_or(NO_SERVER),
            degrade_to: NO_RUNG,
            retry_key: EventKey::NONE,
        });
        let dev = s.device;
        st.devices[dev].queue.push_back(&mut st.pool, idx);
        self.maybe_start_device(now, dev);
        let st = &mut *self.st;
        let gap = st.arrival_states[stream]
            .next_gap(&sim.streams[stream].arrivals, &mut st.arrival_rngs[stream]);
        st.arrival_pending[stream] = true;
        st.queue.post(now.after_secs(gap), Ev::Arrive { stream });
    }

    fn maybe_start_device(&mut self, now: SimTime, device: usize) {
        let sim = self.sim;
        let st = &mut *self.st;
        if !st.device_up[device] || st.devices[device].current != NIL {
            return;
        }
        let Some(idx) = st.devices[device].queue.pop_front(&mut st.pool) else {
            return;
        };
        let (stream, rung) = {
            let f = st.pool.get(idx);
            (f.task.stream, f.degrade_to)
        };
        let s = &sim.streams[stream];
        let service = if rung != NO_RUNG {
            s.degrade.rungs[rung as usize].extra_device_s
        } else {
            match st.pool.get(idx).task.exit {
                Some(i) => s.device_time_to_exit[i],
                None => s.device_full_time,
            }
        };
        {
            let f = st.pool.get_mut(idx);
            if rung != NO_RUNG {
                f.device_service += service;
            } else {
                f.device_wait = now.secs_since(f.task.arrival);
                f.device_service = service;
            }
        }
        st.devices[device].current = idx;
        st.dev_gen[device] += 1;
        let gen = st.dev_gen[device];
        st.queue
            .post(now.after_secs(service), Ev::DeviceDone { device, gen });
    }

    fn on_device_done(&mut self, now: SimTime, device: usize, gen: u64) {
        if gen != self.st.dev_gen[device] {
            return;
        }
        let idx = self.st.devices[device].current;
        assert!(idx != NIL, "DeviceDone without a running request");
        self.st.devices[device].current = NIL;
        let (stream, rung, exits) = {
            let f = self.st.pool.get(idx);
            (f.task.stream, f.degrade_to, f.task.exit.is_some())
        };
        let s = &self.sim.streams[stream];
        if rung != NO_RUNG {
            let extra = s.degrade.rungs[rung as usize].extra_device_s;
            self.st.degrade_backlog_s[device] =
                (self.st.degrade_backlog_s[device] - extra).max(0.0);
            self.complete_degraded(now, idx);
        } else if let (false, Some(primary)) = (exits, s.server) {
            if self.st.recovery_active {
                self.route_offload(now, idx, device, primary);
            } else {
                let st = &mut *self.st;
                st.uplinks[device].queue.push_back(&mut st.pool, idx);
                self.maybe_start_tx(now, device);
            }
        } else {
            self.complete(now, idx, 0.0);
        }
        self.maybe_start_device(now, device);
    }

    fn route_offload(&mut self, now: SimTime, idx: u32, device: usize, primary: usize) {
        let sim = self.sim;
        let (stream, arrival, req, attempts) = {
            let f = self.st.pool.get(idx);
            (f.task.stream, f.task.arrival, f.req, f.attempts)
        };
        let s = &sim.streams[stream];
        let cfg = &sim.config.recovery;
        let ap = sim.cluster.devices[device].ap;
        let now_s = now.as_secs_f64();
        let slack = s.deadline_s - now.secs_since(arrival);

        if let Some(ap_brk) = self.st.ap_breakers.as_mut() {
            if !ap_brk[ap].try_acquire(now_s) {
                self.fall_back(now, idx, device);
                return;
            }
        }
        let mut target = None;
        for c in std::iter::once(primary).chain(
            if cfg.hedge {
                s.fallback_servers.as_slice()
            } else {
                &[]
            }
            .iter()
            .copied(),
        ) {
            if cfg.degrade && self.nominal_path_estimate(stream, device, c) > slack {
                continue;
            }
            if let Some(srv_brk) = self.st.srv_breakers.as_mut() {
                if !srv_brk[c].try_acquire(now_s) {
                    continue;
                }
            }
            target = Some(c);
            break;
        }
        let Some(target) = target else {
            self.fall_back(now, idx, device);
            return;
        };
        if target != primary {
            self.st.ra.hedges += 1;
        }
        self.st.pool.get_mut(idx).server = target;
        if cfg.retry {
            let timeout = retry_timeout_s(attempts, slack);
            let key = self.st.queue.schedule(
                now.after_secs(timeout),
                Ev::RetryTimeout {
                    device,
                    req,
                    attempt: attempts,
                },
            );
            self.st.pool.get_mut(idx).retry_key = key;
        }
        let st = &mut *self.st;
        st.uplinks[device].queue.push_back(&mut st.pool, idx);
        self.maybe_start_tx(now, device);
    }

    fn nominal_path_estimate(&self, stream: usize, device: usize, target: usize) -> f64 {
        let s = &self.sim.streams[stream];
        let ap = self.sim.cluster.devices[device].ap;
        let air = self.st.links[device].tx_seconds(s.tx_bytes, s.bandwidth_share, 1.0)
            / self.st.ap_bw_factor[ap];
        air + self.sim.cluster.aps[ap].rtt_s / 2.0
            + s.edge_flops / self.st.servers[target].base_fps.max(1.0)
    }

    fn fall_back(&mut self, now: SimTime, idx: u32, device: usize) {
        let sim = self.sim;
        let cfg = &sim.config.recovery;
        let (stream, arrival) = {
            let f = self.st.pool.get(idx);
            (f.task.stream, f.task.arrival)
        };
        let s = &sim.streams[stream];
        if cfg.degrade {
            let slack = s.deadline_s - now.secs_since(arrival);
            let idle = self.st.devices[device].queue.is_empty()
                && self.st.degrade_backlog_s[device] <= 0.0;
            let avail = if idle { slack } else { 0.0 };
            if let Some(rung) = s.degrade.pick_rung(avail, idle) {
                let extra = s.degrade.rungs[rung].extra_device_s;
                let local = extra > 0.0;
                self.st.pool.get_mut(idx).degrade_to = rung as u32;
                if local {
                    let st = &mut *self.st;
                    st.degrade_backlog_s[device] += extra;
                    st.devices[device].queue.push_back(&mut st.pool, idx);
                    self.maybe_start_device(now, device);
                } else {
                    self.complete_degraded(now, idx);
                }
                return;
            }
        }
        if cfg.shed_on_open {
            if self.measured(arrival) {
                self.st.ra.shed += 1;
            }
            self.st.pool.free(idx);
            return;
        }
        let st = &mut *self.st;
        st.uplinks[device].queue.push_back(&mut st.pool, idx);
        self.maybe_start_tx(now, device);
    }

    fn complete_degraded(&mut self, now: SimTime, idx: u32) {
        let f = *self.st.pool.get(idx);
        self.st.pool.free(idx);
        if !self.measured(f.task.arrival) {
            return;
        }
        assert!(
            f.degrade_to != NO_RUNG,
            "degraded completion carries its rung"
        );
        let s = &self.sim.streams[f.task.stream];
        let rung = &s.degrade.rungs[f.degrade_to as usize];
        let st = &mut *self.st;
        st.ra.degraded += 1;
        if now.secs_since(f.task.arrival) <= s.deadline_s {
            st.ra.degraded_on_time += 1;
        }
        st.ra.nominal_acc_sum += f.task.accuracy;
        st.ra.degraded_acc_sum += rung.accuracy;
    }

    fn on_retry_timeout(&mut self, now: SimTime, device: usize, req: u64, attempt: u32) {
        let sim = self.sim;
        if !sim.config.recovery.retry {
            return;
        }
        let now_s = now.as_secs_f64();
        let ap = sim.cluster.devices[device].ap;
        let cur = self.st.uplinks[device].current;
        let in_current = cur != NIL && {
            let f = self.st.pool.get(cur);
            f.req == req && f.attempts == attempt
        };
        let (idx, prev) = if in_current {
            let st = &mut *self.st;
            st.tx_gen[device] += 1;
            st.uplinks[device].current = NIL;
            st.pool.get_mut(cur).tx_time = 0.0;
            (cur, NIL)
        } else {
            let st = &*self.st;
            let mut prev = NIL;
            let mut cand = st.uplinks[device].queue.head;
            loop {
                if cand == NIL {
                    return;
                }
                let f = st.pool.get(cand);
                if f.req == req && f.attempts == attempt {
                    break;
                }
                prev = cand;
                cand = st.pool.next_of(cand);
            }
            (cand, prev)
        };
        self.st.ra.timeouts += 1;
        if let Some(b) = self.st.ap_breakers.as_mut() {
            b[ap].record_failure(now_s);
        }
        let attempts = {
            let f = self.st.pool.get_mut(idx);
            f.attempts += 1;
            f.attempts
        };
        if attempts > MAX_RETRIES {
            if !in_current {
                let st = &mut *self.st;
                st.uplinks[device]
                    .queue
                    .unlink_after(&mut st.pool, prev, idx);
            }
            self.fall_back(now, idx, device);
        } else {
            if in_current {
                self.st.ra.retries += 1;
            }
            let (stream, arrival) = {
                let f = self.st.pool.get(idx);
                (f.task.stream, f.task.arrival)
            };
            let s = &sim.streams[stream];
            let slack = s.deadline_s - now.secs_since(arrival);
            let timeout = retry_timeout_s(attempts, slack);
            let key = self.st.queue.schedule(
                now.after_secs(timeout),
                Ev::RetryTimeout {
                    device,
                    req,
                    attempt: attempts,
                },
            );
            self.st.pool.get_mut(idx).retry_key = key;
            if in_current {
                let st = &mut *self.st;
                st.uplinks[device].queue.push_front(&mut st.pool, idx);
            }
        }
        self.maybe_start_tx(now, device);
    }

    fn on_telemetry(&mut self, now: SimTime) {
        let st = &mut *self.st;
        let open = |brks: &Option<Vec<CircuitBreaker>>| -> Vec<bool> {
            brks.as_ref()
                .map(|v| v.iter().map(|b| b.state() == BreakerState::Open).collect())
                .unwrap_or_default()
        };
        st.health.push(HealthSnapshot {
            at_s: now.as_secs_f64(),
            completions: st.meas_completed - st.last_snap.completed,
            slo_misses: st.meas_misses - st.last_snap.misses,
            timeouts: st.ra.timeouts - st.last_snap.timeouts,
            degraded: st.ra.degraded - st.last_snap.degraded,
            shed: st.ra.shed - st.last_snap.shed,
            server_open: open(&st.srv_breakers),
            ap_open: open(&st.ap_breakers),
        });
        st.last_snap = SnapBase {
            completed: st.meas_completed,
            misses: st.meas_misses,
            timeouts: st.ra.timeouts,
            degraded: st.ra.degraded,
            shed: st.ra.shed,
        };
        if now < st.horizon {
            st.queue
                .post(now.after_secs(TELEMETRY_EPOCH_S), Ev::Telemetry);
        }
    }

    fn maybe_start_tx(&mut self, now: SimTime, device: usize) {
        let sim = self.sim;
        let st = &mut *self.st;
        let ap = sim.cluster.devices[device].ap;
        if !st.device_up[device] || !st.ap_up[ap] {
            return;
        }
        if st.uplinks[device].current != NIL {
            return;
        }
        let Some(idx) = st.uplinks[device].queue.pop_front(&mut st.pool) else {
            return;
        };
        let s = &sim.streams[st.pool.get(idx).task.stream];
        let fading = if sim.config.fading {
            st.fading_rng.fading_power()
        } else {
            1.0
        };
        let rtt = sim.cluster.aps[ap].rtt_s;
        let air = st.links[device].tx_seconds(s.tx_bytes, s.bandwidth_share, fading)
            / st.ap_bw_factor[ap];
        let tx = air + rtt / 2.0;
        st.pool.get_mut(idx).tx_time = tx;
        st.uplinks[device].current = idx;
        st.tx_gen[device] += 1;
        let gen = st.tx_gen[device];
        st.queue
            .post(now.after_secs(tx), Ev::TxDone { device, gen });
    }

    fn on_tx_done(&mut self, now: SimTime, device: usize, gen: u64) {
        let sim = self.sim;
        if gen != self.st.tx_gen[device] {
            return;
        }
        let idx = self.st.uplinks[device].current;
        assert!(idx != NIL, "TxDone without a transmission");
        {
            let st = &mut *self.st;
            st.uplinks[device].current = NIL;
            let key = st.pool.get(idx).retry_key;
            st.queue.cancel(key);
        }
        if let Some(b) = self.st.ap_breakers.as_mut() {
            b[sim.cluster.devices[device].ap].record_success();
        }
        let (stream, server) = {
            let f = self.st.pool.get(idx);
            (f.task.stream, f.server)
        };
        let s = &sim.streams[stream];
        if !self.st.server_up[server] {
            // Delivered to a dark rack: the request dies at the server's
            // door, feeding the target's breaker.
            if let Some(brk) = self.st.srv_breakers.as_mut() {
                brk[server].record_failure(now.as_secs_f64());
            }
            let st = &mut *self.st;
            let arrival = st.pool.get(idx).task.arrival;
            if arrival >= st.warmup && arrival < st.horizon {
                st.fa.stranded += 1;
                st.fa.per_stranded[st.server_down_ci[server] as usize] += 1;
            }
            st.pool.free(idx);
            self.maybe_start_tx(now, device);
            return;
        }
        {
            let srv = &mut self.st.servers[server];
            srv.advance(now);
            srv.admit(idx, s.edge_flops.max(1.0), s.compute_weight, now);
        }
        self.reschedule_server(now, server);
        self.maybe_start_tx(now, device);
    }

    fn reschedule_server(&mut self, now: SimTime, server: usize) {
        let st = &mut *self.st;
        let srv = &mut st.servers[server];
        srv.gen += 1;
        if let Some(dt) = srv.time_to_next_completion() {
            let gen = srv.gen;
            let at = now.after_secs(dt) + SimTime::from_nanos(1);
            st.queue.post(at, Ev::ServerCheck { server, gen });
        }
    }

    fn on_server_check(&mut self, now: SimTime, server: usize, gen: u64) {
        {
            let st = &mut *self.st;
            if st.servers[server].gen != gen {
                return;
            }
            st.servers[server].advance(now);
            st.done_buf.clear();
            let srv = &mut st.servers[server];
            let eps = (srv.capacity_fps * 1e-9).max(1.0);
            srv.pop_completions(eps, &mut st.done_buf);
        }
        for k in 0..self.st.done_buf.len() {
            let (idx, entered) = self.st.done_buf[k];
            let edge_time = now.secs_since(entered);
            self.complete(now, idx, edge_time);
        }
        self.reschedule_server(now, server);
    }

    fn on_fault(&mut self, now: SimTime, idx: usize) {
        let sim = self.sim;
        let kind = &sim.config.faults.events[idx].kind;
        let class = kind.class();
        let ci = class.index();
        self.st.fa.injected += 1;
        self.st.fa.per_injected[ci] += 1;
        let mut stranded_here = 0usize;
        let applied = match *kind {
            FaultKind::DeviceDown { device } => {
                if self.st.device_up[device] {
                    self.st.device_up[device] = false;
                    self.st.device_down_at[device] = Some(now);
                    self.st.active_faults[ci] += 1;
                    stranded_here = self.strand_device(device, class);
                    true
                } else {
                    false
                }
            }
            FaultKind::DeviceUp { device } => {
                if !self.st.device_up[device] {
                    self.st.device_up[device] = true;
                    if let Some(t) = self.st.device_down_at[device].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.active_faults[ci] -= 1;
                    self.resume_device_arrivals(now, device);
                    true
                } else {
                    false
                }
            }
            FaultKind::ApDown { ap } => self.ap_down_effect(now, ap, ci),
            FaultKind::ApUp { ap } => self.ap_up_effect(now, ap),
            FaultKind::LinkDegrade { ap, factor } => {
                if (self.st.ap_bw_factor[ap] - factor).abs() > f64::EPSILON {
                    if self.st.ap_bw_factor[ap] >= 1.0 {
                        self.st.ap_degraded_at[ap] = Some(now);
                        self.st.active_faults[ci] += 1;
                    }
                    self.st.ap_bw_factor[ap] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::LinkRestore { ap } => {
                if self.st.ap_bw_factor[ap] < 1.0 {
                    self.st.ap_bw_factor[ap] = 1.0;
                    if let Some(t) = self.st.ap_degraded_at[ap].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.active_faults[ci] -= 1;
                    true
                } else {
                    false
                }
            }
            FaultKind::ServerThrottle { server, factor } => {
                let target = self.st.servers[server].base_fps * factor;
                if (self.st.servers[server].capacity_fps - target).abs() > 1e-9 {
                    if self.st.servers[server].capacity_fps >= self.st.servers[server].base_fps {
                        self.st.server_throttled_at[server] = Some(now);
                        self.st.active_faults[ci] += 1;
                    }
                    self.st.servers[server].advance(now);
                    self.st.servers[server].capacity_fps = target;
                    self.reschedule_server(now, server);
                    true
                } else {
                    false
                }
            }
            FaultKind::ServerRestore { server } => {
                if self.st.servers[server].capacity_fps < self.st.servers[server].base_fps {
                    self.st.servers[server].advance(now);
                    self.st.servers[server].capacity_fps = self.st.servers[server].base_fps;
                    if let Some(t) = self.st.server_throttled_at[server].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.active_faults[ci] -= 1;
                    self.reschedule_server(now, server);
                    true
                } else {
                    false
                }
            }
            FaultKind::ServerDown { server } => {
                let (applied, stranded) = self.server_down_effect(now, server, ci);
                stranded_here = stranded;
                applied
            }
            FaultKind::ServerUp { server } => self.server_up_effect(now, server),
            FaultKind::DomainDown { domain } => {
                let dom = &sim.config.faults.domains[domain];
                let mut any = false;
                for k in 0..dom.aps.len() {
                    any |= self.ap_down_effect(now, dom.aps[k], ci);
                }
                for k in 0..dom.servers.len() {
                    let (applied, stranded) = self.server_down_effect(now, dom.servers[k], ci);
                    stranded_here += stranded;
                    any |= applied;
                }
                any
            }
            FaultKind::DomainUp { domain } => {
                let dom = &sim.config.faults.domains[domain];
                let mut any = false;
                for k in 0..dom.aps.len() {
                    any |= self.ap_up_effect(now, dom.aps[k]);
                }
                for k in 0..dom.servers.len() {
                    any |= self.server_up_effect(now, dom.servers[k]);
                }
                any
            }
        };
        if applied {
            self.st.fa.applied += 1;
            self.st.fa.per_applied[ci] += 1;
        }
        if self.st.record {
            self.st.fault_trace.push(FaultRecord {
                at_s: now.as_secs_f64(),
                kind: kind.clone(),
                applied,
                stranded: stranded_here,
            });
        }
    }

    fn ap_down_effect(&mut self, now: SimTime, ap: usize, ci: usize) -> bool {
        let st = &mut *self.st;
        if !st.ap_up[ap] {
            return false;
        }
        st.ap_up[ap] = false;
        st.ap_down_at[ap] = Some(now);
        st.ap_down_ci[ap] = ci as u8;
        st.active_faults[ci] += 1;
        for k in 0..st.devices_by_ap[ap].len() {
            let dev = st.devices_by_ap[ap][k];
            let cur = st.uplinks[dev].current;
            if cur != NIL {
                st.tx_gen[dev] += 1;
                st.uplinks[dev].current = NIL;
                st.uplinks[dev].queue.push_front(&mut st.pool, cur);
            }
        }
        true
    }

    fn ap_up_effect(&mut self, now: SimTime, ap: usize) -> bool {
        if !self.st.ap_up[ap] {
            self.st.ap_up[ap] = true;
            if let Some(t) = self.st.ap_down_at[ap].take() {
                self.record_recovery(now, t);
            }
            self.st.active_faults[self.st.ap_down_ci[ap] as usize] -= 1;
            for k in 0..self.st.devices_by_ap[ap].len() {
                let dev = self.st.devices_by_ap[ap][k];
                self.maybe_start_tx(now, dev);
            }
            true
        } else {
            false
        }
    }

    fn server_down_effect(&mut self, now: SimTime, server: usize, ci: usize) -> (bool, usize) {
        if !self.st.server_up[server] {
            return (false, 0);
        }
        self.st.server_up[server] = false;
        self.st.server_down_at[server] = Some(now);
        self.st.server_down_ci[server] = ci as u8;
        self.st.active_faults[ci] += 1;
        (true, self.strand_server(now, server, ci))
    }

    fn server_up_effect(&mut self, now: SimTime, server: usize) -> bool {
        if !self.st.server_up[server] {
            self.st.server_up[server] = true;
            if let Some(t) = self.st.server_down_at[server].take() {
                self.record_recovery(now, t);
            }
            self.st.active_faults[self.st.server_down_ci[server] as usize] -= 1;
            true
        } else {
            false
        }
    }

    fn strand_server(&mut self, now: SimTime, server: usize, ci: usize) -> usize {
        let st = &mut *self.st;
        let (warmup, horizon) = (st.warmup, st.horizon);
        let srv = &mut st.servers[server];
        srv.advance(now);
        let mut stranded = 0usize;
        while let Some(e) = srv.served.pop() {
            let arrival = st.pool.get(e.flight).task.arrival;
            if arrival >= warmup && arrival < horizon {
                stranded += 1;
            }
            st.pool.free(e.flight);
        }
        let srv = &mut st.servers[server];
        srv.vclock = 0.0;
        srv.total_w = 0.0;
        srv.gen += 1;
        st.fa.stranded += stranded;
        st.fa.per_stranded[ci] += stranded;
        stranded
    }

    fn strand_device(&mut self, device: usize, class: FaultClass) -> usize {
        let sim = self.sim;
        let st = &mut *self.st;
        let (warmup, horizon) = (st.warmup, st.horizon);
        st.dev_gen[device] += 1;
        st.tx_gen[device] += 1;
        let mut stranded = 0usize;
        let mut backlog = st.degrade_backlog_s[device];
        let cur = st.devices[device].current;
        if cur != NIL {
            st.devices[device].current = NIL;
            strand_flight(
                sim,
                &mut st.pool,
                &mut st.queue,
                &mut backlog,
                &mut stranded,
                warmup,
                horizon,
                cur,
            );
        }
        while let Some(i) = st.devices[device].queue.pop_front(&mut st.pool) {
            strand_flight(
                sim,
                &mut st.pool,
                &mut st.queue,
                &mut backlog,
                &mut stranded,
                warmup,
                horizon,
                i,
            );
        }
        let cur = st.uplinks[device].current;
        if cur != NIL {
            st.uplinks[device].current = NIL;
            strand_flight(
                sim,
                &mut st.pool,
                &mut st.queue,
                &mut backlog,
                &mut stranded,
                warmup,
                horizon,
                cur,
            );
        }
        while let Some(i) = st.uplinks[device].queue.pop_front(&mut st.pool) {
            strand_flight(
                sim,
                &mut st.pool,
                &mut st.queue,
                &mut backlog,
                &mut stranded,
                warmup,
                horizon,
                i,
            );
        }
        st.degrade_backlog_s[device] = backlog;
        st.fa.stranded += stranded;
        st.fa.per_stranded[class.index()] += stranded;
        stranded
    }

    fn resume_device_arrivals(&mut self, now: SimTime, device: usize) {
        let sim = self.sim;
        let st = &mut *self.st;
        if now >= st.horizon {
            return;
        }
        for k in 0..st.streams_by_device[device].len() {
            let stream = st.streams_by_device[device][k];
            if !st.arrival_pending[stream] {
                let gap = st.arrival_states[stream]
                    .next_gap(&sim.streams[stream].arrivals, &mut st.arrival_rngs[stream]);
                st.arrival_pending[stream] = true;
                st.queue.post(now.after_secs(gap), Ev::Arrive { stream });
            }
        }
    }

    fn record_recovery(&mut self, now: SimTime, since: SimTime) {
        self.st.fa.recovery_sum_s += now.secs_since(since);
        self.st.fa.recoveries += 1;
    }

    fn complete(&mut self, now: SimTime, idx: u32, edge_time: f64) {
        let sim = self.sim;
        let f = *self.st.pool.get(idx);
        self.st.pool.free(idx);
        let s = &sim.streams[f.task.stream];
        let latency = now.secs_since(f.task.arrival);
        if f.tx_time > 0.0 {
            let miss_is_failure = sim
                .config
                .recovery
                .breakers
                .as_ref()
                .is_none_or(|bc| bc.miss_is_failure);
            if let Some(brk) = self.st.srv_breakers.as_mut() {
                if latency <= s.deadline_s || !miss_is_failure {
                    brk[f.server].record_success();
                } else {
                    brk[f.server].record_failure(now.as_secs_f64());
                }
            }
        }
        if !self.measured(f.task.arrival) {
            return;
        }
        let st = &mut *self.st;
        st.meas_completed += 1;
        if latency > s.deadline_s {
            st.meas_misses += 1;
        }
        let under_fault = st.active_faults.iter().any(|&c| c > 0);
        if under_fault {
            st.fa.completions_during += 1;
        }
        let acc = &mut st.accums[f.task.stream];
        acc.latencies.push(latency);
        if latency <= s.deadline_s {
            acc.on_time += 1;
        } else if under_fault {
            st.fa.misses_during += 1;
            for (ci, &n) in st.active_faults.iter().enumerate() {
                if n > 0 {
                    st.fa.per_misses[ci] += 1;
                }
            }
        }
        let acc = &mut st.accums[f.task.stream];
        acc.acc_sum += f.task.accuracy;
        if f.task.exit.is_some() {
            acc.early_exits += 1;
        }
        acc.device_wait_sum += f.device_wait;
        acc.device_service_sum += f.device_service;
        if f.tx_time > 0.0 {
            acc.tx_sum += f.tx_time;
            acc.tx_count += 1;
            acc.edge_sum += edge_time;
        }
        if st.record {
            st.trace.push(TaskRecord {
                stream: f.task.stream,
                arrival_s: f.task.arrival.as_secs_f64(),
                device_wait_s: f.device_wait,
                device_service_s: f.device_service,
                tx_s: f.tx_time,
                edge_s: edge_time,
                latency_s: latency,
                exit: f.task.exit,
            });
        }
    }

    fn finish(&mut self) -> (SimReport, RunTrace) {
        let st = &mut *self.st;
        let trace = RunTrace {
            tasks: std::mem::take(&mut st.trace),
            faults: std::mem::take(&mut st.fault_trace),
            health: std::mem::take(&mut st.health),
        };
        let mut recovery = RecoveryMetrics::empty();
        recovery.timeouts = st.ra.timeouts;
        recovery.retries = st.ra.retries;
        recovery.hedges = st.ra.hedges;
        recovery.degraded = st.ra.degraded;
        recovery.degraded_on_time = st.ra.degraded_on_time;
        recovery.shed = st.ra.shed;
        if st.ra.degraded > 0 {
            let n = st.ra.degraded as f64;
            recovery.mean_degraded_accuracy = st.ra.degraded_acc_sum / n;
            recovery.accuracy_cost = (st.ra.nominal_acc_sum - st.ra.degraded_acc_sum) / n;
        }
        for brks in [&st.srv_breakers, &st.ap_breakers].into_iter().flatten() {
            for b in brks {
                recovery.breaker_opens += b.opens;
                recovery.breaker_half_opens += b.half_opens;
                recovery.breaker_closes += b.closes;
            }
        }
        let (warmup, horizon) = (st.warmup, st.horizon);
        let measured = |t: SimTime| t >= warmup && t < horizon;
        let mut stalled = 0usize;
        for d in 0..st.devices.len() {
            for lane in [st.devices[d], st.uplinks[d]] {
                let mut i = lane.queue.head;
                while i != NIL {
                    if measured(st.pool.get(i).task.arrival) {
                        stalled += 1;
                    }
                    i = st.pool.next_of(i);
                }
                if lane.current != NIL && measured(st.pool.get(lane.current).task.arrival) {
                    stalled += 1;
                }
            }
        }
        for srv in &st.servers {
            for e in srv.served.iter() {
                if measured(st.pool.get(e.flight).task.arrival) {
                    stalled += 1;
                }
            }
        }
        st.fa.stalled = stalled;
        let end_s = st.queue.now().as_secs_f64().max(1e-12);
        let server_utilization: Vec<f64> = st
            .servers
            .iter()
            .map(|s| (s.busy_s / end_s).clamp(0.0, 1.0))
            .collect();
        st.lat_all.clear();
        let mut on_time = 0usize;
        let mut acc_sum = 0.0;
        let mut early = 0usize;
        let mut per_stream = Vec::with_capacity(st.accums.len());
        for i in 0..st.accums.len() {
            st.lat_all.extend_from_slice(&st.accums[i].latencies);
            let a = &mut st.accums[i];
            on_time += a.on_time;
            acc_sum += a.acc_sum;
            early += a.early_exits;
            per_stream.push(a.finish_mut(i));
        }
        let completed = st.lat_all.len();
        let n = completed.max(1) as f64;
        let report = SimReport {
            generated: st.generated,
            completed,
            latency: LatencyStats::from_mut_slice(&mut st.lat_all),
            deadline_ratio: on_time as f64 / n,
            mean_accuracy: acc_sum / n,
            early_exit_fraction: early as f64 / n,
            server_utilization,
            per_stream,
            faults: std::mem::take(&mut st.fa).finish(),
            recovery,
        };
        (report, trace)
    }
}
