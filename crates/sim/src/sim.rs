//! The edge simulator: FIFO device compute → fading uplink → weighted
//! processor-sharing edge server, driven by a deterministic event queue.
//!
//! The hot path is columnar (structure-of-arrays) and allocation-free in
//! steady state: requests live in a parallel-column slab (`FlightCols`)
//! and move between device/uplink stations (`LaneCols`) as index links,
//! the PS stations keep their virtual-finish tags in flat f64 columns
//! (`ServerCols`) streamed by `scalpel-kernels` primitives, per-event
//! stream constants come from the dense `StreamCols` hot block, events
//! carry [`EventKey`]s so superseded timers are cancelled (and eventually
//! compacted) instead of popped lazily, and all per-run state lives in a
//! reusable [`SimScratch`]. The always-compiled AoS oracle in
//! [`crate::reference`] executes the same logic over per-request structs;
//! the `soa_equivalence` suite pins the two engines bit-for-bit.

use crate::cluster::Cluster;
use crate::engine::{EventKey, EventQueue};
use crate::error::SimError;
use crate::faults::{FaultAccum, FaultClass, FaultGrid, FaultKind, FaultPlan};
use crate::metrics::{AccumCols, LatencyStats, RecoveryMetrics, SimReport};
use crate::net::LinkCols;
use crate::recovery::{
    retry_timeout_s, BreakerConfig, BreakerState, CircuitBreaker, HealthSnapshot, RecoveryAccum,
    RecoveryConfig, SnapBase, MAX_RETRIES, TELEMETRY_EPOCH_S,
};
use crate::rng::SimRng;
use crate::task::{CompiledStream, StreamCols};
use crate::time::SimTime;
use crate::tracelog::{FaultRecord, RunTrace, TaskRecord};
use crate::workload::ArrivalState;
use scalpel_kernels::scale_div;
#[cfg(feature = "kernel-xcheck")]
use scalpel_kernels::served_head;
use serde::{Deserialize, Serialize};

/// Simulation horizon and determinism knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Stop generating arrivals after this many simulated seconds
    /// (in-flight requests still drain).
    pub horizon_s: f64,
    /// Ignore requests arriving before this time (transient removal).
    pub warmup_s: f64,
    /// Master seed; all streams derive from it.
    pub seed: u64,
    /// Whether Rayleigh fading perturbs each transmission (off = planner's
    /// mean-rate world, useful for analytic-vs-sim validation).
    pub fading: bool,
    /// Fault schedule executed alongside the workload (empty = clean run).
    pub faults: FaultPlan,
    /// Closed-loop recovery policies (default: all off — a run with
    /// [`RecoveryConfig::none`] is bit-identical to the pre-recovery
    /// simulator: no extra events, no extra RNG draws).
    #[serde(default)]
    pub recovery: RecoveryConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            horizon_s: 30.0,
            warmup_s: 2.0,
            seed: 1,
            fading: true,
            faults: FaultPlan::none(),
            recovery: RecoveryConfig::none(),
        }
    }
}

/// Events of the edge simulation. `Copy` so the event queue can store
/// payloads in a flat slab with no per-event boxing or cloning. Ids,
/// generations and request numbers are `u32` (all are per-run counters
/// reset with the scratch), keeping the payload at 16 bytes so wheel
/// entries pack 40 bytes per event.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Next request of `stream` arrives.
    Arrive { stream: u32 },
    /// The request at the head of `device`'s compute unit finishes.
    /// Stale generations (device went down mid-service) are ignored.
    DeviceDone { device: u32, gen: u32 },
    /// The transmission at the head of `device`'s uplink finishes.
    /// Stale generations (AP outage re-queued the data) are ignored.
    TxDone { device: u32, gen: u32 },
    /// Re-examine server `server`'s processor-sharing state.
    ServerCheck { server: u32, gen: u32 },
    /// Execute fault event `idx` of the plan.
    Fault { idx: u32 },
    /// Retry watchdog for request `req` on `device`'s uplink. Stale if the
    /// request has left the uplink or already retried (`attempt` mismatch).
    RetryTimeout { device: u32, req: u32, attempt: u32 },
    /// Emit a control-plane health snapshot and reschedule.
    Telemetry,
}

/// Null slab index (`Option<u32>` without the discriminant).
const NIL: u32 = u32::MAX;

/// Timestamp counter for the `hotprof` dispatch-loop attribution.
#[cfg(feature = "hotprof")]
#[inline]
fn tsc() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC only reads the timestamp counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// [`crate::metrics::EventProfile`] station index of an event.
#[cfg(feature = "hotprof")]
fn station_of(ev: &Ev) -> usize {
    match ev {
        Ev::Arrive { .. } => 0,
        Ev::DeviceDone { .. } => 1,
        Ev::TxDone { .. } => 2,
        Ev::ServerCheck { .. } => 3,
        Ev::Fault { .. } => 4,
        Ev::RetryTimeout { .. } => 5,
        Ev::Telemetry => 6,
    }
}
/// "Not degrading" sentinel for [`FlightCols::degrade_to`].
const NO_RUNG: u32 = u32::MAX;

/// Columnar slab of in-flight requests: every per-request scalar lives in
/// its own parallel `Vec`, indexed by slab slot. Queue moves touch only
/// the `next` column; the completion fold reads the handful of hot
/// columns it needs without dragging the recovery-only cold block
/// (`req`/`attempts`/`target`/`degrade_to`/`retry_key`) through the
/// cache. The free list is threaded through `next`, and capacity is
/// retained across runs, so steady state never reallocates.
#[derive(Debug)]
struct FlightCols {
    // --- hot block: touched on queue moves and every completion ---
    /// Next request in whichever lane FIFO holds this slot, or the next
    /// free slot while on the free list.
    next: Vec<u32>,
    /// Stream the request belongs to.
    stream: Vec<u32>,
    /// Arrival timestamp.
    arrival: Vec<SimTime>,
    /// Pre-sampled exit decision (stream-local index; [`NIL`] = full path).
    exit: Vec<u32>,
    /// Accuracy credited on completion.
    accuracy: Vec<f64>,
    device_wait: Vec<f64>,
    device_service: Vec<f64>,
    tx_time: Vec<f64>,
    // --- cold block: recovery bookkeeping, rarely read ---
    /// Per-request recovery state, struct-packed so an alloc writes it
    /// with one contiguous 24-byte store (vs five scattered columns)
    /// and a recovery-path read pulls every field in one line.
    cold: Vec<ColdFlight>,
    free_head: u32,
}

/// Cold per-request recovery bookkeeping (one [`FlightCols`] column).
#[derive(Debug, Clone, Copy)]
struct ColdFlight {
    /// Unique per-run request id (retry-watchdog addressing).
    req: u32,
    /// Uplink attempts already timed out (0 = first attempt).
    attempts: u32,
    /// Hedged server override; [`NIL`] = the stream's primary server.
    target: u32,
    /// Rung index (into the stream's `degrade.rungs`) this request is
    /// completing through; [`NO_RUNG`] = nominal path.
    degrade_to: u32,
    /// Pending retry watchdog, cancelled when the request leaves the
    /// uplink so stale timers never pile up in the event heap.
    retry_key: EventKey,
}

impl ColdFlight {
    /// Nominal-path state for a fresh arrival.
    fn fresh(req: u32) -> Self {
        Self {
            req,
            attempts: 0,
            target: NIL,
            degrade_to: NO_RUNG,
            retry_key: EventKey::NONE,
        }
    }
}

impl Default for FlightCols {
    fn default() -> Self {
        Self {
            next: Vec::new(),
            stream: Vec::new(),
            arrival: Vec::new(),
            exit: Vec::new(),
            accuracy: Vec::new(),
            device_wait: Vec::new(),
            device_service: Vec::new(),
            tx_time: Vec::new(),
            cold: Vec::new(),
            free_head: NIL,
        }
    }
}

impl FlightCols {
    /// Claim a slot for a fresh arrival; cold fields start at their
    /// "nominal path" sentinels.
    fn alloc(&mut self, stream: u32, arrival: SimTime, exit: u32, accuracy: f64, req: u32) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let i = idx as usize;
            self.free_head = self.next[i];
            self.next[i] = NIL;
            self.stream[i] = stream;
            self.arrival[i] = arrival;
            self.exit[i] = exit;
            self.accuracy[i] = accuracy;
            self.device_wait[i] = 0.0;
            self.device_service[i] = 0.0;
            self.tx_time[i] = 0.0;
            self.cold[i] = ColdFlight::fresh(req);
            idx
        } else {
            let idx = self.next.len() as u32;
            assert!(idx != NIL, "flight slab overflow");
            self.next.push(NIL);
            self.stream.push(stream);
            self.arrival.push(arrival);
            self.exit.push(exit);
            self.accuracy.push(accuracy);
            self.device_wait.push(0.0);
            self.device_service.push(0.0);
            self.tx_time.push(0.0);
            self.cold.push(ColdFlight::fresh(req));
            idx
        }
    }

    fn free(&mut self, idx: u32) {
        self.next[idx as usize] = self.free_head;
        self.free_head = idx;
    }

    /// Forget all flights but keep every column's capacity.
    fn reset(&mut self) {
        self.next.clear();
        self.stream.clear();
        self.arrival.clear();
        self.exit.clear();
        self.accuracy.clear();
        self.device_wait.clear();
        self.device_service.clear();
        self.tx_time.clear();
        self.cold.clear();
        self.free_head = NIL;
    }
}

/// Columnar service stations (device compute units or uplinks): the FIFO
/// head/tail and the in-service request of station `i` live at index `i`
/// of three parallel columns ([`NIL`] = empty/idle). Queue links thread
/// through [`FlightCols::next`].
#[derive(Debug, Default)]
struct LaneCols {
    head: Vec<u32>,
    tail: Vec<u32>,
    current: Vec<u32>,
}

impl LaneCols {
    /// All stations empty and idle, columns sized to `n`.
    fn reset(&mut self, n: usize) {
        self.head.clear();
        self.head.resize(n, NIL);
        self.tail.clear();
        self.tail.resize(n, NIL);
        self.current.clear();
        self.current.resize(n, NIL);
    }

    fn queue_is_empty(&self, lane: usize) -> bool {
        self.head[lane] == NIL
    }

    fn push_back(&mut self, fl: &mut FlightCols, lane: usize, idx: u32) {
        fl.next[idx as usize] = NIL;
        if self.tail[lane] == NIL {
            self.head[lane] = idx;
        } else {
            fl.next[self.tail[lane] as usize] = idx;
        }
        self.tail[lane] = idx;
    }

    fn push_front(&mut self, fl: &mut FlightCols, lane: usize, idx: u32) {
        fl.next[idx as usize] = self.head[lane];
        if self.head[lane] == NIL {
            self.tail[lane] = idx;
        }
        self.head[lane] = idx;
    }

    fn pop_front(&mut self, fl: &FlightCols, lane: usize) -> Option<u32> {
        let idx = self.head[lane];
        if idx == NIL {
            return None;
        }
        self.head[lane] = fl.next[idx as usize];
        if self.head[lane] == NIL {
            self.tail[lane] = NIL;
        }
        Some(idx)
    }

    /// Unlink `idx`, whose predecessor in station `lane`'s FIFO is `prev`
    /// ([`NIL`] if `idx` is the head).
    fn unlink_after(&mut self, fl: &mut FlightCols, lane: usize, prev: u32, idx: u32) {
        let next = fl.next[idx as usize];
        if prev == NIL {
            self.head[lane] = next;
        } else {
            fl.next[prev as usize] = next;
        }
        if self.tail[lane] == idx {
            self.tail[lane] = prev;
        }
    }
}

/// One PS station's active set in columnar form. Under weighted PS every
/// active request advances at rate `capacity · w/Σw`; in virtual time
/// (where the station's clock runs at `capacity/Σw` per real second) a
/// request entering with `f` FLOPs and weight `w` finishes exactly when
/// the virtual clock reaches `vclock_at_entry + f/w` — a constant, fixed
/// at admission (`+∞` for weight-0 entries: starved under PS).
///
/// The columns are kept in binary-heap order on the key
/// `(vtag under total_cmp, seq)` — the exact reversed ordering the
/// pointer-chasing `BinaryHeap<ServedEntry>` used, and since `seq` is
/// unique per station the key is strictly total, so the pop sequence is
/// identical entry for entry. The head (next completion) is always row
/// 0: peeks are O(1) where a column scan is O(n) — load tests push a
/// station's active set past a thousand requests, which made scanning
/// on every admit/check the dominant simulator cost. Under
/// `kernel-xcheck` every pop re-derives the head with the 4-lane
/// [`served_head`] argmin kernel and asserts it lands on row 0.
/// Per-request payload riding along in the served heap: everything a
/// sift must move but a key compare never reads, packed so each swap is
/// one contiguous copy.
#[derive(Debug, Clone, Copy)]
struct ServedPay {
    /// Slab index of the request being served.
    flight: u32,
    weight: f64,
    entered: SimTime,
}

#[derive(Debug, Default)]
struct ServedCols {
    /// Virtual finish tags (the heap key's major column).
    vtag: Vec<f64>,
    /// Admission sequence numbers (unique tie-break; only loaded when
    /// two tags compare exactly equal, so the column stays cold).
    seq: Vec<u64>,
    /// Sift payload, parallel to `vtag`/`seq`.
    pay: Vec<ServedPay>,
}

impl ServedCols {
    fn is_empty(&self) -> bool {
        self.vtag.is_empty()
    }

    fn clear(&mut self) {
        self.vtag.clear();
        self.seq.clear();
        self.pay.clear();
    }

    /// Strict heap order: `(vtag, seq)` lexicographic under `total_cmp`.
    #[inline]
    fn less(&self, a: usize, b: usize) -> bool {
        match self.vtag[a].total_cmp(&self.vtag[b]) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => self.seq[a] < self.seq[b],
            std::cmp::Ordering::Greater => false,
        }
    }

    #[inline]
    fn swap_rows(&mut self, a: usize, b: usize) {
        self.vtag.swap(a, b);
        self.seq.swap(a, b);
        self.pay.swap(a, b);
    }

    fn push(&mut self, vtag: f64, seq: u64, flight: u32, weight: f64, entered: SimTime) {
        self.vtag.push(vtag);
        self.seq.push(seq);
        self.pay.push(ServedPay {
            flight,
            weight,
            entered,
        });
        // Sift the new row up to its heap position. The heap is 4-ary:
        // half the depth of a binary heap over the same active set, so
        // sifts move half the rows — the pop order is unchanged (the
        // `(vtag, seq)` key is strictly total, so *any* correct heap
        // yields the identical completion sequence).
        let mut i = self.vtag.len() - 1;
        while i > 0 {
            let p = (i - 1) >> 2;
            if self.less(i, p) {
                self.swap_rows(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    /// Remove and return the head (row 0), restoring heap order.
    fn pop_root(&mut self) -> (u32, f64, SimTime) {
        self.vtag.swap_remove(0);
        self.seq.swap_remove(0);
        let pay = self.pay.swap_remove(0);
        let n = self.vtag.len();
        let mut i = 0;
        loop {
            let c0 = 4 * i + 1;
            if c0 >= n {
                break;
            }
            let end = (c0 + 4).min(n);
            let mut c = c0;
            for j in c0 + 1..end {
                if self.less(j, c) {
                    c = j;
                }
            }
            if self.less(c, i) {
                self.swap_rows(c, i);
                i = c;
            } else {
                break;
            }
        }
        (pay.flight, pay.weight, pay.entered)
    }
}

/// Scalar PS oracle in columnar form: the pre-virtual-time per-entry
/// integration, run beside the tag columns so completions can be
/// cross-checked. Entry order matches the AoS mirror's push/swap_remove
/// order, so the fold order (and therefore every asserted bit) is
/// unchanged.
#[cfg(feature = "kernel-xcheck")]
#[derive(Debug, Default)]
struct MirrorCols {
    flight: Vec<u32>,
    remaining: Vec<f64>,
    weight: Vec<f64>,
}

/// Columnar PS stations: per-server scalar state (service rate, virtual
/// clock, active weight sum, generation, busy time) as parallel columns
/// indexed by server id, plus each station's active set as a
/// [`ServedCols`] block the completion scan can stream. All float
/// arithmetic is copied from the per-struct station verbatim — the
/// virtual-time algebra is unchanged, only its storage layout moved.
#[derive(Debug, Default)]
struct ServerCols {
    capacity_fps: Vec<f64>,
    /// Nominal capacity; `capacity_fps` drops below it while throttled.
    base_fps: Vec<f64>,
    /// Station virtual clocks: advance at `capacity/Σw` per real second
    /// while anything is active. Reset to 0 whenever a station drains,
    /// which also bounds floating-point drift in `total_w`.
    vclock: Vec<f64>,
    /// Incrementally-maintained Σ weight of each active set.
    total_w: Vec<f64>,
    /// Admission counters feeding [`ServedCols::seq`].
    seq: Vec<u64>,
    last: Vec<SimTime>,
    /// Generation counters superseding in-flight `ServerCheck` events.
    gen: Vec<u32>,
    /// Seconds with ≥1 active request (for the utilization report).
    busy_s: Vec<f64>,
    /// Active requests per station, columnar.
    served: Vec<ServedCols>,
    #[cfg(feature = "kernel-xcheck")]
    mirror: Vec<MirrorCols>,
}

impl ServerCols {
    /// Size every column to `n` stations and drop run state, keeping the
    /// active sets' storage. Capacities start at 0; the caller re-points
    /// `capacity_fps`/`base_fps` at the cluster's specs.
    fn reset(&mut self, n: usize) {
        self.capacity_fps.clear();
        self.capacity_fps.resize(n, 0.0);
        self.base_fps.clear();
        self.base_fps.resize(n, 0.0);
        self.vclock.clear();
        self.vclock.resize(n, 0.0);
        self.total_w.clear();
        self.total_w.resize(n, 0.0);
        self.seq.clear();
        self.seq.resize(n, 0);
        self.last.clear();
        self.last.resize(n, SimTime::ZERO);
        self.gen.clear();
        self.gen.resize(n, 0);
        self.busy_s.clear();
        self.busy_s.resize(n, 0.0);
        self.served.truncate(n);
        for sc in &mut self.served {
            sc.clear();
        }
        self.served.resize_with(n, ServedCols::default);
        #[cfg(feature = "kernel-xcheck")]
        {
            self.mirror.truncate(n);
            for m in &mut self.mirror {
                m.flight.clear();
                m.remaining.clear();
                m.weight.clear();
            }
            self.mirror.resize_with(n, MirrorCols::default);
        }
    }

    /// Account processor sharing on station `s` between `last[s]` and
    /// `now`: one virtual-clock bump, O(1) regardless of how many
    /// requests share the station.
    fn advance(&mut self, s: usize, now: SimTime) {
        let dt = now.secs_since(self.last[s]);
        self.last[s] = now;
        if dt <= 0.0 || self.served[s].is_empty() {
            return;
        }
        self.busy_s[s] += dt;
        // Σw ≤ 0 with a non-empty station (every weight 0/NaN) starves
        // all of it: virtual time stands still. Parking the work is the
        // panic-free reading of that degenerate input.
        if self.total_w[s] > 0.0 {
            self.vclock[s] += dt * self.capacity_fps[s] / self.total_w[s];
        }
        #[cfg(feature = "kernel-xcheck")]
        {
            let m = &mut self.mirror[s];
            // The scalar oracle's fair-share drain, routed through the
            // f64x4 kernels: `seq_sum` is the strict-order Σw and
            // `drain_shares` the elementwise `remaining -= dt·cap·w/Σw`
            // — both bit-exact vs the scalar fold they replaced.
            let total_w = scalpel_kernels::seq_sum(&m.weight);
            scalpel_kernels::drain_shares(
                &mut m.remaining,
                dt * self.capacity_fps[s],
                &m.weight,
                total_w,
            );
        }
    }

    /// Admit a request to station `s` (must be advanced to `now` first).
    fn admit(&mut self, s: usize, flight: u32, flops: f64, weight: f64, entered: SimTime) {
        let vtag = if weight > 0.0 {
            self.vclock[s] + flops / weight
        } else {
            f64::INFINITY
        };
        self.seq[s] += 1;
        self.served[s].push(vtag, self.seq[s], flight, weight, entered);
        self.total_w[s] += weight;
        #[cfg(feature = "kernel-xcheck")]
        {
            let m = &mut self.mirror[s];
            m.flight.push(flight);
            m.remaining.push(flops);
            m.weight.push(weight);
        }
    }

    /// Pop every request of station `s` within `eps` FLOPs of completion
    /// (in tag order), appending `(flight, entered)` to `done`. A
    /// remaining-work straggler deeper in the set (small weight ⇒ late
    /// tag despite little work left) completes at its own tag instead of
    /// piggybacking on this sweep.
    fn pop_completions(&mut self, s: usize, eps: f64, done: &mut Vec<(u32, SimTime)>) {
        loop {
            let sc = &mut self.served[s];
            if sc.is_empty() {
                break;
            }
            // The heap invariant keeps the `(vtag, seq)` minimum at row 0;
            // the kernel argmin over the dense tag column must agree.
            #[cfg(feature = "kernel-xcheck")]
            assert_eq!(
                served_head(&sc.vtag, &sc.seq),
                Some(0),
                "xcheck: served-set heap root is not the column argmin"
            );
            // Remaining work of the head is (vtag − vclock)·w. NaN/+∞
            // tags fail the test and stay parked.
            if (sc.vtag[0] - self.vclock[s]) * sc.pay[0].weight <= eps {
                let (flight, weight, entered) = sc.pop_root();
                self.total_w[s] -= weight;
                done.push((flight, entered));
                #[cfg(feature = "kernel-xcheck")]
                {
                    let m = &mut self.mirror[s];
                    let Some(i) = m.flight.iter().position(|&f| f == flight) else {
                        panic!("xcheck: popped flight {flight} missing from scalar mirror");
                    };
                    m.flight.swap_remove(i);
                    let remaining = m.remaining.swap_remove(i);
                    m.weight.swap_remove(i);
                    // The scalar integration re-associates differently
                    // (per-entry Σw each step), so agreement is to a
                    // tolerance: a microsecond of full-capacity work.
                    let tol = eps + 1e-6 * self.capacity_fps[s].max(1.0);
                    assert!(
                        remaining <= tol,
                        "xcheck: completed flight {flight} still has {remaining} FLOPs (tol {tol})"
                    );
                }
            } else {
                break;
            }
        }
        if self.served[s].is_empty() {
            // Draining resets the station clock: bounds vclock growth and
            // zeroes any accumulated ± drift in the incremental Σw.
            self.vclock[s] = 0.0;
            self.total_w[s] = 0.0;
        }
    }

    /// Seconds until station `s`'s next in-progress request completes:
    /// the head tag's distance in virtual time, converted back to real
    /// seconds. `None` for an empty or fully-starved station.
    fn time_to_next_completion(&self, s: usize) -> Option<f64> {
        let sc = &self.served[s];
        if sc.is_empty() {
            return None;
        }
        if self.total_w[s] <= 0.0 || self.total_w[s].is_nan() || sc.vtag[0].is_nan() {
            return None;
        }
        Some(((sc.vtag[0] - self.vclock[s]) * self.total_w[s] / self.capacity_fps[s]).max(0.0))
    }
}

/// The heterogeneous-edge discrete-event simulator.
pub struct EdgeSim {
    pub(crate) cluster: Cluster,
    pub(crate) streams: Vec<CompiledStream>,
    pub(crate) config: SimConfig,
}

impl EdgeSim {
    /// Build a simulator over a validated topology and compiled streams.
    pub fn new(
        cluster: Cluster,
        streams: Vec<CompiledStream>,
        config: SimConfig,
    ) -> Result<Self, SimError> {
        cluster.validate()?;
        for (i, s) in streams.iter().enumerate() {
            let bad = |detail: String| SimError::InvalidStream { stream: i, detail };
            if s.id != i {
                return Err(bad(format!("has id {}", s.id)));
            }
            if s.device >= cluster.devices.len() {
                return Err(bad(format!("references missing device {}", s.device)));
            }
            if let Some(srv) = s.server {
                if srv >= cluster.servers.len() {
                    return Err(bad(format!("references missing server {srv}")));
                }
            }
            for &alt in &s.fallback_servers {
                if alt >= cluster.servers.len() {
                    return Err(bad(format!("references missing fallback server {alt}")));
                }
            }
            s.validate().map_err(bad)?;
            s.arrivals.validate()?;
        }
        if config.horizon_s <= config.warmup_s {
            return Err(SimError::InvalidConfig {
                detail: "horizon must exceed warmup".into(),
            });
        }
        config.faults.validate(&cluster)?;
        config.recovery.validate()?;
        Ok(Self {
            cluster,
            streams,
            config,
        })
    }

    /// Run to completion and report measured statistics.
    pub fn run(&self) -> SimReport {
        let mut scratch = SimScratch::new();
        self.run_with_scratch(&mut scratch)
    }

    /// Run to completion reusing caller-owned scratch state. Semantically
    /// identical to [`EdgeSim::run`] (bit-for-bit, regardless of what the
    /// scratch previously simulated) but allocation-free once the scratch
    /// is warm.
    pub fn run_with_scratch(&self, scratch: &mut SimScratch) -> SimReport {
        self.run_internal(scratch, false).0
    }

    /// Run to completion with full event logging: one [`TaskRecord`] per
    /// measured completion (in completion order) plus one [`FaultRecord`]
    /// per executed fault event.
    pub fn run_logged(&self) -> (SimReport, RunTrace) {
        let mut scratch = SimScratch::new();
        self.run_logged_with_scratch(&mut scratch)
    }

    /// [`EdgeSim::run_logged`] reusing caller-owned scratch state.
    pub fn run_logged_with_scratch(&self, scratch: &mut SimScratch) -> (SimReport, RunTrace) {
        self.run_internal(scratch, true)
    }

    fn run_internal(&self, scratch: &mut SimScratch, record: bool) -> (SimReport, RunTrace) {
        scratch.reset(self);
        scratch.record = record;
        Runner {
            sim: self,
            st: scratch,
        }
        .run()
    }
}

/// Reusable per-run state of the simulator: the event queue, the flight
/// slab, queues, breakers, RNGs and every metrics accumulator.
///
/// A scratch can be reused across seeds, postures, and unrelated
/// [`EdgeSim`] instances — [`EdgeSim::run_with_scratch`] resets it on
/// entry, so the report is bit-identical to a fresh run while the
/// capacity of every buffer (slab slots, heap entries, latency vectors,
/// breaker windows) is amortized across runs. Mirrors the optimizer's
/// `AllocScratch` pattern.
pub struct SimScratch {
    queue: EventQueue<Ev>,
    pool: FlightCols,
    devices: LaneCols,
    uplinks: LaneCols,
    servers: ServerCols,
    links: LinkCols,
    /// Hot block of the stream table (per-event constants, CSR exits).
    cols: StreamCols,
    arrival_states: Vec<ArrivalState>,
    arrival_rngs: Vec<SimRng>,
    difficulty_rng: SimRng,
    fading_rng: SimRng,
    accums: AccumCols,
    generated: usize,
    horizon: SimTime,
    warmup: SimTime,
    /// Whether task/fault records are collected this run.
    record: bool,
    trace: Vec<TaskRecord>,
    fault_trace: Vec<FaultRecord>,
    /// Columnar fault-injection state (health flags, generations, outage
    /// timestamps).
    fg: FaultGrid,
    /// Whether each stream has an `Arrive` event in the queue (suppressed
    /// while its device is down; restarted on `DeviceUp`).
    arrival_pending: Vec<bool>,
    /// Stream ids hosted on each device.
    streams_by_device: Vec<Vec<usize>>,
    /// Device ids attached to each AP (ascending).
    devices_by_ap: Vec<Vec<usize>>,
    fa: FaultAccum,
    // --- recovery state ---
    /// Whether any recovery layer is on (gates every recovery code path).
    recovery_active: bool,
    /// Next unique request id.
    next_req: u32,
    /// Per-server breakers (present iff `recovery.breakers` is set).
    srv_breakers: Option<Vec<CircuitBreaker>>,
    /// Per-AP breakers (present iff `recovery.breakers` is set).
    ap_breakers: Option<Vec<CircuitBreaker>>,
    ra: RecoveryAccum,
    /// Outstanding local-finish degradation work per device, seconds.
    /// The ladder is load-aware: committed-but-unfinished suffix work
    /// shrinks the slack offered to the next faller, so an overloaded
    /// device falls to forced exits (zero extra compute) instead of
    /// queueing unbounded local work that churn would strand wholesale.
    degrade_backlog_s: Vec<f64>,
    /// Telemetry snapshots, in epoch order.
    health: Vec<HealthSnapshot>,
    /// Cumulative measured completions / misses (telemetry deltas).
    meas_completed: usize,
    meas_misses: usize,
    /// Counter values at the previous telemetry snapshot.
    last_snap: SnapBase,
    /// Completion staging buffer for `on_server_check`.
    done_buf: Vec<(u32, SimTime)>,
    /// Pooled latency samples for the aggregate report.
    lat_all: Vec<f64>,
    /// Per-station cycle attribution of the last run.
    #[cfg(feature = "hotprof")]
    prof: crate::metrics::EventProfile,
}

impl Default for SimScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            pool: FlightCols::default(),
            devices: LaneCols::default(),
            uplinks: LaneCols::default(),
            servers: ServerCols::default(),
            links: LinkCols::default(),
            cols: StreamCols::default(),
            arrival_states: Vec::new(),
            arrival_rngs: Vec::new(),
            difficulty_rng: SimRng::new(0, 0),
            fading_rng: SimRng::new(0, 0),
            accums: AccumCols::default(),
            generated: 0,
            horizon: SimTime::ZERO,
            warmup: SimTime::ZERO,
            record: false,
            trace: Vec::new(),
            fault_trace: Vec::new(),
            fg: FaultGrid::default(),
            arrival_pending: Vec::new(),
            streams_by_device: Vec::new(),
            devices_by_ap: Vec::new(),
            fa: FaultAccum::default(),
            recovery_active: false,
            next_req: 0,
            srv_breakers: None,
            ap_breakers: None,
            ra: RecoveryAccum::default(),
            degrade_backlog_s: Vec::new(),
            health: Vec::new(),
            meas_completed: 0,
            meas_misses: 0,
            last_snap: SnapBase::default(),
            done_buf: Vec::new(),
            lat_all: Vec::new(),
            #[cfg(feature = "hotprof")]
            prof: crate::metrics::EventProfile::default(),
        }
    }

    /// Events scheduled during the last run.
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Cycle attribution of the last run, by event station.
    #[cfg(feature = "hotprof")]
    pub fn profile(&self) -> &crate::metrics::EventProfile {
        &self.prof
    }

    /// Timers cancelled before firing during the last run.
    pub fn events_cancelled(&self) -> u64 {
        self.queue.cancelled()
    }

    /// Timing-wheel rotations (overflow sweeps) during the last run.
    pub fn queue_rotations(&self) -> u64 {
        self.queue.rotations()
    }

    /// Rebind every buffer to `sim`'s shape and clear run state, reusing
    /// capacity element-wise. Called on entry by every run, so no state
    /// from a previous run (on any simulator) can leak into this one.
    fn reset(&mut self, sim: &EdgeSim) {
        let n_dev = sim.cluster.devices.len();
        let n_ap = sim.cluster.aps.len();
        let n_srv = sim.cluster.servers.len();
        let n_str = sim.streams.len();
        let seed = sim.config.seed;
        #[cfg(feature = "hotprof")]
        self.prof.reset();
        self.queue.reset();
        self.pool.reset();
        self.devices.reset(n_dev);
        self.uplinks.reset(n_dev);
        self.servers.reset(n_srv);
        for (s, spec) in sim.cluster.servers.iter().enumerate() {
            self.servers.capacity_fps[s] = spec.proc.flops_per_sec;
            self.servers.base_fps[s] = spec.proc.flops_per_sec;
        }
        self.links
            .rebuild((0..n_dev).map(|d| sim.cluster.link(d).cached()));
        self.cols.rebuild(&sim.streams);
        self.arrival_states.clear();
        self.arrival_states.resize(n_str, ArrivalState::default());
        self.arrival_rngs.clear();
        self.arrival_rngs
            .extend((0..n_str).map(|i| SimRng::new(seed, 1000 + i as u64)));
        self.difficulty_rng = SimRng::new(seed, 1);
        self.fading_rng = SimRng::new(seed, 2);
        self.accums.reset(n_str);
        self.generated = 0;
        self.horizon = SimTime::from_secs_f64(sim.config.horizon_s);
        self.warmup = SimTime::from_secs_f64(sim.config.warmup_s);
        self.record = false;
        self.trace.clear();
        self.fault_trace.clear();
        self.fg.reset(n_dev, n_ap, n_srv);
        self.arrival_pending.clear();
        self.arrival_pending.resize(n_str, false);
        for v in &mut self.streams_by_device {
            v.clear();
        }
        self.streams_by_device.resize_with(n_dev, Vec::new);
        self.streams_by_device.truncate(n_dev);
        for (i, s) in sim.streams.iter().enumerate() {
            self.streams_by_device[s.device].push(i);
        }
        for v in &mut self.devices_by_ap {
            v.clear();
        }
        self.devices_by_ap.resize_with(n_ap, Vec::new);
        self.devices_by_ap.truncate(n_ap);
        for (d, spec) in sim.cluster.devices.iter().enumerate() {
            self.devices_by_ap[spec.ap].push(d);
        }
        self.fa = FaultAccum::default();
        self.recovery_active = sim.config.recovery.is_active();
        self.next_req = 0;
        match &sim.config.recovery.breakers {
            Some(bc) => {
                reset_breakers(&mut self.srv_breakers, n_srv, bc);
                reset_breakers(&mut self.ap_breakers, n_ap, bc);
            }
            None => {
                self.srv_breakers = None;
                self.ap_breakers = None;
            }
        }
        self.ra = RecoveryAccum::default();
        self.degrade_backlog_s.clear();
        self.degrade_backlog_s.resize(n_dev, 0.0);
        self.health.clear();
        self.meas_completed = 0;
        self.meas_misses = 0;
        self.last_snap = SnapBase::default();
        self.done_buf.clear();
        self.lat_all.clear();
    }
}

/// Size `slot` to `n` breakers configured with `cfg`, reusing the window
/// buffers of existing breakers when the count matches.
fn reset_breakers(slot: &mut Option<Vec<CircuitBreaker>>, n: usize, cfg: &BreakerConfig) {
    match slot {
        Some(v) if v.len() == n => {
            for b in v.iter_mut() {
                b.reset(cfg.clone());
            }
        }
        _ => *slot = Some((0..n).map(|_| CircuitBreaker::new(cfg.clone())).collect()),
    }
}

/// Return a stranded flight's slot to the pool, folding its degrade
/// backlog out and counting it if measured. Flights are freed one at a
/// time (never walked while freeing) because `free` reuses the link.
#[allow(clippy::too_many_arguments)]
fn strand_flight(
    sim: &EdgeSim,
    pool: &mut FlightCols,
    queue: &mut EventQueue<Ev>,
    backlog: &mut f64,
    stranded: &mut usize,
    warmup: SimTime,
    horizon: SimTime,
    idx: u32,
) {
    let i = idx as usize;
    let rung = pool.cold[i].degrade_to;
    if rung != NO_RUNG {
        let stream = pool.stream[i] as usize;
        let extra = sim.streams[stream].degrade.rungs[rung as usize].extra_device_s;
        *backlog = (*backlog - extra).max(0.0);
    }
    let arrival = pool.arrival[i];
    if arrival >= warmup && arrival < horizon {
        *stranded += 1;
    }
    queue.cancel(pool.cold[i].retry_key);
    pool.free(idx);
}

/// One run of the simulation: an immutable [`EdgeSim`] plus the mutable
/// [`SimScratch`] it writes into.
struct Runner<'a> {
    sim: &'a EdgeSim,
    st: &'a mut SimScratch,
}

impl Runner<'_> {
    fn run(mut self) -> (SimReport, RunTrace) {
        let sim = self.sim;
        {
            let st = &mut *self.st;
            // Seed the first arrival of every stream.
            for i in 0..sim.streams.len() {
                let gap = st.arrival_states[i]
                    .next_gap(&sim.streams[i].arrivals, &mut st.arrival_rngs[i]);
                st.arrival_pending[i] = true;
                st.queue
                    .post(SimTime::from_secs_f64(gap), Ev::Arrive { stream: i as u32 });
            }
            // Schedule the fault plan as first-class events.
            for (idx, fe) in sim.config.faults.events.iter().enumerate() {
                st.queue.post(
                    SimTime::from_secs_f64(fe.at_s),
                    Ev::Fault { idx: idx as u32 },
                );
            }
            // First control-plane telemetry epoch, if enabled.
            if sim.config.recovery.telemetry {
                st.queue
                    .post(SimTime::from_secs_f64(TELEMETRY_EPOCH_S), Ev::Telemetry);
            }
        }
        while let Some((now, ev)) = self.st.queue.pop() {
            #[cfg(feature = "hotprof")]
            let (t0, station) = (tsc(), station_of(&ev));
            match ev {
                Ev::Arrive { stream } => self.on_arrive(now, stream as usize),
                Ev::DeviceDone { device, gen } => self.on_device_done(now, device as usize, gen),
                Ev::TxDone { device, gen } => self.on_tx_done(now, device as usize, gen),
                Ev::ServerCheck { server, gen } => self.on_server_check(now, server as usize, gen),
                Ev::Fault { idx } => self.on_fault(now, idx as usize),
                Ev::RetryTimeout {
                    device,
                    req,
                    attempt,
                } => self.on_retry_timeout(now, device as usize, req, attempt),
                Ev::Telemetry => self.on_telemetry(now),
            }
            #[cfg(feature = "hotprof")]
            {
                self.st.prof.cycles[station] += tsc().wrapping_sub(t0);
                self.st.prof.counts[station] += 1;
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
            return; // stop generating; the system drains
        }
        let dev = st.cols.device[stream] as usize;
        if !st.fg.device_up[dev] {
            // The device is away: its arrival process pauses here and is
            // restarted by the matching DeviceUp event.
            return;
        }
        // Pre-sample the exit decision from the input's latent difficulty.
        let u = st.difficulty_rng.open01();
        let exit = st.cols.sample_exit(stream, u);
        let accuracy = match exit {
            Some(i) => st.cols.exit_acc[st.cols.exit_base(stream) + i],
            None => st.cols.acc_full[stream],
        };
        if now >= st.warmup && now < st.horizon {
            st.generated += 1;
        }
        let req = st.next_req;
        st.next_req += 1;
        let exit = exit.map(|i| i as u32).unwrap_or(NIL);
        let idx = st.pool.alloc(stream as u32, now, exit, accuracy, req);
        if st.devices.current[dev] == NIL && st.devices.head[dev] == NIL {
            // Uncontended arrival (the device is up and idle with an
            // empty queue): start service directly instead of a
            // push_back / immediate pop_front round-trip of `idx`.
            self.start_device_flight(now, dev, idx);
        } else {
            st.devices.push_back(&mut st.pool, dev, idx);
            self.maybe_start_device(now, dev);
        }
        // Schedule the next arrival.
        let st = &mut *self.st;
        let gap = st.arrival_states[stream]
            .next_gap(&sim.streams[stream].arrivals, &mut st.arrival_rngs[stream]);
        st.arrival_pending[stream] = true;
        st.queue.post(
            now.after_secs(gap),
            Ev::Arrive {
                stream: stream as u32,
            },
        );
    }

    fn maybe_start_device(&mut self, now: SimTime, device: usize) {
        let st = &mut *self.st;
        if !st.fg.device_up[device] || st.devices.current[device] != NIL {
            return;
        }
        let Some(idx) = st.devices.pop_front(&st.pool, device) else {
            return;
        };
        self.start_device_flight(now, device, idx);
    }

    /// Begin on-device compute for `idx` on an idle, up `device`.
    fn start_device_flight(&mut self, now: SimTime, device: usize, idx: u32) {
        let sim = self.sim;
        let st = &mut *self.st;
        let i = idx as usize;
        let stream = st.pool.stream[i] as usize;
        let rung = st.pool.cold[i].degrade_to;
        let service = if rung != NO_RUNG {
            // Local-finish degradation: the suffix beyond the prefix the
            // device already ran (cold path: ladder stays on the struct).
            sim.streams[stream].degrade.rungs[rung as usize].extra_device_s
        } else {
            let e = st.pool.exit[i];
            if e != NIL {
                st.cols.exit_time[st.cols.exit_base(stream) + e as usize]
            } else {
                st.cols.full_time[stream]
            }
        };
        if rung != NO_RUNG {
            st.pool.device_service[i] += service;
        } else {
            st.pool.device_wait[i] = now.secs_since(st.pool.arrival[i]);
            st.pool.device_service[i] = service;
        }
        st.devices.current[device] = idx;
        st.fg.dev_gen[device] += 1;
        let gen = st.fg.dev_gen[device];
        // Fire-and-forget: a stale DeviceDone (device went down, gen
        // bumped) delivers and is discarded by the guard below.
        st.queue.post(
            now.after_secs(service),
            Ev::DeviceDone {
                device: device as u32,
                gen,
            },
        );
    }

    fn on_device_done(&mut self, now: SimTime, device: usize, gen: u32) {
        if gen != self.st.fg.dev_gen[device] {
            return; // the device went down mid-service; the work is gone
        }
        let idx = self.st.devices.current[device];
        assert!(idx != NIL, "DeviceDone without a running request");
        self.st.devices.current[device] = NIL;
        let i = idx as usize;
        let stream = self.st.pool.stream[i] as usize;
        let rung = self.st.pool.cold[i].degrade_to;
        let exits = self.st.pool.exit[i] != NIL;
        if rung != NO_RUNG {
            // A local-finish degradation just completed its suffix; its
            // committed work leaves the ladder's backlog estimate.
            let extra = self.sim.streams[stream].degrade.rungs[rung as usize].extra_device_s;
            self.st.degrade_backlog_s[device] =
                (self.st.degrade_backlog_s[device] - extra).max(0.0);
            self.complete_degraded(now, idx);
        } else if exits || self.st.cols.server[stream] == NIL {
            // Completed on the device (early exit, or a device-only plan).
            self.complete(now, idx, 0.0);
        } else if self.st.recovery_active {
            self.route_offload(now, idx, device);
        } else {
            let st = &mut *self.st;
            let ap = self.sim.cluster.devices[device].ap;
            if st.fg.device_up[device]
                && st.fg.ap_up[ap]
                && st.uplinks.current[device] == NIL
                && st.uplinks.head[device] == NIL
            {
                // Uncontended offload: the uplink is idle with an empty
                // queue, so transmit directly (same FIFO semantics).
                self.start_tx_flight(now, device, ap, idx);
            } else {
                st.uplinks.push_back(&mut st.pool, device, idx);
                self.maybe_start_tx(now, device);
            }
        }
        self.maybe_start_device(now, device);
    }

    /// Recovery-aware offload admission: check path health (breakers),
    /// hedge to a fallback server, test deadline feasibility, and either
    /// queue on the uplink with a retry watchdog or fall down the
    /// degradation ladder.
    fn route_offload(&mut self, now: SimTime, idx: u32, device: usize) {
        let sim = self.sim;
        let i = idx as usize;
        let (stream, arrival, req, attempts) = (
            self.st.pool.stream[i] as usize,
            self.st.pool.arrival[i],
            self.st.pool.cold[i].req,
            self.st.pool.cold[i].attempts,
        );
        let s = &sim.streams[stream];
        let cfg = &sim.config.recovery;
        let primary = self.st.cols.server[stream];
        assert!(primary != NIL, "offloaded stream has a server");
        let primary = primary as usize;
        let ap = sim.cluster.devices[device].ap;
        let now_s = now.as_secs_f64();
        let slack = self.st.cols.deadline_s[stream] - now.secs_since(arrival);

        // The shared uplink is the only path off the device: an open AP
        // breaker fails the request over to the degradation ladder.
        if let Some(ap_brk) = self.st.ap_breakers.as_mut() {
            if !ap_brk[ap].try_acquire(now_s) {
                self.fall_back(now, idx, device);
                return;
            }
        }
        // Pick a server: the primary first, then (when hedging) each
        // fallback in preference order. A candidate is skipped when its
        // breaker refuses traffic, or when even the queue-free nominal
        // path through it cannot meet the deadline (a guaranteed miss —
        // degrading trades doomed network work for a local completion).
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
        self.st.pool.cold[i].target = target as u32;
        if cfg.retry {
            let timeout = retry_timeout_s(attempts, slack);
            let key = self.st.queue.schedule(
                now.after_secs(timeout),
                Ev::RetryTimeout {
                    device: device as u32,
                    req,
                    attempt: attempts,
                },
            );
            self.st.pool.cold[i].retry_key = key;
        }
        let st = &mut *self.st;
        st.uplinks.push_back(&mut st.pool, device, idx);
        self.maybe_start_tx(now, device);
    }

    /// Queue-free best-case seconds for `stream`'s offload path through
    /// `target`, using only device-visible information: the nominal link
    /// rate scaled by the AP's advertised PHY rate (`ap_bw_factor`), and
    /// the server's *catalog* capacity. Deliberately blind to AP outages
    /// and server throttles — detecting those is the job of retry
    /// timeouts and breakers, not an oracle. No fading draw: this
    /// consumes no randomness.
    fn nominal_path_estimate(&self, stream: usize, device: usize, target: usize) -> f64 {
        let st = &*self.st;
        let ap = self.sim.cluster.devices[device].ap;
        let air = st
            .links
            .tx_seconds(device, st.cols.tx_bytes[stream], st.cols.share[stream], 1.0)
            / st.fg.ap_bw_factor[ap];
        air + self.sim.cluster.aps[ap].rtt_s / 2.0
            + st.cols.edge_flops[stream] / st.servers.base_fps[target].max(1.0)
    }

    /// Last resort once the offload path is given up on: degrade if a rung
    /// exists, shed if policy allows, otherwise park the request back on
    /// the uplink with no further watchdogs (the no-recovery behavior).
    fn fall_back(&mut self, now: SimTime, idx: u32, device: usize) {
        let sim = self.sim;
        let cfg = &sim.config.recovery;
        let i = idx as usize;
        let (stream, arrival) = (self.st.pool.stream[i] as usize, self.st.pool.arrival[i]);
        let s = &sim.streams[stream];
        if cfg.degrade {
            let slack = self.st.cols.deadline_s[stream] - now.secs_since(arrival);
            // Load-aware rung choice. Local-finish suffixes often dwarf
            // the deadline slack (the cheapest-rung last resort exists
            // precisely because completing late beats stranding), so an
            // unconditional ladder turns device queues into piles of
            // slow local work that a later device-churn event strands
            // wholesale — recovery would then lose *more* requests than
            // doing nothing. The ladder therefore only commits device
            // seconds on an *idle* device (empty queue, no outstanding
            // suffix); a busy one gets a zero-cost forced exit when the
            // stream has one, and otherwise falls through to shedding or
            // parking below.
            let idle =
                self.st.devices.queue_is_empty(device) && self.st.degrade_backlog_s[device] <= 0.0;
            let avail = if idle { slack } else { 0.0 };
            if let Some(rung) = s.degrade.pick_rung(avail, idle) {
                let extra = s.degrade.rungs[rung].extra_device_s;
                let local = extra > 0.0;
                self.st.pool.cold[i].degrade_to = rung as u32;
                if local {
                    let st = &mut *self.st;
                    st.degrade_backlog_s[device] += extra;
                    st.devices.push_back(&mut st.pool, device, idx);
                    self.maybe_start_device(now, device);
                } else {
                    // Forced exit: the head output already exists.
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
        st.uplinks.push_back(&mut st.pool, device, idx);
        self.maybe_start_tx(now, device);
    }

    /// Account a degraded completion (forced exit or local finish).
    fn complete_degraded(&mut self, now: SimTime, idx: u32) {
        let i = idx as usize;
        let stream = self.st.pool.stream[i] as usize;
        let arrival = self.st.pool.arrival[i];
        let accuracy = self.st.pool.accuracy[i];
        let rung = self.st.pool.cold[i].degrade_to;
        self.st.pool.free(idx);
        if !self.measured(arrival) {
            return;
        }
        assert!(rung != NO_RUNG, "degraded completion carries its rung");
        let rung = &self.sim.streams[stream].degrade.rungs[rung as usize];
        let st = &mut *self.st;
        st.ra.degraded += 1;
        if now.secs_since(arrival) <= st.cols.deadline_s[stream] {
            st.ra.degraded_on_time += 1;
        }
        st.ra.nominal_acc_sum += accuracy;
        st.ra.degraded_acc_sum += rung.accuracy;
    }

    /// Retry watchdog: if the request is still sitting on the uplink with
    /// the same attempt count, the attempt has timed out — cancel it, feed
    /// the AP breaker, and retry or fall back.
    fn on_retry_timeout(&mut self, now: SimTime, device: usize, req: u32, attempt: u32) {
        let sim = self.sim;
        if !sim.config.recovery.retry {
            return;
        }
        let now_s = now.as_secs_f64();
        let ap = sim.cluster.devices[device].ap;
        let cur = self.st.uplinks.current[device];
        let in_current = cur != NIL && {
            let c = cur as usize;
            self.st.pool.cold[c].req == req && self.st.pool.cold[c].attempts == attempt
        };
        // Locate the request: transmitting now, or still queued (tracking
        // its predecessor so an exhausted one can be unlinked in place).
        let (idx, prev) = if in_current {
            let st = &mut *self.st;
            st.fg.tx_gen[device] += 1; // invalidate the pending TxDone
            st.uplinks.current[device] = NIL;
            st.pool.tx_time[cur as usize] = 0.0;
            (cur, NIL)
        } else {
            let st = &*self.st;
            let mut prev = NIL;
            let mut cand = st.uplinks.head[device];
            loop {
                if cand == NIL {
                    return; // stale: completed, stranded, or already retried
                }
                let c = cand as usize;
                if st.pool.cold[c].req == req && st.pool.cold[c].attempts == attempt {
                    break;
                }
                prev = cand;
                cand = st.pool.next[c];
            }
            (cand, prev)
        };
        self.st.ra.timeouts += 1;
        if let Some(b) = self.st.ap_breakers.as_mut() {
            b[ap].record_failure(now_s);
        }
        let i = idx as usize;
        self.st.pool.cold[i].attempts += 1;
        let attempts = self.st.pool.cold[i].attempts;
        if attempts > MAX_RETRIES {
            if !in_current {
                let st = &mut *self.st;
                st.uplinks.unlink_after(&mut st.pool, device, prev, idx);
            }
            self.fall_back(now, idx, device);
        } else {
            if in_current {
                self.st.ra.retries += 1;
            }
            let stream = self.st.pool.stream[i] as usize;
            let arrival = self.st.pool.arrival[i];
            let slack = self.st.cols.deadline_s[stream] - now.secs_since(arrival);
            let timeout = retry_timeout_s(attempts, slack);
            let key = self.st.queue.schedule(
                now.after_secs(timeout),
                Ev::RetryTimeout {
                    device: device as u32,
                    req,
                    attempt: attempts,
                },
            );
            self.st.pool.cold[i].retry_key = key;
            // A cancelled transmission restarts at the queue head; a
            // merely-queued request keeps its place (it was never moved).
            if in_current {
                let st = &mut *self.st;
                st.uplinks.push_front(&mut st.pool, device, idx);
            }
        }
        self.maybe_start_tx(now, device);
    }

    /// Emit one control-plane health snapshot and schedule the next epoch.
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
        if !st.fg.device_up[device] || !st.fg.ap_up[ap] {
            return; // the radio is dark: data waits in the uplink queue
        }
        if st.uplinks.current[device] != NIL {
            return;
        }
        let Some(idx) = st.uplinks.pop_front(&st.pool, device) else {
            return;
        };
        self.start_tx_flight(now, device, ap, idx);
    }

    /// Begin transmitting `idx` over `device`'s idle, healthy uplink.
    fn start_tx_flight(&mut self, now: SimTime, device: usize, ap: usize, idx: u32) {
        let sim = self.sim;
        let st = &mut *self.st;
        let stream = st.pool.stream[idx as usize] as usize;
        let fading = if sim.config.fading {
            st.fading_rng.fading_power()
        } else {
            1.0
        };
        let rtt = sim.cluster.aps[ap].rtt_s;
        // A degraded link stretches airtime by 1/factor (effective-rate
        // collapse); propagation (rtt) is unaffected.
        let air = st.links.tx_seconds(
            device,
            st.cols.tx_bytes[stream],
            st.cols.share[stream],
            fading,
        ) / st.fg.ap_bw_factor[ap];
        let tx = air + rtt / 2.0;
        st.pool.tx_time[idx as usize] = tx;
        st.uplinks.current[device] = idx;
        st.fg.tx_gen[device] += 1;
        let gen = st.fg.tx_gen[device];
        // Fire-and-forget: outage paths bump tx_gen, and the guard in
        // on_tx_done discards the superseded delivery.
        st.queue.post(
            now.after_secs(tx),
            Ev::TxDone {
                device: device as u32,
                gen,
            },
        );
    }

    fn on_tx_done(&mut self, now: SimTime, device: usize, gen: u32) {
        let sim = self.sim;
        if gen != self.st.fg.tx_gen[device] {
            return; // superseded: an AP outage re-queued this transmission
        }
        let idx = self.st.uplinks.current[device];
        assert!(idx != NIL, "TxDone without a transmission");
        let i = idx as usize;
        {
            let st = &mut *self.st;
            st.uplinks.current[device] = NIL;
            // The delivered attempt's watchdog (if any) is now moot.
            let key = st.pool.cold[i].retry_key;
            st.queue.cancel(key);
        }
        if let Some(b) = self.st.ap_breakers.as_mut() {
            // The uplink delivered: the AP is healthy.
            b[sim.cluster.devices[device].ap].record_success();
        }
        let stream = self.st.pool.stream[i] as usize;
        let target = self.st.pool.cold[i].target;
        let server = if target != NIL {
            target as usize
        } else {
            let p = self.st.cols.server[stream];
            assert!(p != NIL, "offloaded request has a server");
            p as usize
        };
        if !self.st.fg.server_up[server] {
            // Delivered to a dark rack: the request dies at the server's
            // door. The failure feeds the target's breaker — that is how
            // hedged re-offload learns to walk its menu past the outage.
            if let Some(brk) = self.st.srv_breakers.as_mut() {
                brk[server].record_failure(now.as_secs_f64());
            }
            let st = &mut *self.st;
            let arrival = st.pool.arrival[i];
            if arrival >= st.warmup && arrival < st.horizon {
                st.fa.stranded += 1;
                st.fa.per_stranded[st.fg.server_down_ci[server] as usize] += 1;
            }
            st.pool.free(idx);
            self.maybe_start_tx(now, device);
            return;
        }
        {
            let st = &mut *self.st;
            st.servers.advance(server, now);
            st.servers.admit(
                server,
                idx,
                st.cols.admit_flops[stream],
                st.cols.weight[stream],
                now,
            );
        }
        self.reschedule_server(now, server);
        self.maybe_start_tx(now, device);
    }

    fn reschedule_server(&mut self, now: SimTime, server: usize) {
        let st = &mut *self.st;
        // Supersede the outstanding check: the gen bump makes any earlier
        // pending ServerCheck a no-op when it delivers, so the stale event
        // needs no cancellation.
        st.servers.gen[server] += 1;
        if let Some(dt) = st.servers.time_to_next_completion(server) {
            let gen = st.servers.gen[server];
            // +1 ns: SimTime floors to nanoseconds, so without the nudge the
            // check can fire marginally *early*, leave a sub-nanosecond
            // residue of work, and respawn itself at +0 ns forever.
            let at = now.after_secs(dt) + SimTime::from_nanos(1);
            st.queue.post(
                at,
                Ev::ServerCheck {
                    server: server as u32,
                    gen,
                },
            );
        }
    }

    fn on_server_check(&mut self, now: SimTime, server: usize, gen: u32) {
        {
            let st = &mut *self.st;
            if st.servers.gen[server] != gen {
                return; // superseded by a later arrival/departure
            }
            st.servers.advance(server, now);
            // Complete everything at the head of the tag order that has
            // (numerically) finished.
            st.done_buf.clear();
            // Anything within one nanosecond of work at full capacity counts
            // as finished (floating-point + fixed-point-time slop).
            let eps = (st.servers.capacity_fps[server] * 1e-9).max(1.0);
            st.servers.pop_completions(server, eps, &mut st.done_buf);
        }
        for k in 0..self.st.done_buf.len() {
            let (idx, entered) = self.st.done_buf[k];
            let edge_time = now.secs_since(entered);
            self.complete(now, idx, edge_time);
        }
        self.reschedule_server(now, server);
    }

    /// Execute fault event `idx` of the plan. Redundant events (e.g. a
    /// `DeviceDown` on an already-down device) are counted as injected but
    /// not applied, so arbitrary event sequences stay well-defined.
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
                if self.st.fg.device_up[device] {
                    self.st.fg.device_up[device] = false;
                    self.st.fg.device_down_at[device] = Some(now);
                    self.st.fg.active[ci] += 1;
                    stranded_here = self.strand_device(device, class);
                    true
                } else {
                    false
                }
            }
            FaultKind::DeviceUp { device } => {
                if !self.st.fg.device_up[device] {
                    self.st.fg.device_up[device] = true;
                    if let Some(t) = self.st.fg.device_down_at[device].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.fg.active[ci] -= 1;
                    self.resume_device_arrivals(now, device);
                    true
                } else {
                    false
                }
            }
            FaultKind::ApDown { ap } => self.ap_down_effect(now, ap, ci),
            FaultKind::ApUp { ap } => self.ap_up_effect(now, ap),
            FaultKind::LinkDegrade { ap, factor } => {
                if (self.st.fg.ap_bw_factor[ap] - factor).abs() > f64::EPSILON {
                    if self.st.fg.ap_bw_factor[ap] >= 1.0 {
                        // Entering the degraded state (vs. re-degrading).
                        self.st.fg.ap_degraded_at[ap] = Some(now);
                        self.st.fg.active[ci] += 1;
                    }
                    self.st.fg.ap_bw_factor[ap] = factor;
                    true
                } else {
                    false
                }
            }
            FaultKind::LinkRestore { ap } => {
                if self.st.fg.ap_bw_factor[ap] < 1.0 {
                    self.st.fg.ap_bw_factor[ap] = 1.0;
                    if let Some(t) = self.st.fg.ap_degraded_at[ap].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.fg.active[ci] -= 1;
                    true
                } else {
                    false
                }
            }
            FaultKind::ServerThrottle { server, factor } => {
                let target = self.st.servers.base_fps[server] * factor;
                if (self.st.servers.capacity_fps[server] - target).abs() > 1e-9 {
                    if self.st.servers.capacity_fps[server] >= self.st.servers.base_fps[server] {
                        self.st.fg.server_throttled_at[server] = Some(now);
                        self.st.fg.active[ci] += 1;
                    }
                    // Settle processor sharing at the old rate first, then
                    // continue in-progress work at the degraded one.
                    self.st.servers.advance(server, now);
                    self.st.servers.capacity_fps[server] = target;
                    self.reschedule_server(now, server);
                    true
                } else {
                    false
                }
            }
            FaultKind::ServerRestore { server } => {
                if self.st.servers.capacity_fps[server] < self.st.servers.base_fps[server] {
                    self.st.servers.advance(server, now);
                    self.st.servers.capacity_fps[server] = self.st.servers.base_fps[server];
                    if let Some(t) = self.st.fg.server_throttled_at[server].take() {
                        self.record_recovery(now, t);
                    }
                    self.st.fg.active[ci] -= 1;
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
                // The whole domain fails atomically: every member effect
                // lands at this one timestamp, in member order, all charged
                // to the correlated class.
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
            // The only clone of a fault kind in the simulator: the log
            // record owns its copy; the hot path above matched by
            // reference.
            self.st.fault_trace.push(FaultRecord {
                at_s: now.as_secs_f64(),
                kind: kind.clone(),
                applied,
                stranded: stranded_here,
            });
        }
    }

    /// Take one AP's radio down, charging the outage to class `ci` (an
    /// independent `ApDown` charges ApOutage; a `DomainDown` member takes
    /// the identical effect charged to CorrelatedOutage). Returns false if
    /// the radio was already dark.
    fn ap_down_effect(&mut self, now: SimTime, ap: usize, ci: usize) -> bool {
        let st = &mut *self.st;
        if !st.fg.ap_up[ap] {
            return false;
        }
        st.fg.ap_up[ap] = false;
        st.fg.ap_down_at[ap] = Some(now);
        st.fg.ap_down_ci[ap] = ci as u8;
        st.fg.active[ci] += 1;
        // In-flight transmissions are re-queued, not lost: the
        // data survives on the device and retransmits on ApUp.
        // (The retry watchdog, if armed, keeps running — it is
        // exactly how the outage gets detected.)
        for k in 0..st.devices_by_ap[ap].len() {
            let dev = st.devices_by_ap[ap][k];
            let cur = st.uplinks.current[dev];
            if cur != NIL {
                st.fg.tx_gen[dev] += 1; // invalidate the pending TxDone
                st.uplinks.current[dev] = NIL;
                st.uplinks.push_front(&mut st.pool, dev, cur);
            }
        }
        true
    }

    /// Revive one AP's radio, decrementing whichever class the downing
    /// event charged. Returns false if the radio was already up.
    fn ap_up_effect(&mut self, now: SimTime, ap: usize) -> bool {
        if !self.st.fg.ap_up[ap] {
            self.st.fg.ap_up[ap] = true;
            if let Some(t) = self.st.fg.ap_down_at[ap].take() {
                self.record_recovery(now, t);
            }
            self.st.fg.active[self.st.fg.ap_down_ci[ap] as usize] -= 1;
            for k in 0..self.st.devices_by_ap[ap].len() {
                let dev = self.st.devices_by_ap[ap][k];
                self.maybe_start_tx(now, dev);
            }
            true
        } else {
            false
        }
    }

    /// Cut power to one server, stranding its processor-sharing station
    /// and charging the outage (and the strands) to class `ci`. Returns
    /// `(applied, measured requests stranded)`.
    fn server_down_effect(&mut self, now: SimTime, server: usize, ci: usize) -> (bool, usize) {
        if !self.st.fg.server_up[server] {
            return (false, 0);
        }
        self.st.fg.server_up[server] = false;
        self.st.fg.server_down_at[server] = Some(now);
        self.st.fg.server_down_ci[server] = ci as u8;
        self.st.fg.active[ci] += 1;
        (true, self.strand_server(now, server, ci))
    }

    /// Restore power to one server. The station restarts empty (its work
    /// was stranded at the kill) at whatever capacity the throttle state
    /// says. Returns false if power was already on.
    fn server_up_effect(&mut self, now: SimTime, server: usize) -> bool {
        if !self.st.fg.server_up[server] {
            self.st.fg.server_up[server] = true;
            if let Some(t) = self.st.fg.server_down_at[server].take() {
                self.record_recovery(now, t);
            }
            self.st.fg.active[self.st.fg.server_down_ci[server] as usize] -= 1;
            true
        } else {
            false
        }
    }

    /// Strand everything in a dark server's processor-sharing station.
    /// Returns the number of *measured* requests stranded.
    fn strand_server(&mut self, now: SimTime, server: usize, ci: usize) -> usize {
        let st = &mut *self.st;
        let (warmup, horizon) = (st.warmup, st.horizon);
        // Settle busy-time accounting up to the moment the power dies.
        st.servers.advance(server, now);
        let mut stranded = 0usize;
        while !st.servers.served[server].is_empty() {
            let (flight, _weight, _entered) = st.servers.served[server].pop_root();
            let arrival = st.pool.arrival[flight as usize];
            if arrival >= warmup && arrival < horizon {
                stranded += 1;
            }
            st.pool.free(flight);
        }
        // The drained station resets exactly as `pop_completions` does.
        st.servers.vclock[server] = 0.0;
        st.servers.total_w[server] = 0.0;
        // Supersede any pending ServerCheck for the now-empty station.
        st.servers.gen[server] += 1;
        #[cfg(feature = "kernel-xcheck")]
        {
            let m = &mut st.servers.mirror[server];
            m.flight.clear();
            m.remaining.clear();
            m.weight.clear();
        }
        st.fa.stranded += stranded;
        st.fa.per_stranded[ci] += stranded;
        stranded
    }

    /// Drop everything the departing device was holding: queued and
    /// in-service compute, plus data waiting on (or in) its uplink. Work
    /// its streams already handed to an edge server still completes there.
    /// Returns the number of *measured* requests stranded.
    fn strand_device(&mut self, device: usize, class: FaultClass) -> usize {
        let sim = self.sim;
        let st = &mut *self.st;
        let (warmup, horizon) = (st.warmup, st.horizon);
        st.fg.dev_gen[device] += 1; // invalidate any pending DeviceDone
        st.fg.tx_gen[device] += 1; // invalidate any pending TxDone
        let mut stranded = 0usize;
        let mut backlog = st.degrade_backlog_s[device];
        let cur = st.devices.current[device];
        if cur != NIL {
            st.devices.current[device] = NIL;
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
        while let Some(i) = st.devices.pop_front(&st.pool, device) {
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
        let cur = st.uplinks.current[device];
        if cur != NIL {
            st.uplinks.current[device] = NIL;
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
        while let Some(i) = st.uplinks.pop_front(&st.pool, device) {
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

    /// Restart the arrival process of every stream on a returning device.
    fn resume_device_arrivals(&mut self, now: SimTime, device: usize) {
        let sim = self.sim;
        let st = &mut *self.st;
        if now >= st.horizon {
            return; // past the generation window: nothing to resume
        }
        for k in 0..st.streams_by_device[device].len() {
            let stream = st.streams_by_device[device][k];
            if !st.arrival_pending[stream] {
                let gap = st.arrival_states[stream]
                    .next_gap(&sim.streams[stream].arrivals, &mut st.arrival_rngs[stream]);
                st.arrival_pending[stream] = true;
                st.queue.post(
                    now.after_secs(gap),
                    Ev::Arrive {
                        stream: stream as u32,
                    },
                );
            }
        }
    }

    fn record_recovery(&mut self, now: SimTime, since: SimTime) {
        self.st.fa.recovery_sum_s += now.secs_since(since);
        self.st.fa.recoveries += 1;
    }

    fn complete(&mut self, now: SimTime, idx: u32, edge_time: f64) {
        // Capture the hot columns before freeing the slot.
        let i = idx as usize;
        let (stream, arrival, exit, accuracy, device_wait, device_service, tx_time, target) = {
            let p = &self.st.pool;
            (
                p.stream[i] as usize,
                p.arrival[i],
                p.exit[i],
                p.accuracy[i],
                p.device_wait[i],
                p.device_service[i],
                p.tx_time[i],
                p.cold[i].target,
            )
        };
        self.st.pool.free(idx);
        let deadline_s = self.st.cols.deadline_s[stream];
        let latency = now.secs_since(arrival);
        if tx_time > 0.0 {
            // Offloaded outcome feeds the target server's health window
            // (for all requests, measured or not — runtime health tracking
            // does not know about measurement windows).
            let primary = self.st.cols.server[stream];
            let miss_is_failure = self
                .sim
                .config
                .recovery
                .breakers
                .as_ref()
                .is_none_or(|bc| bc.miss_is_failure);
            if let Some(brk) = self.st.srv_breakers.as_mut() {
                let target = if target != NIL {
                    target as usize
                } else {
                    assert!(primary != NIL, "offloaded request has a server");
                    primary as usize
                };
                if latency <= deadline_s || !miss_is_failure {
                    brk[target].record_success();
                } else {
                    brk[target].record_failure(now.as_secs_f64());
                }
            }
        }
        if !self.measured(arrival) {
            return;
        }
        let st = &mut *self.st;
        st.meas_completed += 1;
        if latency > deadline_s {
            st.meas_misses += 1;
        }
        let under_fault = st.fg.active.iter().any(|&c| c > 0);
        if under_fault {
            st.fa.completions_during += 1;
        }
        st.accums.latencies[stream].push(latency);
        if latency <= deadline_s {
            st.accums.on_time[stream] += 1;
        } else if under_fault {
            // Attribute the SLO violation to every currently-active class.
            st.fa.misses_during += 1;
            for (ci, &n) in st.fg.active.iter().enumerate() {
                if n > 0 {
                    st.fa.per_misses[ci] += 1;
                }
            }
        }
        st.accums.acc_sum[stream] += accuracy;
        if exit != NIL {
            st.accums.early_exits[stream] += 1;
        }
        st.accums.device_wait_sum[stream] += device_wait;
        st.accums.device_service_sum[stream] += device_service;
        if tx_time > 0.0 {
            st.accums.tx_sum[stream] += tx_time;
            st.accums.tx_count[stream] += 1;
            st.accums.edge_sum[stream] += edge_time;
        }
        if st.record {
            st.trace.push(TaskRecord {
                stream,
                arrival_s: arrival.as_secs_f64(),
                device_wait_s: device_wait,
                device_service_s: device_service,
                tx_s: tx_time,
                edge_s: edge_time,
                latency_s: latency,
                exit: (exit != NIL).then_some(exit as usize),
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
        // Requests still queued when the event queue drained are stalled
        // behind an unrecovered fault (a clean run always drains fully).
        // Count them so nothing is silently dropped.
        let (warmup, horizon) = (st.warmup, st.horizon);
        let measured = |t: SimTime| t >= warmup && t < horizon;
        let mut stalled = 0usize;
        for d in 0..st.devices.head.len() {
            for (head, current) in [
                (st.devices.head[d], st.devices.current[d]),
                (st.uplinks.head[d], st.uplinks.current[d]),
            ] {
                let mut i = head;
                while i != NIL {
                    if measured(st.pool.arrival[i as usize]) {
                        stalled += 1;
                    }
                    i = st.pool.next[i as usize];
                }
                if current != NIL && measured(st.pool.arrival[current as usize]) {
                    stalled += 1;
                }
            }
        }
        for served in &st.servers.served {
            // The active set is unordered for counting purposes.
            for pay in &served.pay {
                let fl = pay.flight;
                if measured(st.pool.arrival[fl as usize]) {
                    stalled += 1;
                }
            }
        }
        st.fa.stalled = stalled;
        let end_s = st.queue.now().as_secs_f64().max(1e-12);
        // `scale_div` is element-exact `x / end_s`, so the utilization
        // vector matches the scalar division bit-for-bit.
        let mut server_utilization = st.servers.busy_s.clone();
        scale_div(&mut server_utilization, end_s);
        for u in &mut server_utilization {
            *u = u.clamp(0.0, 1.0);
        }
        st.lat_all.clear();
        let n_streams = st.accums.latencies.len();
        let mut on_time = 0usize;
        let mut acc_sum = 0.0;
        let mut early = 0usize;
        let mut per_stream = Vec::with_capacity(n_streams);
        for i in 0..n_streams {
            // Pool the raw samples before `finish_stream` sorts them in
            // place (the aggregate's accumulation order must match the
            // legacy per-stream concatenation exactly).
            st.lat_all.extend_from_slice(&st.accums.latencies[i]);
            on_time += st.accums.on_time[i];
            acc_sum += st.accums.acc_sum[i];
            early += st.accums.early_exits[i];
            per_stream.push(st.accums.finish_stream(i));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ApSpec, DeviceSpec, ServerSpec};
    use crate::metrics::FaultMetrics;
    use crate::workload::ArrivalProcess;
    use scalpel_models::{ExitBehavior, ProcessorClass};
    use scalpel_surgery::DegradeRung;

    fn one_device_cluster() -> Cluster {
        Cluster {
            devices: vec![DeviceSpec {
                id: 0,
                proc: ProcessorClass::JetsonNano.spec(),
                ap: 0,
                distance_m: 30.0,
            }],
            aps: vec![ApSpec {
                id: 0,
                bandwidth_hz: 20e6,
                rtt_s: 2e-3,
            }],
            servers: vec![ServerSpec {
                id: 0,
                proc: ProcessorClass::EdgeGpuT4.spec(),
            }],
        }
    }

    fn no_exit_stream(rate: f64, device_time: f64, edge_flops: f64) -> CompiledStream {
        CompiledStream {
            id: 0,
            device: 0,
            server: Some(0),
            arrivals: ArrivalProcess::Poisson { rate_hz: rate },
            deadline_s: 0.25,
            device_time_to_exit: vec![],
            device_full_time: device_time,
            tx_bytes: 100_000.0,
            edge_flops,
            behavior: ExitBehavior::no_exits(0.76),
            acc_at_exit: vec![],
            acc_full: 0.76,
            bandwidth_share: 1.0,
            compute_weight: 1.0,
            degrade: scalpel_surgery::DegradeLadder::none(),
            fallback_servers: vec![],
        }
    }

    fn base_config() -> SimConfig {
        SimConfig {
            horizon_s: 20.0,
            warmup_s: 2.0,
            seed: 42,
            fading: false,
            faults: FaultPlan::none(),
            recovery: RecoveryConfig::none(),
        }
    }

    #[test]
    fn light_load_latency_matches_hand_computation() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(1.0, 0.005, 1e9);
        let sim = EdgeSim::new(cluster.clone(), vec![s.clone()], base_config()).unwrap();
        let r = sim.run();
        assert!(r.completed > 10);
        // Expected: device 5ms + tx + edge service (no queueing at 1 rps).
        let link = cluster.link(0);
        let tx = link.tx_seconds(100_000.0, 1.0, 1.0) + 1e-3;
        let edge = 1e9 / ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        let expect = 0.005 + tx + edge;
        assert!(
            (r.latency.mean - expect).abs() < 0.1 * expect,
            "mean {} expect {}",
            r.latency.mean,
            expect
        );
        assert_eq!(r.early_exit_fraction, 0.0);
        assert!((r.mean_accuracy - 0.76).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(5.0, 0.01, 2e9);
        let mut cfg = base_config();
        cfg.fading = true;
        let r1 = EdgeSim::new(cluster.clone(), vec![s.clone()], cfg.clone())
            .unwrap()
            .run();
        let r2 = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.latency.mean, r2.latency.mean);
        assert_eq!(r1.latency.p99, r2.latency.p99);
    }

    #[test]
    fn different_seeds_differ() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(5.0, 0.01, 2e9);
        let mut c1 = base_config();
        c1.seed = 1;
        let mut c2 = base_config();
        c2.seed = 2;
        let r1 = EdgeSim::new(cluster.clone(), vec![s.clone()], c1)
            .unwrap()
            .run();
        let r2 = EdgeSim::new(cluster, vec![s], c2).unwrap().run();
        assert_ne!(r1.latency.mean, r2.latency.mean);
    }

    #[test]
    fn early_exits_complete_on_device() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(2.0, 0.02, 1e9);
        // One exit at cumulative 40% coverage.
        s.device_time_to_exit = vec![0.004];
        s.behavior = ExitBehavior {
            exit_probs: vec![0.4],
            cum: vec![0.4],
            remain_prob: 0.6,
            expected_accuracy: 0.75,
        };
        s.acc_at_exit = vec![0.73];
        let r = EdgeSim::new(cluster, vec![s], base_config()).unwrap().run();
        assert!(
            (r.early_exit_fraction - 0.4).abs() < 0.08,
            "early fraction {}",
            r.early_exit_fraction
        );
        // Early-exit requests are much faster than offloaded ones, so p50
        // under light load splits the two bands.
        assert!(r.latency.mean > 0.004);
    }

    #[test]
    fn device_only_plan_never_touches_network() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(2.0, 0.03, 0.0);
        s.server = None;
        let r = EdgeSim::new(cluster, vec![s], base_config()).unwrap().run();
        assert!(r.completed > 10);
        assert_eq!(r.per_stream[0].mean_tx, 0.0);
        assert!((r.latency.p50 - 0.03).abs() < 5e-3);
    }

    #[test]
    fn overload_violates_deadlines() {
        let cluster = one_device_cluster();
        // Device service 0.5 s at 10 rps: utterly overloaded.
        let mut s = no_exit_stream(10.0, 0.5, 1e9);
        s.server = None;
        let mut cfg = base_config();
        cfg.horizon_s = 10.0;
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert!(r.deadline_ratio < 0.1, "ratio {}", r.deadline_ratio);
        assert!(r.latency.p99 > 1.0);
    }

    #[test]
    fn ps_server_shares_capacity_between_streams() {
        let mut cluster = one_device_cluster();
        cluster.devices.push(DeviceSpec {
            id: 1,
            proc: ProcessorClass::JetsonNano.spec(),
            ap: 0,
            distance_m: 30.0,
        });
        // Two heavy streams on one server: each should see roughly half
        // the capacity under load, i.e. service times stretch.
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        let flops = cap * 0.03; // 30 ms alone
        let mk = |id: usize, dev: usize| {
            let mut s = no_exit_stream(8.0, 0.001, flops);
            s.id = id;
            s.device = dev;
            s.bandwidth_share = 0.5;
            s
        };
        let r = EdgeSim::new(cluster, vec![mk(0, 0), mk(1, 1)], base_config())
            .unwrap()
            .run();
        // Mean edge time must exceed the isolated 30 ms service time due to
        // sharing, but not blow up (utilization = 2*8*0.03 = 0.48).
        let edge = r.per_stream[0].mean_edge;
        assert!(edge > 0.030, "edge {edge}");
        assert!(edge < 0.30, "edge {edge}");
    }

    #[test]
    fn invalid_stream_is_rejected_up_front() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(1.0, 0.01, 1e9);
        s.device = 5;
        assert!(EdgeSim::new(cluster.clone(), vec![s], base_config()).is_err());
        let mut s = no_exit_stream(1.0, 0.01, 1e9);
        s.server = Some(3);
        assert!(EdgeSim::new(cluster.clone(), vec![s], base_config()).is_err());
        let mut s = no_exit_stream(1.0, 0.01, 1e9);
        s.id = 4;
        assert!(EdgeSim::new(cluster, vec![s], base_config()).is_err());
    }

    #[test]
    fn warmup_requests_are_not_measured() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(10.0, 0.001, 1e8);
        let mut cfg = base_config();
        cfg.horizon_s = 12.0;
        cfg.warmup_s = 2.0;
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        // ~10 rps over a 10 s measured window.
        assert!(r.generated > 60 && r.generated < 140, "{}", r.generated);
        assert_eq!(r.completed, r.generated);
    }

    fn two_ap_cluster() -> Cluster {
        Cluster {
            devices: (0..4)
                .map(|id| DeviceSpec {
                    id,
                    proc: ProcessorClass::JetsonNano.spec(),
                    ap: id / 2,
                    distance_m: 30.0,
                })
                .collect(),
            aps: (0..2)
                .map(|id| ApSpec {
                    id,
                    bandwidth_hz: 20e6,
                    rtt_s: 2e-3,
                })
                .collect(),
            servers: (0..2)
                .map(|id| ServerSpec {
                    id,
                    proc: ProcessorClass::EdgeGpuT4.spec(),
                })
                .collect(),
        }
    }

    #[test]
    fn multi_ap_streams_run_independently() {
        let cluster = two_ap_cluster();
        let streams: Vec<CompiledStream> = (0..4)
            .map(|k| {
                let mut s = no_exit_stream(3.0, 0.005, 5e8);
                s.id = k;
                s.device = k;
                s.server = Some(k % 2);
                s.bandwidth_share = 0.5;
                s
            })
            .collect();
        let r = EdgeSim::new(cluster, streams, base_config()).unwrap().run();
        assert_eq!(r.per_stream.len(), 4);
        for ss in &r.per_stream {
            assert!(ss.completed > 10, "stream {} starved", ss.stream);
        }
    }

    #[test]
    fn busier_ap_sees_higher_latency() {
        // AP 0 hosts two heavy transmitters, AP 1 one: same share each, so
        // the AP-0 devices queue more (each share is of its own AP).
        let cluster = two_ap_cluster();
        let mk = |id: usize, dev: usize, share: f64| {
            let mut s = no_exit_stream(4.0, 0.001, 1e8);
            s.id = id;
            s.device = dev;
            s.server = Some(0);
            s.tx_bytes = 1.5e6;
            s.bandwidth_share = share;
            s
        };
        // device 0 & 1 on AP0 with half share each; device 2 on AP1 alone
        // with FULL share.
        let streams = vec![mk(0, 0, 0.5), mk(1, 1, 0.5), mk(2, 2, 1.0)];
        let r = EdgeSim::new(cluster, streams, base_config()).unwrap().run();
        let shared = r.per_stream[0].latency.mean;
        let alone = r.per_stream[2].latency.mean;
        assert!(
            shared > alone * 1.5,
            "shared {shared} not clearly worse than alone {alone}"
        );
    }

    #[test]
    fn heavier_weight_gets_faster_edge_service() {
        let mut cluster = one_device_cluster();
        cluster.devices.push(DeviceSpec {
            id: 1,
            proc: ProcessorClass::JetsonNano.spec(),
            ap: 0,
            distance_m: 30.0,
        });
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        let mk = |id: usize, dev: usize, weight: f64| {
            let mut s = no_exit_stream(6.0, 0.001, cap * 0.05);
            s.id = id;
            s.device = dev;
            s.bandwidth_share = 0.5;
            s.compute_weight = weight;
            s
        };
        let r = EdgeSim::new(cluster, vec![mk(0, 0, 4.0), mk(1, 1, 1.0)], base_config())
            .unwrap()
            .run();
        let heavy = r.per_stream[0].mean_edge;
        let light = r.per_stream[1].mean_edge;
        assert!(
            heavy < light,
            "weight-4 stream ({heavy}) should outpace weight-1 ({light})"
        );
    }

    #[test]
    fn server_utilization_reflects_load() {
        let cluster = one_device_cluster();
        // Unused server in a 2-server variant.
        let mut cluster2 = cluster.clone();
        cluster2.servers.push(ServerSpec {
            id: 1,
            proc: ProcessorClass::EdgeGpuT4.spec(),
        });
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        // ~60% utilization target: 6 rps × 0.1 s of edge work.
        let s = no_exit_stream(6.0, 0.0005, cap * 0.1);
        let r = EdgeSim::new(cluster2, vec![s], base_config())
            .unwrap()
            .run();
        assert_eq!(r.server_utilization.len(), 2);
        assert!(
            (r.server_utilization[0] - 0.6).abs() < 0.15,
            "util {}",
            r.server_utilization[0]
        );
        assert_eq!(r.server_utilization[1], 0.0);
    }

    #[test]
    fn idle_cluster_reports_zero_utilization() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(1.0, 0.001, 0.0);
        s.server = None; // device-only: server never touched
        let r = EdgeSim::new(cluster, vec![s], base_config()).unwrap().run();
        assert_eq!(r.server_utilization, vec![0.0]);
    }

    #[test]
    fn trace_records_are_consistent_with_report() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(3.0, 0.004, 1e9);
        s.device_time_to_exit = vec![0.002];
        s.behavior = ExitBehavior {
            exit_probs: vec![0.3],
            cum: vec![0.3],
            remain_prob: 0.7,
            expected_accuracy: 0.75,
        };
        s.acc_at_exit = vec![0.73];
        let sim = EdgeSim::new(cluster, vec![s], base_config()).unwrap();
        let (report, log) = sim.run_logged();
        let trace = log.tasks;
        assert_eq!(trace.len(), report.completed);
        // Trace mean latency must equal the report's.
        let mean = trace.iter().map(|r| r.latency_s).sum::<f64>() / trace.len() as f64;
        assert!((mean - report.latency.mean).abs() < 1e-9);
        // Exit counts agree.
        let exits = trace.iter().filter(|r| r.exit.is_some()).count();
        assert!((exits as f64 / trace.len() as f64 - report.early_exit_fraction).abs() < 1e-9);
        for r in &trace {
            // Components never exceed the end-to-end latency (uplink
            // queueing is the untracked remainder)...
            assert!(r.component_sum_s() <= r.latency_s + 1e-9, "{r:?}");
            // ...and on-device completions decompose exactly.
            if r.tx_s == 0.0 {
                assert!(
                    (r.device_wait_s + r.device_service_s - r.latency_s).abs() < 1e-9,
                    "{r:?}"
                );
                assert!(r.exit.is_some());
            }
            assert!(r.arrival_s >= base_config().warmup_s);
        }
    }

    #[test]
    fn untraced_run_matches_traced_report() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(4.0, 0.003, 1e9);
        let sim = EdgeSim::new(cluster, vec![s], base_config()).unwrap();
        let plain = sim.run();
        let (traced, _) = sim.run_logged();
        assert_eq!(plain.latency.mean, traced.latency.mean);
        assert_eq!(plain.completed, traced.completed);
    }

    use crate::faults::{FaultEvent, FaultProfile};

    fn fault_cfg(events: Vec<FaultEvent>) -> SimConfig {
        let mut cfg = base_config();
        cfg.faults = FaultPlan {
            events,
            ..FaultPlan::none()
        };
        cfg
    }

    fn at(at_s: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at_s, kind }
    }

    #[test]
    fn empty_fault_plan_matches_clean_run_exactly() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(5.0, 0.01, 2e9);
        let clean = EdgeSim::new(cluster.clone(), vec![s.clone()], base_config())
            .unwrap()
            .run();
        let faulted = EdgeSim::new(cluster, vec![s], fault_cfg(vec![]))
            .unwrap()
            .run();
        assert_eq!(clean.completed, faulted.completed);
        assert_eq!(clean.latency.mean, faulted.latency.mean);
        assert_eq!(faulted.faults, FaultMetrics::empty());
    }

    #[test]
    fn device_outage_strands_and_conserves_requests() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(8.0, 0.01, 1e9);
        let cfg = fault_cfg(vec![
            at(6.0, FaultKind::DeviceDown { device: 0 }),
            at(9.0, FaultKind::DeviceUp { device: 0 }),
        ]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        // The outage cuts ~3 s out of an ~18 s window; arrivals resume after.
        assert!(r.completed > 0);
        assert_eq!(r.generated, r.completed + r.faults.lost());
        assert_eq!(r.faults.injected, 2);
        assert_eq!(r.faults.applied, 2);
        assert_eq!(r.faults.recoveries, 1);
        assert!((r.faults.mean_recovery_s - 3.0).abs() < 1e-9);
        let churn = &r.faults.per_class[FaultClass::DeviceChurn.index()];
        assert_eq!(churn.applied, 2);
        assert_eq!(churn.stranded, r.faults.stranded);
    }

    #[test]
    fn redundant_fault_events_inject_but_do_not_apply() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(2.0, 0.005, 1e9);
        let cfg = fault_cfg(vec![
            at(3.0, FaultKind::DeviceUp { device: 0 }), // already up
            at(4.0, FaultKind::LinkRestore { ap: 0 }),  // already nominal
            at(5.0, FaultKind::ServerRestore { server: 0 }), // already nominal
        ]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert_eq!(r.faults.injected, 3);
        assert_eq!(r.faults.applied, 0);
        assert_eq!(r.generated, r.completed);
    }

    #[test]
    fn ap_outage_delays_but_never_drops() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(4.0, 0.002, 5e8);
        let clean = EdgeSim::new(cluster.clone(), vec![s.clone()], base_config())
            .unwrap()
            .run();
        let cfg = fault_cfg(vec![
            at(5.0, FaultKind::ApDown { ap: 0 }),
            at(8.0, FaultKind::ApUp { ap: 0 }),
        ]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        // Data queues during the outage and retransmits afterwards: every
        // request still completes, but tail latency grows past the ~3 s gap.
        assert_eq!(r.generated, r.completed);
        assert_eq!(r.faults.stranded, 0);
        assert!(r.latency.max >= 2.0, "max {}", r.latency.max);
        assert!(r.latency.max > clean.latency.max);
        assert!(r.deadline_ratio < clean.deadline_ratio);
    }

    #[test]
    fn unrecovered_ap_outage_stalls_queued_requests() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(4.0, 0.002, 5e8);
        let cfg = fault_cfg(vec![at(5.0, FaultKind::ApDown { ap: 0 })]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        // Everything after the outage piles up in the uplink queue forever.
        assert!(r.faults.stalled > 0);
        assert_eq!(r.generated, r.completed + r.faults.lost());
    }

    #[test]
    fn link_degradation_stretches_transmissions() {
        let cluster = one_device_cluster();
        let mut s = no_exit_stream(2.0, 0.001, 1e8);
        s.tx_bytes = 1e6; // transmission-dominated
        let clean = EdgeSim::new(cluster.clone(), vec![s.clone()], base_config())
            .unwrap()
            .run();
        let cfg = fault_cfg(vec![at(
            2.0,
            FaultKind::LinkDegrade {
                ap: 0,
                factor: 0.25,
            },
        )]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert_eq!(r.generated, r.completed);
        assert!(
            r.per_stream[0].mean_tx > 2.0 * clean.per_stream[0].mean_tx,
            "degraded tx {} vs clean {}",
            r.per_stream[0].mean_tx,
            clean.per_stream[0].mean_tx
        );
    }

    #[test]
    fn server_throttle_slows_edge_service() {
        let cluster = one_device_cluster();
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        let s = no_exit_stream(2.0, 0.001, cap * 0.02); // 20 ms alone
        let clean = EdgeSim::new(cluster.clone(), vec![s.clone()], base_config())
            .unwrap()
            .run();
        let cfg = fault_cfg(vec![at(
            2.0,
            FaultKind::ServerThrottle {
                server: 0,
                factor: 0.25,
            },
        )]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert_eq!(r.generated, r.completed);
        assert!(
            r.per_stream[0].mean_edge > 3.0 * clean.per_stream[0].mean_edge,
            "throttled edge {} vs clean {}",
            r.per_stream[0].mean_edge,
            clean.per_stream[0].mean_edge
        );
    }

    #[test]
    fn fault_log_records_every_event() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(4.0, 0.005, 1e9);
        let cfg = fault_cfg(vec![
            at(4.0, FaultKind::DeviceDown { device: 0 }),
            at(5.0, FaultKind::DeviceDown { device: 0 }), // redundant
            at(6.0, FaultKind::DeviceUp { device: 0 }),
        ]);
        let (report, trace) = EdgeSim::new(cluster, vec![s], cfg).unwrap().run_logged();
        assert_eq!(trace.faults.len(), 3);
        assert!(trace.faults[0].applied);
        assert!(!trace.faults[1].applied);
        assert!(trace.faults[2].applied);
        assert_eq!(trace.faults[1].stranded, 0);
        let stranded_logged: usize = trace.faults.iter().map(|f| f.stranded).sum();
        assert_eq!(stranded_logged, report.faults.stranded);
        assert_eq!(trace.tasks.len(), report.completed);
    }

    #[test]
    fn misses_during_fault_are_attributed() {
        let cluster = one_device_cluster();
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        // Edge-heavy stream with a tight deadline: a deep throttle makes
        // every completion during the fault miss its SLO.
        let mut s = no_exit_stream(4.0, 0.001, cap * 0.05);
        s.deadline_s = 0.1;
        let cfg = fault_cfg(vec![
            at(
                5.0,
                FaultKind::ServerThrottle {
                    server: 0,
                    factor: 0.2,
                },
            ),
            at(12.0, FaultKind::ServerRestore { server: 0 }),
        ]);
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert!(r.faults.misses_during_fault > 0);
        assert!(r.faults.completions_during_fault >= r.faults.misses_during_fault);
        let throttle = &r.faults.per_class[FaultClass::ComputeThrottle.index()];
        assert_eq!(throttle.misses_during, r.faults.misses_during_fault);
        assert!((r.faults.mean_recovery_s - 7.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_fault_plan_is_rejected_up_front() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(1.0, 0.01, 1e9);
        let cfg = fault_cfg(vec![at(1.0, FaultKind::DeviceDown { device: 7 })]);
        assert!(EdgeSim::new(cluster.clone(), vec![s.clone()], cfg).is_err());
        let cfg = fault_cfg(vec![at(
            1.0,
            FaultKind::LinkDegrade {
                ap: 0,
                factor: -0.5,
            },
        )]);
        assert!(EdgeSim::new(cluster, vec![s], cfg).is_err());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let cluster = two_ap_cluster();
        let streams: Vec<CompiledStream> = (0..4)
            .map(|k| {
                let mut s = no_exit_stream(3.0, 0.005, 5e8);
                s.id = k;
                s.device = k;
                s.server = Some(k % 2);
                s.bandwidth_share = 0.5;
                s
            })
            .collect();
        let mut cfg = fault_cfg(
            FaultProfile {
                rate_hz: 0.5,
                ..FaultProfile::default()
            }
            .plan(4, 2, 2, 20.0)
            .events,
        );
        cfg.fading = true;
        let r1 = EdgeSim::new(cluster.clone(), streams.clone(), cfg.clone())
            .unwrap()
            .run();
        let r2 = EdgeSim::new(cluster, streams, cfg).unwrap().run();
        assert!(r1.faults.injected > 0);
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.latency.mean, r2.latency.mean);
        assert_eq!(r1.faults, r2.faults);
    }

    /// A stream with one forced-exit rung and a local-finish rung.
    fn recoverable_stream(rate: f64) -> CompiledStream {
        let mut s = no_exit_stream(rate, 0.002, 5e8);
        s.device_time_to_exit = vec![0.001];
        s.behavior = ExitBehavior {
            exit_probs: vec![0.2],
            cum: vec![0.2],
            remain_prob: 0.8,
            expected_accuracy: 0.75,
        };
        s.acc_at_exit = vec![0.70];
        s.degrade = scalpel_surgery::DegradeLadder::new(vec![
            DegradeRung {
                exit: Some(0),
                extra_device_s: 0.0,
                accuracy: 0.69,
            },
            DegradeRung {
                exit: None,
                extra_device_s: 0.01,
                accuracy: 0.76,
            },
        ]);
        s
    }

    #[test]
    fn disabled_recovery_is_a_bitwise_noop() {
        let cluster = two_ap_cluster();
        let streams: Vec<CompiledStream> = (0..4)
            .map(|k| {
                let mut s = no_exit_stream(3.0, 0.005, 5e8);
                s.id = k;
                s.device = k;
                s.server = Some(k % 2);
                s.bandwidth_share = 0.5;
                s
            })
            .collect();
        let mut cfg = fault_cfg(
            FaultProfile {
                rate_hz: 0.8,
                ..FaultProfile::default()
            }
            .plan(4, 2, 2, 20.0)
            .events,
        );
        cfg.fading = true;
        cfg.recovery = RecoveryConfig::none();
        let legacy = EdgeSim::new(cluster.clone(), streams.clone(), cfg.clone())
            .unwrap()
            .run();
        let r = EdgeSim::new(cluster, streams, cfg).unwrap().run();
        assert_eq!(legacy.completed, r.completed);
        assert_eq!(legacy.latency.p99, r.latency.p99);
        assert_eq!(legacy.faults, r.faults);
        assert_eq!(r.recovery, RecoveryMetrics::empty());
    }

    #[test]
    fn degradation_clears_an_unrecovered_ap_outage() {
        let cluster = one_device_cluster();
        let s = recoverable_stream(4.0);
        // Without recovery this schedule stalls every post-outage request.
        let mut cfg = fault_cfg(vec![at(5.0, FaultKind::ApDown { ap: 0 })]);
        let bare = EdgeSim::new(cluster.clone(), vec![s.clone()], cfg.clone())
            .unwrap()
            .run();
        assert!(bare.faults.stalled > 0);
        cfg.recovery = RecoveryConfig::retry_only();
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        // Retries exhaust against the dead AP and the ladder takes over:
        // nothing is left stuck on the uplink.
        assert_eq!(r.faults.stalled, 0);
        assert!(r.recovery.timeouts > 0);
        assert!(r.recovery.degraded > 0);
        assert!(r.recovery.accuracy_cost >= 0.0);
        assert_eq!(r.generated, r.accounted());
    }

    #[test]
    fn breakers_open_under_ap_outage_and_telemetry_sees_them() {
        let cluster = one_device_cluster();
        let s = recoverable_stream(6.0);
        let mut cfg = fault_cfg(vec![at(4.0, FaultKind::ApDown { ap: 0 })]);
        cfg.recovery = RecoveryConfig::full();
        let (r, trace) = EdgeSim::new(cluster, vec![s], cfg).unwrap().run_logged();
        assert!(r.recovery.breaker_opens > 0);
        assert!(!trace.health.is_empty());
        // Some epoch after the outage reports the AP breaker open.
        assert!(trace.health.iter().any(|h| h.ap_open.iter().any(|&o| o)));
        assert_eq!(r.generated, r.accounted());
    }

    #[test]
    fn hedging_reroutes_around_a_dead_server() {
        let cluster = two_ap_cluster();
        let cap = ProcessorClass::EdgeGpuT4.spec().flops_per_sec;
        let mut s = recoverable_stream(6.0);
        s.edge_flops = cap * 0.01;
        s.deadline_s = 0.1;
        s.server = Some(0);
        s.fallback_servers = vec![1];
        // 10x throttle on the primary: completions still flow but every
        // one misses its 100 ms deadline, so the outcome-driven breaker
        // opens and hedging shifts traffic to server 1.
        let mut cfg = fault_cfg(vec![at(
            4.0,
            FaultKind::ServerThrottle {
                server: 0,
                factor: 0.1,
            },
        )]);
        cfg.recovery = RecoveryConfig::full();
        let r = EdgeSim::new(cluster, vec![s], cfg).unwrap().run();
        assert!(r.recovery.breaker_opens > 0, "{:?}", r.recovery);
        assert!(r.recovery.hedges > 0, "{:?}", r.recovery);
        assert!(r.server_utilization[1] > 0.0);
        assert_eq!(r.generated, r.accounted());
    }

    #[test]
    fn recovery_runs_are_deterministic() {
        let cluster = two_ap_cluster();
        let streams: Vec<CompiledStream> = (0..4)
            .map(|k| {
                let mut s = recoverable_stream(3.0);
                s.id = k;
                s.device = k;
                s.server = Some(k % 2);
                s.fallback_servers = vec![(k + 1) % 2];
                s.bandwidth_share = 0.5;
                s
            })
            .collect();
        let mut cfg = fault_cfg(
            FaultProfile {
                rate_hz: 0.8,
                ..FaultProfile::default()
            }
            .plan(4, 2, 2, 20.0)
            .events,
        );
        cfg.fading = true;
        cfg.recovery = RecoveryConfig::full();
        let r1 = EdgeSim::new(cluster.clone(), streams.clone(), cfg.clone())
            .unwrap()
            .run();
        let r2 = EdgeSim::new(cluster, streams, cfg).unwrap().run();
        assert_eq!(r1.completed, r2.completed);
        assert_eq!(r1.latency.mean, r2.latency.mean);
        assert_eq!(r1.recovery, r2.recovery);
        assert_eq!(r1.faults, r2.faults);
    }

    #[test]
    fn invalid_recovery_config_is_rejected_up_front() {
        let cluster = one_device_cluster();
        let s = no_exit_stream(1.0, 0.01, 1e9);
        let mut cfg = base_config();
        cfg.recovery = RecoveryConfig {
            hedge: true, // hedging needs breakers
            ..RecoveryConfig::none()
        };
        assert!(EdgeSim::new(cluster.clone(), vec![s.clone()], cfg).is_err());
        let mut s2 = s;
        s2.fallback_servers = vec![9];
        assert!(EdgeSim::new(cluster, vec![s2], base_config()).is_err());
    }

    #[test]
    fn fading_increases_latency_variance() {
        let cluster = one_device_cluster();
        // Transmission-dominated stream.
        let mut s = no_exit_stream(2.0, 0.001, 1e8);
        s.tx_bytes = 2e6;
        let mut on = base_config();
        on.fading = true;
        let mut off = base_config();
        off.fading = false;
        let r_on = EdgeSim::new(cluster.clone(), vec![s.clone()], on)
            .unwrap()
            .run();
        let r_off = EdgeSim::new(cluster, vec![s], off).unwrap().run();
        let spread_on = r_on.latency.p99 - r_on.latency.p50;
        let spread_off = r_off.latency.p99 - r_off.latency.p50;
        assert!(spread_on > spread_off, "{spread_on} vs {spread_off}");
    }
}
