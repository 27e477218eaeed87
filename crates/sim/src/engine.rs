//! Generic discrete-event queue with cancellation, built on a
//! two-level timing wheel.
//!
//! Events land in fixed-width time buckets (65.536 µs each, 4096
//! buckets ≈ 268 ms of look-ahead). Beyond the level-1 window, a
//! 256-slot level-2 ring parks entries per 268 ms span (≈ 68.7 s of
//! coverage); anything further out waits in a flat overflow list whose
//! minimum timestamp is maintained incrementally. Scheduling is O(1):
//! compute the bucket/slot index and push. Popping scans an occupancy
//! bitmap for the next non-empty bucket (64 buckets per word) and
//! extracts that bucket's minimum `(time, sequence)` entry, so delivery
//! order is *exactly* total order by `(at, seq)` — events at equal
//! timestamps pop in insertion order, which keeps simulations
//! deterministic without requiring `Ord` on the payload. Buckets hold
//! O(1) entries at typical event densities; the per-pop min-scan is
//! linear in bucket occupancy, so pathologically bursty schedules (many
//! thousands of events inside one 65 µs bucket) degrade to the naive
//! sorted-list cost within that bucket only.
//!
//! When the level-1 window drains, the wheel *rotates*: the level-1
//! window (always aligned to a 268 ms span boundary, so it covers
//! exactly one level-2 slot) advances to the earliest occupied level-2
//! slot and that slot's entries are re-bucketed — each entry is moved
//! O(1) times over its lifetime instead of being rescanned on every
//! rotation. Only when the overflow list holds the earliest pending
//! entry does a rotation sweep it (a *refill*), promoting the next
//! ≈ 68.7 s of entries into the ring at once; with sub-minute horizons
//! refills are rare even on drain-phase schedules that stretch far past
//! the horizon.
//!
//! Payloads are `Copy` and stored inline in arena nodes; buckets, the
//! level-2 ring, and the overflow list are intrusive singly-linked
//! lists of arena indices (bucket state is one flat `u32` head array),
//! so pushes, pops, and cross-level promotions are relinks of recycled
//! hot slots rather than copies into per-bucket vectors. Cancellable
//! events additionally carry a `(slot, stamp)` ticket into a stamp slab
//! so a cancelled entry can be recognized (and skipped) when the wheel
//! reaches it: [`EventQueue::schedule`] returns an [`EventKey`] for
//! [`EventQueue::cancel`], while [`EventQueue::post`] is the
//! fire-and-forget variant that skips the slab entirely. Cancelled
//! entries become tombstones that are swept, in time order, as the
//! cursor passes them — they occupy memory only until their timestamp.
//!
//! Time semantics are pinned for reproducibility: popping a tombstone
//! still advances `now` to its timestamp, and draining the queue leaves
//! `now` at the maximum time ever scheduled — exactly where the old
//! pop-every-stale-entry heap would have left it.

use crate::time::SimTime;

const NIL: u32 = u32::MAX;

/// log2 of the bucket width in nanoseconds: 2^16 ns ≈ 65.5 µs.
const SHIFT: u32 = 16;
/// Buckets per window (power of two). 4096 × 65.5 µs ≈ 268 ms.
const NB: usize = 4096;
/// Window span in nanoseconds.
const SPAN: u64 = (NB as u64) << SHIFT;
/// Occupancy-bitmap words (64 buckets per word).
const WORDS: usize = NB / 64;
/// Level-2 ring slots, each covering one whole level-1 window (SPAN
/// nanoseconds): 256 × 268 ms ≈ 68.7 s of second-level look-ahead.
const L2_SLOTS: usize = 256;
/// Level-2 occupancy-bitmap words.
const L2_WORDS: usize = L2_SLOTS / 64;

/// Handle to a scheduled event, returned by [`EventQueue::schedule`].
///
/// Keys are stamped: once the event fires or is cancelled, the key goes
/// stale and further [`EventQueue::cancel`] calls with it are no-ops.
/// `EventKey::NONE` is a key that never matches anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    slot: u32,
    stamp: u32,
}

impl EventKey {
    /// A key that refers to no event; cancelling it is a no-op.
    pub const NONE: EventKey = EventKey {
        slot: NIL,
        stamp: 0,
    };
}

impl Default for EventKey {
    fn default() -> Self {
        EventKey::NONE
    }
}

/// Arena node, totally ordered by `(at, seq)`. The payload rides
/// inline; `slot == NIL` marks a fire-and-forget entry with no
/// cancellation ticket. Nodes chain through `next` into whichever
/// bucket / ring-slot / overflow list currently owns them, so moving
/// an entry between wheel levels is an O(1) relink — never a copy.
#[derive(Clone, Copy)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// Arena index of the next node in the same list (`NIL` = end);
    /// doubles as the freelist link while the node is unallocated.
    next: u32,
    slot: u32,
    stamp: u32,
    event: E,
}

/// A future-event list with FIFO tie-breaking, O(1) scheduling and
/// cancellation, and amortized-O(1) pops.
///
/// All pending entries live in one contiguous node arena; the wheel's
/// buckets, the level-2 ring, and the overflow list are intrusive
/// singly-linked lists of arena indices. Bucket state is then a flat
/// 16 KiB `u32` head array instead of 4096 separate `Vec`s, and freed
/// node slots recycle LIFO, so the per-event footprint stays inside a
/// few hot cache lines at steady state.
pub struct EventQueue<E> {
    /// Node arena; `free_node` heads the freelist threaded via `next`.
    nodes: Vec<Node<E>>,
    free_node: u32,
    /// The wheel: `heads[b]` starts the list of entries whose timestamp
    /// falls in `[window_start + b·width, window_start + (b+1)·width)`.
    heads: Vec<u32>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Level-2 ring: slot `s & 255` lists the entries whose absolute
    /// span index `s = at / SPAN` lies in `W+1..=W+256`, where
    /// `W = window_start / SPAN` is the span the level-1 wheel covers.
    /// Exactly one absolute span maps to each ring index, so entries
    /// never need re-indexing as the window advances through the ring.
    l2_heads: Vec<u32>,
    /// One bit per ring slot: set iff the slot is non-empty.
    l2_occ: [u64; L2_WORDS],
    /// Entries beyond the ring horizon (unsorted list); swept into the
    /// ring/wheel when a rotation refills from them.
    of_head: u32,
    /// Minimum `at` (nanoseconds) over the overflow list; `u64::MAX`
    /// when it is empty. Maintained on push, recomputed on refill —
    /// cancellation leaves tombstones in place so it never decreases
    /// stale.
    overflow_min: u64,
    /// Nanosecond time of bucket 0, aligned to a SPAN boundary so the
    /// level-1 window covers exactly one level-2 span.
    window_start: u64,
    /// Lowest bucket index that may still be non-empty; buckets before
    /// the cursor are empty by construction (events cannot be scheduled
    /// before `now`, and `now` is inside the cursor's bucket).
    cursor: usize,
    /// Stamp slab for cancellable entries; an entry is live iff its
    /// stamp matches its slot's.
    stamps: Vec<u32>,
    free: Vec<u32>,
    seq: u64,
    now: SimTime,
    /// Maximum (clamped) time ever scheduled; `now` lands here on drain.
    max_at: SimTime,
    /// Pending non-cancelled entries (tombstones excluded).
    live: usize,
    scheduled: u64,
    delivered: u64,
    cancelled: u64,
    rotations: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free_node: NIL,
            heads: vec![NIL; NB],
            occupied: [0; WORDS],
            l2_heads: vec![NIL; L2_SLOTS],
            l2_occ: [0; L2_WORDS],
            of_head: NIL,
            overflow_min: u64::MAX,
            window_start: 0,
            cursor: 0,
            stamps: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            max_at: SimTime::ZERO,
            live: 0,
            scheduled: 0,
            delivered: 0,
            cancelled: 0,
            rotations: 0,
        }
    }

    /// Reset to the empty state at time zero, keeping allocations.
    pub fn reset(&mut self) {
        self.release_all();
        self.overflow_min = u64::MAX;
        self.window_start = 0;
        self.cursor = 0;
        self.stamps.clear();
        self.free.clear();
        self.seq = 0;
        self.now = SimTime::ZERO;
        self.max_at = SimTime::ZERO;
        self.live = 0;
        self.scheduled = 0;
        self.delivered = 0;
        self.cancelled = 0;
        self.rotations = 0;
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifetime count of `schedule`/`post` calls.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Lifetime count of events delivered by `pop`.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Lifetime count of successful cancellations.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Number of wheel rotations (overflow sweeps) performed.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Allocate an arena slot for a node, recycling from the freelist.
    #[inline]
    fn alloc_node(&mut self, node: Node<E>) -> u32 {
        if self.free_node != NIL {
            let idx = self.free_node;
            self.free_node = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    /// Return a node's arena slot to the freelist (LIFO, so the next
    /// alloc reuses cache-hot memory).
    #[inline]
    fn free_node(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free_node;
        self.free_node = idx;
    }

    /// Prepend arena node `idx` to level-1 bucket `b`.
    #[inline]
    fn link_bucket(&mut self, b: usize, idx: u32) {
        self.nodes[idx as usize].next = self.heads[b];
        self.heads[b] = idx;
        self.occupied[b >> 6] |= 1 << (b & 63);
    }

    /// Prepend arena node `idx` to level-2 ring slot `s`.
    #[inline]
    fn link_l2(&mut self, s: usize, idx: u32) {
        self.nodes[idx as usize].next = self.l2_heads[s];
        self.l2_heads[s] = idx;
        self.l2_occ[s >> 6] |= 1 << (s & 63);
    }

    #[inline]
    fn push_entry(&mut self, at: SimTime, slot: u32, stamp: u32, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        self.max_at = self.max_at.max(at);
        let idx = self.alloc_node(Node {
            at,
            seq: self.seq,
            next: NIL,
            slot,
            stamp,
            event,
        });
        self.seq += 1;
        self.scheduled += 1;
        self.live += 1;
        // `at ≥ now ≥ window_start` between pops (pop re-establishes it),
        // so the offset cannot underflow.
        let nanos = at.as_nanos();
        let off = nanos - self.window_start;
        if off < SPAN {
            let b = (off >> SHIFT) as usize;
            debug_assert!(b >= self.cursor, "scheduled behind the cursor");
            self.link_bucket(b, idx);
        } else {
            // `off ≥ SPAN` and the window is SPAN-aligned, so the
            // entry's span index strictly exceeds the window's.
            let span = nanos / SPAN;
            let w = self.window_start / SPAN;
            if span - w <= L2_SLOTS as u64 {
                self.link_l2((span as usize) & (L2_SLOTS - 1), idx);
            } else {
                self.overflow_min = self.overflow_min.min(nanos);
                self.nodes[idx as usize].next = self.of_head;
                self.of_head = idx;
            }
        }
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics in debug builds; in release it is clamped to
    /// `now` (the event fires immediately, preserving causality). Returns
    /// a key usable with [`cancel`](Self::cancel) until the event fires.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventKey {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.stamps.push(0);
                (self.stamps.len() - 1) as u32
            }
        };
        let stamp = self.stamps[slot as usize];
        self.push_entry(at, slot, stamp, event);
        EventKey { slot, stamp }
    }

    /// Fire-and-forget scheduling: same ordering semantics as
    /// [`schedule`](Self::schedule) but no cancellation ticket is
    /// allocated.
    pub fn post(&mut self, at: SimTime, event: E) {
        self.push_entry(at, NIL, 0, event);
    }

    /// Schedule `event` after `delay_s` seconds of simulated time.
    #[cfg(test)]
    fn schedule_in(&mut self, delay_s: f64, event: E) -> EventKey {
        let at = self.now.after_secs(delay_s);
        self.schedule(at, event)
    }

    /// Cancel a previously scheduled event. Returns `true` if the key was
    /// still live. The entry becomes a tombstone that the wheel sweeps
    /// (advancing the clock, delivering nothing) when its time comes.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if key.slot == NIL {
            return false;
        }
        let stamp = &mut self.stamps[key.slot as usize];
        if *stamp != key.stamp {
            return false;
        }
        *stamp = stamp.wrapping_add(1);
        self.free.push(key.slot);
        self.live -= 1;
        self.cancelled += 1;
        true
    }

    /// First non-empty bucket at or after the cursor, via the bitmap.
    #[inline]
    fn next_occupied(&self) -> Option<usize> {
        let mut w = self.cursor >> 6;
        let mut word = self.occupied[w] & (!0u64 << (self.cursor & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    /// First occupied level-2 ring slot in circular order starting at
    /// ring index `st`, or `None` when the ring is empty. Circular
    /// distance from `st` is monotone in absolute span, so the first
    /// hit is the earliest pending slot.
    #[inline]
    fn next_l2_index(&self, st: usize) -> Option<usize> {
        let w0 = st >> 6;
        let head = self.l2_occ[w0] & (!0u64 << (st & 63));
        if head != 0 {
            return Some((w0 << 6) + head.trailing_zeros() as usize);
        }
        for k in 1..L2_WORDS {
            let w = (w0 + k) & (L2_WORDS - 1);
            let word = self.l2_occ[w];
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        let tail = self.l2_occ[w0] & !(!0u64 << (st & 63));
        if tail != 0 {
            return Some((w0 << 6) + tail.trailing_zeros() as usize);
        }
        None
    }

    /// Earliest pending absolute span index in the level-2 ring.
    #[inline]
    fn next_l2_span(&self) -> Option<u64> {
        let w = self.window_start / SPAN;
        let base = w + 1;
        let st = (base as usize) & (L2_SLOTS - 1);
        let i = self.next_l2_index(st)?;
        // Unwrap the circular distance back into an absolute span.
        Some(base + ((i + L2_SLOTS - st) & (L2_SLOTS - 1)) as u64)
    }

    /// Move every entry of ring slot `i` into the level-1 wheel — an
    /// O(1) relink per entry, no copying. The caller has just advanced
    /// the window to that slot's span, so all offsets fit.
    fn drain_l2_slot(&mut self, i: usize) {
        let ws = self.window_start;
        let mut cur = self.l2_heads[i];
        self.l2_heads[i] = NIL;
        self.l2_occ[i >> 6] &= !(1 << (i & 63));
        while cur != NIL {
            let nxt = self.nodes[cur as usize].next;
            let off = self.nodes[cur as usize].at.as_nanos() - ws;
            debug_assert!(off < SPAN, "level-2 entry outside its span");
            self.link_bucket((off >> SHIFT) as usize, cur);
            cur = nxt;
        }
    }

    /// Advance the window to the earliest pending entry beyond it —
    /// the earliest occupied level-2 slot, or the overflow list when
    /// that holds something earlier (a *refill*, which sweeps the next
    /// ring-span's worth of overflow in). Only called when every
    /// level-1 bucket has been swept clean, so jumping the window
    /// forward cannot strand an in-window entry. `now` stays put — the
    /// very next delivery (or tombstone sweep) moves it to a timestamp
    /// at or past the new window start, before control returns to code
    /// that could schedule again.
    fn rotate(&mut self) {
        let s_l2 = self.next_l2_span().unwrap_or(u64::MAX);
        let s_of = if self.of_head == NIL {
            u64::MAX
        } else {
            self.overflow_min / SPAN
        };
        debug_assert!(
            s_l2 != u64::MAX || s_of != u64::MAX,
            "rotating an empty wheel"
        );
        self.rotations += 1;
        self.cursor = 0;
        if s_of <= s_l2 {
            // Refill: the overflow list holds the earliest pending
            // entry. Advance the window to its span and sweep every
            // overflow entry within ring reach into place.
            let w = s_of;
            self.window_start = w * SPAN;
            // The ring index the new window span maps to may still
            // hold that exact span's entries (pushed when the window
            // sat ≥ 256 spans back); they belong in level 1 now. Any
            // other occupied index already sits at its final ring
            // position for the new window.
            let i0 = (w as usize) & (L2_SLOTS - 1);
            if self.l2_occ[i0 >> 6] & (1 << (i0 & 63)) != 0 {
                self.drain_l2_slot(i0);
            }
            let mut new_min = u64::MAX;
            let mut keep = NIL; // rebuilt list of still-too-far entries
            let mut cur = self.of_head;
            while cur != NIL {
                let nxt = self.nodes[cur as usize].next;
                let nanos = self.nodes[cur as usize].at.as_nanos();
                let span = nanos / SPAN;
                if span - w <= L2_SLOTS as u64 {
                    if span == w {
                        let off = nanos - self.window_start;
                        self.link_bucket((off >> SHIFT) as usize, cur);
                    } else {
                        self.link_l2((span as usize) & (L2_SLOTS - 1), cur);
                    }
                } else {
                    new_min = new_min.min(nanos);
                    self.nodes[cur as usize].next = keep;
                    keep = cur;
                }
                cur = nxt;
            }
            self.of_head = keep;
            self.overflow_min = new_min;
        } else {
            // Ring drain: advance the window one occupied slot forward
            // and promote exactly that slot — each entry moves O(1)
            // times over its lifetime.
            self.window_start = s_l2 * SPAN;
            self.drain_l2_slot((s_l2 as usize) & (L2_SLOTS - 1));
        }
    }

    /// Drop every pending node: empty the arena wholesale (keeping its
    /// allocation) and reset all list heads and occupancy bitmaps.
    fn release_all(&mut self) {
        self.nodes.clear();
        self.free_node = NIL;
        for w in 0..WORDS {
            let mut word = self.occupied[w];
            while word != 0 {
                let b = (w << 6) + word.trailing_zeros() as usize;
                self.heads[b] = NIL;
                word &= word - 1;
            }
            self.occupied[w] = 0;
        }
        for w in 0..L2_WORDS {
            let mut word = self.l2_occ[w];
            while word != 0 {
                let s = (w << 6) + word.trailing_zeros() as usize;
                self.l2_heads[s] = NIL;
                word &= word - 1;
            }
            self.l2_occ[w] = 0;
        }
        self.of_head = NIL;
    }

    /// Drop every remaining tombstone and realign the (empty) wheel to
    /// `now`, so the next schedule starts from a clean window.
    fn purge(&mut self) {
        self.release_all();
        self.overflow_min = u64::MAX;
        self.window_start = (self.now.as_nanos() / SPAN) * SPAN;
        self.cursor = 0;
    }

    /// Pop the next live event, advancing `now`. `None` when drained.
    ///
    /// Tombstones encountered on the way still advance `now` to their
    /// timestamps, and draining leaves `now` at the maximum scheduled
    /// time — matching the legacy queue, where stale entries were popped
    /// (advancing the clock) and discarded by the caller.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.live == 0 {
                // Drained: land the clock where the legacy queue would
                // have after popping the trailing tombstones.
                self.now = self.now.max(self.max_at);
                self.purge();
                return None;
            }
            let Some(b) = self.next_occupied() else {
                self.rotate();
                continue;
            };
            self.cursor = b;
            // The bucket's minimum (at, seq) is the global minimum:
            // earlier buckets are empty and later ones hold later times.
            let head = self.heads[b];
            let mut best = head;
            let mut best_prev = NIL;
            let mut prev = head;
            let mut cur = self.nodes[head as usize].next;
            while cur != NIL {
                let c = &self.nodes[cur as usize];
                let m = &self.nodes[best as usize];
                if (c.at, c.seq) < (m.at, m.seq) {
                    best = cur;
                    best_prev = prev;
                }
                prev = cur;
                cur = c.next;
            }
            let node = self.nodes[best as usize];
            if best_prev == NIL {
                self.heads[b] = node.next;
                if node.next == NIL {
                    self.occupied[b >> 6] &= !(1 << (b & 63));
                }
            } else {
                self.nodes[best_prev as usize].next = node.next;
            }
            self.free_node(best);
            debug_assert!(node.at >= self.now, "time went backwards");
            self.now = node.at;
            if node.slot != NIL {
                let stamp = &mut self.stamps[node.slot as usize];
                if *stamp != node.stamp {
                    continue; // tombstone: clock advanced, payload long gone
                }
                *stamp = stamp.wrapping_add(1);
                self.free.push(node.slot);
            }
            self.live -= 1;
            self.delivered += 1;
            return Some((node.at, node.event));
        }
    }

    /// Peek at the next entry's time without popping. Tombstones count:
    /// this is the earliest timestamp the clock could advance to.
    pub fn next_time(&self) -> Option<SimTime> {
        if let Some(b) = self.next_occupied() {
            // Min over one bucket: entries in later buckets are later,
            // and everything in level 2 / overflow is later still.
            return self.list_min_at(self.heads[b]).map(SimTime::from_nanos);
        }
        let l2_min = self
            .next_l2_span()
            .and_then(|s| self.list_min_at(self.l2_heads[(s as usize) & (L2_SLOTS - 1)]))
            .unwrap_or(u64::MAX);
        let min = l2_min.min(self.overflow_min);
        (min != u64::MAX).then(|| SimTime::from_nanos(min))
    }

    /// Minimum timestamp (nanoseconds) over one intrusive list.
    fn list_min_at(&self, head: u32) -> Option<u64> {
        let mut min = u64::MAX;
        let mut cur = head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            min = min.min(n.at.as_nanos());
            cur = n.next;
        }
        (min != u64::MAX).then_some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn posted_events_interleave_with_scheduled_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, 0);
        q.post(t, 1);
        q.schedule(t, 2);
        q.post(t, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn order_holds_across_buckets_and_windows() {
        // Spread entries well past one 268 ms window so both the bucket
        // walk and the overflow rotation paths are exercised.
        let mut q = EventQueue::new();
        let step = 1_000_000u64; // 1 ms: distinct buckets
        for i in 0..1000u64 {
            // Insertion order deliberately scrambled relative to time.
            let t = (997 * i) % 1000;
            q.schedule(SimTime::from_nanos(t * step), t);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
        assert!(q.rotations() > 0, "1 s of spread must rotate the wheel");
    }

    #[test]
    fn order_holds_across_ring_and_overflow() {
        // Spread entries over ~5 minutes — far past the ≈68.7 s level-2
        // ring — so ring drains *and* overflow refills both exercise.
        let mut q = EventQueue::new();
        let step = 300_000_000u64; // 300 ms: distinct ring spans
        for i in 0..1000u64 {
            let t = (997 * i) % 1000;
            q.schedule(SimTime::from_nanos(t * step), t);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
        assert!(q.rotations() > 0, "5 min of spread must rotate the wheel");
    }

    #[test]
    fn late_pushes_interleave_with_parked_levels() {
        // An entry parked deep in overflow must still come out after
        // nearer entries pushed later, and before later-time ones.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(200.0), 3u32); // overflow
        q.schedule(SimTime::from_secs_f64(10.0), 1); // ring
        q.pop(); // t = 10 s; window advances near the ring slot
        q.schedule(SimTime::from_secs_f64(150.0), 2); // overflow again
        q.schedule(SimTime::from_secs_f64(300.0), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [2, 3, 4]);
    }

    #[test]
    fn next_time_sees_ring_and_overflow() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(100.0), ()); // overflow
        q.schedule(SimTime::from_secs_f64(10.0), ()); // level-2 ring
        assert_eq!(q.next_time(), Some(SimTime::from_secs_f64(10.0)));
        q.pop();
        assert_eq!(q.next_time(), Some(SimTime::from_secs_f64(100.0)));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(1.0, ());
        q.schedule_in(2.0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs_f64(1.0));
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs_f64(2.0));
        assert!(q.is_empty());
    }

    #[test]
    fn relative_scheduling_stacks_on_now() {
        let mut q = EventQueue::new();
        q.schedule_in(1.0, "first");
        q.pop();
        q.schedule_in(0.5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(1.5));
    }

    #[test]
    fn next_time_peeks() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(42)));
        assert_eq!(q.len(), 1);
        // Far-future (overflow) entries are visible to peeks too.
        q.pop();
        q.schedule(SimTime::from_secs_f64(5.0), ());
        assert_eq!(q.next_time(), Some(SimTime::from_secs_f64(5.0)));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_scheduling_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), "a");
        q.pop();
        q.schedule(SimTime::from_nanos(50), "late");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_nanos(100));
    }

    #[test]
    fn cancel_removes_an_event_and_goes_stale() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "second cancel of the same key is a no-op");
        assert_eq!(q.len(), 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["b"]);
    }

    #[test]
    fn cancel_after_fire_is_a_no_op_even_with_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // "b" reuses a's slot; the stale key must not kill it.
        q.schedule(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn cancelled_entries_still_advance_the_clock() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        q.cancel(a);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(20), "b"));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_nanos(20));
    }

    #[test]
    fn drain_lands_now_on_max_scheduled_even_after_cancellation() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        let late = q.schedule(SimTime::from_nanos(99), "late");
        q.cancel(late);
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        assert!(q.pop().is_none());
        // The legacy queue would have popped the stale entry at t=99.
        assert_eq!(q.now(), SimTime::from_nanos(99));
    }

    #[test]
    fn heavy_cancellation_leaves_survivors_in_order() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..400u64 {
            keys.push(q.schedule(SimTime::from_nanos(1000 - i), i));
        }
        for (i, k) in keys.iter().enumerate() {
            if i % 2 == 1 {
                q.cancel(*k);
            }
        }
        assert_eq!(q.len(), 200);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expected: Vec<u64> = (0..400).rev().filter(|i| i % 2 == 0).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn queue_is_reusable_after_drain() {
        // Tombstones left behind at drain time must not haunt the next
        // use of the same queue (the wheel purges and realigns on drain).
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_secs_f64(1.0), "stale");
        q.schedule(SimTime::from_secs_f64(2.0), "x");
        q.cancel(k);
        assert_eq!(q.pop().map(|(_, e)| e), Some("x"));
        assert!(q.pop().is_none());
        q.schedule_in(1.0, "fresh");
        assert_eq!(q.pop().map(|(_, e)| e), Some("fresh"));
        assert_eq!(q.now(), SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn reset_clears_state_and_counters() {
        let mut q = EventQueue::new();
        let k = q.schedule(SimTime::from_nanos(5), 1);
        q.cancel(k);
        q.schedule(SimTime::from_nanos(7), 2);
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.scheduled(), 0);
        assert_eq!(q.delivered(), 0);
        assert_eq!(q.cancelled(), 0);
        assert_eq!(q.rotations(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::ZERO, "max_at must reset too");
    }
}
