//! The time-ordered event queue at the heart of the simulator.
//!
//! Layout: a 128-slot timing wheel absorbs the near future — in this
//! simulator almost every event schedules a handful of cycles out (DRAM
//! access 14, PP handler occupancies, per-hop mesh latencies) — and a
//! binary heap catches the overflow (far-future events such as watchdog
//! budgets and DMA arrivals). Delivery order is identical to a plain heap
//! keyed by `(time, push sequence)`: nondecreasing time, FIFO within a
//! cycle. A push behind the wheel's window base also goes to the heap and
//! is still delivered in order. The machine never makes one, because its
//! events push only at or after their own time, but the queue stays
//! general.

use crate::time::Cycle;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Default number of slots in the near-future wheel. Power of two so the
/// slot-index math stays branch-free. Sized for small meshes; callers
/// whose steady-state scheduling distances exceed it (large-mesh transit
/// latencies) should size the wheel with [`EventQueue::with_horizon`] so
/// routine traffic does not degrade to the overflow heap.
const WHEEL_SLOTS: usize = 128;

/// A deterministic discrete-event queue.
///
/// Events are delivered in nondecreasing time order; events scheduled for
/// the same cycle are delivered in the order they were pushed (FIFO), which
/// makes simulations reproducible regardless of container internals.
///
/// # Examples
///
/// ```
/// use flash_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(3), 'b');
/// q.push(Cycle::new(3), 'c'); // same time: FIFO after 'b'
/// q.push(Cycle::new(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Near-future buckets. Slot `t & mask` holds the events for
    /// absolute time `t` while `t` lies in `[cursor, cursor + slots.len())`;
    /// within the window each slot maps to exactly one absolute time, so
    /// entries store only their FIFO sequence number.
    slots: Vec<VecDeque<(u64, E)>>,
    /// Slot-index mask: `slots.len() - 1` (the length is a power of two).
    mask: u64,
    /// Occupancy bitmap, one bit per slot: bit `i` of word `i / 64` is
    /// set iff `slots[i]` is non-empty.
    occupied: Vec<u64>,
    /// Number of events currently resident in the wheel.
    wheel_len: usize,
    /// Base of the wheel window: the time of the most recently delivered
    /// event. Monotonically nondecreasing, so no resident wheel event is
    /// ever behind it.
    cursor: u64,
    /// Far-future (and, defensively, behind-the-window) overflow.
    heap: BinaryHeap<Entry<E>>,
    /// Total pushes ever; doubles as the next FIFO sequence number.
    seq: u64,
    /// Pushes routed to the wheel (health statistic: a healthy steady
    /// state keeps almost every push out of the overflow heap).
    wheel_pushes: u64,
    /// Pushes routed to the overflow heap.
    heap_pushes: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default 128-slot wheel.
    pub fn new() -> Self {
        Self::with_horizon(WHEEL_SLOTS as u64)
    }

    /// Creates an empty queue whose wheel spans at least `horizon` cycles
    /// ahead of the cursor (rounded up to a power of two, minimum 128).
    /// Size the horizon to the workload's longest *routine* scheduling
    /// distance — e.g. the worst-case mesh transit latency — so only the
    /// rare genuinely far-future event (watchdog budgets, DMA arrivals)
    /// pays for the overflow heap.
    pub fn with_horizon(horizon: u64) -> Self {
        let n = horizon.max(WHEEL_SLOTS as u64).next_power_of_two() as usize;
        EventQueue {
            slots: (0..n).map(|_| VecDeque::new()).collect(),
            mask: n as u64 - 1,
            occupied: vec![0u64; n / 64],
            wheel_len: 0,
            cursor: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            wheel_pushes: 0,
            heap_pushes: 0,
        }
    }

    /// Schedules `ev` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Cycle, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(at, seq, ev);
    }

    /// Schedules `ev` at `at` under an explicit within-cycle ordering key
    /// `sub` instead of the internal FIFO sequence number. Delivery order
    /// is `(time, sub)` ascending; `sub` values sharing a cycle must be
    /// distinct for the order to be total. The machine derives `sub`
    /// from `(origin node, per-origin sequence)`, so every event has a
    /// globally unique key.
    #[inline]
    pub fn push_sub(&mut self, at: Cycle, sub: u64, ev: E) {
        self.seq += 1;
        self.insert(at, sub, ev);
    }

    #[inline]
    fn insert(&mut self, at: Cycle, sub: u64, ev: E) {
        let t = at.raw();
        if t >= self.cursor && t - self.cursor < self.slots.len() as u64 {
            let slot = (t & self.mask) as usize;
            let q = &mut self.slots[slot];
            // Keep each slot sorted by `sub`. Plain pushes use the
            // monotone sequence counter, so this lands at the back in
            // O(log n); explicit subs may interleave arbitrarily.
            let i = q.partition_point(|&(s, _)| s <= sub);
            q.insert(i, (sub, ev));
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
            self.wheel_len += 1;
            self.wheel_pushes += 1;
        } else {
            self.heap.push(Entry { at, seq: sub, ev });
            self.heap_pushes += 1;
        }
    }

    /// `(time, seq)` of the earliest wheel-resident event, if any.
    /// Scans the occupancy bitmap circularly from the cursor's slot:
    /// O(slots / 64) words in the worst case, one `trailing_zeros` per
    /// word — for the default 128-slot wheel that is two words.
    #[inline]
    fn wheel_front(&self) -> Option<(u64, u64)> {
        if self.wheel_len == 0 {
            return None;
        }
        let words = self.occupied.len();
        let start = (self.cursor & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let mut found = None;
        // Word `sw` is visited twice: first masked to bits `sb..`, then
        // (after wrapping) masked to bits `..sb`.
        for i in 0..=words {
            let wi = (sw + i) % words;
            let mut w = self.occupied[wi];
            if i == 0 {
                w &= !0u64 << sb;
            } else if i == words {
                w &= (1u64 << sb) - 1;
            }
            if w != 0 {
                found = Some(wi * 64 + w.trailing_zeros() as usize);
                break;
            }
        }
        let slot = found.expect("wheel_len > 0 with an empty occupancy bitmap");
        let offset = (slot as u64).wrapping_sub(start as u64) & self.mask;
        let t = self.cursor + offset;
        let seq = self.slots[slot]
            .front()
            .expect("occupancy bit set on empty slot")
            .0;
        Some((t, seq))
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_keyed().map(|(t, _, ev)| (t, ev))
    }

    /// Removes and returns the earliest event along with its within-cycle
    /// ordering key (the FIFO sequence for [`EventQueue::push`], the
    /// explicit `sub` for [`EventQueue::push_sub`]). The machine uses the
    /// key to re-push a deferred event unchanged.
    pub fn pop_keyed(&mut self) -> Option<(Cycle, u64, E)> {
        let wheel = self.wheel_front();
        let heap = self.heap.peek().map(|e| (e.at.raw(), e.seq));
        let take_wheel = match (wheel, heap) {
            (Some(w), Some(h)) => w <= h,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_wheel {
            let (t, _) = wheel.expect("chosen wheel front");
            let slot = (t & self.mask) as usize;
            let (sub, ev) = self.slots[slot].pop_front().expect("wheel front vanished");
            if self.slots[slot].is_empty() {
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            }
            self.wheel_len -= 1;
            self.cursor = self.cursor.max(t);
            Some((Cycle::new(t), sub, ev))
        } else {
            let e = self.heap.pop().expect("heap peeked non-empty");
            self.cursor = self.cursor.max(e.at.raw());
            Some((e.at, e.seq, e.ev))
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel = self.wheel_front();
        let heap = self.heap.peek().map(|e| (e.at.raw(), e.seq));
        match (wheel, heap) {
            (Some(w), Some(h)) => Some(Cycle::new(w.min(h).0)),
            (Some((t, _)), None) | (None, Some((t, _))) => Some(Cycle::new(t)),
            (None, None) => None,
        }
    }

    /// `(time, key)` of the earliest pending event — the full ordering
    /// key [`EventQueue::pop_keyed`] would return, without popping.
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        let wheel = self.wheel_front();
        let heap = self.heap.peek().map(|e| (e.at.raw(), e.seq));
        match (wheel, heap) {
            (Some(w), Some(h)) => {
                let (t, s) = w.min(h);
                Some((Cycle::new(t), s))
            }
            (Some((t, s)), None) | (None, Some((t, s))) => Some((Cycle::new(t), s)),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (for throughput statistics).
    pub fn total_pushed(&self) -> u64 {
        self.seq
    }

    /// Pushes that landed in the near-future wheel vs. the overflow heap,
    /// ever. A healthy steady state routes almost everything through the
    /// wheel; a large heap share means the 128-slot window is too small
    /// for the workload's scheduling distances.
    pub fn push_routing(&self) -> (u64, u64) {
        (self.wheel_pushes, self.heap_pushes)
    }

    /// Visits every pending event as `(time, &event)` in unspecified
    /// order (wedge diagnostics: per-node occupancy counts, suspect-line
    /// harvesting). O(pending); never perturbs delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (Cycle, &E)> {
        let cursor = self.cursor;
        let mask = self.mask;
        let wheel = self.slots.iter().enumerate().flat_map(move |(s, q)| {
            // The absolute time of slot `s` within the current window
            // `[cursor, cursor + slots.len())`.
            let offset = (s as u64).wrapping_sub(cursor) & mask;
            let t = Cycle::new(cursor + offset);
            q.iter().map(move |(_, e)| (t, e))
        });
        wheel.chain(self.heap.iter().map(|e| (e.at, &e.ev)))
    }

    /// Drops every pending event, resetting the wheel window to time
    /// zero. `total_pushed()` is preserved.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
        self.occupied.fill(0);
        self.wheel_len = 0;
        self.cursor = 0;
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(Cycle, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (Cycle, E)>>(&mut self, iter: I) {
        for (at, ev) in iter {
            self.push(at, ev);
        }
    }
}

impl<E> FromIterator<(Cycle, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (Cycle, E)>>(iter: I) -> Self {
        let mut q = Self::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(5), 2);
        q.push(Cycle::new(7), 3);
        assert_eq!(q.pop(), Some((Cycle::new(5), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(7), 3)));
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(42), i)));
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(3), ());
        q.push(Cycle::new(1), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(1), 'a');
        q.push(Cycle::new(4), 'd');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(Cycle::new(2), 'b');
        q.push(Cycle::new(3), 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
    }

    #[test]
    fn wheel_and_heap_interleave_at_the_same_cycle() {
        // Far-future pushes land in the heap; once the cursor catches up,
        // same-cycle pushes land in the wheel with later sequence
        // numbers. FIFO order across the two containers must hold.
        let mut q = EventQueue::new();
        q.push(Cycle::new(1_000), "heap-first"); // > 128 out: heap
        q.push(Cycle::new(1), "warm");
        assert_eq!(q.pop().unwrap().1, "warm"); // cursor -> 1
        q.push(Cycle::new(999), "heap-too"); // still > cursor+128
        assert_eq!(q.pop().unwrap().1, "heap-too"); // cursor -> 999
        q.push(Cycle::new(1_000), "wheel-second"); // in window now
        assert_eq!(q.pop().unwrap().1, "heap-first");
        assert_eq!(q.pop().unwrap().1, "wheel-second");
        assert!(q.is_empty());
    }

    #[test]
    fn window_boundary_routing() {
        let mut q = EventQueue::new();
        // Exactly the last wheel slot vs first heap time.
        q.push(Cycle::new(127), 'w');
        q.push(Cycle::new(128), 'h');
        assert_eq!(q.wheel_len, 1);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some((Cycle::new(127), 'w')));
        assert_eq!(q.pop(), Some((Cycle::new(128), 'h')));
    }

    #[test]
    fn push_behind_cursor_still_delivers() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(50), 'a');
        assert_eq!(q.pop().unwrap().1, 'a'); // cursor -> 50
                                             // Behind the window base: routed to the heap, still delivered
                                             // before later events.
        q.push(Cycle::new(10), 'b');
        q.push(Cycle::new(51), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(10), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(51), 'c')));
    }

    #[test]
    fn clear_and_extend() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 1);
        q.push(Cycle::new(500), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2, "clear keeps the push statistic");
        q.extend([
            (Cycle::new(3), 30),
            (Cycle::new(2), 20),
            (Cycle::new(2), 21),
        ]);
        assert_eq!(q.total_pushed(), 5);
        assert_eq!(q.pop(), Some((Cycle::new(2), 20)));
        assert_eq!(q.pop(), Some((Cycle::new(2), 21)));
        assert_eq!(q.pop(), Some((Cycle::new(3), 30)));
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u32> = [(Cycle::new(9), 9), (Cycle::new(4), 4)]
            .into_iter()
            .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle::new(4)));
    }

    #[test]
    fn push_at_exactly_now_lands_in_wheel() {
        // `t == cursor` is the first slot of the window, not "behind" it:
        // a handler scheduling a zero-latency follow-up at the current
        // cycle must ride the wheel and fire before anything later.
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 'a');
        assert_eq!(q.pop().unwrap().1, 'a'); // cursor -> 30
        q.push(Cycle::new(31), 'c');
        q.push(Cycle::new(30), 'b'); // exactly at the cursor
        assert_eq!(q.heap.len(), 0, "t == cursor belongs to the wheel");
        assert_eq!(q.pop(), Some((Cycle::new(30), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(31), 'c')));
    }

    #[test]
    fn horizon_tracks_the_cursor() {
        // The 128-slot window is relative to the *cursor*, not to time
        // zero: after delivery advances the base, `cursor + 127` is the
        // last wheel-resident time and `cursor + 128` overflows.
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), 'a');
        assert_eq!(q.pop().unwrap().1, 'a'); // cursor -> 5
        q.push(Cycle::new(5 + 127), 'w');
        q.push(Cycle::new(5 + 128), 'h');
        assert_eq!(q.wheel_len, 1);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some((Cycle::new(132), 'w')));
        assert_eq!(q.pop(), Some((Cycle::new(133), 'h')));
        assert!(q.is_empty());
    }

    #[test]
    fn heap_reentry_preserves_fifo_seq() {
        // Events for one cycle split across the heap (pushed while the
        // cycle was beyond the horizon: early sequence numbers) and the
        // wheel (pushed after the window caught up: later ones). Global
        // delivery must still follow push order within the cycle.
        let mut q = EventQueue::new();
        q.push(Cycle::new(200), 0); // heap, seq 0
        q.push(Cycle::new(200), 1); // heap, seq 1
        q.push(Cycle::new(90), 9);
        assert_eq!(q.pop().unwrap().1, 9); // cursor -> 90; 200 now in window
        q.push(Cycle::new(200), 2); // wheel, seq 3
        q.push(Cycle::new(200), 3); // wheel, seq 4
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.wheel_len, 2);
        for want in 0..4 {
            assert_eq!(q.pop(), Some((Cycle::new(200), want)));
        }
    }

    #[test]
    fn randomized_differential_against_sorted_reference() {
        // Drive the wheel+heap queue and a naive (time, seq)-sorted list
        // with an identical mixed workload — pushes at exactly `now`,
        // behind the cursor, at both sides of the 128-cycle horizon, and
        // far future — and demand identical delivery.
        use crate::DetRng;
        for stream in 0..4u64 {
            let mut rng = DetRng::for_stream(0xE7E77, stream);
            let mut q = EventQueue::new();
            let mut reference: Vec<(u64, u64)> = Vec::new(); // (t, seq)
            let mut seq = 0u64;
            let mut now = 0u64;
            let pop_both =
                |q: &mut EventQueue<u64>, reference: &mut Vec<(u64, u64)>, now: &mut u64| {
                    let (t, id) = q.pop().expect("queue non-empty");
                    *now = t.raw();
                    let i = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &e)| e)
                        .expect("reference non-empty")
                        .0;
                    let (rt, rid) = reference.remove(i);
                    assert_eq!((t.raw(), id), (rt, rid), "stream {stream}");
                };
            for _ in 0..2000 {
                if !q.is_empty() && rng.chance(0.45) {
                    pop_both(&mut q, &mut reference, &mut now);
                } else {
                    let t = match rng.below(6) {
                        0 => now,
                        1 => now.saturating_sub(rng.below(20)),
                        2 => now + 127,
                        3 => now + 128,
                        4 => now + rng.below(127),
                        _ => now + 128 + rng.below(1000),
                    };
                    q.push(Cycle::new(t), seq);
                    reference.push((t, seq));
                    seq += 1;
                }
            }
            while !q.is_empty() {
                pop_both(&mut q, &mut reference, &mut now);
            }
            assert!(reference.is_empty(), "stream {stream}");
        }
    }

    #[test]
    fn iter_visits_wheel_and_heap_with_correct_times() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(40), 'a');
        assert_eq!(q.pop().unwrap().1, 'a'); // cursor -> 40
        q.push(Cycle::new(41), 'w'); // wheel
        q.push(Cycle::new(40 + 127), 'x'); // wheel, last slot
        q.push(Cycle::new(40 + 500), 'h'); // heap
        let mut seen: Vec<(u64, char)> = q.iter().map(|(t, &e)| (t.raw(), e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![(41, 'w'), (167, 'x'), (540, 'h')]);
        // Iteration never disturbs delivery.
        assert_eq!(q.pop(), Some((Cycle::new(41), 'w')));
        assert_eq!(q.pop(), Some((Cycle::new(167), 'x')));
        assert_eq!(q.pop(), Some((Cycle::new(540), 'h')));
        assert!(q.iter().next().is_none());
    }

    #[test]
    fn push_sub_orders_within_a_cycle_regardless_of_push_order() {
        let mut q = EventQueue::new();
        q.push_sub(Cycle::new(10), 30, 'c');
        q.push_sub(Cycle::new(10), 10, 'a');
        q.push_sub(Cycle::new(10), 20, 'b');
        q.push_sub(Cycle::new(5), 99, 'z');
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5), 99, 'z')));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(10), 10, 'a')));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(10), 20, 'b')));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(10), 30, 'c')));
        assert_eq!(q.pop_keyed(), None);
        assert_eq!(q.total_pushed(), 4);
    }

    #[test]
    fn push_sub_orders_across_wheel_and_heap() {
        // Subs must order a cycle's events even when some entered via the
        // far-future heap and others via the wheel after the window
        // caught up.
        let mut q = EventQueue::new();
        q.push_sub(Cycle::new(500), 7, "late-sub"); // heap
        q.push_sub(Cycle::new(400), 1, "warm"); // heap
        assert_eq!(q.pop().unwrap().1, "warm"); // cursor -> 400
        q.push_sub(Cycle::new(500), 3, "early-sub"); // wheel now
        assert_eq!(q.pop_keyed(), Some((Cycle::new(500), 3, "early-sub")));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(500), 7, "late-sub")));
    }

    #[test]
    fn push_routing_counts_wheel_and_heap() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(3), ());
        q.push(Cycle::new(100), ());
        q.push(Cycle::new(1_000), ());
        assert_eq!(q.push_routing(), (2, 1));
    }

    #[test]
    fn with_horizon_rounds_up_and_widens_the_window() {
        // 300-cycle horizon -> 512 slots: a push 300 cycles out rides the
        // wheel; the default 128-slot queue would have sent it to the heap.
        let mut q = EventQueue::with_horizon(300);
        assert_eq!(q.slots.len(), 512);
        assert_eq!(q.occupied.len(), 8);
        q.push(Cycle::new(300), 'w');
        q.push(Cycle::new(512), 'h'); // first time past the widened window
        assert_eq!(q.push_routing(), (1, 1));
        assert_eq!(q.pop(), Some((Cycle::new(300), 'w')));
        assert_eq!(q.pop(), Some((Cycle::new(512), 'h')));
    }

    #[test]
    fn sized_wheel_matches_default_delivery_order() {
        // Differential: identical mixed pushes through the 128-slot and a
        // 1024-slot queue must deliver identically — the wheel size is a
        // routing detail, never an ordering one.
        use crate::DetRng;
        let mut rng = DetRng::for_stream(0x5CA1E, 0);
        let mut small = EventQueue::new();
        let mut big = EventQueue::with_horizon(1024);
        let mut now = 0u64;
        for seq in 0..3000u64 {
            if rng.chance(0.4) && !small.is_empty() {
                let a = small.pop().unwrap();
                let b = big.pop().unwrap();
                assert_eq!(a, b);
                now = a.0.raw();
            } else {
                let t = now + rng.below(2000);
                small.push(Cycle::new(t), seq);
                big.push(Cycle::new(t), seq);
            }
        }
        while let Some(a) = small.pop() {
            assert_eq!(Some(a), big.pop());
        }
        assert!(big.is_empty());
    }

    #[test]
    fn long_monotone_stream_stays_in_wheel() {
        // The steady-state pattern of the simulator: pop at t, push a few
        // events a handful of cycles out. Everything should ride the
        // wheel (the heap stays empty).
        let mut q = EventQueue::new();
        q.push(Cycle::new(0), 0u64);
        let mut delivered = Vec::new();
        while let Some((t, v)) = q.pop() {
            delivered.push((t.raw(), v));
            if v < 300 {
                q.push(t + 14, v + 1); // DRAM-ish
                assert_eq!(q.heap.len(), 0, "near-future push leaked to heap");
            }
        }
        assert_eq!(delivered.len(), 301);
        assert!(delivered.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
