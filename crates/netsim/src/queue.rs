//! The event scheduler.
//!
//! Items pushed with a [`SimTime`] pop back in `(time, tie-break key)`
//! order. [`CalendarQueue`] is what the simulator runs on (Brown, CACM
//! 1988): time is hashed into a power-of-two ring of buckets of fixed
//! width, so a push is `O(1)` ring insertion and a pop only ever sorts the
//! one bucket the clock currently points at. Discrete-event traffic is
//! heavily clustered around "now" (link transmit delays, sub-second
//! latencies, short timers), which keeps buckets small; events beyond the
//! ring's horizon go to an overflow heap and are pulled forward as the
//! cursor reaches them, so far-future timers stay cheap too.
//!
//! Beside the ring sits an occupancy bitmap, one bit per slot, set while
//! the slot holds entries. The cursor never walks: it jumps straight to
//! the next set bit, so a sparse stretch of simulated time (a month of a
//! few events a minute) costs one move per occupied bucket, not one per
//! 32.8 ms of empty time.
//!
//! A bucket's buffer does not stay in its slot once the cursor has drained
//! and left it: it goes onto a spare stack, and the next slot that needs a
//! buffer takes it from there. The queue therefore holds at most one
//! buffer per simultaneously non-empty bucket, plus the cursor's, so what
//! it retains follows the work queued, not the ring's size. A buffer is
//! moved, never freed: the cursor leaves millions of buckets a sim-day.
//!
//! The original scheduler, a `BinaryHeap` over `(time, seq)` at `O(log n)`
//! per operation, lives on only in the tests below (`HeapQueue`), as the
//! ordering oracle the calendar queue is checked against.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A choice with one option: the simulator always runs on the calendar
/// queue. The enum survives only because `benchmark/src/workloads.rs` sets
/// the scenarios' `scheduler` fields to it; goes in the next `[benchmark]`
/// PR (ROADMAP item 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The bucketed calendar queue.
    Calendar,
}

/// Log2 of the bucket width in microseconds: 2^15 µs ≈ 32.8 ms per bucket.
/// Chosen to bracket the simulated latency floor (20 ms) so consecutive
/// deliveries land in the current or next few buckets.
const BUCKET_SHIFT: u32 = 15;
/// Number of buckets in the ring (power of two). Horizon =
/// `BUCKETS << BUCKET_SHIFT` ≈ 134 simulated seconds; anything further out
/// waits in the overflow heap.
const BUCKETS: usize = 4096;
/// Words of the occupancy bitmap, one bit per ring slot.
const WORDS: usize = BUCKETS / 64;

pub(crate) struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: std's BinaryHeap is a max-heap, we want the min first.
        other.key().cmp(&self.key())
    }
}

/// The scheduler interface the simulator, the test oracle and the
/// benchmark's queue probe share.
pub trait Scheduler<T> {
    /// Enqueues `item` at `time`. Items at equal times dequeue in push
    /// order.
    fn push(&mut self, time: SimTime, item: T);
    /// Enqueues `item` at `time` under an explicit tie-break key instead of
    /// the auto-assigned insertion sequence: equal-time items dequeue in
    /// ascending `seq` order regardless of push order. The simulator
    /// derives `seq` from `(source node, per-source counter)` so the
    /// dispatch order is a pure function of the event set, not of which
    /// lane pushed first. Do not mix with [`Scheduler::push`] on the same
    /// queue — the auto sequence would collide with caller keys.
    fn push_keyed(&mut self, time: SimTime, seq: u64, item: T);
    /// Removes and returns the earliest item.
    fn pop(&mut self) -> Option<(SimTime, T)>;
    /// Like [`Scheduler::pop`], but also returns the item's tie-break key.
    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)>;
    /// The timestamp [`Scheduler::pop`] would return next. Takes `&mut
    /// self` so implementations may reorganise lazily.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of queued items.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bucketed calendar queue with an overflow heap for far-future events.
///
/// Invariant: every entry in the ring lives in the slot of its *absolute*
/// bucket index (`time >> BUCKET_SHIFT`), and that index is within
/// `[cursor, cursor + BUCKETS)`. Entries at or past the horizon sit in
/// `overflow` and are migrated into the ring as the cursor advances.
/// Because the ring is indexed modulo `BUCKETS`, every entry found in slot
/// `cursor % BUCKETS` is known to belong to bucket `cursor` exactly. Bit
/// `slot` of `occupied` is set exactly when `ring[slot]` is non-empty.
pub struct CalendarQueue<T> {
    ring: Vec<Vec<Entry<T>>>,
    occupied: [u64; WORDS],
    /// Empty buffers of buckets the cursor has drained and left, handed to
    /// the next slot that needs one.
    spare: Vec<Vec<Entry<T>>>,
    /// Absolute index of the earliest bucket that may hold entries.
    cursor: u64,
    /// Whether the current bucket is sorted descending by `(time, seq)`
    /// (popped from the back).
    sorted: bool,
    /// Entries with `abs_bucket >= cursor + BUCKETS`.
    overflow: BinaryHeap<Entry<T>>,
    ring_len: usize,
    next_seq: u64,
    /// Peak total occupancy, for the depth statistics.
    high_water: usize,
    /// Cursor moves, each a jump of any length (the tests bound them).
    #[cfg(test)]
    moves: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        let mut ring = Vec::with_capacity(BUCKETS);
        ring.resize_with(BUCKETS, Vec::new);
        CalendarQueue {
            ring,
            occupied: [0; WORDS],
            spare: Vec::new(),
            cursor: 0,
            sorted: false,
            overflow: BinaryHeap::new(),
            ring_len: 0,
            next_seq: 0,
            high_water: 0,
            #[cfg(test)]
            moves: 0,
        }
    }
}

impl<T> CalendarQueue<T> {
    fn abs_bucket(time: SimTime) -> u64 {
        time.as_micros() >> BUCKET_SHIFT
    }

    /// Peak number of simultaneously queued items over the queue's life.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Heap bytes the queue holds: the ring's and the spare stack's
    /// buffer headers plus every entry slot allocated in the ring, on the
    /// spare stack and in the overflow heap, whether or not it is in use.
    pub(crate) fn heap_bytes(&self) -> u64 {
        let headers =
            (self.ring.capacity() + self.spare.capacity()) * std::mem::size_of::<Vec<Entry<T>>>();
        (headers + self.entry_slots() * std::mem::size_of::<Entry<T>>()) as u64
    }

    /// Entry slots allocated, in use or not.
    fn entry_slots(&self) -> usize {
        let buffers = self.ring.iter().chain(&self.spare);
        buffers.map(Vec::capacity).sum::<usize>() + self.overflow.capacity()
    }

    fn insert_ring(&mut self, entry: Entry<T>) {
        // Clamp into the current bucket: schedulers never travel backwards,
        // but an entry clamped forward still pops in correct `(time, seq)`
        // order because the bucket is sorted on the full key.
        let abs = Self::abs_bucket(entry.time).max(self.cursor);
        debug_assert!(abs < self.cursor + BUCKETS as u64);
        let slot = (abs as usize) & (BUCKETS - 1);
        let bucket = &mut self.ring[slot];
        if bucket.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *bucket = buf;
            }
        }
        if abs == self.cursor && self.sorted {
            // The live bucket is already sorted descending; splice the new
            // entry into position so the back stays the minimum.
            let key = entry.key();
            let pos = bucket.partition_point(|e| e.key() > key);
            bucket.insert(pos, entry);
        } else {
            bucket.push(entry);
        }
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Pulls overflow entries that the advancing cursor has brought inside
    /// the horizon into the ring.
    fn refill(&mut self) {
        let horizon = self.cursor + BUCKETS as u64;
        while let Some(e) = self.overflow.peek() {
            if Self::abs_bucket(e.time) >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.insert_ring(e);
        }
    }

    /// Moves the drained current bucket's buffer onto the spare stack.
    fn retire_cursor_bucket(&mut self) {
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        if self.ring[slot].capacity() > 0 {
            debug_assert!(self.ring[slot].is_empty());
            self.spare.push(std::mem::take(&mut self.ring[slot]));
        }
    }

    /// Buckets from the cursor's slot to the nearest occupied one, going
    /// round the ring; `None` when no slot is occupied.
    fn distance_to_occupied(&self) -> Option<u64> {
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        let (word, bit) = (slot / 64, slot % 64);
        // The cursor's word from its bit up, the other words in ring
        // order, then the cursor's word below its bit.
        let here = self.occupied[word] & (!0u64 << bit);
        if here != 0 {
            return Some((here.trailing_zeros() as usize - bit) as u64);
        }
        for step in 1..=WORDS {
            let w = (word + step) % WORDS;
            let bits = self.occupied[w];
            if bits != 0 {
                let found = w * 64 + bits.trailing_zeros() as usize;
                return Some(((found + BUCKETS - slot) % BUCKETS) as u64);
            }
        }
        None
    }

    /// Advances the cursor to the next non-empty bucket and sorts it.
    /// Returns false when the queue is empty.
    ///
    /// Every ring entry lies within `BUCKETS` of the cursor and every
    /// overflow entry at or past the horizon, so the nearest occupied slot
    /// is the earliest bucket with work whenever the ring holds any; when
    /// it holds none, the overflow's first entry is. Either way one jump
    /// lands there and one refill brings the new horizon in: the buckets
    /// jumped over were empty, and what the refill adds lies beyond the
    /// bucket jumped to.
    fn settle(&mut self) -> bool {
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        if self.ring[slot].is_empty() {
            let by = match self.distance_to_occupied() {
                Some(by) => by,
                None => match self.overflow.peek() {
                    Some(e) => Self::abs_bucket(e.time) - self.cursor,
                    None => return false,
                },
            };
            self.retire_cursor_bucket();
            self.cursor += by;
            self.sorted = false;
            self.refill();
            #[cfg(test)]
            {
                self.moves += 1;
            }
        }
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        debug_assert!(!self.ring[slot].is_empty(), "jumped to an empty bucket");
        if !self.sorted {
            self.ring[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.sorted = true;
        }
        true
    }
}

impl<T> Scheduler<T> for CalendarQueue<T> {
    fn push(&mut self, time: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, item);
    }

    fn push_keyed(&mut self, time: SimTime, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        if Self::abs_bucket(time) >= self.cursor + BUCKETS as u64 {
            self.overflow.push(entry);
        } else {
            self.insert_ring(entry);
        }
        let len = self.len();
        if len > self.high_water {
            self.high_water = len;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(time, _, item)| (time, item))
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.settle() {
            return None;
        }
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        let e = self.ring[slot].pop().expect("settled on non-empty bucket");
        if self.ring[slot].is_empty() {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.ring_len -= 1;
        Some((e.time, e.seq, e.item))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        self.ring[slot].last().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain<S: Scheduler<u64>>(q: &mut S) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// The `(time, seq)` binary-heap scheduler: the calendar queue's oracle.
    struct HeapQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_seq: u64,
    }

    impl<T> Default for HeapQueue<T> {
        fn default() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
    }

    impl<T> Scheduler<T> for HeapQueue<T> {
        fn push(&mut self, time: SimTime, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, item });
        }

        fn push_keyed(&mut self, time: SimTime, seq: u64, item: T) {
            self.heap.push(Entry { time, seq, item });
        }

        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|e| (e.time, e.item))
        }

        fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
            self.heap.pop().map(|e| (e.time, e.seq, e.item))
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }
    }

    #[test]
    fn orders_across_bucket_boundaries() {
        // Straddle several bucket widths, pushed out of order.
        let width = 1u64 << BUCKET_SHIFT;
        let times = [
            3 * width + 1,
            0,
            width - 1,
            width,
            2 * width + 7,
            1,
            width + 1,
        ];
        let mut q = CalendarQueue::default();
        for (i, &us) in times.iter().enumerate() {
            q.push(t(us), i as u64);
        }
        let popped = drain(&mut q);
        let mut expect: Vec<(SimTime, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &us)| (t(us), i as u64))
            .collect();
        expect.sort_by_key(|&(time, i)| (time, i));
        assert_eq!(popped, expect);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = CalendarQueue::default();
        for i in 0..1000u64 {
            q.push(t(42), i);
        }
        let ids: Vec<u64> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn push_into_live_sorted_bucket_keeps_order() {
        // Pop once (forcing the bucket to sort), then push more entries at
        // the same and nearby times into the now-live bucket.
        let mut q = CalendarQueue::default();
        q.push(t(10), 0);
        q.push(t(30), 1);
        assert_eq!(q.pop(), Some((t(10), 0)));
        q.push(t(20), 2);
        q.push(t(30), 3);
        q.push(t(5), 4); // "past" push: clamped into the live bucket
        assert_eq!(
            drain(&mut q),
            vec![(t(5), 4), (t(20), 2), (t(30), 1), (t(30), 3)]
        );
    }

    #[test]
    fn far_future_spills_to_overflow_and_returns() {
        let horizon_us = (BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = CalendarQueue::default();
        q.push(t(7), 0);
        q.push(t(3 * horizon_us + 5), 1); // ~400 simulated seconds out
        q.push(t(horizon_us + 9), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(
            drain(&mut q),
            vec![
                (t(7), 0),
                (t(horizon_us + 9), 2),
                (t(3 * horizon_us + 5), 1)
            ]
        );
    }

    #[test]
    fn overflow_tie_break_survives_refill() {
        // Two far-future entries at the identical time must still come
        // back in push order after the spill/refill round trip.
        let far = ((BUCKETS as u64) << BUCKET_SHIFT) * 2 + 123;
        let mut q = CalendarQueue::default();
        for i in 0..100u64 {
            q.push(t(far), i);
        }
        q.push(t(1), 999);
        let ids: Vec<u64> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(ids[0], 999);
        assert_eq!(ids[1..], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest_without_consuming() {
        let mut q = CalendarQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(t(50), 0);
        q.push(t(5), 1);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.peek_time(), Some(t(50)));
    }

    #[test]
    fn interleaved_push_pop_tracks_len_and_high_water() {
        let mut q = CalendarQueue::default();
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.push(t(3), 2);
        assert_eq!(q.pop(), Some((t(1), 0)));
        q.push(t(4), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        drain(&mut q);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_not_push_order() {
        // Same-time entries with explicit keys dequeue by ascending key,
        // regardless of push order — including pushes into a live (already
        // sorted) bucket and entries that round-trip through the overflow.
        let far = ((BUCKETS as u64) << BUCKET_SHIFT) * 2 + 9;
        let mut cal = CalendarQueue::default();
        let mut heap = HeapQueue::default();
        for q in [&mut cal as &mut dyn Scheduler<u64>, &mut heap] {
            q.push_keyed(t(40), 7, 0);
            q.push_keyed(t(40), 2, 1);
            q.push_keyed(t(10), 5, 2);
            q.push_keyed(t(far), 9, 3);
            q.push_keyed(t(far), 1, 4);
            assert_eq!(q.pop_keyed(), Some((t(10), 5, 2)));
            q.push_keyed(t(40), 4, 5); // into the live sorted bucket
            assert_eq!(q.pop_keyed(), Some((t(40), 2, 1)));
            assert_eq!(q.pop_keyed(), Some((t(40), 4, 5)));
            assert_eq!(q.pop_keyed(), Some((t(40), 7, 0)));
            assert_eq!(q.pop_keyed(), Some((t(far), 1, 4)));
            assert_eq!(q.pop_keyed(), Some((t(far), 9, 3)));
            assert_eq!(q.pop_keyed(), None);
        }
    }

    /// Property: for any random event set — including far-future outliers,
    /// duplicates and pops interleaved with pushes — the calendar queue
    /// dispatches in exactly the order of the reference heap.
    #[test]
    fn matches_heap_on_random_workloads() {
        let mut rng = StdRng::seed_from_u64(0xCA1E_17DA);
        for _case in 0..50 {
            let mut cal = CalendarQueue::default();
            let mut heap = HeapQueue::default();
            let mut id = 0u64;
            let mut now = 0u64;
            for _step in 0..rng.gen_range(10..400usize) {
                if rng.gen_bool(0.6) {
                    // Mostly near-future, occasionally way past the horizon.
                    let jitter = if rng.gen_bool(0.05) {
                        rng.gen_range(0..2_000_000_000u64)
                    } else {
                        rng.gen_range(0..5_000_000u64)
                    };
                    let burst = rng.gen_range(1..5u64);
                    for _ in 0..burst {
                        cal.push(t(now + jitter), id);
                        heap.push(t(now + jitter), id);
                        id += 1;
                    }
                } else {
                    assert_eq!(cal.peek_time(), heap.peek_time());
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b);
                    if let Some((time, _)) = a {
                        now = time.as_micros();
                    }
                }
            }
            assert_eq!(drain(&mut cal), drain(&mut heap));
        }
    }

    /// Property: bursty traffic that walks the cursor around the ring three
    /// times, so drained buckets retire their buffers and later buckets
    /// reuse them, still dispatches in exactly the oracle's order. The
    /// streams include pushes into the live sorted bucket and idle gaps
    /// that empty the ring and make the cursor jump to the overflow's first
    /// bucket.
    #[test]
    fn matches_heap_on_bursty_sweeps() {
        let width = 1u64 << BUCKET_SHIFT;
        let horizon = (BUCKETS as u64) << BUCKET_SHIFT;
        let mut rng = StdRng::seed_from_u64(0xB025_7A11);
        let (mut live_pushes, mut jumps, mut reuses) = (0u32, 0u32, 0u32);
        for _case in 0..4 {
            let mut cal = CalendarQueue::default();
            let mut heap = HeapQueue::default();
            let mut id = 0u64;
            let mut now = 0u64;
            // Buckets the cursor crossed one by one, not by a jump.
            let mut walked = 0u64;
            while walked <= 3 * BUCKETS as u64 {
                match rng.gen_range(0..100u32) {
                    0..=1 => {
                        // Idle gap: one far-future event, then drain the
                        // ring so the last pop jumps to the overflow.
                        let far = now + horizon + rng.gen_range(0..2 * horizon);
                        cal.push(t(far), id);
                        heap.push(t(far), id);
                        id += 1;
                        while cal.len() > cal.overflow.len() {
                            assert_eq!(cal.pop(), heap.pop());
                        }
                        let popped = cal.pop();
                        assert_eq!(popped, heap.pop());
                        now = popped.expect("far event queued").0.as_micros();
                        jumps += 1;
                    }
                    2..=49 => {
                        // A burst into nearby buckets; offset 0 lands in
                        // the live bucket once it is sorted.
                        let base = now + width * rng.gen_range(0..16u64);
                        let spares = cal.spare.len();
                        for _ in 0..rng.gen_range(1..40u32) {
                            let at = base + rng.gen_range(0..width);
                            live_pushes +=
                                u32::from(cal.sorted && at >> BUCKET_SHIFT == cal.cursor);
                            cal.push(t(at), id);
                            heap.push(t(at), id);
                            id += 1;
                        }
                        reuses += u32::from(cal.spare.len() < spares);
                    }
                    _ => {
                        for _ in 0..rng.gen_range(1..30u32) {
                            let (cursor, walking) = (cal.cursor, cal.ring_len > 0);
                            assert_eq!(cal.peek_time(), heap.peek_time());
                            let popped = cal.pop();
                            assert_eq!(popped, heap.pop());
                            if walking {
                                walked += cal.cursor - cursor;
                            }
                            if let Some((time, _)) = popped {
                                now = time.as_micros();
                            }
                        }
                    }
                }
            }
            assert_eq!(drain(&mut cal), drain(&mut heap));
        }
        assert!(live_pushes > 100 && jumps > 100 && reuses > 1000);
    }

    /// Property: sparse simulated time, as a month-long crawl sees it. Gaps
    /// of minutes to days between bursts, entries that cross the overflow
    /// horizon in both directions, a cursor that wraps the ring many times
    /// over, and pushes into the live sorted bucket right after the cursor
    /// jumped to it, all dispatch in exactly the oracle's order.
    #[test]
    fn matches_heap_on_sparse_time() {
        let width = 1u64 << BUCKET_SHIFT;
        let minute = 60_000_000u64;
        let day = 1_440 * minute;
        let mut rng = StdRng::seed_from_u64(0x5BA2_5E71);
        let (mut after_jump, mut wraps) = (0u32, 0u64);
        for _case in 0..20 {
            let mut cal = CalendarQueue::default();
            let mut heap = HeapQueue::default();
            let mut id = 0u64;
            let mut now = 0u64;
            for _step in 0..600 {
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        // One entry minutes to days out: inside the ring,
                        // just past the horizon, or far beyond it.
                        let gap = match rng.gen_range(0..4u32) {
                            0 => rng.gen_range(1..3 * minute),
                            1 => rng.gen_range(2 * minute..3 * minute),
                            2 => rng.gen_range(minute..6 * 60 * minute),
                            _ => rng.gen_range(day / 2..3 * day),
                        };
                        cal.push_keyed(t(now + gap), id, id);
                        heap.push_keyed(t(now + gap), id, id);
                        id += 1;
                    }
                    _ => {
                        let cursor = cal.cursor;
                        assert_eq!(cal.peek_time(), heap.peek_time());
                        let popped = cal.pop_keyed();
                        assert_eq!(popped, heap.pop_keyed());
                        let Some((time, _, _)) = popped else { continue };
                        now = time.as_micros();
                        wraps += (cal.cursor - cursor) / BUCKETS as u64;
                        if cal.cursor > cursor + 1 && rng.gen_bool(0.5) {
                            // Into the bucket just jumped to, now sorted
                            // live: before, at and after what is left.
                            after_jump += 1;
                            let base = cal.cursor * width;
                            for _ in 0..rng.gen_range(1..6u32) {
                                let at = base + rng.gen_range(0..width);
                                cal.push_keyed(t(at), id, id);
                                heap.push_keyed(t(at), id, id);
                                id += 1;
                            }
                        }
                    }
                }
            }
            assert_eq!(drain(&mut cal), drain(&mut heap));
        }
        assert!(after_jump > 500 && wraps > 1000, "{after_jump} {wraps}");
    }

    /// A day holds 2.6 M buckets. A thousand events a day apart, with a
    /// heartbeat that keeps one entry in the ring every 100 s as simulated
    /// nodes' timers do, cost about one cursor move per popped bucket, not
    /// one per bucket of empty time.
    #[test]
    fn cursor_moves_follow_occupied_buckets_not_time() {
        const DAYS: u64 = 1_000;
        let day = 86_400_000_000u64;
        let beat = 100_000_000u64;
        let mut q = CalendarQueue::default();
        for d in 1..=DAYS {
            q.push(t(d * day + 7), d);
        }
        q.push(t(beat), 0);
        let mut pops = 0u64;
        while let Some((time, id)) = q.pop() {
            pops += 1;
            let next = time.as_micros() + beat;
            if id == 0 && next < DAYS * day {
                q.push(t(next), 0);
            }
        }
        assert!(pops > DAYS * (day / beat), "{pops} pops");
        assert!(q.moves <= pops, "{} moves for {pops} pops", q.moves);
    }

    /// The queue retains buffers for the buckets that hold work, not for
    /// every slot the cursor has passed: `W` consecutive buckets of `B`
    /// entries, slid around the ring three times, keep at most `W + 1`
    /// buffers of `B.next_power_of_two()` slots each.
    #[test]
    fn retained_capacity_follows_live_buckets() {
        const W: u64 = 8;
        const B: u64 = 20;
        let width = 1u64 << BUCKET_SHIFT;
        let mut q = CalendarQueue::default();
        let mut id = 0u64;
        let mut fill = |q: &mut CalendarQueue<u64>, bucket: u64| {
            for i in 0..B {
                q.push(t(bucket * width + i), id);
                id += 1;
            }
        };
        for bucket in 0..W {
            fill(&mut q, bucket);
        }
        for bucket in 0..3 * BUCKETS as u64 {
            for _ in 0..B {
                assert_eq!(
                    q.pop().map(|(time, _)| time.as_micros() / width),
                    Some(bucket)
                );
            }
            fill(&mut q, bucket + W);
        }
        let bound = (W as usize + 1) * (B as usize).next_power_of_two();
        assert!(
            q.entry_slots() <= bound,
            "{} slots retained",
            q.entry_slots()
        );
        let entry = std::mem::size_of::<Entry<u64>>();
        assert!(q.heap_bytes() >= (q.entry_slots() * entry) as u64);
    }
}
