//! The engine's event queue: a calendar queue over virtual time.
//!
//! A megascale run pushes about two million events, and about half of them
//! share one timestamp: every claim in a controller tick's burst arms a park
//! timeout at the same `now + sleep_timeout`.  A binary heap of that size
//! spends most of the run in cache misses.  The calendar queue instead keeps
//! an array of time buckets indexed by `at >> shift`, with `shift` chosen
//! from the horizon so there are at most [`MAX_BUCKETS`] buckets.  Future
//! buckets are unsorted; a bucket is sorted once, when it becomes current,
//! and drained from the back.  A push that lands in the current bucket (or,
//! defensively, an earlier one) goes to a small sorted side buffer instead,
//! and every pop takes the earlier of the two backs.
//!
//! # Ordering invariant
//!
//! The queue pops events in exactly ascending `(at, tie, seq)` order, the
//! same order as a binary min-heap over [`Event`]'s `Ord`: every event in a
//! future bucket has a later `at` than every event in the current bucket or
//! the side buffer, and those two are merged by the full key.  Keys are
//! unique (`seq` is), so the unstable sort is deterministic.
//!
//! # The 32-byte event
//!
//! [`Event`] packs its kind into two words — `seq << 3 | tag` and one
//! payload word holding the worker id (with the park epoch in the high
//! half) or the phase index — so a bucket entry is 32 bytes.  Packing keeps
//! the ~1M-entry timeout bucket and the per-bucket vectors small, which
//! matters for peak memory when one process builds engine after engine.

/// The most buckets a queue uses, whatever its horizon: 2^16.
const MAX_BUCKETS: u64 = 1 << 16;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// One controller cycle: `run_cycle`, drain wakes, match claims.
    ControllerTick,
    /// A worker finished thinking and requests the lock.
    StartWork(u32),
    /// The lock holder finishes its critical section.
    Release(u32),
    /// A parked worker's sleep timeout expires (worker, epoch).
    ParkTimeout(u32, u32),
    /// Open-loop arrival: activate the next idle worker.
    Arrival,
    /// Workload phase shift (index into `WorkloadSpec::phases`).
    PhaseShift(usize),
}

/// Bits of [`Event::seq_tag`] that hold the kind's tag.
const TAG_BITS: u32 = 3;

/// One scheduled event, ordered by `(at, tie, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// Virtual firing time (ns).
    pub(crate) at: u64,
    /// Seeded tie-break among events at the same `at`.
    tie: u64,
    /// The push sequence number above the kind's tag: `seq << 3 | tag`.
    /// Sequence numbers are unique, so this word orders like `seq`.
    seq_tag: u64,
    /// The kind's payload: a worker id (epoch in the high half for
    /// `ParkTimeout`) or a phase index.
    arg: u64,
}

const _: () = assert!(std::mem::size_of::<Event>() <= 32);

impl Event {
    /// Packs `kind` with its ordering key.
    pub(crate) fn new(at: u64, tie: u64, seq: u64, kind: EventKind) -> Self {
        debug_assert!(seq < 1 << (u64::BITS - TAG_BITS), "event sequence overflow");
        let (tag, arg) = match kind {
            EventKind::ControllerTick => (0, 0),
            EventKind::StartWork(w) => (1, u64::from(w)),
            EventKind::Release(w) => (2, u64::from(w)),
            EventKind::ParkTimeout(w, epoch) => (3, u64::from(w) | u64::from(epoch) << 32),
            EventKind::Arrival => (4, 0),
            EventKind::PhaseShift(i) => (5, i as u64),
        };
        Self {
            at,
            tie,
            seq_tag: seq << TAG_BITS | tag,
            arg,
        }
    }

    /// Unpacks the event's kind.
    pub(crate) fn kind(&self) -> EventKind {
        let worker = self.arg as u32;
        match self.seq_tag & ((1 << TAG_BITS) - 1) {
            0 => EventKind::ControllerTick,
            1 => EventKind::StartWork(worker),
            2 => EventKind::Release(worker),
            3 => EventKind::ParkTimeout(worker, (self.arg >> 32) as u32),
            4 => EventKind::Arrival,
            5 => EventKind::PhaseShift(self.arg as usize),
            tag => unreachable!("unknown event tag {tag}"),
        }
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tie, self.seq_tag).cmp(&(other.at, other.tie, other.seq_tag))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A calendar queue of [`Event`]s with timestamps in `0..=horizon`.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// Unsorted buckets: bucket `i` holds the pending events with
    /// `at >> shift == i`.  Buckets before `next` are empty.
    buckets: Vec<Vec<Event>>,
    shift: u32,
    /// The first bucket not yet moved into `current`.
    next: usize,
    /// The current bucket, sorted descending: its back is its earliest event.
    current: Vec<Event>,
    /// Pushes into buckets before `next`, sorted descending.
    side: Vec<Event>,
}

impl CalendarQueue {
    /// An empty queue for events at `0..=horizon` nanoseconds.
    pub(crate) fn new(horizon: u64) -> Self {
        let bucket_bits = MAX_BUCKETS.trailing_zeros();
        let shift = (u64::BITS - horizon.leading_zeros()).saturating_sub(bucket_bits);
        let buckets = (horizon >> shift) as usize + 1;
        Self {
            buckets: vec![Vec::new(); buckets],
            shift,
            next: 0,
            current: Vec::new(),
            side: Vec::new(),
        }
    }

    /// Pending events (walks the future buckets).
    pub(crate) fn len(&self) -> usize {
        let future: usize = self.buckets[self.next..].iter().map(Vec::len).sum();
        self.current.len() + self.side.len() + future
    }

    /// Queues `event`.
    ///
    /// # Panics
    ///
    /// If `event.at` is past the horizon the queue was built for.
    pub(crate) fn push(&mut self, event: Event) {
        let bucket = (event.at >> self.shift) as usize;
        if bucket < self.next {
            let pos = self.side.partition_point(|queued| *queued > event);
            self.side.insert(pos, event);
        } else {
            self.buckets[bucket].push(event);
        }
    }

    /// Removes and returns the earliest event by `(at, tie, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Event> {
        if self.current.is_empty() && self.side.is_empty() && !self.advance() {
            return None;
        }
        let from_side = match (self.current.last(), self.side.last()) {
            (Some(current), Some(side)) => side < current,
            (current, _) => current.is_none(),
        };
        if from_side {
            self.side.pop()
        } else {
            self.current.pop()
        }
    }

    /// Makes the next non-empty bucket current; false when none is left.
    fn advance(&mut self) -> bool {
        while self.next < self.buckets.len() {
            let bucket = std::mem::take(&mut self.buckets[self.next]);
            self.next += 1;
            if !bucket.is_empty() {
                self.current = bucket;
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Drives the calendar queue and a binary-heap oracle through the same
    /// push/pop interleaving, asserting identical pops throughout.
    struct Twin {
        queue: CalendarQueue,
        oracle: BinaryHeap<Reverse<Event>>,
        horizon: u64,
        seq: u64,
        now: u64,
        last_tie: u64,
        pops: usize,
    }

    impl Twin {
        fn new(horizon: u64) -> Self {
            Self {
                queue: CalendarQueue::new(horizon),
                oracle: BinaryHeap::new(),
                horizon,
                seq: 0,
                now: 0,
                last_tie: 0,
                pops: 0,
            }
        }

        fn push(&mut self, at: u64, tie: u64, kind: EventKind) {
            assert!(at <= self.horizon);
            self.seq += 1;
            let event = Event::new(at, tie, self.seq, kind);
            self.queue.push(event);
            self.oracle.push(Reverse(event));
        }

        /// A push at `now + delay` with a random tie, clamped to the horizon.
        fn push_after(&mut self, rng: &mut StdRng, delay: u64) {
            let at = self.now.saturating_add(delay).min(self.horizon);
            let worker = rng.random_range(0..u32::MAX);
            let kind = match rng.random_range(0..6u32) {
                0 => EventKind::ControllerTick,
                1 => EventKind::StartWork(worker),
                2 => EventKind::Release(worker),
                3 => EventKind::ParkTimeout(worker, rng.random_range(0..=u32::MAX)),
                4 => EventKind::Arrival,
                _ => EventKind::PhaseShift(rng.random_range(0..1usize << 20)),
            };
            self.push(at, rng.random_range(0..=u64::MAX), kind);
        }

        fn pop(&mut self) -> Option<Event> {
            let got = self.queue.pop();
            let want = self.oracle.pop().map(|Reverse(e)| e);
            assert_eq!(got, want, "pop {} diverged from the oracle", self.pops);
            if let Some(event) = got {
                assert!(event.at >= self.now, "time ran backwards");
                self.now = event.at;
                self.last_tie = event.tie;
                self.pops += 1;
            }
            got
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.queue.len(), 0);
        }
    }

    #[test]
    fn events_round_trip_their_kind_in_32_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 32);
        for kind in [
            EventKind::ControllerTick,
            EventKind::StartWork(u32::MAX),
            EventKind::Release(7),
            EventKind::ParkTimeout(u32::MAX, u32::MAX - 1),
            EventKind::ParkTimeout(3, 0),
            EventKind::Arrival,
            EventKind::PhaseShift(12),
        ] {
            let event = Event::new(5, 6, (1 << 61) - 1, kind);
            assert_eq!(event.kind(), kind);
        }
    }

    #[test]
    fn bucket_count_is_bounded_by_the_horizon() {
        for horizon in [0, 1, 1 << 16, (1 << 16) - 1, 300_000_000, u64::MAX] {
            let queue = CalendarQueue::new(horizon);
            assert!(queue.buckets.len() as u64 <= MAX_BUCKETS, "{horizon}");
            assert_eq!((horizon >> queue.shift) as usize, queue.buckets.len() - 1);
        }
    }

    #[test]
    fn random_interleavings_pop_in_heap_order() {
        let seed = crate::test_seed();
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let horizon = match case % 4 {
                0 => rng.random_range(0..64u64),
                1 => rng.random_range(0..1u64 << 20),
                2 => 300_000_000,
                _ => rng.random_range(0..=u64::MAX),
            };
            let mut twin = Twin::new(horizon);
            let width = 1u64 << twin.queue.shift;
            for _ in 0..rng.random_range(0..400u32) {
                let delay = match rng.random_range(0..4u32) {
                    0 => 0,
                    1 => rng.random_range(0..=width),
                    2 => rng.random_range(0..=horizon / 8),
                    _ => rng.random_range(0..=horizon),
                };
                twin.push_after(&mut rng, delay);
            }
            assert_eq!(twin.queue.len(), twin.oracle.len());
            for _ in 0..2_000 {
                if rng.random_range(0..3u32) == 0 {
                    twin.pop();
                } else {
                    let delay = if rng.random_range(0.0..1.0) < 0.5 {
                        rng.random_range(0..=width.saturating_mul(2))
                    } else {
                        rng.random_range(0..=horizon / 4)
                    };
                    twin.push_after(&mut rng, delay);
                }
            }
            twin.drain();
        }
    }

    #[test]
    fn a_large_burst_at_one_instant_pops_in_tie_order() {
        let mut rng = StdRng::seed_from_u64(crate::test_seed());
        let mut twin = Twin::new(300_000_000);
        twin.push(1_000, 0, EventKind::ControllerTick);
        for w in 0..20_000 {
            twin.push(
                200_001_000,
                rng.random_range(0..=u64::MAX),
                EventKind::ParkTimeout(w, 1),
            );
        }
        // Some of the burst shares its tie word; `seq` must break those.
        for w in 0..64 {
            twin.push(200_001_000, 42, EventKind::StartWork(w));
        }
        twin.drain();
    }

    #[test]
    fn zero_delay_pushes_below_the_last_tie_pop_next() {
        let mut rng = StdRng::seed_from_u64(crate::test_seed() ^ 1);
        let mut twin = Twin::new(1 << 30);
        for _ in 0..2_000 {
            let delay = rng.random_range(0..1u64 << 12);
            twin.push_after(&mut rng, delay);
        }
        while twin.pop().is_some() {
            if rng.random_range(0.0..1.0) < 0.3 && twin.last_tie > 0 {
                // Same instant, smaller tie than the event just popped:
                // it is still the earliest pending event.
                let tie = rng.random_range(0..twin.last_tie);
                let now = twin.now;
                twin.push(now, tie, EventKind::Release(1));
                let next = twin.pop().expect("just pushed");
                assert_eq!((next.at, next.tie), (now, tie));
            }
        }
    }

    #[test]
    fn events_at_exactly_the_horizon_pop_last() {
        let mut rng = StdRng::seed_from_u64(crate::test_seed() ^ 2);
        for horizon in [0, 1, 65_535, 65_536, 300_000_000, u64::MAX] {
            let mut twin = Twin::new(horizon);
            for _ in 0..500 {
                let at = if rng.random_range(0.0..1.0) < 0.5 {
                    horizon
                } else {
                    rng.random_range(0..=horizon)
                };
                twin.push(at, rng.random_range(0..=u64::MAX), EventKind::Arrival);
            }
            while let Some(event) = twin.pop() {
                if event.at == horizon && rng.random_range(0.0..1.0) < 0.2 {
                    twin.push(horizon, rng.random_range(0..=u64::MAX), EventKind::Arrival);
                }
            }
            assert_eq!(twin.now, horizon);
        }
    }

    #[test]
    fn long_runs_of_empty_buckets_are_skipped() {
        let mut rng = StdRng::seed_from_u64(crate::test_seed() ^ 3);
        let horizon = 300_000_000;
        let mut twin = Twin::new(horizon);
        let width = 1u64 << twin.queue.shift;
        // A handful of events thousands of buckets apart, each followed by
        // more pushes thousands of buckets ahead while draining.
        for i in 0..8 {
            twin.push(
                i * 4_000 * width,
                rng.random_range(0..=u64::MAX),
                EventKind::Arrival,
            );
        }
        while let Some(event) = twin.pop() {
            if rng.random_range(0.0..1.0) < 0.5 {
                let at = event
                    .at
                    .saturating_add(rng.random_range(1_000..20_000u64) * width);
                if at <= horizon {
                    twin.push(at, rng.random_range(0..=u64::MAX), EventKind::Arrival);
                }
            }
        }
        assert_eq!(twin.queue.pop(), None);
    }

    #[test]
    fn pushes_into_the_draining_bucket_merge_in_order() {
        let mut rng = StdRng::seed_from_u64(crate::test_seed() ^ 4);
        let mut twin = Twin::new(300_000_000);
        let width = 1u64 << twin.queue.shift;
        let base = 17 * width;
        for _ in 0..1_000 {
            twin.push(
                base + rng.random_range(0..width),
                rng.random_range(0..=u64::MAX),
                EventKind::Arrival,
            );
        }
        let mut pushed = 0;
        while let Some(event) = twin.pop() {
            let bucket_end = (event.at | (width - 1)).min(twin.horizon);
            if pushed < 5_000 {
                // Anywhere from now to the end of the current bucket.
                let at = rng.random_range(event.at..=bucket_end);
                twin.push(at, rng.random_range(0..=u64::MAX), EventKind::Release(2));
                assert!(!twin.queue.side.is_empty(), "push missed the side buffer");
                pushed += 1;
            }
        }
        assert_eq!(pushed, 5_000);
    }
}
