//! The sleep slot buffer (paper §3.1.1 and §3.2.2, Figure 7 centre),
//! generalised into a **sharded ring**.
//!
//! The buffer is the single point of communication between the controller
//! daemon and spinning threads:
//!
//! * the controller publishes the **sleep target** `T` — how many threads
//!   should currently be asleep;
//! * spinning threads that find room (`S − W < T`) claim the next slot with a
//!   CAS on `S`, write their identity into the slot, and block;
//! * the controller wakes sleepers by clearing their slots (and unparking
//!   them) when the target shrinks; threads also wake on their own after a
//!   timeout;
//! * every thread that leaves — woken, timed out, or because it acquired the
//!   lock before actually sleeping — increments `W` exactly once, so
//!   `S − W` is always the number of outstanding claims.
//!
//! `S` (threads that have ever slept) doubles as the buffer's head pointer,
//! exactly as in the paper: a claim writes slot `S mod C`.  There is no
//! tail pointer, because sleepers leave in arbitrary order, so the ring
//! contains gaps — and it can also lap a sleeper that is still parked.
//!
//! ## Wrap eviction
//!
//! `S − W < T` bounds how many claims are outstanding, not where they sit.
//! Once sleepers have left out of order, the head can come round to a slot
//! whose sleeper is still parked, and the new claim **overwrites** it.  The
//! books stay exact: `S − W` still counts the evicted claim, and its owner's
//! [`SleepSlotBuffer::leave`] still advances `W` exactly once (its slot
//! CAS simply fails).  But the evicted sleeper no longer owns a slot, so no
//! wake scan can reach it: it sleeps until its own timeout, and a target
//! shrink wakes fewer sleepers than it asked for.  With a ring of 4 and
//! target 4, four claims, three departures and one more claim,
//! `set_target(0)` wakes 1 of the 2 outstanding sleepers.  In the
//! `lc-des` megascale configuration (1M waiters, 8 shards, seeds 201–203)
//! 10–12 % of claims (203,915–248,527 of 1,999,872) land on an occupied
//! slot.  Neither obvious fix is free: giving a claim back in O(1) raised
//! runnable-per-capacity in that configuration from 1.34 to 16–31, and a
//! linear probe for a free slot made one 1M-waiter run take over ten
//! minutes instead of a few seconds.
//!
//! ## One book, two stores
//!
//! Every word of the book — per-shard `S`, `W` and `T`, the claim-race and
//! controller-wake counters, the slot rings and claim stamps, the
//! active-shard mask, the total target, the wake-scan exemptions and the
//! wait histogram — sits at a fixed index of one flat slice of words
//! ([`BookLayout`]).  In process that slice is a heap allocation; the
//! `lc-shm` crate places the same layout in a shared-memory segment and
//! builds the buffer over it with [`SleepSlotBuffer::over_store`], so a
//! fleet of processes runs this very claim and wake code.  Waking is the
//! one seam: the parker table by default, or a [`SleeperWake`] that takes
//! the cleared ids directly — futex words of sleeper cells across
//! processes, the event loop's wake list in the `lc-des` simulator.
//!
//! ## Sharding
//!
//! At many hundreds of hardware contexts a single `S` word turns the head CAS
//! in [`SleepSlotBuffer::try_claim`] — and the controller's linear wake scan —
//! into the very contention hotspot the mechanism exists to remove.  The
//! buffer is therefore split into a power-of-two number of **shards**, each
//! with its own cache-padded `S`/`W`/`T` triple and slot ring:
//!
//! * every registered sleeper has a **home shard** assigned by the buffer's
//!   [`crate::topology::ShardMap`] — by default its stable registration id
//!   (`id mod N`), so a thread always contends on the same shard's head
//!   word; the `cpu` and `node` topologies home by thread placement instead;
//! * a claim that finds its home shard full or loses the home CAS makes one
//!   overflow probe to the *neighbour* shard (`home + 1 mod N`) so a raced or
//!   saturated home shard cannot strand a sleeper; if neither local shard
//!   takes the claim while the global target is non-zero (a target smaller
//!   than the shard count, or a skewed split that closed or saturated the
//!   local pair), the probe widens to the remaining shards — no partition can
//!   make the global target unreachable, and the wider scan only runs when
//!   the local fast path already failed;
//! * the global target is **partitioned** across shards
//!   (`sum(T_i) = T`, see [`crate::policy::TargetSplitter`]); shrinking a
//!   shard's target wakes excess sleepers by scanning *only that shard's*
//!   ring.
//!
//! The paper's invariants hold per shard and therefore globally: each shard's
//! `S_i − W_i` is its outstanding-claim count, every claim is balanced by
//! exactly one [`SleepSlotBuffer::leave`], and with `N = 1` (the default) the
//! buffer is behaviourally identical to the unsharded original.

use crate::config::{ClaimBackoff, WakeOrder};
use crate::time::SleeperWake;
use crate::topology::{RegistrationShardMap, ShardMap};
use lc_locks::stats::{WaitHistogram, WaitObservation, WaitSnapshot, WAIT_HISTOGRAM_BUCKETS};
use lc_locks::Parker;
use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identity of a thread registered as a potential sleeper.
///
/// Ids are handed out sequentially by [`SleepSlotBuffer::register_sleeper`],
/// which makes them **shard-stable**: a sleeper's home shard
/// (`id mod shard_count`) never changes for the lifetime of the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SleeperId(u64);

impl SleeperId {
    /// The raw index of this sleeper: its slot in the buffer's parker table,
    /// or the id its owner assigned on a buffer that wakes by id.
    pub fn index(self) -> u64 {
        self.0
    }

    /// An id with a chosen raw index.  In process, ids come from
    /// [`SleepSlotBuffer::register_sleeper`]; a buffer over a shared store
    /// ([`SleepSlotBuffer::over_store`]) is keyed by ids its owner hands out
    /// (`lc-shm` uses sleeper-cell indices), as is a control built with
    /// [`crate::LoadControlBuilder::sleeper_wake`] (`lc-des` uses worker
    /// indices), and [`crate::time::SlotHost`] rebuilds ids from the raw keys
    /// its episodes carry.
    pub fn from_index(index: u64) -> Self {
        Self(index)
    }

    fn slot_value(self) -> u64 {
        self.0 + 1
    }
}

/// Result of a claim attempt ([`SleepSlotBuffer::try_claim`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// A slot was claimed; the caller must eventually call
    /// [`SleepSlotBuffer::leave`] with this index exactly once.  The index is
    /// global (`shard * shard_capacity + slot`), so it also records which
    /// shard the claim landed on.
    Claimed(usize),
    /// `S − W ≥ T`: no thread needs to sleep right now (the common case).
    NoSpace,
    /// Another thread won the race for the head slot (in the home shard and,
    /// when sharded, in the neighbour probed next); per the paper the caller
    /// just keeps polling the lock.
    Raced,
}

/// Counters describing the buffer's activity (aggregated over all shards).
///
/// Field meanings, in the paper's terms:
///
/// * `ever_slept` is **`S`** — cumulative successful slot claims.  It only
///   ever grows, and a snapshot always satisfies
///   `ever_slept >= woken_and_left` (each shard loads `W` before `S`, and a
///   departure is recorded only after its matching claim), so
///   `ever_slept − woken_and_left` is the outstanding-claim count.
/// * `woken_and_left` is **`W`** — cumulative departures: woken by the
///   controller, timed out, or cancelled before sleeping.  A quiesced buffer
///   has `W == S`.
/// * `target` is **`T`** — how many waiters the controller currently wants
///   asleep (`sum(T_i)` over shards).
/// * `controller_wakes` counts claims cleared *by the controller* (early
///   wakes), a subset of the departures in `woken_and_left`.
/// * `claim_races` counts claim attempts that lost a head-`S` CAS.  This is
///   the buffer's contention signal: per-shard race counts (via
///   [`SleepSlotBuffer::shard_stats`] / the buffer's `Debug` output) rising
///   on specific shards is the cue to raise the shard count or switch to the
///   `load-weighted` splitter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotBufferStats {
    /// Total successful claims (`sum S_i`).
    pub ever_slept: u64,
    /// Total departures (`sum W_i`); never exceeds `ever_slept` in a
    /// snapshot.
    pub woken_and_left: u64,
    /// Current sleep target (`sum T_i`).
    pub target: u64,
    /// Claims cleared by the controller (threads woken early).
    pub controller_wakes: u64,
    /// Claim attempts that lost a head CAS (contention on the claim path).
    pub claim_races: u64,
    /// Sleepers currently exempt from the wake scan (active combiners).
    /// This is a buffer-global property; per-shard snapshots
    /// ([`SleepSlotBuffer::shard_stats`]) report it as 0 so summing shard
    /// stats never double-counts it.
    pub exempt: u64,
    /// Wait-time summary of every completed sleep episode (count, p50/p99
    /// bucket upper bounds and max, in nanoseconds) from the buffer's
    /// [`lc_locks::stats::WaitHistogram`].  Buffer-global like `exempt`:
    /// per-shard snapshots report the default (all-zero) observation.
    pub wait: WaitObservation,
}

impl fmt::Display for SlotBufferStats {
    /// Renders the paper's letters directly: `S=.. W=.. T=..` plus the
    /// derived diagnostics (`sleeping = S − W`, controller wakes, races,
    /// wake-scan exemptions).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} W={} T={} sleeping={} controller_wakes={} claim_races={} exempt={} \
             wait_count={} wait_p50_ns={} wait_p99_ns={} wait_max_ns={}",
            self.ever_slept,
            self.woken_and_left,
            self.target,
            self.ever_slept.saturating_sub(self.woken_and_left),
            self.controller_wakes,
            self.claim_races,
            self.exempt,
            self.wait.count,
            self.wait.p50_ns,
            self.wait.p99_ns,
            self.wait.max_ns,
        )
    }
}

/// One shard's counters as seen by a target splitter
/// ([`crate::policy::TargetSplitter`]) at the start of a controller cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Outstanding claims in this shard (`S_i − W_i`).
    pub sleepers: u64,
    /// Cumulative successful claims in this shard (`S_i`).
    pub ever_slept: u64,
    /// Cumulative lost head CASes in this shard.
    pub claim_races: u64,
    /// The shard's currently published target (`T_i`).
    pub target: u64,
}

/// Splits `total` as evenly as possible over `shards` shards, each capped at
/// `shard_capacity`; the first `total mod shards` shards receive the extra
/// unit.  The returned targets always sum to
/// `min(total, shards * shard_capacity)`.
pub fn even_split(total: u64, shards: usize, shard_capacity: u64) -> Vec<u64> {
    let n = shards.max(1) as u64;
    let total = total.min(n * shard_capacity);
    let base = total / n;
    let rem = total % n;
    (0..n)
        .map(|i| if i < rem { base + 1 } else { base })
        .collect()
}

/// Maximum number of sleepers that can be wake-scan exempt at once.
///
/// Exemptions mark *active combiners* (delegation locks, see
/// `lc_locks::delegation`): at most one combiner per delegation lock can be
/// active at a time, so 16 concurrent exemptions is far above any realistic
/// lock population per control instance.
pub const MAX_EXEMPT: usize = 16;

/// Words per cache-line group of a book: 128 bytes, the padding
/// `crossbeam_utils::CachePadded` uses on x86_64 (its adjacent-line
/// prefetcher pulls 64-byte lines in pairs).  Words that different threads
/// write — `S`, `W`, `T`, the counters — each start their own group.
pub const LINE_WORDS: usize = 16;

// Book-global words.
const ACTIVE_MASK: usize = 0;
const TOTAL_TARGET: usize = LINE_WORDS;
const EXEMPT: usize = 2 * LINE_WORDS;
const EXEMPT_SKIPS: usize = 3 * LINE_WORDS;
const WAIT_HIST: usize = 4 * LINE_WORDS;
const SHARD_BLOCKS: usize = WAIT_HIST + WAIT_HISTOGRAM_BUCKETS;

// Words of one shard block, relative to the block.
const SHARD_WORDS: usize = 4 * LINE_WORDS;
const S: usize = 0;
const W: usize = LINE_WORDS;
const T: usize = 2 * LINE_WORDS;
const CONTROLLER_WAKES: usize = 3 * LINE_WORDS;
const CLAIM_RACES: usize = 3 * LINE_WORDS + 1;

/// Where every word of an `S`/`W`/`T` book sits, as an index into a flat
/// slice of `AtomicU64`.
///
/// The book holds no pointers, only words, so the same layout serves a heap
/// allocation in one process and a shared-memory segment mapped by many
/// (`lc-shm` places the words after its segment header):
///
/// ```text
/// word 0     active-shard mask                  (own 128-byte group)
/// word 16    total target  sum(T_i)             (own group)
/// word 32    exempt entries, MAX_EXEMPT words   (one group)
/// word 48    exempt skips                       (own group)
/// word 64    wait histogram, 256 buckets
/// word 320   shard blocks, 64 words each: S | W | T | controller wakes,
///            claim races — four groups, so S, W and T never share a line
/// ...        slot rings, one per shard, each padded to a whole group
/// ...        claim stamps, laid out like the rings
/// ```
///
/// Every word starts at zero except the active-shard mask, which
/// [`BookLayout::format`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BookLayout {
    shards: usize,
    shard_capacity: usize,
}

impl BookLayout {
    /// The layout of a book with `shards` physical shards (a non-zero power
    /// of two) of `shard_capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `shard_capacity` is zero or `shards` is not a non-zero
    /// power of two.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        assert!(
            shard_capacity > 0,
            "sleep slot buffer capacity must be non-zero"
        );
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a non-zero power of two (got {shards})"
        );
        Self {
            shards,
            shard_capacity,
        }
    }

    /// Number of physical shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Slots per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Total words the book occupies (a whole number of 128-byte groups).
    pub fn words(&self) -> usize {
        self.stamps_base() + self.shards * self.ring_stride()
    }

    /// Word index of shard `shard`'s `S` (ever slept, also the ring head).
    pub fn s_word(&self, shard: usize) -> usize {
        self.shard_base(shard) + S
    }

    /// Word index of shard `shard`'s `W` (woken and left).
    pub fn w_word(&self, shard: usize) -> usize {
        self.shard_base(shard) + W
    }

    /// Word index of shard `shard`'s `T` (published target).
    pub fn t_word(&self, shard: usize) -> usize {
        self.shard_base(shard) + T
    }

    /// Writes the only non-zero initial word of a fresh, zeroed book: the
    /// mask selecting the first `active_shards` shards.  Run once by the
    /// book's creator; processes attaching to a shared book must not.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than [`BookLayout::words`] or
    /// `active_shards` is not a power of two no larger than the shard count.
    pub fn format(&self, words: &[AtomicU64], active_shards: usize) {
        assert!(words.len() >= self.words(), "book store too small");
        assert!(
            active_shards.is_power_of_two() && active_shards <= self.shards,
            "max shard count must be a power of two ≥ the active count \
             (got {} < {active_shards})",
            self.shards
        );
        words[ACTIVE_MASK].store(active_shards as u64 - 1, Ordering::Release);
    }

    fn shard_base(&self, shard: usize) -> usize {
        debug_assert!(shard < self.shards);
        SHARD_BLOCKS + shard * SHARD_WORDS
    }

    fn ring_stride(&self) -> usize {
        self.shard_capacity.next_multiple_of(LINE_WORDS)
    }

    fn slots_base(&self) -> usize {
        SHARD_BLOCKS + self.shards * SHARD_WORDS
    }

    fn stamps_base(&self) -> usize {
        self.slots_base() + self.shards * self.ring_stride()
    }
}

/// Memory that holds the words of a book.
///
/// [`SleepSlotBuffer`] resolves the slice once, when it is built, and then
/// addresses words by index with no further call into the store: the heap
/// store in process and a mapped segment across processes cost the same on
/// the claim path.
///
/// # Safety
///
/// `words` must return the same slice — same address, same length — on
/// every call for as long as the store is alive, and the memory must stay
/// valid for atomic access from every thread the store is shared with.
pub unsafe trait WordStore: Send + Sync {
    /// The book's words.
    fn words(&self) -> &[AtomicU64];
}

/// One 128-byte group of words; the heap store is an array of them so the
/// groups are aligned to the lines they are meant to own.
#[repr(C, align(128))]
struct Line([AtomicU64; LINE_WORDS]);

/// The in-process store: a zeroed heap allocation of whole groups.
struct HeapWords(Box<[Line]>);

impl HeapWords {
    fn zeroed(words: usize) -> Self {
        Self(
            (0..words.div_ceil(LINE_WORDS))
                .map(|_| Line(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        )
    }
}

// SAFETY: the boxed lines never move while the box is alive, and `Line` is
// `repr(C)` over `LINE_WORDS` atomics, so the lines are one contiguous run
// of `AtomicU64`s.
unsafe impl WordStore for HeapWords {
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: see the impl comment; the length counts every word of
        // every line.
        unsafe {
            std::slice::from_raw_parts(
                self.0.as_ptr().cast::<AtomicU64>(),
                self.0.len() * LINE_WORDS,
            )
        }
    }
}

/// How the wake scan reaches the sleepers whose slots it cleared.
enum Wakeup {
    /// In process: registered parkers, indexed by [`SleeperId`].
    Parkers(Mutex<Vec<Arc<Parker>>>),
    /// Sleepers woken by raw id through their owner's seam (`lc-shm` posts
    /// to the futex word of a sleeper cell; `lc-des` queues a wake event).
    Remote(Box<dyn SleeperWake>),
}

impl Wakeup {
    fn wake(&self, ids: &[u64]) {
        match self {
            Wakeup::Parkers(table) => {
                let table = table.lock().unwrap();
                for &idx in ids {
                    if let Some(p) = table.get(idx as usize) {
                        p.unpark();
                    }
                }
            }
            Wakeup::Remote(waker) => waker.wake(ids),
        }
    }
}

/// Where a claim is written down besides its slot: nowhere in process, the
/// claimant's sleeper cell in a shared segment (see
/// [`SleepSlotBuffer::try_claim_recorded`]).  Generic, so the in-process
/// claim path carries no extra store or branch.
trait ClaimRecord: Copy {
    fn record(self, idx: usize);
}

impl ClaimRecord for () {
    #[inline(always)]
    fn record(self, _idx: usize) {}
}

impl ClaimRecord for &AtomicU64 {
    #[inline(always)]
    fn record(self, idx: usize) {
        self.store(idx as u64 + 1, Ordering::Release);
    }
}

/// The wake-scan exemption set: [`MAX_EXEMPT`] words holding slot values
/// (`SleeperId + 1`, 0 = free) the controller's wake scan must skip, plus
/// the count of skips.
///
/// The wake scan clears occupied slots to wake sleepers; a slot owned by a
/// thread that is currently *combining* (executing other threads' critical
/// sections in a delegation lock) should not absorb one of those wakes — the
/// combiner is running, so clearing its slot wastes the wake on a thread
/// that cannot respond and leaves an actual sleeper parked.
#[derive(Clone, Copy)]
struct Exempt<'a> {
    entries: &'a [AtomicU64],
    skips: &'a AtomicU64,
}

impl Exempt<'_> {
    /// Adds `value`; `true` on success or if already present, `false` when
    /// all entries are taken.
    fn insert(&self, value: u64) -> bool {
        if self.contains(value) {
            return true;
        }
        for entry in self.entries {
            if entry
                .compare_exchange(0, value, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    fn remove(&self, value: u64) {
        for entry in self.entries {
            let _ = entry.compare_exchange(value, 0, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    fn contains(&self, value: u64) -> bool {
        value != 0
            && self
                .entries
                .iter()
                .any(|e| e.load(Ordering::Acquire) == value)
    }

    fn clear_all(&self) {
        for entry in self.entries {
            entry.store(0, Ordering::Release);
        }
    }

    fn ids(&self) -> Vec<u64> {
        self.entries
            .iter()
            .filter_map(|e| {
                let v = e.load(Ordering::Acquire);
                (v != 0).then(|| v - 1)
            })
            .collect()
    }
}

/// One shard's counter block: `S`, `W` and `T` on their own groups, then the
/// controller-wake and claim-race counters.
type Counters = [AtomicU64; SHARD_WORDS];

/// Outstanding claims (`S_i − W_i`).
///
/// `W` is read *before* `S`: a departure is only ever recorded after its
/// matching claim (by the same thread), so this order can never observe
/// `W > S` — at worst it overcounts sleepers by claims that landed between
/// the two loads, which only makes callers more conservative.
#[inline]
fn sleepers_of(c: &Counters) -> u64 {
    let w = c[W].load(Ordering::Acquire);
    let s = c[S].load(Ordering::Acquire);
    s.saturating_sub(w)
}

/// Whether a claim could succeed in this shard right now.
#[inline]
fn has_space_in(c: &Counters) -> bool {
    let t = c[T].load(Ordering::Relaxed);
    t != 0 && sleepers_of(c) < t
}

/// One shard seen through the book's words: its counter block plus its
/// slice of the slot ring and the claim stamps.
#[derive(Clone, Copy)]
struct Shard<'a> {
    counters: &'a Counters,
    /// Ring of slots; `0` = empty, otherwise `SleeperId + 1`.
    slots: &'a [AtomicU64],
    /// Claim stamp of each slot: the head-`S` value the claim committed at,
    /// plus one (so 0 = never claimed).  Monotonic per shard, which gives
    /// the window wake order its oldest-claim-first key.  A stamp is stored
    /// *before* its slot value, so an occupied slot always has a current
    /// stamp; a stale stamp under an empty slot is harmless (occupancy is
    /// checked first).
    stamps: &'a [AtomicU64],
    /// Global index of this shard's first slot (`shard * shard_capacity`).
    first: usize,
}

impl<'a> Shard<'a> {
    /// First half of a claim: load `T`/`S`/`W` and decide whether a claim
    /// may proceed.  Returns the observed head `S` the second half must CAS
    /// against, or `None` when there is no space (`T = 0` or `S − W ≥ T`).
    fn begin_claim(&self) -> Option<u64> {
        let t = self.counters[T].load(Ordering::Acquire);
        let s = self.counters[S].load(Ordering::Acquire);
        let w = self.counters[W].load(Ordering::Acquire);
        if t == 0 || s.saturating_sub(w) >= t {
            return None;
        }
        Some(s)
    }

    /// Second half of a claim: the head CAS against the `S` observed by
    /// [`Shard::begin_claim`], then the record, stamp and slot writes.  A
    /// successful claim returns its global index.
    fn commit_claim<R: ClaimRecord>(
        &self,
        sleeper: SleeperId,
        observed: u64,
        record: R,
    ) -> ClaimOutcome {
        match self.counters[S].compare_exchange(
            observed,
            observed + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                let idx = (observed as usize) % self.slots.len();
                // The record comes first so that no store separates it from
                // the CAS: a claimant that dies here leaves a claim its
                // record still names.
                record.record(self.first + idx);
                // Stamp before the slot write: once the slot reads occupied,
                // its claim-order key is already in place for the window
                // wake scan.
                self.stamps[idx].store(observed + 1, Ordering::Release);
                self.slots[idx].store(sleeper.slot_value(), Ordering::Release);
                ClaimOutcome::Claimed(self.first + idx)
            }
            Err(_) => {
                self.counters[CLAIM_RACES].fetch_add(1, Ordering::Relaxed);
                ClaimOutcome::Raced
            }
        }
    }

    /// One claim attempt on this shard's head.  The uncontended path is a
    /// single CAS exactly as in the paper; a lost CAS either returns
    /// [`ClaimOutcome::Raced`] immediately (paper behavior,
    /// `backoff.retries == 0`) or enters the contention-managed retry loop.
    fn try_claim<R: ClaimRecord>(
        &self,
        sleeper: SleeperId,
        backoff: ClaimBackoff,
        record: R,
    ) -> ClaimOutcome {
        let Some(s) = self.begin_claim() else {
            return ClaimOutcome::NoSpace;
        };
        match self.commit_claim(sleeper, s, record) {
            ClaimOutcome::Raced if backoff.retries > 0 => {
                self.try_claim_managed(sleeper, backoff, record)
            }
            outcome => outcome,
        }
    }

    /// Claim-CAS contention management in the style of Dice/Hendler/Mirsky's
    /// *Lightweight Contention Management for Efficient Compare-and-Swap
    /// Operations*: after a lost head CAS, wait a bounded random number of
    /// spins (growing with the attempt number), then **reload** the head
    /// before the next CAS — load-then-CAS narrows the window a stale `S`
    /// is CASed against, so retries mostly succeed instead of racing again.
    #[cold]
    fn try_claim_managed<R: ClaimRecord>(
        &self,
        sleeper: SleeperId,
        backoff: ClaimBackoff,
        record: R,
    ) -> ClaimOutcome {
        for attempt in 1..=backoff.retries {
            claim_backoff_spin(backoff.max_spins, attempt);
            let Some(s) = self.begin_claim() else {
                return ClaimOutcome::NoSpace;
            };
            match self.commit_claim(sleeper, s, record) {
                ClaimOutcome::Raced => continue,
                outcome => return outcome,
            }
        }
        ClaimOutcome::Raced
    }

    /// Clears up to `count` occupied slots in this shard, skipping any slot
    /// whose owner is in `exempt` (the active-combiner exemption), and
    /// appends the owners' raw ids to `wakes` — the caller wakes the whole
    /// batch once, instead of a per-slot round trip through the wake path.
    /// Returns how many slots were cleared.
    ///
    /// `order` picks which occupants a *partial* wake reaches:
    /// [`WakeOrder::Fifo`] walks the ring in array order (the paper's scan),
    /// [`WakeOrder::Window`] visits occupied slots oldest claim first (by
    /// claim stamp), so no sleeper's age can grow unboundedly across
    /// repeated partial scans.
    fn collect_wakes(
        &self,
        count: usize,
        order: WakeOrder,
        exempt: Exempt<'_>,
        wakes: &mut Vec<u64>,
    ) -> usize {
        if count == 0 {
            return 0;
        }
        match order {
            WakeOrder::Fifo => {
                let mut cleared = 0;
                for slot in self.slots {
                    if cleared >= count {
                        break;
                    }
                    cleared += self.try_clear(slot, exempt, wakes);
                }
                cleared
            }
            WakeOrder::Window => {
                // Gather the occupied slots' (stamp, index) pairs, then
                // clear in stamp order.  The claim stamp is stored before
                // the slot value, so every slot observed occupied here has
                // a current stamp; a slot that empties (or is re-claimed)
                // between the gather and the clear just loses its CAS — the
                // scan stays lock-free and never wakes anyone twice.
                let mut occupied: Vec<(u64, usize)> = Vec::with_capacity(self.slots.len());
                for (idx, slot) in self.slots.iter().enumerate() {
                    if slot.load(Ordering::Acquire) != 0 {
                        occupied.push((self.stamps[idx].load(Ordering::Acquire), idx));
                    }
                }
                occupied.sort_unstable();
                let mut cleared = 0;
                for (_, idx) in occupied {
                    if cleared >= count {
                        break;
                    }
                    cleared += self.try_clear(&self.slots[idx], exempt, wakes);
                }
                cleared
            }
        }
    }

    /// One wake-scan visit of `slot`: skip if empty or exempt, else CAS it
    /// clear and record the owner.  Returns 1 if the slot was cleared.
    #[inline]
    fn try_clear(&self, slot: &AtomicU64, exempt: Exempt<'_>, wakes: &mut Vec<u64>) -> usize {
        let v = slot.load(Ordering::Acquire);
        if v == 0 {
            return 0;
        }
        if exempt.contains(v) {
            exempt.skips.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        if slot
            .compare_exchange(v, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            wakes.push(v - 1);
            self.counters[CONTROLLER_WAKES].fetch_add(1, Ordering::Relaxed);
            1
        } else {
            0
        }
    }
}

/// The randomized wait of the contention-managed claim path: a bounded
/// number of `spin_loop` hints drawn from a per-thread xorshift64* stream
/// (no clocks, no shared state — deterministic single-threaded, which keeps
/// the DES engine and the fast-path bench reproducible).  The window grows
/// with the attempt number and is capped at `max_spins`.
fn claim_backoff_spin(max_spins: u32, attempt: u32) {
    thread_local! {
        static CLAIM_RNG: Cell<u64> = const { Cell::new(0x9E37_79B9_7F4A_7C15) };
    }
    let window = (8u64 << attempt.min(16)).min(u64::from(max_spins.max(1)));
    let spins = CLAIM_RNG.with(|state| {
        let mut x = state.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % window
    });
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

/// The shared sleep slot buffer: the `S`/`W`/`T` book over one word store
/// ([`BookLayout`]) plus the path that wakes the sleepers it clears.
pub struct SleepSlotBuffer {
    /// Owns the words; only read through [`Self::words`] after
    /// construction.
    _store: Box<dyn WordStore>,
    /// `store.words()`, resolved once at construction.
    words: *const [AtomicU64],
    /// Where each word sits.  The physical shard count is fixed at
    /// construction ([`SleepSlotBuffer::max_shard_count`] shards), so a
    /// claim's global index stays valid across live reshards; only the
    /// active-shard mask word moves.
    layout: BookLayout,
    /// How each sleeper finds its home among the active shards (the
    /// `topology(mode=..)` plane).
    shard_map: Arc<dyn ShardMap>,
    /// Contention management for the head-`S` claim CAS
    /// ([`ClaimBackoff::DISABLED`] = the paper's single-attempt behavior).
    backoff: ClaimBackoff,
    /// The capacity the caller asked for.  Per-shard rounding can make the
    /// physical slot count ([`SleepSlotBuffer::capacity`]) larger; the
    /// global target cap stays at the *requested* value so a sharded buffer
    /// never admits more simultaneous sleepers than an unsharded one built
    /// with the same argument.
    requested_capacity: u64,
    /// Serializes target publication: a partition is `shard_count + 1`
    /// stores, and two concurrent publishers (the controller daemon and a
    /// `set_sleep_target` caller) interleaving them could otherwise leave
    /// the shard targets a mix of two partitions with the cached total out
    /// of sync — permanently, since the controller republishes on change
    /// only.  The claim path never takes this lock.  It serializes the
    /// publishers of one process; over a shared store, the store's owner
    /// must admit one publishing process at a time (`lc-shm` publishes only
    /// from its elected controller).
    publish: Mutex<()>,
    /// How cleared sleepers are woken: the parker table, or the store
    /// owner's wake path.
    wakeup: Wakeup,
    /// Order of the controller's batched wake scan within each shard
    /// (see [`WakeOrder`]; set at construction via
    /// [`SleepSlotBuffer::with_wake_order`]).
    wake_order: WakeOrder,
}

// SAFETY: `words` points into `store`, which is `Send + Sync`, lives as long
// as `self`, and keeps the slice in place (the `WordStore` contract); every
// access through it is atomic.
unsafe impl Send for SleepSlotBuffer {}
// SAFETY: as above.
unsafe impl Sync for SleepSlotBuffer {}

impl fmt::Debug for SleepSlotBuffer {
    /// Shows the aggregate `S`/`W`/`T` books **and** the per-shard claim-race
    /// counters: an aggregate race count that looks healthy can hide one hot
    /// shard absorbing all the CAS losses, which is exactly the signal that
    /// decides shard-count and splitter tuning.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("SleepSlotBuffer")
            .field("S", &stats.ever_slept)
            .field("W", &stats.woken_and_left)
            .field("T", &stats.target)
            .field("claim_races", &stats.claim_races)
            .field("claim_races_per_shard", &self.claim_races_per_shard())
            .field("exempt", &stats.exempt)
            .field("capacity", &self.capacity())
            .field("shards", &self.shard_count())
            .field("max_shards", &self.layout.shards)
            .field("topology", &self.shard_map.mode())
            .finish()
    }
}

impl SleepSlotBuffer {
    /// Creates a single-shard buffer able to hold up to `capacity`
    /// simultaneous sleepers — behaviourally identical to the paper's
    /// unsharded `S`/`W`/`T` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Creates a buffer with `shards` shards (a non-zero power of two) whose
    /// total capacity is at least `capacity` (`capacity / shards` slots per
    /// shard, rounded up).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `shards` is not a non-zero power of
    /// two.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Self::with_layout(
            capacity,
            shards,
            shards,
            Arc::new(RegistrationShardMap),
            ClaimBackoff::DISABLED,
        )
    }

    /// The fully parameterized constructor: `shards` *active* shards out of
    /// `max_shards` physically allocated ones (both non-zero powers of two,
    /// `max_shards ≥ shards`), home shards assigned by `shard_map`, and
    /// head-CAS contention management per `backoff`.  The book lives on the
    /// heap and wakes sleepers through their registered parkers.
    ///
    /// Each shard holds `capacity / shards` slots (rounded up), so the
    /// *initial* active set covers the requested capacity; growing the
    /// active set spreads the same (requested-capacity-capped) target over
    /// more heads rather than admitting more sleepers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, either shard count is not a non-zero
    /// power of two, or `max_shards < shards`.
    pub fn with_layout(
        capacity: usize,
        shards: usize,
        max_shards: usize,
        shard_map: Arc<dyn ShardMap>,
        backoff: ClaimBackoff,
    ) -> Self {
        assert!(capacity > 0, "sleep slot buffer capacity must be non-zero");
        assert!(
            shards > 0 && shards.is_power_of_two(),
            "shard count must be a non-zero power of two (got {shards})"
        );
        let layout = BookLayout::new(max_shards, capacity.div_ceil(shards));
        let store = HeapWords::zeroed(layout.words());
        layout.format(store.words(), shards);
        Self::assemble(
            Box::new(store),
            layout,
            capacity as u64,
            shard_map,
            backoff,
            Wakeup::Parkers(Mutex::new(Vec::new())),
        )
    }

    /// A buffer over a book another owner holds — a segment mapped by a
    /// fleet of processes — already formatted with [`BookLayout::format`].
    /// Every process that maps the store builds its own `SleepSlotBuffer`
    /// over the same words; `waker` wakes sleepers by the raw ids their
    /// claims carry, and they register with the store's owner rather than
    /// through [`SleepSlotBuffer::register_sleeper`].
    ///
    /// Such a buffer runs the defaults: every physical shard active,
    /// registration-order home shards, FIFO wake order, no claim backoff,
    /// and a target cap of the full slot count.
    ///
    /// # Panics
    ///
    /// Panics if the store holds fewer than [`BookLayout::words`] words.
    pub fn over_store(
        store: Box<dyn WordStore>,
        layout: BookLayout,
        waker: Box<dyn SleeperWake>,
    ) -> Self {
        assert!(
            store.words().len() >= layout.words(),
            "book store too small"
        );
        Self::assemble(
            store,
            layout,
            (layout.shards * layout.shard_capacity) as u64,
            Arc::new(RegistrationShardMap),
            ClaimBackoff::DISABLED,
            Wakeup::Remote(waker),
        )
    }

    fn assemble(
        store: Box<dyn WordStore>,
        layout: BookLayout,
        requested_capacity: u64,
        shard_map: Arc<dyn ShardMap>,
        backoff: ClaimBackoff,
        wakeup: Wakeup,
    ) -> Self {
        let words: *const [AtomicU64] = store.words();
        Self {
            _store: store,
            words,
            layout,
            shard_map,
            backoff,
            requested_capacity,
            publish: Mutex::new(()),
            wakeup,
            wake_order: WakeOrder::Fifo,
        }
    }

    /// The book's words.
    #[inline]
    fn words(&self) -> &[AtomicU64] {
        // SAFETY: `words` was resolved from `store`, which `self` owns and
        // which keeps the slice alive and in place (the `WordStore`
        // contract).
        unsafe { &*self.words }
    }

    /// Shard `shard`'s counter block (`S`, `W`, `T`, counters).
    #[inline]
    fn counters(&self, shard: usize) -> &Counters {
        let base = self.layout.shard_base(shard);
        self.words()[base..base + SHARD_WORDS]
            .try_into()
            .expect("shard block size")
    }

    /// Shard `shard` with its slice of the ring and stamps.
    #[inline]
    fn shard(&self, shard: usize) -> Shard<'_> {
        let words = self.words();
        let cap = self.layout.shard_capacity;
        let ring = self.layout.slots_base() + shard * self.layout.ring_stride();
        let stamps = self.layout.stamps_base() + shard * self.layout.ring_stride();
        Shard {
            counters: self.counters(shard),
            slots: &words[ring..ring + cap],
            stamps: &words[stamps..stamps + cap],
            first: shard * cap,
        }
    }

    fn active_mask(&self) -> usize {
        self.words()[ACTIVE_MASK].load(Ordering::Acquire) as usize
    }

    fn exempt(&self) -> Exempt<'_> {
        let words = self.words();
        Exempt {
            entries: &words[EXEMPT..EXEMPT + MAX_EXEMPT],
            skips: &words[EXEMPT_SKIPS],
        }
    }

    fn wait_buckets(&self) -> &[AtomicU64] {
        &self.words()[WAIT_HIST..WAIT_HIST + WAIT_HISTOGRAM_BUCKETS]
    }

    /// Returns `self` with the wake scan running in `order` (construction
    /// knob; [`WakeOrder::Fifo`] is the default and the paper's behavior).
    pub fn with_wake_order(mut self, order: WakeOrder) -> Self {
        self.wake_order = order;
        self
    }

    /// Returns `self` waking cleared sleepers through `waker`, by the raw
    /// ids their claims carry, instead of through a parker table.  Its
    /// sleepers take ids from their owner ([`SleeperId::from_index`]);
    /// [`SleepSlotBuffer::register_sleeper`] panics on it.
    pub(crate) fn with_sleeper_wake(mut self, waker: Box<dyn SleeperWake>) -> Self {
        self.wakeup = Wakeup::Remote(waker);
        self
    }

    /// The wake-scan order this buffer was built with.
    pub fn wake_order(&self) -> WakeOrder {
        self.wake_order
    }

    /// Records one completed sleep episode of `elapsed` into the buffer's
    /// wait-time histogram.  Called by [`crate::time::SlotWait::finish`] (the
    /// shared sync/DES wait machine) and by the async plane's episode
    /// teardown, with durations measured on this instance's
    /// [`crate::time::TimeSource`].
    #[inline]
    pub fn record_wait(&self, elapsed: Duration) {
        WaitHistogram::record_in(self.wait_buckets(), elapsed);
    }

    /// A snapshot of the wait-time histogram (all completed episodes since
    /// construction; windows via [`WaitSnapshot::since`]).
    pub fn wait_snapshot(&self) -> WaitSnapshot {
        WaitSnapshot::of_buckets(self.wait_buckets())
    }

    /// Total number of slots across all *physical* shards.
    pub fn capacity(&self) -> usize {
        self.layout.shard_capacity * self.layout.shards
    }

    /// The most sleepers the global target may admit: the capacity the
    /// buffer was built with (not the rounded-up physical slot count).
    pub(crate) fn requested_capacity(&self) -> u64 {
        self.requested_capacity
    }

    /// Number of currently *active* shards (always a power of two; 1 for the
    /// unsharded default).  Live reshard moves this between 1 and
    /// [`SleepSlotBuffer::max_shard_count`].
    pub fn shard_count(&self) -> usize {
        self.active_mask() + 1
    }

    /// Number of physically allocated shards (the reshard ceiling; equals
    /// [`SleepSlotBuffer::shard_count`] unless the buffer was built with
    /// reshard headroom).
    pub fn max_shard_count(&self) -> usize {
        self.layout.shards
    }

    /// Number of slots in each shard's ring.
    pub fn shard_capacity(&self) -> usize {
        self.layout.shard_capacity
    }

    /// The home-shard mapping this buffer was built with (the
    /// `topology(mode=..)` plane).
    pub fn shard_map(&self) -> &Arc<dyn ShardMap> {
        &self.shard_map
    }

    /// Registers a thread (by its parker) as a potential sleeper.
    ///
    /// # Panics
    ///
    /// Panics on a buffer that wakes sleepers by id through a
    /// [`SleeperWake`] — one built with [`SleepSlotBuffer::over_store`], or
    /// by a [`crate::LoadControlBuilder::sleeper_wake`] control: it has no
    /// parker table, and its sleepers take ids from their owner.
    pub fn register_sleeper(&self, parker: Arc<Parker>) -> SleeperId {
        let Wakeup::Parkers(table) = &self.wakeup else {
            panic!(
                "this buffer wakes sleepers by id through a SleeperWake (a shared book or a \
                 sleeper_wake control) and has no parker table: its sleepers take ids from \
                 their owner"
            );
        };
        let mut table = table.lock().unwrap();
        table.push(parker);
        SleeperId(table.len() as u64 - 1)
    }

    /// The home shard of `sleeper` among the currently active shards, as
    /// assigned by the buffer's [`ShardMap`].  With the default
    /// `registration` topology this is `id & (active − 1)` — stable for the
    /// buffer's lifetime at a fixed shard count; `cpu`/`node` topologies
    /// follow the calling thread's placement instead.
    #[inline]
    pub fn home_shard(&self, sleeper: SleeperId) -> usize {
        let mask = self.active_mask();
        self.shard_map.home_shard(sleeper, mask + 1) & mask
    }

    /// The current global sleep target (`sum(T_i)`).
    pub fn target(&self) -> u64 {
        self.words()[TOTAL_TARGET].load(Ordering::Relaxed)
    }

    /// The target currently assigned to shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= max_shard_count()`.
    pub fn shard_target(&self, shard: usize) -> u64 {
        self.counters(shard)[T].load(Ordering::Relaxed)
    }

    /// Number of outstanding claims (`sum(S_i − W_i)`): threads asleep or
    /// about to be.
    pub fn sleepers(&self) -> u64 {
        (0..self.layout.shards)
            .map(|shard| sleepers_of(self.counters(shard)))
            .sum()
    }

    /// Outstanding claims in shard `shard` (`S_i − W_i`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= max_shard_count()`.
    pub fn shard_sleepers(&self, shard: usize) -> u64 {
        sleepers_of(self.counters(shard))
    }

    /// Whether a spinning thread should try to claim a slot right now,
    /// globally (`sum(S_i − W_i) < sum(T_i)`).
    ///
    /// With more than one shard prefer [`SleepSlotBuffer::has_space_for`],
    /// which touches only the shards a claim could actually land on.
    #[inline]
    pub fn has_space(&self) -> bool {
        let t = self.target();
        if t == 0 {
            return false;
        }
        self.sleepers() < t
    }

    /// The cheap polling-path check for a specific sleeper: does its home
    /// shard — or, when sharded, the neighbour it would overflow-probe —
    /// currently have room?  When neither local shard can take a claim but
    /// the global target is non-zero (a small or skewed target split left
    /// the local pair closed or full), the check widens to the remaining
    /// shards so no spinner is blind to open slots.  Equivalent to
    /// [`SleepSlotBuffer::has_space`] when there is a single shard.
    #[inline]
    pub fn has_space_for(&self, sleeper: SleeperId) -> bool {
        let mask = self.active_mask();
        let home = self.shard_map.home_shard(sleeper, mask + 1) & mask;
        if has_space_in(self.counters(home)) {
            return true;
        }
        if mask == 0 {
            return false;
        }
        let neighbour = (home + 1) & mask;
        if has_space_in(self.counters(neighbour)) {
            return true;
        }
        // The wide scan (home and neighbour already answered) runs only when
        // the local fast path failed, and the check itself only runs once
        // per slot-check period — the cost of not stranding spinners behind
        // a closed or saturated local pair is a bounded, period-amortized
        // walk of the remaining active shards in the saturated steady state.
        self.target() > 0
            && (0..=mask)
                .any(|idx| idx != home && idx != neighbour && has_space_in(self.counters(idx)))
    }

    /// Attempts to claim a slot for `sleeper`: one CAS attempt on the home
    /// shard's head and, if that shard is full or the CAS is lost, one
    /// overflow probe of the neighbour shard (so a raced or saturated home
    /// shard does not strand a sleeper).  If *neither* local shard takes the
    /// claim while the buffer globally still wants sleepers — a target
    /// smaller than the shard count, or a skewed split that saturated the
    /// local pair — the probe widens to the remaining shards so no partition
    /// can make the global target unreachable.  Losing everywhere just means
    /// going back to polling, as in the paper.
    pub fn try_claim(&self, sleeper: SleeperId) -> ClaimOutcome {
        self.claim_with(sleeper, ())
    }

    /// [`SleepSlotBuffer::try_claim`] that also stores the claim's global
    /// index plus one into `record` — right after the winning head CAS,
    /// before the slot is written.  A shared book's owner keeps `record` in
    /// the claimant's sleeper cell, so a sweep can end the claims of a dead
    /// process by walking cells: a claim whose slot a later claim
    /// overwrote (see the module docs on wrap eviction) is then still
    /// found.  Clearing `record` after [`SleepSlotBuffer::leave`] is the
    /// caller's job.
    pub fn try_claim_recorded(&self, sleeper: SleeperId, record: &AtomicU64) -> ClaimOutcome {
        self.claim_with(sleeper, record)
    }

    #[inline]
    fn claim_with<R: ClaimRecord>(&self, sleeper: SleeperId, record: R) -> ClaimOutcome {
        let mask = self.active_mask();
        let home = self.shard_map.home_shard(sleeper, mask + 1) & mask;
        let first = self.shard(home).try_claim(sleeper, self.backoff, record);
        if mask == 0 || matches!(first, ClaimOutcome::Claimed(_)) {
            return first;
        }
        let neighbour = (home + 1) & mask;
        let second = self
            .shard(neighbour)
            .try_claim(sleeper, self.backoff, record);
        if matches!(second, ClaimOutcome::Claimed(_)) {
            return second;
        }
        let mut raced = first == ClaimOutcome::Raced || second == ClaimOutcome::Raced;
        if self.target() > 0 {
            for idx in 0..=mask {
                if idx == home || idx == neighbour {
                    continue;
                }
                match self.shard(idx).try_claim(sleeper, self.backoff, record) {
                    claimed @ ClaimOutcome::Claimed(_) => return claimed,
                    ClaimOutcome::Raced => raced = true,
                    ClaimOutcome::NoSpace => {}
                }
            }
        }
        if raced {
            ClaimOutcome::Raced
        } else {
            ClaimOutcome::NoSpace
        }
    }

    /// First half of a claim against a specific shard: the `T`/`S`/`W` loads
    /// and admission check of [`SleepSlotBuffer::try_claim`], returning the
    /// observed head `S` (or `None` when the shard has no space).  Together
    /// with [`SleepSlotBuffer::commit_claim_at`] this exposes the *exact*
    /// production claim protocol as two halves, so a deterministic harness
    /// (the `slot_fastpath` bench, the reshard proptests) can interleave
    /// real head CASes in a chosen order — the same seam philosophy as the
    /// DES engine's slot-wait hook.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= max_shard_count()`.
    pub fn begin_claim_at(&self, shard: usize) -> Option<u64> {
        self.shard(shard).begin_claim()
    }

    /// Second half of a split claim: the head CAS against `observed` (from
    /// [`SleepSlotBuffer::begin_claim_at`] on the same shard) and the slot
    /// write.  A lost CAS increments the shard's `claim_races` counter
    /// exactly as on the production path.  On success the returned index is
    /// global, as from [`SleepSlotBuffer::try_claim`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= max_shard_count()`.
    pub fn commit_claim_at(&self, shard: usize, sleeper: SleeperId, observed: u64) -> ClaimOutcome {
        self.shard(shard).commit_claim(sleeper, observed, ())
    }

    /// The slot word holding global claim index `idx`.
    #[inline]
    fn slot(&self, idx: usize) -> &AtomicU64 {
        let cap = self.layout.shard_capacity;
        let (shard, slot) = (idx / cap, idx % cap);
        &self.words()[self.layout.slots_base() + shard * self.layout.ring_stride() + slot]
    }

    /// Whether the slot at `idx` still belongs to `sleeper` (i.e. the
    /// controller has not cleared it yet).
    pub fn still_claimed(&self, idx: usize, sleeper: SleeperId) -> bool {
        self.slot(idx).load(Ordering::Acquire) == sleeper.slot_value()
    }

    /// Releases a claim: clears the slot if it is still ours and increments
    /// the owning shard's `W`.  Must be called exactly once per successful
    /// claim — whether the thread slept and woke, timed out, or acquired the
    /// lock before ever sleeping.
    pub fn leave(&self, idx: usize, sleeper: SleeperId) {
        let _ = self.slot(idx).compare_exchange(
            sleeper.slot_value(),
            0,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        self.counters(idx / self.layout.shard_capacity)[W].fetch_add(1, Ordering::AcqRel);
    }

    /// Sets the global sleep target, partitioned evenly across shards and
    /// capped at the capacity the buffer was built with (the *requested*
    /// capacity — per-shard rounding never widens the cap).  If a shard's
    /// target shrank below its current sleepers, wakes the excess in that
    /// shard immediately (the controller side of Figure 7).  Returns how
    /// many sleepers were woken.
    ///
    /// The controller publishes load-aware partitions through
    /// [`SleepSlotBuffer::set_shard_targets`]; this even split is the manual
    /// / single-shard entry point.
    pub fn set_target(&self, new_target: u64) -> usize {
        let capped = new_target.min(self.requested_capacity);
        // The split is computed under the publish lock so a concurrent live
        // reshard cannot change the active shard count between the split and
        // its publication.
        let _publish = self.publish.lock().unwrap();
        let split = even_split(
            capped,
            self.shard_count(),
            self.layout.shard_capacity as u64,
        );
        self.publish_locked(&split)
    }

    /// Publishes one target per shard (`targets.len()` must equal
    /// [`SleepSlotBuffer::shard_count`]; each entry is capped at the shard
    /// capacity).  The wake scan then walks **only** the shards whose target
    /// shrank below their outstanding claims.  Returns the total number of
    /// sleepers woken.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != shard_count()`.
    pub fn set_shard_targets(&self, targets: &[u64]) -> usize {
        // One publisher at a time: a partition is many stores, and two
        // interleaved publishers would leave the shard targets a mix of two
        // partitions with the cached total out of sync.  The length check
        // runs under the same lock so it is judged against the shard count
        // the publication will actually see.
        let _publish = self.publish.lock().unwrap();
        assert_eq!(
            targets.len(),
            self.shard_count(),
            "one target per active shard required"
        );
        self.publish_locked(targets)
    }

    /// Publishes `targets` only if the global target still equals
    /// `expected_total` — the controller's *rebalance* path, which
    /// repartitions an unchanged total and must not clobber a target that an
    /// external [`SleepSlotBuffer::set_target`] caller changed since the
    /// cycle read it.  Returns `None` (nothing published) when the
    /// precondition fails — the total moved, or a live reshard changed the
    /// active shard count since the partition was computed.
    pub fn set_shard_targets_if(&self, targets: &[u64], expected_total: u64) -> Option<usize> {
        let _publish = self.publish.lock().unwrap();
        if targets.len() != self.shard_count() {
            // The active shard count moved since the caller took its
            // snapshot (a live reshard won the race): the partition is
            // stale, like a changed total.
            return None;
        }
        if self.target() != expected_total {
            return None;
        }
        Some(self.publish_locked(targets))
    }

    /// The publication body; the caller holds the `publish` lock.
    ///
    /// The shrink pass is **batched**: every shard whose target fell below
    /// its outstanding claims contributes its wake candidates to one list,
    /// and the whole list is woken in a single pass — one lock round trip
    /// through the parker table instead of one per slot.
    fn publish_locked(&self, targets: &[u64]) -> usize {
        let cap = self.layout.shard_capacity as u64;
        let mut total = 0u64;
        let mut wakes = Vec::new();
        for (shard, &target) in (0..self.shard_count()).zip(targets) {
            let capped = target.min(cap);
            total += capped;
            let counters = self.counters(shard);
            counters[T].store(capped, Ordering::Release);
            let sleepers = sleepers_of(counters);
            if sleepers > capped {
                self.shard(shard).collect_wakes(
                    (sleepers - capped) as usize,
                    self.wake_order,
                    self.exempt(),
                    &mut wakes,
                );
            }
        }
        self.words()[TOTAL_TARGET].store(total, Ordering::Release);
        self.wake_batch(&wakes);
        wakes.len()
    }

    /// Wakes every collected wake candidate in one batch (the second half
    /// of the two-phase wake scan).
    fn wake_batch(&self, wakes: &[u64]) {
        if !wakes.is_empty() {
            self.wakeup.wake(wakes);
        }
    }

    /// Clears up to `count` occupied slots (scanning all physical shards in
    /// order, so sleepers still draining out of resized-away shards are
    /// reachable) and wakes their owners in one batch.  Returns how many
    /// were actually woken.
    pub fn wake(&self, count: usize) -> usize {
        if count == 0 {
            return 0;
        }
        let mut wakes = Vec::new();
        let mut remaining = count;
        for shard in 0..self.layout.shards {
            if remaining == 0 {
                break;
            }
            remaining -= self.shard(shard).collect_wakes(
                remaining,
                self.wake_order,
                self.exempt(),
                &mut wakes,
            );
        }
        self.wake_batch(&wakes);
        wakes.len()
    }

    /// Changes the number of *active* shards to `new_count` (clamped to
    /// `[1, max_shard_count()]` and rounded up to a power of two), keeping
    /// the current global target — the **live reshard** mechanism.
    ///
    /// * **Grow**: the wider mask is exposed first (the new shards start at
    ///   target 0, so claims cannot outrun the controller), then the current
    ///   total is re-split over the wider set.
    /// * **Shrink**: the drained shards' targets drop to 0 and the narrower
    ///   mask is exposed, so no new claim lands on them; the total is
    ///   re-split over the survivors; then every sleeper still parked in a
    ///   drained shard is woken in one batch.  Outstanding claims keep their
    ///   global indices — the physical layout never moves — and each leaves
    ///   through its own shard's `W`, so the drained shards' `S − W` books
    ///   drain to zero.  [`SleepSlotBuffer::drained_sleepers`] reports the
    ///   remaining debt; callers re-run [`SleepSlotBuffer::sweep_drained`]
    ///   until it clears (a claim can race the sweep by one publication, and
    ///   sleep timeouts bound the wait regardless).
    ///
    /// Returns how many sleepers the resize woke — a shrink wakes the
    /// drained shards' occupants, and a grow's re-publication wakes sleepers
    /// clustered above their shard's narrower per-shard target (they migrate
    /// by re-claiming on the wider set).
    pub fn resize_active_shards(&self, new_count: usize) -> usize {
        let new = new_count.clamp(1, self.layout.shards).next_power_of_two();
        let _publish = self.publish.lock().unwrap();
        let current = self.shard_count();
        if new == current {
            return 0;
        }
        let total = self.target();
        let cap = self.layout.shard_capacity as u64;
        if new > current {
            self.words()[ACTIVE_MASK].store(new as u64 - 1, Ordering::Release);
            return self.publish_locked(&even_split(total, new, cap));
        }
        for shard in new..current {
            self.counters(shard)[T].store(0, Ordering::Release);
        }
        self.words()[ACTIVE_MASK].store(new as u64 - 1, Ordering::Release);
        let woken = self.publish_locked(&even_split(total, new, cap));
        woken + self.sweep_drained_locked()
    }

    /// Wakes every sleeper still parked in a drained (inactive) shard, in
    /// one batch.  The controller calls this each cycle while
    /// [`SleepSlotBuffer::drained_sleepers`] is non-zero, so a claim that
    /// raced the shrink by one publication is woken on the next cycle — no
    /// sleeper is stranded mid-migration.  Returns how many were woken.
    pub fn sweep_drained(&self) -> usize {
        let _publish = self.publish.lock().unwrap();
        self.sweep_drained_locked()
    }

    fn sweep_drained_locked(&self) -> usize {
        let active = self.shard_count();
        if active == self.layout.shards {
            return 0;
        }
        let mut wakes = Vec::new();
        for shard in active..self.layout.shards {
            self.shard(shard)
                .collect_wakes(usize::MAX, self.wake_order, self.exempt(), &mut wakes);
        }
        self.wake_batch(&wakes);
        wakes.len()
    }

    /// Outstanding claims (`S_i − W_i`) still held in drained (inactive)
    /// shards — the quiesce debt of the most recent shrink.  Zero once every
    /// displaced sleeper has woken and left.
    pub fn drained_sleepers(&self) -> u64 {
        (self.shard_count()..self.layout.shards)
            .map(|shard| sleepers_of(self.counters(shard)))
            .sum()
    }

    /// Wakes every sleeper and resets all targets to zero (shutdown path).
    ///
    /// Exemptions are cleared first: shutdown must release *everyone*,
    /// including a combiner whose slot the ordinary wake scan would skip.
    pub fn wake_all(&self) -> usize {
        {
            let _publish = self.publish.lock().unwrap();
            for shard in 0..self.layout.shards {
                self.counters(shard)[T].store(0, Ordering::Release);
            }
            self.words()[TOTAL_TARGET].store(0, Ordering::Release);
        }
        self.exempt().clear_all();
        self.wake(self.capacity())
    }

    /// Marks `sleeper` exempt from the controller's wake scan — the
    /// active-combiner exemption of the delegation lock plane: while a
    /// thread executes other threads' critical sections, clearing its sleep
    /// slot would waste a wake on a thread that is already running.
    ///
    /// Returns `false` when the exempt table is full ([`MAX_EXEMPT`]
    /// concurrent exemptions) — the caller simply proceeds without the
    /// exemption, which is safe (a skipped exemption only means the combiner
    /// can absorb a wake it does not need).
    pub fn set_exempt(&self, sleeper: SleeperId) -> bool {
        self.exempt().insert(sleeper.slot_value())
    }

    /// Removes `sleeper`'s wake-scan exemption, if present.
    pub fn clear_exempt(&self, sleeper: SleeperId) {
        self.exempt().remove(sleeper.slot_value());
    }

    /// Whether `sleeper` is currently exempt from the wake scan.
    pub fn is_exempt(&self, sleeper: SleeperId) -> bool {
        self.exempt().contains(sleeper.slot_value())
    }

    /// Raw registration indices ([`SleeperId::index`]) of every currently
    /// exempt sleeper, for introspection and tests.
    pub fn exempt_ids(&self) -> Vec<u64> {
        self.exempt().ids()
    }

    /// Number of wake-scan encounters with an exempt slot (each one skipped
    /// and redirected to the next occupied slot).
    pub fn exempt_skips(&self) -> u64 {
        self.exempt().skips.load(Ordering::Relaxed)
    }

    /// Snapshot of the buffer's counters, aggregated over all shards.
    ///
    /// Within each shard `W` is loaded *before* `S`: a departure is recorded
    /// only after its matching claim by the same thread, so per shard — and
    /// therefore in the sum — a snapshot always satisfies
    /// `ever_slept >= woken_and_left`.
    pub fn stats(&self) -> SlotBufferStats {
        let mut stats = SlotBufferStats {
            target: self.target(),
            exempt: self.exempt().ids().len() as u64,
            wait: self.wait_snapshot().observation(),
            ..SlotBufferStats::default()
        };
        for shard in 0..self.layout.shards {
            let shard = self.shard_stats(shard);
            stats.ever_slept += shard.ever_slept;
            stats.woken_and_left += shard.woken_and_left;
            stats.controller_wakes += shard.controller_wakes;
            stats.claim_races += shard.claim_races;
        }
        stats
    }

    /// Counters for one shard (`target` is the shard's own `T_i`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= max_shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> SlotBufferStats {
        let c = self.counters(shard);
        let w = c[W].load(Ordering::Acquire);
        let s = c[S].load(Ordering::Acquire);
        SlotBufferStats {
            ever_slept: s,
            woken_and_left: w,
            target: c[T].load(Ordering::Relaxed),
            controller_wakes: c[CONTROLLER_WAKES].load(Ordering::Relaxed),
            claim_races: c[CLAIM_RACES].load(Ordering::Relaxed),
            // Exemption and wait stats are buffer-global; defaults here keep
            // shard sums honest.
            exempt: 0,
            wait: WaitObservation::default(),
        }
    }

    /// Lost head-CAS counts per *physical* shard, in shard order (inactive
    /// shards keep the races they accumulated while active).
    ///
    /// The per-shard breakdown of [`SlotBufferStats::claim_races`]: a single
    /// hot shard (skewed home-shard assignment, or too few shards for the
    /// waiter population) shows up here while the aggregate still looks
    /// flat.
    pub fn claim_races_per_shard(&self) -> Vec<u64> {
        (0..self.layout.shards)
            .map(|shard| self.counters(shard)[CLAIM_RACES].load(Ordering::Relaxed))
            .collect()
    }

    /// Per-shard snapshots of the *active* shards for the controller's
    /// target splitter (one snapshot per shard a partition may target).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        (0..self.shard_count())
            .map(|shard| {
                let stats = self.shard_stats(shard);
                ShardSnapshot {
                    sleepers: stats.ever_slept.saturating_sub(stats.woken_and_left),
                    ever_slept: stats.ever_slept,
                    claim_races: stats.claim_races,
                    target: stats.target,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper(buf: &SleepSlotBuffer) -> SleeperId {
        buf.register_sleeper(Arc::new(Parker::new()))
    }

    #[test]
    fn no_space_when_target_is_zero() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        assert!(!buf.has_space());
        assert!(!buf.has_space_for(id));
        assert_eq!(buf.try_claim(id), ClaimOutcome::NoSpace);
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn claim_and_leave_balance_s_and_w() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        buf.set_target(2);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        assert_eq!(buf.sleepers(), 1);
        assert!(buf.still_claimed(idx, id));
        buf.leave(idx, id);
        assert_eq!(buf.sleepers(), 0);
        assert!(!buf.still_claimed(idx, id));
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, 1);
        assert_eq!(stats.woken_and_left, 1);
    }

    #[test]
    fn claims_stop_at_target() {
        let buf = SleepSlotBuffer::new(16);
        buf.set_target(2);
        let a = sleeper(&buf);
        let b = sleeper(&buf);
        let c = sleeper(&buf);
        assert!(matches!(buf.try_claim(a), ClaimOutcome::Claimed(_)));
        assert!(matches!(buf.try_claim(b), ClaimOutcome::Claimed(_)));
        assert_eq!(buf.try_claim(c), ClaimOutcome::NoSpace);
        assert_eq!(buf.sleepers(), 2);
    }

    #[test]
    fn shrinking_target_wakes_excess_sleepers() {
        let buf = SleepSlotBuffer::new(16);
        buf.set_target(3);
        let parkers: Vec<Arc<Parker>> = (0..3).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let mut claims = Vec::new();
        for id in &ids {
            match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => claims.push(idx),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(buf.sleepers(), 3);

        // Shrink the target: two sleepers must be cleared and unparked.
        let woken = buf.set_target(1);
        assert_eq!(woken, 2);
        let cleared = ids
            .iter()
            .zip(&claims)
            .filter(|(id, idx)| !buf.still_claimed(**idx, **id))
            .count();
        assert_eq!(cleared, 2);
        // Two parkers received permits.
        let permits: u64 = parkers.iter().map(|p| p.unpark_count()).sum();
        assert_eq!(permits, 2);
        assert_eq!(buf.stats().controller_wakes, 2);

        // Every claimant still leaves exactly once.
        for (id, idx) in ids.iter().zip(&claims) {
            buf.leave(*idx, *id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    /// Builds the slot layout where fifo and window wake order disagree:
    /// a ring of 4 where the oldest claim sits at slot 1 and the *newest*
    /// wrapped around into slot 0.  Returns `(buffer, ids, claims)` with
    /// ids[0] already departed.
    fn wrapped_ring(order: WakeOrder) -> (SleepSlotBuffer, Vec<SleeperId>, Vec<usize>) {
        let buf = SleepSlotBuffer::new(4).with_wake_order(order);
        buf.set_target(4);
        let ids: Vec<_> = (0..5).map(|_| sleeper(&buf)).collect();
        let mut claims: Vec<usize> = ids[..4]
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(claims, vec![0, 1, 2, 3]);
        // The first claimant leaves; the next claim wraps into its slot.
        buf.leave(claims[0], ids[0]);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(ids[4]) else {
            panic!("wrap-around claim failed");
        };
        assert_eq!(idx, 0, "head must wrap into the vacated slot");
        claims.push(idx);
        (buf, ids, claims)
    }

    /// Wrap eviction, pinned: a claim whose head wraps onto a slot whose
    /// sleeper is still parked overwrites it.  The books stay exact — the
    /// evicted claim is still outstanding in `S − W` and its `leave` is
    /// counted once — but no wake scan can reach it any more.
    #[test]
    fn a_claim_that_wraps_onto_a_parked_sleeper_evicts_it_and_keeps_the_books() {
        let buf = SleepSlotBuffer::new(4);
        buf.set_target(4);
        let ids: Vec<_> = (0..5).map(|_| sleeper(&buf)).collect();
        let claims: Vec<usize> = ids[..4]
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(claims, vec![0, 1, 2, 3]);
        for (id, idx) in ids[1..4].iter().zip(&claims[1..]) {
            buf.leave(*idx, *id);
        }
        // S = 4, W = 3: the head is at slot 4 mod 4 = 0, still occupied.
        let ClaimOutcome::Claimed(lap) = buf.try_claim(ids[4]) else {
            panic!("claim under the target failed");
        };
        assert_eq!(lap, 0, "the head wrapped onto the parked sleeper's slot");
        assert!(!buf.still_claimed(claims[0], ids[0]), "sleeper not evicted");
        assert!(buf.still_claimed(lap, ids[4]));
        assert_eq!(buf.sleepers(), 2, "S - W must count both claims");

        // Shrinking to zero reaches only the slot's current owner.
        assert_eq!(buf.set_target(0), 1);
        assert_eq!(buf.sleepers(), 2);

        // The evicted sleeper's own leave advances W exactly once.
        let before = buf.stats().woken_and_left;
        buf.leave(claims[0], ids[0]);
        assert_eq!(buf.stats().woken_and_left, before + 1);
        assert_eq!(buf.sleepers(), 1);
        buf.leave(lap, ids[4]);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, 5);
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn claim_records_land_before_the_slot_and_name_the_global_index() {
        let buf = SleepSlotBuffer::with_shards(8, 2);
        buf.set_target(8);
        let ids: Vec<_> = (0..2).map(|_| sleeper(&buf)).collect();
        let record = AtomicU64::new(0);
        let ClaimOutcome::Claimed(idx) = buf.try_claim_recorded(ids[1], &record) else {
            panic!("claim failed");
        };
        assert_eq!(idx, 4, "sleeper 1 homes on shard 1, whose first slot is 4");
        assert_eq!(record.load(Ordering::Acquire), idx as u64 + 1);
        assert!(buf.still_claimed(idx, ids[1]));
        // A failed claim leaves the record alone.
        buf.set_target(0);
        record.store(0, Ordering::Release);
        assert_eq!(
            buf.try_claim_recorded(ids[0], &record),
            ClaimOutcome::NoSpace
        );
        assert_eq!(record.load(Ordering::Acquire), 0);
        buf.leave(idx, ids[1]);
    }

    #[test]
    fn book_layout_keeps_s_w_t_on_separate_lines_and_fits_its_store() {
        for (shards, cap) in [(1, 1), (4, 64), (8, 125_000), (2, 17)] {
            let layout = BookLayout::new(shards, cap);
            assert_eq!(layout.words() % LINE_WORDS, 0);
            let lines: std::collections::HashSet<usize> = (0..shards)
                .flat_map(|s| [layout.s_word(s), layout.w_word(s), layout.t_word(s)])
                .map(|w| w / LINE_WORDS)
                .collect();
            assert_eq!(lines.len(), 3 * shards, "S/W/T groups collide");
            assert!(layout.t_word(shards - 1) < layout.words());
        }
        // The heap store is group-aligned.
        let buf = SleepSlotBuffer::with_shards(16, 4);
        assert_eq!(buf.words().as_ptr() as usize % (LINE_WORDS * 8), 0);
        assert!(buf.words().len() >= BookLayout::new(4, 4).words());
    }

    #[test]
    fn fifo_wake_order_favors_low_slot_indices() {
        let (buf, ids, claims) = wrapped_ring(WakeOrder::Fifo);
        assert_eq!(buf.wake_order(), WakeOrder::Fifo);
        assert_eq!(buf.wake(1), 1);
        // Array order visits slot 0 first — the *newest* claim (ids[4]).
        assert!(!buf.still_claimed(claims[4], ids[4]));
        assert!(buf.still_claimed(claims[1], ids[1]), "oldest left parked");
    }

    #[test]
    fn window_wake_order_clears_the_oldest_claim_first() {
        let (buf, ids, claims) = wrapped_ring(WakeOrder::Window);
        assert_eq!(buf.wake_order(), WakeOrder::Window);
        assert_eq!(buf.wake(1), 1);
        // Stamp order finds the oldest outstanding claim (ids[1], slot 1)
        // even though a newer claim occupies a lower array index.
        assert!(!buf.still_claimed(claims[1], ids[1]));
        assert!(buf.still_claimed(claims[4], ids[4]), "newest left parked");
        // Waking the rest drains oldest-first with no double wakes.
        assert_eq!(buf.wake(8), 3);
        assert_eq!(buf.stats().controller_wakes, 4);
    }

    #[test]
    fn record_wait_feeds_the_buffer_histogram() {
        let buf = SleepSlotBuffer::new(4);
        assert_eq!(
            buf.stats().wait,
            lc_locks::stats::WaitObservation::default()
        );
        buf.record_wait(Duration::from_micros(10));
        buf.record_wait(Duration::from_micros(10));
        let wait = buf.stats().wait;
        assert_eq!(wait.count, 2);
        assert!(wait.p99_ns >= 10_000, "p99 below a recorded value");
        assert!(wait.p99_ns <= 12_500, "p99 outside the 25% error bound");
        let snap = buf.wait_snapshot();
        assert_eq!(snap.count(), 2);
    }

    #[test]
    fn growing_target_wakes_nobody() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(1);
        let id = sleeper(&buf);
        assert!(matches!(buf.try_claim(id), ClaimOutcome::Claimed(_)));
        assert_eq!(buf.set_target(4), 0);
        assert_eq!(buf.sleepers(), 1);
    }

    #[test]
    fn wake_all_clears_everything() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(4);
        let ids: Vec<_> = (0..4).map(|_| sleeper(&buf)).collect();
        let claims: Vec<_> = ids
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(buf.wake_all(), 4);
        assert_eq!(buf.target(), 0);
        for (id, idx) in ids.iter().zip(&claims) {
            assert!(!buf.still_claimed(*idx, *id));
            buf.leave(*idx, *id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn target_is_capped_by_capacity() {
        let buf = SleepSlotBuffer::new(4);
        buf.set_target(100);
        assert_eq!(buf.target(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = SleepSlotBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panic() {
        let _ = SleepSlotBuffer::with_shards(16, 3);
    }

    #[test]
    fn concurrent_claims_never_exceed_target_by_much() {
        use std::sync::atomic::AtomicU64 as StdU64;
        use std::thread;
        let buf = Arc::new(SleepSlotBuffer::new(64));
        buf.set_target(8);
        let claimed = Arc::new(StdU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let buf = Arc::clone(&buf);
            let claimed = Arc::clone(&claimed);
            handles.push(thread::spawn(move || {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                for _ in 0..200 {
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        claimed.fetch_add(1, Ordering::Relaxed);
                        buf.leave(idx, id);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // S and W must balance after everyone left.  (A mid-run `sleepers()`
        // snapshot is deliberately not bounded here: the documented
        // W-before-S read order overcounts by however many claim/leave
        // cycles complete while the reader is stalled between the loads.)
        assert_eq!(buf.sleepers(), 0);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        assert_eq!(stats.ever_slept, claimed.load(Ordering::Relaxed));
        // Admission soundness, checked deterministically now that the herd
        // is gone: exactly `target` further claims fit, never one more.
        let ids: Vec<SleeperId> = (0..10)
            .map(|_| buf.register_sleeper(Arc::new(Parker::new())))
            .collect();
        let mut held = Vec::new();
        for &id in &ids {
            if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                held.push((idx, id));
            }
        }
        assert_eq!(held.len(), 8, "exactly the target may be outstanding");
        for (idx, id) in held {
            buf.leave(idx, id);
        }
    }

    // -- sharded-specific behaviour --------------------------------------

    #[test]
    fn sharded_capacity_rounds_up_per_shard() {
        let buf = SleepSlotBuffer::with_shards(10, 4);
        assert_eq!(buf.shard_count(), 4);
        assert_eq!(buf.shard_capacity(), 3);
        assert_eq!(buf.capacity(), 12);
        // The target cap stays at the requested capacity, not the rounded-up
        // physical slot count.
        buf.set_target(100);
        assert_eq!(buf.target(), 10);
    }

    #[test]
    fn home_shard_is_stable_and_registration_order_based() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(buf.home_shard(*id), i % 4);
            // Stable on repeated queries.
            assert_eq!(buf.home_shard(*id), i % 4);
        }
    }

    #[test]
    fn claims_land_on_the_home_shard_when_it_has_room() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[2, 2, 2, 2]);
        let ids: Vec<_> = (0..4).map(|_| sleeper(&buf)).collect();
        for (i, id) in ids.iter().enumerate() {
            let ClaimOutcome::Claimed(idx) = buf.try_claim(*id) else {
                panic!("expected a claim for sleeper {i}");
            };
            assert_eq!(idx / buf.shard_capacity(), i, "claim left its home shard");
        }
        assert_eq!(buf.sleepers(), 4);
        for i in 0..4 {
            assert_eq!(buf.shard_sleepers(i), 1);
        }
    }

    #[test]
    fn full_home_shard_overflows_to_the_neighbour() {
        let buf = SleepSlotBuffer::with_shards(8, 2);
        // Room in shard 1 only.
        buf.set_shard_targets(&[1, 1]);
        let a = sleeper(&buf); // id 0 → home shard 0
        let c = sleeper(&buf); // id 1 → home shard 1
        let b = {
            let _skip = sleeper(&buf); // id 2 → keep ids aligned
            sleeper(&buf) // id 3 → home shard 1
        };
        let _ = c;
        let ClaimOutcome::Claimed(idx_a) = buf.try_claim(a) else {
            panic!("first claim must land in the home shard");
        };
        assert_eq!(idx_a / buf.shard_capacity(), 0);
        // Shard 1's one slot goes to `b`…
        let ClaimOutcome::Claimed(idx_b) = buf.try_claim(b) else {
            panic!("expected a claim");
        };
        assert_eq!(idx_b / buf.shard_capacity(), 1);
        // …so a second shard-0 sleeper cannot claim anywhere (both full)…
        let d = {
            let _skip = sleeper(&buf); // id 4
            let e = sleeper(&buf); // id 5
            let _ = e;
            let f = buf.register_sleeper(Arc::new(Parker::new())); // id 6 → home 0
            f
        };
        assert_eq!(buf.try_claim(d), ClaimOutcome::NoSpace);
        // …until shard 0 frees up; but with shard 0 full and room in shard 1,
        // a shard-0 sleeper overflows one hop.
        buf.set_shard_targets(&[1, 2]);
        let ClaimOutcome::Claimed(idx_d) = buf.try_claim(d) else {
            panic!("overflow probe must rescue a full home shard");
        };
        assert_eq!(idx_d / buf.shard_capacity(), 1, "expected neighbour shard");
        for (idx, id) in [(idx_a, a), (idx_b, b), (idx_d, d)] {
            buf.leave(idx, id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn zero_target_shard_pair_falls_back_to_populated_shards() {
        // A global target smaller than the shard count leaves shards at
        // target 0; threads homed on a zero-target pair must still be able
        // to see and claim the open slots elsewhere.
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[1, 0, 0, 0]);
        // Sleeper with id 1: home shard 1 (target 0), neighbour shard 2
        // (target 0) — only the fallback can reach shard 0.
        let _a = sleeper(&buf); // id 0
        let b = sleeper(&buf); // id 1
        assert!(buf.has_space_for(b));
        let ClaimOutcome::Claimed(idx) = buf.try_claim(b) else {
            panic!("zero-target pair stranded the sleeper");
        };
        assert_eq!(
            idx / buf.shard_capacity(),
            0,
            "expected the populated shard"
        );
        // With shard 0 now full, nothing is claimable anywhere.
        let c = {
            let _skip = sleeper(&buf); // id 2
            let _skip = sleeper(&buf); // id 3
            let _skip = sleeper(&buf); // id 4
            sleeper(&buf) // id 5 → home shard 1 again
        };
        assert!(!buf.has_space_for(c));
        assert_eq!(buf.try_claim(c), ClaimOutcome::NoSpace);
        buf.leave(idx, b);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn saturated_local_pair_falls_back_to_open_shards() {
        // Review scenario: home shard closed (target 0), neighbour populated
        // but already full — the wider probe must still reach the other open
        // shard instead of leaving the global target unreachable.
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_shard_targets(&[1, 1, 0, 0]);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        // id 3: home shard 3 (target 0) → neighbour shard 0 takes it.
        let ClaimOutcome::Claimed(first) = buf.try_claim(ids[3]) else {
            panic!("expected the neighbour to take the claim");
        };
        assert_eq!(first / buf.shard_capacity(), 0);
        // id 7: home shard 3 (target 0), neighbour shard 0 now full — only
        // the widened probe can reach shard 1's open slot.
        let ClaimOutcome::Claimed(second) = buf.try_claim(ids[7]) else {
            panic!("saturated local pair stranded the sleeper");
        };
        assert_eq!(second / buf.shard_capacity(), 1);
        // Global target reached: nothing further is claimable.
        assert_eq!(buf.sleepers(), buf.target());
        assert!(!buf.has_space_for(ids[3]));
        assert_eq!(buf.try_claim(ids[0]), ClaimOutcome::NoSpace);
        buf.leave(first, ids[3]);
        buf.leave(second, ids[7]);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn shard_targets_sum_to_the_global_target() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_target(7);
        let per_shard: Vec<u64> = (0..4).map(|i| buf.shard_target(i)).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 7);
        assert_eq!(buf.target(), 7);
        // Even split: first `rem` shards carry the extra unit.
        assert_eq!(per_shard, vec![2, 2, 2, 1]);
    }

    #[test]
    fn set_shard_targets_caps_each_shard_and_wakes_only_shrunk_shards() {
        let buf = SleepSlotBuffer::with_shards(8, 2); // 4 slots per shard
        let parkers: Vec<Arc<Parker>> = (0..4).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        buf.set_shard_targets(&[2, 2]);
        let mut claims = Vec::new();
        for id in &ids {
            match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => claims.push((idx, *id)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(buf.shard_sleepers(0), 2);
        assert_eq!(buf.shard_sleepers(1), 2);
        // Shrink only shard 0; shard 1 requests far above capacity (capped).
        let woken = buf.set_shard_targets(&[0, 100]);
        assert_eq!(woken, 2, "only shard 0's excess may be woken");
        assert_eq!(buf.shard_target(1), 4, "target capped at shard capacity");
        assert_eq!(buf.target(), 4);
        // The two cleared slots both belong to shard 0.
        let cleared: Vec<usize> = claims
            .iter()
            .filter(|(idx, id)| !buf.still_claimed(*idx, *id))
            .map(|(idx, _)| idx / buf.shard_capacity())
            .collect();
        assert_eq!(cleared, vec![0, 0]);
        for (idx, id) in claims {
            buf.leave(idx, id);
        }
        assert_eq!(buf.sleepers(), 0);
    }

    #[test]
    fn even_split_sums_and_caps() {
        assert_eq!(even_split(7, 4, 4), vec![2, 2, 2, 1]);
        assert_eq!(even_split(0, 4, 4), vec![0, 0, 0, 0]);
        assert_eq!(even_split(16, 4, 4), vec![4, 4, 4, 4]);
        // Over-capacity requests are clamped to the total capacity.
        assert_eq!(even_split(100, 4, 4), vec![4, 4, 4, 4]);
        assert_eq!(even_split(5, 1, 8), vec![5]);
    }

    #[test]
    fn single_shard_buffer_reports_one_shard() {
        let buf = SleepSlotBuffer::new(8);
        assert_eq!(buf.shard_count(), 1);
        assert_eq!(buf.shard_capacity(), 8);
        let id = sleeper(&buf);
        assert_eq!(buf.home_shard(id), 0);
    }

    #[test]
    fn shard_stats_aggregate_to_global_stats() {
        let buf = SleepSlotBuffer::with_shards(16, 4);
        buf.set_target(8);
        let ids: Vec<_> = (0..8).map(|_| sleeper(&buf)).collect();
        let claims: Vec<_> = ids
            .iter()
            .filter_map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => Some((idx, *id)),
                _ => None,
            })
            .collect();
        for (idx, id) in &claims {
            buf.leave(*idx, *id);
        }
        let global = buf.stats();
        let summed: u64 = (0..4).map(|i| buf.shard_stats(i).ever_slept).sum();
        assert_eq!(global.ever_slept, summed);
        let targets: u64 = (0..4).map(|i| buf.shard_stats(i).target).sum();
        assert_eq!(global.target, targets);
    }

    #[test]
    fn stats_display_and_debug_surface_the_books_and_races() {
        let buf = SleepSlotBuffer::with_shards(8, 2);
        buf.set_target(2);
        let id = sleeper(&buf);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        let shown = buf.stats().to_string();
        assert!(shown.contains("S=1"), "missing S in {shown:?}");
        assert!(shown.contains("W=0"), "missing W in {shown:?}");
        assert!(shown.contains("T=2"), "missing T in {shown:?}");
        assert!(shown.contains("sleeping=1"), "missing S−W in {shown:?}");
        assert!(shown.contains("claim_races=0"));
        let debugged = format!("{buf:?}");
        assert!(
            debugged.contains("claim_races_per_shard: [0, 0]"),
            "per-shard races missing from {debugged:?}"
        );
        buf.leave(idx, id);
        assert_eq!(buf.claim_races_per_shard(), vec![0, 0]);
    }

    #[test]
    fn exempt_sleepers_survive_the_wake_scan() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(2);
        let parkers: Vec<Arc<Parker>> = (0..2).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let claims: Vec<usize> = ids
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(buf.set_exempt(ids[0]));
        assert!(buf.is_exempt(ids[0]));
        assert!(!buf.is_exempt(ids[1]));
        assert_eq!(buf.exempt_ids(), vec![ids[0].index()]);
        // Shrink the target to zero: the scan wants both slots cleared but
        // must skip the exempt one and wake only the other sleeper.
        let woken = buf.set_target(0);
        assert_eq!(woken, 1);
        assert!(
            buf.still_claimed(claims[0], ids[0]),
            "exempt slot was cleared by the wake scan"
        );
        assert!(!buf.still_claimed(claims[1], ids[1]));
        assert!(buf.exempt_skips() >= 1);
        // Clearing the exemption lets the scan reach the slot again.
        buf.clear_exempt(ids[0]);
        assert!(!buf.is_exempt(ids[0]));
        assert_eq!(buf.wake(1), 1);
        for (idx, id) in claims.iter().zip(&ids) {
            buf.leave(*idx, *id);
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn wake_all_overrides_exemptions() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(1);
        let id = sleeper(&buf);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        assert!(buf.set_exempt(id));
        // Shutdown must release everyone, exemptions included.
        assert_eq!(buf.wake_all(), 1);
        assert!(!buf.is_exempt(id));
        assert!(!buf.still_claimed(idx, id));
        buf.leave(idx, id);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn exempt_table_fills_gracefully_and_is_idempotent() {
        let buf = SleepSlotBuffer::new(8);
        let ids: Vec<_> = (0..=MAX_EXEMPT).map(|_| sleeper(&buf)).collect();
        for id in &ids[..MAX_EXEMPT] {
            assert!(buf.set_exempt(*id));
            assert!(buf.set_exempt(*id), "re-exempting must be idempotent");
        }
        assert_eq!(buf.exempt_ids().len(), MAX_EXEMPT);
        assert!(
            !buf.set_exempt(ids[MAX_EXEMPT]),
            "a full exempt table must refuse, not panic"
        );
        buf.clear_exempt(ids[0]);
        assert!(
            buf.set_exempt(ids[MAX_EXEMPT]),
            "freed entry must be reusable"
        );
    }

    #[test]
    fn stats_snapshot_never_shows_w_above_s_under_concurrency() {
        use std::thread;
        let buf = Arc::new(SleepSlotBuffer::with_shards(32, 4));
        buf.set_target(16);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let buf = Arc::clone(&buf);
            handles.push(thread::spawn(move || {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                for _ in 0..2_000 {
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        buf.leave(idx, id);
                    }
                }
            }));
        }
        // Snapshot continuously while the hammering runs.
        for _ in 0..20_000 {
            let stats = buf.stats();
            assert!(
                stats.ever_slept >= stats.woken_and_left,
                "snapshot saw W ({}) above S ({})",
                stats.woken_and_left,
                stats.ever_slept
            );
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    // -- topology, reshard and contention management ----------------------

    use crate::config::ClaimBackoff;
    use crate::topology::{CpuShardMap, RegistrationShardMap};

    fn reshardable(capacity: usize, shards: usize, max_shards: usize) -> SleepSlotBuffer {
        SleepSlotBuffer::with_layout(
            capacity,
            shards,
            max_shards,
            Arc::new(RegistrationShardMap),
            ClaimBackoff::DISABLED,
        )
    }

    #[test]
    fn exempt_count_surfaces_in_stats_and_display() {
        let buf = SleepSlotBuffer::new(8);
        let id = sleeper(&buf);
        assert_eq!(buf.stats().exempt, 0);
        assert!(buf.set_exempt(id));
        let stats = buf.stats();
        assert_eq!(stats.exempt, 1);
        assert!(stats.to_string().contains("exempt=1"), "{stats}");
        let debugged = format!("{buf:?}");
        assert!(debugged.contains("exempt: 1"), "{debugged}");
        buf.clear_exempt(id);
        assert_eq!(buf.stats().exempt, 0);
    }

    #[test]
    fn split_claim_seam_runs_the_real_protocol() {
        let buf = SleepSlotBuffer::new(8);
        buf.set_target(4);
        let a = sleeper(&buf);
        let b = sleeper(&buf);
        // Two claimers observe the same head; the commit order decides the
        // winner, and the loser's CAS failure is a *real* claim race.
        let sa = buf.begin_claim_at(0).expect("space available");
        let sb = buf.begin_claim_at(0).expect("space available");
        assert_eq!(sa, sb);
        let ClaimOutcome::Claimed(idx_a) = buf.commit_claim_at(0, a, sa) else {
            panic!("first committer must win");
        };
        assert_eq!(buf.commit_claim_at(0, b, sb), ClaimOutcome::Raced);
        assert_eq!(buf.stats().claim_races, 1);
        // Load-then-CAS: the loser re-begins against the fresh head and
        // succeeds.
        let sb2 = buf.begin_claim_at(0).expect("space available");
        assert_ne!(sb2, sb);
        let ClaimOutcome::Claimed(idx_b) = buf.commit_claim_at(0, b, sb2) else {
            panic!("reloaded commit must win");
        };
        buf.leave(idx_a, a);
        buf.leave(idx_b, b);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        assert_eq!(stats.claim_races, 1);
    }

    #[test]
    fn contention_managed_claims_keep_the_books_balanced() {
        use std::thread;
        let buf = Arc::new(SleepSlotBuffer::with_layout(
            64,
            1,
            1,
            Arc::new(RegistrationShardMap),
            ClaimBackoff {
                retries: 3,
                max_spins: 64,
            },
        ));
        buf.set_target(8);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let buf = Arc::clone(&buf);
            handles.push(thread::spawn(move || {
                let id = buf.register_sleeper(Arc::new(Parker::new()));
                for _ in 0..500 {
                    if let ClaimOutcome::Claimed(idx) = buf.try_claim(id) {
                        assert!(buf.sleepers() <= 16);
                        buf.leave(idx, id);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }

    #[test]
    fn cpu_topology_homes_claims_by_simulated_placement() {
        use std::sync::atomic::AtomicUsize as StdUsize;
        let cpu = Arc::new(StdUsize::new(2));
        let probe_cpu = Arc::clone(&cpu);
        let map = CpuShardMap::with_probe(
            Arc::new(move || Some(probe_cpu.load(Ordering::Relaxed))),
            1, // revalidate every claim so the moved "CPU" is seen at once
        );
        let buf = SleepSlotBuffer::with_layout(16, 4, 4, Arc::new(map), ClaimBackoff::DISABLED);
        buf.set_shard_targets(&[2, 2, 2, 2]);
        let id = sleeper(&buf);
        assert_eq!(buf.home_shard(id), 2);
        let ClaimOutcome::Claimed(idx) = buf.try_claim(id) else {
            panic!("expected a claim");
        };
        assert_eq!(idx / buf.shard_capacity(), 2, "claim must follow the CPU");
        cpu.store(1, Ordering::Relaxed);
        assert_eq!(buf.home_shard(id), 1, "migration must move the home");
        buf.leave(idx, id);
    }

    #[test]
    fn live_reshard_grows_and_shrinks_without_stranding_sleepers() {
        let buf = reshardable(16, 1, 4);
        assert_eq!(buf.shard_count(), 1);
        assert_eq!(buf.max_shard_count(), 4);
        buf.set_target(4);
        let parkers: Vec<Arc<Parker>> = (0..4).map(|_| Arc::new(Parker::new())).collect();
        let ids: Vec<SleeperId> = parkers
            .iter()
            .map(|p| buf.register_sleeper(Arc::clone(p)))
            .collect();
        let claims: Vec<usize> = ids
            .iter()
            .map(|id| match buf.try_claim(*id) {
                ClaimOutcome::Claimed(idx) => idx,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(buf.sleepers(), 4);

        // Grow 1 → 4: total target unchanged, re-split [1,1,1,1]; the three
        // sleepers above shard 0's narrower target are woken to migrate.
        let woken = buf.resize_active_shards(4);
        assert_eq!(woken, 3, "grow must wake the clustered excess");
        assert_eq!(buf.shard_count(), 4);
        assert_eq!(buf.target(), 4);
        // Woken sleepers leave and re-claim; they now spread over the wider
        // active set.
        let mut placed: Vec<(usize, SleeperId)> = Vec::new();
        for (idx, id) in claims.iter().zip(&ids) {
            if buf.still_claimed(*idx, *id) {
                placed.push((*idx, *id));
            } else {
                buf.leave(*idx, *id);
                if let ClaimOutcome::Claimed(again) = buf.try_claim(*id) {
                    placed.push((again, *id));
                }
            }
        }
        assert_eq!(buf.sleepers(), 4, "every migrant re-claimed");
        assert!(
            placed.iter().any(|(idx, _)| idx / buf.shard_capacity() > 0),
            "growth must actually spread claims beyond shard 0"
        );

        // Shrink 4 → 1: claims outside shard 0 are woken in one batch and
        // keep their valid global indices until they leave — nobody is
        // stranded mid-migration.
        let woken = buf.resize_active_shards(1);
        assert!(woken >= 1, "shrink must wake the drained shards' sleepers");
        assert_eq!(buf.shard_count(), 1);
        assert_eq!(buf.target(), 4);
        for (idx, id) in &placed {
            if idx / buf.shard_capacity() > 0 {
                assert!(
                    !buf.still_claimed(*idx, *id),
                    "sleeper stranded in a drained shard"
                );
            }
        }
        for (idx, id) in &placed {
            if !buf.still_claimed(*idx, *id) {
                buf.leave(*idx, *id);
            }
        }
        assert_eq!(buf.drained_sleepers(), 0, "drained books must balance");
        for (idx, id) in &placed {
            if buf.still_claimed(*idx, *id) {
                buf.leave(*idx, *id);
            }
        }
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
        // Idempotent sweeps and no-op resizes are free.
        assert_eq!(buf.sweep_drained(), 0);
        assert_eq!(buf.resize_active_shards(1), 0);
    }

    #[test]
    fn resize_clamps_to_the_physical_layout() {
        let buf = reshardable(16, 2, 4);
        assert_eq!(buf.resize_active_shards(64), 0); // clamped to 4, no sleepers
        assert_eq!(buf.shard_count(), 4);
        assert_eq!(buf.resize_active_shards(0), 0); // clamped to 1
        assert_eq!(buf.shard_count(), 1);
        assert_eq!(buf.resize_active_shards(3), 0); // rounded to 4
        assert_eq!(buf.shard_count(), 4);
    }

    #[test]
    fn shrink_sweep_rescues_a_claim_that_raced_the_resize() {
        // A claim that lands in a shard *as* it drains (begin before the
        // shrink, commit after) is exactly what the repeated controller
        // sweep exists for.
        let buf = reshardable(16, 2, 2);
        buf.set_shard_targets(&[2, 2]);
        let _a = sleeper(&buf); // id 0 → home shard 0
        let b = sleeper(&buf); // id 1 → home shard 1
        let observed = buf.begin_claim_at(1).expect("space in shard 1");
        assert_eq!(buf.resize_active_shards(1), 0, "nothing parked yet");
        // The straggler's commit still wins (the physical shard exists) even
        // though the shard is now inactive with target 0.
        let ClaimOutcome::Claimed(idx) = buf.commit_claim_at(1, b, observed) else {
            panic!("late commit must still land");
        };
        assert_eq!(buf.drained_sleepers(), 1);
        // The next controller sweep clears it.
        assert_eq!(buf.sweep_drained(), 1);
        assert!(!buf.still_claimed(idx, b));
        buf.leave(idx, b);
        assert_eq!(buf.drained_sleepers(), 0);
        let stats = buf.stats();
        assert_eq!(stats.ever_slept, stats.woken_and_left);
    }
}
