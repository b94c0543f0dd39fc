//! A process's handle on a segment: the shared S/W/T book plus what only a
//! cross-process plane needs — member table, sleeper cells, futex parking,
//! reclamation of dead pids' claims, and the command mailbox.
//!
//! The book is **not** implemented here.  [`ShmPlane::book`] is an
//! ordinary [`lc_core::SleepSlotBuffer`] built over the segment's book
//! words ([`SleepSlotBuffer::over_store`]), so claims, departures, targets,
//! wake scans and the wait histogram run the in-process code and keep its
//! invariants: `S − W` is the outstanding-claim count per shard and `leave`
//! runs exactly once per claim.  What this module adds:
//!
//! * **Sleeper cells.**  A sleeper's id in the book is its cell index.  A
//!   cell holds a pid+generation lease, the futex word the sleeper parks on
//!   (the book's wake path posts to it), and the index of its outstanding
//!   claim, written by the book right after the winning head CAS.
//! * **Reclamation.**  A process that dies holding a claim can never call
//!   `leave`.  [`ShmPlane::reclaim_cell`] does it on the dead sleeper's
//!   behalf, found through the cell rather than the slot — a claim whose
//!   slot a later claim overwrote (wrap eviction, see the
//!   [`lc_core::slots`] module docs) is still found.
//! * **Members.**  Worker processes publish their runnable-thread counts;
//!   the fleet controller sums them into its load sample.
//!
//! Death windows — a process killed between two steps that must both run:
//!
//! * **Claim**: between the head-`S` CAS and the store of the cell's claim
//!   word, with no other store in between.  Death there leaves one claim
//!   no record names: `S − W` stays one too high until the segment is
//!   recreated.
//! * **Leave**: between the swap that takes the cell's claim word and the
//!   `W` increment, with no other store in between.  Death there leaks one
//!   claim exactly as on the claim side: `S − W` stays one too high.
//!   Reclamation never counts a departure twice — whoever takes the claim
//!   word (the sleeper or the reclaimer) is the only one to advance `W`.
//! * **Reclaim** (the controller dying mid-sweep): between the same two
//!   steps, with the same one-claim leak.

use crate::layout::{self, Geometry};
use crate::segment::ShmSegment;
use crate::sys::{self, FutexWait};
use lc_core::{SleepSlotBuffer, SleeperId, SleeperWake, SlotHost, WordStore};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One process's handle on a mapped segment.
#[derive(Debug, Clone)]
pub struct ShmPlane {
    seg: Arc<ShmSegment>,
    book: Arc<SleepSlotBuffer>,
}

/// Point-in-time totals over every shard, for `lcctl stat` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShmBufferStats {
    /// Cumulative successful claims (`ΣS`).
    pub ever_slept: u64,
    /// Cumulative completed episodes (`ΣW`).
    pub woken_and_left: u64,
    /// Live sleepers (`ΣS − ΣW`).
    pub sleeping: u64,
    /// Fleet-wide published target.
    pub total_target: u64,
    /// Sleepers woken early by the controller.
    pub controller_wakes: u64,
    /// Lost claim CASes.
    pub claim_races: u64,
    /// Claims swept back from dead pids.
    pub reclaimed_slots: u64,
}

/// The segment's book words, as a [`WordStore`].
struct BookWords(Arc<ShmSegment>);

// SAFETY: the mapping is fixed for the segment's lifetime, so every call
// returns the same in-bounds, 8-aligned run of words.
unsafe impl WordStore for BookWords {
    fn words(&self) -> &[AtomicU64] {
        let g = self.0.geometry();
        self.0.u64_slice(g.book_off(), g.book_layout().words())
    }
}

/// The book's wake path across processes: a permit on each cleared
/// sleeper's futex word.
struct FutexCells(Arc<ShmSegment>);

impl SleeperWake for FutexCells {
    fn wake(&self, ids: &[u64]) {
        for &cell in ids {
            let word = self.0.sleeper_futex(cell as usize);
            if word.swap(1, Ordering::AcqRel) == 0 {
                sys::futex_wake(word, 1);
            }
        }
    }
}

impl ShmPlane {
    /// Wraps a mapped segment.
    pub fn new(seg: Arc<ShmSegment>) -> Self {
        let book = SleepSlotBuffer::over_store(
            Box::new(BookWords(Arc::clone(&seg))),
            seg.geometry().book_layout(),
            Box::new(FutexCells(Arc::clone(&seg))),
        );
        ShmPlane {
            seg,
            book: Arc::new(book),
        }
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<ShmSegment> {
        &self.seg
    }

    /// The segment's fixed geometry.
    pub fn geometry(&self) -> Geometry {
        self.seg.geometry()
    }

    /// The fleet's S/W/T book.
    pub fn book(&self) -> &SleepSlotBuffer {
        &self.book
    }

    // ---- sleeper cells ---------------------------------------------------

    /// Registers a sleeper cell under a fresh pid+generation lease.
    /// Returns the cell index, or `None` when the table is full.
    pub fn register_sleeper(&self, pid: u32) -> Option<usize> {
        let lease = layout::lease(pid, self.seg.next_generation());
        (0..self.geometry().max_sleepers).find(|&cell| {
            let won = self
                .seg
                .sleeper_word(cell, layout::SLEEPER_LEASE)
                .compare_exchange(0, lease, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            if won {
                // A recycled cell may hold a permit a late wake posted to
                // its dead predecessor; a fresh registrant must not
                // inherit it (the cross-process copy of the Parker
                // stale-permit rule).
                self.drain_cell_permit(cell);
            }
            won
        })
    }

    /// Releases a sleeper cell's lease.
    pub fn release_sleeper(&self, cell: usize) {
        self.seg
            .sleeper_word(cell, layout::SLEEPER_LEASE)
            .store(0, Ordering::Release);
    }

    /// The lease word currently held by `cell` (0 when free).
    pub fn sleeper_lease(&self, cell: usize) -> u64 {
        self.seg
            .sleeper_word(cell, layout::SLEEPER_LEASE)
            .load(Ordering::Acquire)
    }

    /// The global slot index of `cell`'s outstanding claim, if it has one.
    pub fn sleeper_claim(&self, cell: usize) -> Option<usize> {
        match self
            .seg
            .sleeper_word(cell, layout::SLEEPER_CLAIM)
            .load(Ordering::Acquire)
        {
            0 => None,
            claim => Some(claim as usize - 1),
        }
    }

    // ---- members ---------------------------------------------------------

    /// Registers a worker process in the member table.
    pub fn register_member(&self, pid: u32) -> Option<usize> {
        let lease = layout::lease(pid, self.seg.next_generation());
        (0..self.geometry().max_members).find(|&m| {
            let won = self
                .seg
                .member_word(m, layout::MEMBER_LEASE)
                .compare_exchange(0, lease, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok();
            if won {
                self.set_member_runnable(m, 0);
            }
            won
        })
    }

    /// Releases a member entry and zeroes its load contribution.
    pub fn release_member(&self, member: usize) {
        self.set_member_runnable(member, 0);
        self.seg
            .member_word(member, layout::MEMBER_LEASE)
            .store(0, Ordering::Release);
    }

    /// The lease word of member entry `member` (0 when free).
    pub fn member_lease(&self, member: usize) -> u64 {
        self.seg
            .member_word(member, layout::MEMBER_LEASE)
            .load(Ordering::Acquire)
    }

    /// Publishes this member's runnable-thread count into fleet load.
    pub fn set_member_runnable(&self, member: usize, runnable: u64) {
        self.seg
            .member_word(member, layout::MEMBER_RUNNABLE)
            .store(runnable, Ordering::Release);
    }

    /// Adjusts this member's runnable count by `delta` (two's-complement
    /// wrapping add, so gates can decrement around a park without a CAS
    /// loop; the count never legitimately crosses zero downward).
    pub fn member_runnable_add(&self, member: usize, delta: i64) {
        self.seg
            .member_word(member, layout::MEMBER_RUNNABLE)
            .fetch_add(delta as u64, Ordering::AcqRel);
    }

    /// Member `member`'s last published runnable count.
    pub fn member_runnable(&self, member: usize) -> u64 {
        self.seg
            .member_word(member, layout::MEMBER_RUNNABLE)
            .load(Ordering::Acquire)
    }

    /// Runnable threads summed over every leased member entry.
    pub fn fleet_runnable(&self) -> u64 {
        (0..self.geometry().max_members)
            .filter(|&m| self.member_lease(m) != 0)
            .map(|m| self.member_runnable(m))
            .sum()
    }

    /// Forcibly clears a member entry whose pid died (reclamation sweep).
    pub fn reclaim_member(&self, member: usize) {
        self.release_member(member);
        self.seg
            .u64_at(layout::OFF_RECLAIMED_MEMBERS)
            .fetch_add(1, Ordering::AcqRel);
    }

    // ---- claims ----------------------------------------------------------

    /// Whether the book has room for sleeper `cell` right now (the cheap
    /// polling check before [`Self::claim`]).
    pub fn has_space_for(&self, cell: usize) -> bool {
        self.book.has_space_for(sleeper_id(cell))
    }

    /// Claims a slot in the book for sleeper `cell` — the in-process claim
    /// protocol, with the claim's index recorded in the cell — and returns
    /// its global slot index, or `None` when no shard has room or the head
    /// CAS was lost.
    pub fn claim(&self, cell: usize) -> Option<usize> {
        let record = self.seg.sleeper_word(cell, layout::SLEEPER_CLAIM);
        match self.book.try_claim_recorded(sleeper_id(cell), record) {
            lc_core::ClaimOutcome::Claimed(slot) => Some(slot),
            _ => None,
        }
    }

    /// Whether `slot` still belongs to sleeper `cell` (the controller has
    /// not cleared it, and no later claim overwrote it).
    pub fn still_claimed(&self, slot: usize, cell: usize) -> bool {
        self.book.still_claimed(slot, sleeper_id(cell))
    }

    /// Ends sleeper `cell`'s episode on `slot`: the cell's claim word is
    /// taken first, then the book's `leave` advances `W` exactly once.  A
    /// cell whose claim was already taken (reclaimed) leaves nothing.
    pub fn leave(&self, slot: usize, cell: usize) {
        if self.take_claim(cell).is_some() {
            self.book.leave(slot, sleeper_id(cell));
        }
    }

    /// Ends the episode of the dead sleeper `cell`, if it holds a claim,
    /// exactly as its own [`Self::leave`] would have, counts the
    /// reclamation, and frees the cell's lease for reuse.  Idempotent: the
    /// claim word is taken before `W` moves, so a second sweep finds
    /// nothing to end.
    pub fn reclaim_cell(&self, cell: usize) {
        if let Some(slot) = self.take_claim(cell) {
            self.book.leave(slot, sleeper_id(cell));
            self.seg
                .u64_at(layout::OFF_RECLAIMED_SLOTS)
                .fetch_add(1, Ordering::AcqRel);
        }
        self.release_sleeper(cell);
    }

    /// Clears `cell`'s claim word and returns the claim it held, if any.
    /// Exactly one of the sleeper and the reclaimer gets it.
    fn take_claim(&self, cell: usize) -> Option<usize> {
        match self
            .seg
            .sleeper_word(cell, layout::SLEEPER_CLAIM)
            .swap(0, Ordering::AcqRel)
        {
            0 => None,
            claim => Some(claim as usize - 1),
        }
    }

    // ---- futex park path -------------------------------------------------

    /// Blocks sleeper `cell` for at most `timeout`, consuming a permit if
    /// one is already posted.  Returns how the wait ended; spurious wakes
    /// surface as [`FutexWait::Woken`] and callers re-poll their slot.
    pub fn park_cell(&self, cell: usize, timeout: Duration) -> FutexWait {
        let word = self.seg.sleeper_futex(cell);
        if word
            .compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return FutexWait::Woken;
        }
        let outcome = sys::futex_wait(word, 0, timeout);
        // Consume the permit (if the waker posted one) so it cannot leak
        // into the next episode.
        word.store(0, Ordering::Release);
        outcome
    }

    /// Drops any stale permit on `cell` — called right before a claim is
    /// published, mirroring the in-process `Parker` drain: a permit
    /// present now belongs to a previous episode (the new slot is not yet
    /// visible to any wake scan), so consuming it can never lose a wake.
    pub fn drain_cell_permit(&self, cell: usize) {
        self.seg.sleeper_futex(cell).store(0, Ordering::Release);
    }

    // ---- books and targets -----------------------------------------------

    /// Whether the segment is draining (fleet target held at 0).
    pub fn draining(&self) -> bool {
        self.seg.u64_at(layout::OFF_DRAIN).load(Ordering::Acquire) != 0
    }

    /// Sets or clears the drain flag.
    pub fn set_draining(&self, drain: bool) {
        self.seg
            .u64_at(layout::OFF_DRAIN)
            .store(drain as u64, Ordering::Release);
    }

    /// Totals over every shard.
    pub fn stats(&self) -> ShmBufferStats {
        let book = self.book.stats();
        ShmBufferStats {
            ever_slept: book.ever_slept,
            woken_and_left: book.woken_and_left,
            sleeping: book.ever_slept.saturating_sub(book.woken_and_left),
            total_target: book.target,
            controller_wakes: book.controller_wakes,
            claim_races: book.claim_races,
            reclaimed_slots: self
                .seg
                .u64_at(layout::OFF_RECLAIMED_SLOTS)
                .load(Ordering::Acquire),
        }
    }

    /// A copy of the book's wait-histogram buckets; their sum is the number
    /// of completed sleep episodes.
    pub fn wait_buckets(&self) -> Vec<u64> {
        self.book.wait_snapshot().buckets().to_vec()
    }

    // ---- command mailbox -------------------------------------------------
    //
    // `lcctl` is the only writer of the command area and the elected
    // controller the only reader; the `cmd_seq`/`cmd_ack` pair serializes
    // them (a racing second `lcctl` can at worst overwrite an unconsumed
    // command, which is last-writer-wins by design).  Spec text crosses the
    // boundary as plain `lc-spec` grammar — the wire format *is* the
    // configuration language.

    fn read_spec_area(&self, off: usize) -> String {
        let len =
            (self.seg.u64_at(off).load(Ordering::Acquire) as usize).min(layout::SPEC_MAX_BYTES);
        String::from_utf8(self.seg.read_bytes(off + 8, len)).unwrap_or_default()
    }

    /// Writes `spec` whole, or refuses it: a cut spec could parse as a
    /// different one or, cut inside a UTF-8 sequence, read back empty.
    fn write_spec_area(&self, off: usize, spec: &str) -> io::Result<()> {
        check_spec_fits(spec)?;
        self.seg.write_bytes(off + 8, spec.as_bytes());
        self.seg
            .u64_at(off)
            .store(spec.len() as u64, Ordering::Release);
        Ok(())
    }

    /// Posts a command spec for the controller and returns its sequence
    /// number; poll [`Self::command_state`] for the acknowledgement.
    /// Fails, posting nothing, when `spec` is longer than
    /// [`layout::SPEC_MAX_BYTES`].
    pub fn post_command(&self, spec: &str) -> io::Result<u64> {
        self.write_spec_area(layout::OFF_CMD_SPEC, spec)?;
        Ok(self
            .seg
            .u64_at(layout::OFF_CMD_SEQ)
            .fetch_add(1, Ordering::AcqRel)
            + 1)
    }

    /// `(seq, ack, err)` of the command mailbox: the command `ack` is
    /// consumed, with `err != 0` meaning the controller rejected it.
    pub fn command_state(&self) -> (u64, u64, u64) {
        (
            self.seg.u64_at(layout::OFF_CMD_SEQ).load(Ordering::Acquire),
            self.seg.u64_at(layout::OFF_CMD_ACK).load(Ordering::Acquire),
            self.seg.u64_at(layout::OFF_CMD_ERR).load(Ordering::Acquire),
        )
    }

    /// Controller side: the pending command, if any (`seq` to ack later).
    pub fn pending_command(&self) -> Option<(u64, String)> {
        let (seq, ack, _) = self.command_state();
        (seq != ack).then(|| (seq, self.read_spec_area(layout::OFF_CMD_SPEC)))
    }

    /// Controller side: acknowledges command `seq` (`ok = false` marks it
    /// rejected).
    pub fn ack_command(&self, seq: u64, ok: bool) {
        self.seg
            .u64_at(layout::OFF_CMD_ERR)
            .store(u64::from(!ok), Ordering::Release);
        self.seg
            .u64_at(layout::OFF_CMD_ACK)
            .store(seq, Ordering::Release);
    }

    /// Publishes the canonical spec of the policy the controller is
    /// actually running (what `lcctl stat` reports back).  Fails, leaving
    /// the previous spec, when `spec` is longer than
    /// [`layout::SPEC_MAX_BYTES`].
    pub fn set_applied_spec(&self, spec: &str) -> io::Result<()> {
        self.write_spec_area(layout::OFF_APPLIED_SPEC, spec)
    }

    /// The canonical applied-policy spec (empty before first election).
    pub fn applied_spec(&self) -> String {
        self.read_spec_area(layout::OFF_APPLIED_SPEC)
    }
}

/// The book's id for sleeper cell `cell`.
pub(crate) fn sleeper_id(cell: usize) -> SleeperId {
    SleeperId::from_index(cell as u64)
}

/// Refuses a spec too long for a segment spec area.
pub fn check_spec_fits(spec: &str) -> io::Result<()> {
    if spec.len() > layout::SPEC_MAX_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "spec is {} bytes; a segment spec area holds at most {}",
                spec.len(),
                layout::SPEC_MAX_BYTES
            ),
        ));
    }
    Ok(())
}

impl SlotHost for ShmPlane {
    fn wait_still_claimed(&self, idx: usize, key: u64) -> bool {
        self.still_claimed(idx, key as usize)
    }

    fn wait_record(&self, elapsed: Duration) {
        self.book.record_wait(elapsed);
    }

    fn wait_leave(&self, idx: usize, key: u64) {
        self.leave(idx, key as usize);
    }
}
