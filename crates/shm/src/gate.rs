//! Worker-process attachment and the cross-process load gate.
//!
//! A worker process opens a segment, registers itself in the member table
//! through [`ShmSession::attach`], and gives each of its worker threads a
//! [`ShmGate`].  The gate is the cross-process twin of
//! [`lc_core::LoadGate`]: threads call [`ShmGate::maybe_sleep`] from their
//! spin loops; when the book has room for them (`S − W < T` on the home
//! shard, its neighbour, or any shard while the fleet target is non-zero)
//! the gate claims a slot and parks the thread on its sleeper cell's futex
//! word, driving the *same* book and [`SlotWait`] state machine the
//! in-process gate and the `lc-des` simulator use — only the blocking
//! primitive differs (`futex(FUTEX_WAIT_BITSET)` on shared memory instead
//! of a `Parker`).

use crate::plane::{sleeper_id, ShmPlane};
use crate::segment::ShmSegment;
use lc_core::{SlotWait, TimeSource, WaitPoll};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// One worker process's membership in a segment.
#[derive(Debug)]
pub struct ShmSession {
    buffer: ShmPlane,
    member: usize,
}

impl ShmSession {
    /// Registers this process in the segment's member table.
    pub fn attach(seg: Arc<ShmSegment>) -> io::Result<ShmSession> {
        let buffer = ShmPlane::new(seg);
        let member = buffer
            .register_member(std::process::id())
            .ok_or_else(|| io::Error::new(io::ErrorKind::OutOfMemory, "member table full"))?;
        Ok(ShmSession { buffer, member })
    }

    /// This process's handle on the segment.
    pub fn buffer(&self) -> &ShmPlane {
        &self.buffer
    }

    /// This process's member-table index.
    pub fn member(&self) -> usize {
        self.member
    }

    /// Publishes how many runnable threads this process contributes to
    /// fleet load (gates adjust it down/up around each park).
    pub fn set_runnable(&self, runnable: u64) {
        self.buffer.set_member_runnable(self.member, runnable);
    }

    /// Registers a sleeper cell and returns a gate for the calling thread.
    pub fn register_gate(
        &self,
        time: Arc<dyn TimeSource>,
        sleep_timeout: Duration,
    ) -> io::Result<ShmGate> {
        let cell = self
            .buffer
            .register_sleeper(std::process::id())
            .ok_or_else(|| io::Error::new(io::ErrorKind::OutOfMemory, "sleeper table full"))?;
        Ok(ShmGate {
            buffer: self.buffer.clone(),
            member: self.member,
            cell,
            time,
            sleep_timeout,
        })
    }
}

impl Drop for ShmSession {
    fn drop(&mut self) {
        self.buffer.release_member(self.member);
    }
}

/// A worker thread's park point into the shared segment.
#[derive(Debug)]
pub struct ShmGate {
    buffer: ShmPlane,
    member: usize,
    cell: usize,
    time: Arc<dyn TimeSource>,
    sleep_timeout: Duration,
}

impl ShmGate {
    /// This gate's sleeper-cell index.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// This gate's home shard.
    pub fn shard(&self) -> usize {
        self.buffer.book().home_shard(sleeper_id(self.cell))
    }

    /// Checks the book and, if more sleepers are wanted, claims a slot and
    /// parks until the controller clears it, the timeout expires, or the
    /// claim is otherwise released.
    ///
    /// Returns `true` if a full sleep episode ran, `false` if no sleep
    /// was needed (or the claim was lost).  Call this from a spin loop's
    /// back-off point, like `LoadGate::check`.  A draining segment needs no
    /// check of its own: the controller applies `drain` by publishing a
    /// zero target, which closes every shard.
    pub fn maybe_sleep(&self) -> bool {
        if !self.buffer.has_space_for(self.cell) {
            return false;
        }
        // Drop any permit left over from a previous episode (a late
        // controller wake that raced our leave) *before* the claim is
        // published — same audit as the in-process Parker drain.
        self.buffer.drain_cell_permit(self.cell);
        let Some(slot) = self.buffer.claim(self.cell) else {
            return false;
        };
        // While parked we are not runnable; keep the member's fleet-load
        // contribution honest so the controller sees demand, not bodies.
        self.buffer.member_runnable_add(self.member, -1);
        let wait =
            SlotWait::begin_keyed(slot, self.cell as u64, self.time.now(), self.sleep_timeout);
        while let WaitPoll::Keep(remaining) = wait.poll(&self.buffer, self.time.now()) {
            self.buffer.park_cell(self.cell, remaining);
        }
        wait.finish(&self.buffer, self.time.now());
        self.buffer.member_runnable_add(self.member, 1);
        true
    }
}

impl Drop for ShmGate {
    fn drop(&mut self) {
        self.buffer.release_sleeper(self.cell);
    }
}

/// Convenience: a handle on a segment for controller-side tools, which
/// attach without becoming members.
pub fn attach_buffer(seg: Arc<ShmSegment>) -> ShmPlane {
    ShmPlane::new(seg)
}
