//! # lc-shm — the load-control plane across processes
//!
//! The paper's mechanism governs oversubscription *inside* one process:
//! controller, slot buffer, and sleepers share an address space.  A
//! machine running a fleet of worker processes breaks that assumption —
//! per-process controllers each see only their own S/W/T books and
//! collectively oversleep or overwake.  This crate moves the control
//! plane into a shared-memory segment so **one** elected controller
//! governs sleepers it did not spawn:
//!
//! There is **one** S/W/T book in this workspace: [`lc_core::SleepSlotBuffer`].
//! It lays its words out in one [`lc_core::BookLayout`] over a flat word
//! store — a heap allocation in process, the mapped segment here — and wakes
//! the sleepers it clears through one seam ([`lc_core::SleeperWake`]): the
//! `Parker` table in process, a futex word per sleeper cell here.  This
//! crate keeps only what crossing processes adds:
//!
//! * [`ShmSegment`] — a `memfd`/file-backed mapping with a versioned
//!   header.  Everything inside is an index or an atomic word; no
//!   pointers, so the bytes mean the same thing in every address space.
//! * [`ShmPlane`] — one process's handle on a segment: the book as a
//!   `SleepSlotBuffer` over the segment's words, plus the member table,
//!   sleeper cells (pid+generation lease, futex word, recorded claim),
//!   reclamation of dead pids' claims, and the command mailbox.
//! * [`ShmGate`] — the worker-thread park point.  It claims through the
//!   book and drives the *same* [`lc_core::SlotWait`] state machine as the
//!   in-process `LoadGate` and the `lc-des` simulator, through the
//!   [`lc_core::SlotHost`] seam; only the blocking primitive differs
//!   (`futex(FUTEX_WAIT_BITSET)` on a sleeper cell in the segment instead
//!   of a `Parker`).
//! * [`ShmController`] — pid-lease election with takeover on death,
//!   `lcctl` command intake, and crash-robust reclamation: every sleeper
//!   cell carries a pid+generation lease and records its outstanding
//!   claim, and the cycle ends the claims of dead pids, so a SIGKILLed
//!   worker never strands `S − W` above target.  The decision itself is
//!   [`lc_core::decide_and_publish`], the in-process controller's own
//!   policy → split → publish → wake step, fed the fleet's load sample.
//! * `lcctl` (binary) — attaches to a segment and speaks the `lc-spec`
//!   grammar as its wire format: `lcctl stat <seg>`,
//!   `lcctl set <seg> policy 'pid(kp=0.9)'`, `lcctl set <seg> target N`,
//!   `lcctl drain <seg>` / `lcctl resume <seg>`.
//!
//! Linux-only by nature (`mmap`/`futex`/`memfd_create`/`/proc`); other
//! platforms compile but every entry point reports
//! [`std::io::ErrorKind::Unsupported`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod gate;
pub mod layout;
pub mod plane;
pub mod segment;
pub mod sys;

pub use controller::{PidLiveness, ProcLiveness, ShmControlDaemon, ShmController};
pub use gate::{attach_buffer, ShmGate, ShmSession};
pub use layout::Geometry;
pub use plane::{ShmBufferStats, ShmPlane};
pub use segment::ShmSegment;
