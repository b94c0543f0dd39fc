//! Segment creation, attach, and typed access to the mapped bytes.
//!
//! A [`ShmSegment`] owns one `MAP_SHARED` mapping of a segment file —
//! either a filesystem path (how separate processes rendezvous) or an
//! anonymous `memfd` (how tests and the deterministic bench get a segment
//! with zero filesystem footprint).  All access goes through the
//! [`ShmSegment::u64_at`] / [`ShmSegment::u32_at`] accessors, which hand
//! out references to atomics *inside the mapping*: the segment never
//! materializes Rust objects in shared memory, so there is nothing to
//! construct, drop, or point at across address spaces.

use crate::layout::{self, Geometry};
use crate::sys;
use std::fs::OpenOptions;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;

/// One process's mapping of a load-control segment.
pub struct ShmSegment {
    ptr: *mut u8,
    len: usize,
    geometry: Geometry,
}

// SAFETY: the mapping is plain shared memory accessed exclusively through
// atomics; every cross-process hazard the bytes encode (leases, claim
// CASes) is handled by the protocol layers above.
unsafe impl Send for ShmSegment {}
// SAFETY: as above — `&self` access is all-atomic.
unsafe impl Sync for ShmSegment {}

impl std::fmt::Debug for ShmSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmSegment")
            .field("len", &self.len)
            .field("geometry", &self.geometry)
            .finish()
    }
}

impl ShmSegment {
    /// Creates a segment file at `path`, formats the header, and maps it.
    ///
    /// Fails if `path` already exists — segments are created once by the
    /// fleet launcher and attached by everyone else; silently reformatting
    /// a live segment would strand its sleepers.
    pub fn create(path: &Path, geometry: Geometry) -> io::Result<ShmSegment> {
        check_geometry(geometry)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        file.set_len(geometry.segment_bytes() as u64)?;
        let seg = ShmSegment {
            ptr: map_raw(&file, geometry.segment_bytes())?,
            len: geometry.segment_bytes(),
            geometry,
        };
        seg.format();
        Ok(seg)
    }

    /// Creates an anonymous (`memfd`) segment visible only through this
    /// mapping — the zero-cleanup backing for tests and the bench.
    pub fn create_anon(geometry: Geometry) -> io::Result<ShmSegment> {
        check_geometry(geometry)?;
        let file = sys::memfd_create("lc-shm-segment")?;
        file.set_len(geometry.segment_bytes() as u64)?;
        let seg = ShmSegment {
            ptr: map_raw(&file, geometry.segment_bytes())?,
            len: geometry.segment_bytes(),
            geometry,
        };
        seg.format();
        Ok(seg)
    }

    /// Attaches to an existing segment file, validating magic, version,
    /// and that the file is large enough for the geometry it declares.
    pub fn open(path: &Path) -> io::Result<ShmSegment> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len() as usize;
        if file_len < layout::HEADER_BYTES {
            return Err(invalid("file smaller than a segment header"));
        }
        // Map the header first to learn the geometry, then remap in full.
        let probe = ShmSegment {
            ptr: map_raw(&file, layout::HEADER_BYTES)?,
            len: layout::HEADER_BYTES,
            geometry: Geometry::DEFAULT,
        };
        if probe.u64_at(layout::OFF_MAGIC).load(Ordering::Acquire) != layout::MAGIC {
            return Err(invalid("not a load-control segment (bad magic)"));
        }
        let version = probe.u64_at(layout::OFF_VERSION).load(Ordering::Acquire);
        if version != layout::VERSION {
            return Err(invalid(&format!(
                "segment layout version {version} is not supported \
                 (this build reads version {})",
                layout::VERSION
            )));
        }
        let geometry = Geometry {
            shards: probe.u64_at(layout::OFF_SHARDS).load(Ordering::Acquire) as usize,
            shard_capacity: probe
                .u64_at(layout::OFF_SHARD_CAPACITY)
                .load(Ordering::Acquire) as usize,
            max_members: probe
                .u64_at(layout::OFF_MAX_MEMBERS)
                .load(Ordering::Acquire) as usize,
            max_sleepers: probe
                .u64_at(layout::OFF_MAX_SLEEPERS)
                .load(Ordering::Acquire) as usize,
        };
        drop(probe);
        if !geometry.is_valid() || file_len < geometry.segment_bytes() {
            return Err(invalid("segment header declares impossible geometry"));
        }
        Ok(ShmSegment {
            ptr: map_raw(&file, geometry.segment_bytes())?,
            len: geometry.segment_bytes(),
            geometry,
        })
    }

    fn format(&self) {
        // The file starts zeroed (fresh ftruncate), so only the non-zero
        // header fields need storing.  Geometry before magic: an attacher
        // that sees the magic must also see the geometry (Release below).
        let g = self.geometry;
        self.u64_at(layout::OFF_VERSION)
            .store(layout::VERSION, Ordering::Relaxed);
        self.u64_at(layout::OFF_SHARDS)
            .store(g.shards as u64, Ordering::Relaxed);
        self.u64_at(layout::OFF_SHARD_CAPACITY)
            .store(g.shard_capacity as u64, Ordering::Relaxed);
        self.u64_at(layout::OFF_MAX_MEMBERS)
            .store(g.max_members as u64, Ordering::Relaxed);
        self.u64_at(layout::OFF_MAX_SLEEPERS)
            .store(g.max_sleepers as u64, Ordering::Relaxed);
        self.u64_at(layout::OFF_GENERATION)
            .store(1, Ordering::Relaxed);
        let book = g.book_layout();
        book.format(self.u64_slice(g.book_off(), book.words()), g.shards);
        self.u64_at(layout::OFF_MAGIC)
            .store(layout::MAGIC, Ordering::Release);
    }

    /// The segment's fixed geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The `AtomicU64` at byte offset `off` from the mapping base.
    ///
    /// Panics on misaligned or out-of-bounds offsets — all callers use the
    /// compile-time offsets of [`crate::layout`], so a panic here is a
    /// layout bug, not a runtime condition.
    pub fn u64_at(&self, off: usize) -> &AtomicU64 {
        assert!(
            off.is_multiple_of(8) && off + 8 <= self.len,
            "bad u64 offset {off}"
        );
        // SAFETY: in-bounds, 8-aligned, and the mapping outlives `&self`;
        // shared-memory bytes are always valid u64s.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    /// The `AtomicU32` at byte offset `off` from the mapping base.
    pub fn u32_at(&self, off: usize) -> &AtomicU32 {
        assert!(
            off.is_multiple_of(4) && off + 4 <= self.len,
            "bad u32 offset {off}"
        );
        // SAFETY: as `u64_at`, with 4-byte alignment.
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    /// The `len` consecutive `AtomicU64`s starting at byte offset `off`.
    pub fn u64_slice(&self, off: usize, len: usize) -> &[AtomicU64] {
        assert!(
            off.is_multiple_of(8) && off + len * 8 <= self.len,
            "bad u64 range {off}+{len}"
        );
        // SAFETY: in-bounds and 8-aligned, as `u64_at`, for every word.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off) as *const AtomicU64, len) }
    }

    /// Field `field` (a `layout::MEMBER_*` offset) of member entry `member`.
    pub fn member_word(&self, member: usize, field: usize) -> &AtomicU64 {
        assert!(member < self.geometry.max_members, "bad member {member}");
        self.u64_at(self.geometry.members_off() + member * layout::MEMBER_BYTES + field)
    }

    /// Field `field` (`layout::SLEEPER_LEASE` or `layout::SLEEPER_CLAIM`)
    /// of sleeper cell `cell`.
    pub fn sleeper_word(&self, cell: usize, field: usize) -> &AtomicU64 {
        assert!(cell < self.geometry.max_sleepers, "bad sleeper cell {cell}");
        self.u64_at(self.geometry.sleepers_off() + cell * layout::SLEEPER_BYTES + field)
    }

    /// The futex word of sleeper cell `cell`.
    pub fn sleeper_futex(&self, cell: usize) -> &AtomicU32 {
        assert!(cell < self.geometry.max_sleepers, "bad sleeper cell {cell}");
        self.u32_at(
            self.geometry.sleepers_off() + cell * layout::SLEEPER_BYTES + layout::SLEEPER_FUTEX,
        )
    }

    /// Copies `len` bytes starting at `off` out of the segment.
    ///
    /// Used only for the spec mailboxes, whose writers serialize through
    /// the `cmd_seq`/`cmd_ack` handshake; reads are byte-wise volatile so
    /// a torn racing write can at worst produce a spec string that fails
    /// to parse (and is then rejected), never undefined behavior.
    pub fn read_bytes(&self, off: usize, len: usize) -> Vec<u8> {
        assert!(off + len <= self.len, "bad byte range {off}+{len}");
        (0..len)
            .map(|i| {
                // SAFETY: in-bounds byte read of mapped memory.
                unsafe { self.ptr.add(off + i).read_volatile() }
            })
            .collect()
    }

    /// Writes `bytes` into the segment at `off` (see [`Self::read_bytes`]
    /// for the synchronization story).
    pub fn write_bytes(&self, off: usize, bytes: &[u8]) {
        assert!(off + bytes.len() <= self.len, "bad byte range");
        for (i, b) in bytes.iter().enumerate() {
            // SAFETY: in-bounds byte write of mapped memory.
            unsafe { self.ptr.add(off + i).write_volatile(*b) };
        }
    }

    /// Draws the next generation number for a pid lease.
    pub fn next_generation(&self) -> u32 {
        self.u64_at(layout::OFF_GENERATION)
            .fetch_add(1, Ordering::AcqRel) as u32
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` describe the one mapping this struct owns,
        // and Drop is the last use of it.
        unsafe { sys::unmap(self.ptr, self.len) };
    }
}

fn check_geometry(geometry: Geometry) -> io::Result<()> {
    if geometry.is_valid() {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("impossible segment geometry {geometry:?}"),
        ))
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(target_os = "linux")]
fn map_raw(file: &std::fs::File, len: usize) -> io::Result<*mut u8> {
    sys::map_shared(file.as_raw_fd(), len)
}

#[cfg(not(target_os = "linux"))]
fn map_raw(_file: &std::fs::File, _len: usize) -> io::Result<*mut u8> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "lc-shm segments require Linux",
    ))
}
