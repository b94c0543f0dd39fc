//! Segment layout: the S/W/T book sits inside the segment, word-aligned,
//! clear of the header and the member and sleeper tables, with every
//! shard's `S`, `W` and `T` on cache lines of their own — and a segment of
//! an older layout version is refused at attach.
#![cfg(target_os = "linux")]

use lc_shm::{layout, Geometry, ShmPlane, ShmSegment};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The default geometry and the one `multiproc_bench` runs.
const GEOMETRIES: [Geometry; 2] = [
    Geometry::DEFAULT,
    Geometry {
        shards: 2,
        shard_capacity: 16,
        max_members: 8,
        max_sleepers: 32,
    },
];

#[test]
fn book_words_are_aligned_inside_the_segment_and_clear_of_the_tables() {
    for g in GEOMETRIES {
        let book = g.book_layout();
        let book_off = g.book_off();
        let book_end = book_off + book.words() * 8;
        assert_eq!(book_off % 8, 0, "{g:?}: book words misaligned");
        assert_eq!(
            book_off % layout::BOOK_ALIGN,
            0,
            "{g:?}: book not line-aligned"
        );
        assert!(
            book_end <= g.segment_bytes(),
            "{g:?}: book past the segment end"
        );

        // Header, members, sleepers and book follow each other without
        // overlap (the spec areas' fit in the header is a const assertion
        // in the layout module).
        assert!(g.members_off() >= layout::HEADER_BYTES);
        assert!(g.sleepers_off() >= g.members_off() + g.max_members * layout::MEMBER_BYTES);
        assert!(
            book_off >= g.sleepers_off() + g.max_sleepers * layout::SLEEPER_BYTES,
            "{g:?}: book overlaps the sleeper cells"
        );

        // Every shard's S, W and T on a 64-byte line of its own.
        let mut lines = HashSet::new();
        for shard in 0..g.shards {
            for word in [book.s_word(shard), book.w_word(shard), book.t_word(shard)] {
                let byte = book_off + word * 8;
                assert!(byte + 8 <= book_end, "{g:?}: S/W/T word outside the book");
                assert!(lines.insert(byte / 64), "{g:?}: S/W/T words share a line");
            }
        }
    }
}

#[test]
fn the_book_lives_at_its_offset_in_the_mapping() {
    for g in GEOMETRIES {
        let seg = Arc::new(ShmSegment::create_anon(g).expect("anonymous segment"));
        let plane = ShmPlane::new(Arc::clone(&seg));
        let book = g.book_layout();
        let total = (g.shards * g.shard_capacity) as u64;
        plane.book().set_target(total);
        for shard in 0..g.shards {
            let t = seg
                .u64_at(g.book_off() + book.t_word(shard) * 8)
                .load(Ordering::Acquire);
            assert_eq!(t, g.shard_capacity as u64, "{g:?}: shard {shard} T");
        }
        assert_eq!(plane.book().shard_count(), g.shards, "every shard active");
    }
}

#[test]
fn a_version_1_segment_is_refused() {
    let path = std::env::temp_dir().join(format!("lc-shm-v1-{}.seg", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let seg = ShmSegment::create(&path, Geometry::DEFAULT).expect("create segment");
    seg.u64_at(layout::OFF_VERSION).store(1, Ordering::Release);
    drop(seg);
    let err = ShmSegment::open(&path).expect_err("attached a v1 segment");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string().contains("version 1"),
        "unclear refusal: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn impossible_geometries_are_refused_at_creation() {
    let three_shards = Geometry {
        shards: 3,
        ..Geometry::DEFAULT
    };
    assert!(ShmSegment::create_anon(three_shards).is_err());
}
