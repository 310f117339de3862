//! What the duplicate window keeps is a function of the window, not of
//! the vocabulary that has passed through it: between post 10 000 and
//! post 50 000 of a stream in which every post brings words never seen
//! before, the live heap stays where it was. Token ids, their names and
//! their postings go when the last post that carried them expires; an
//! interner that never forgets grows by megabytes over the same stretch.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator below sees that test's allocations only (the idiom of
//! the root crate's `tests/bounded_state.rs`). No wall-clock assertions.

use sstd_text::{IndependenceScorer, RetweetIndependenceScorer};
use sstd_types::{RawPost, SourceId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping is
// plain atomic arithmetic with no allocation or unwinding.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn the_duplicate_window_is_bounded_by_the_window_not_the_vocabulary() {
    const EARLY: u64 = 10_000;
    const LATE: u64 = 50_000;
    const WINDOW_SECS: u64 = 300;
    let mut scorer = RetweetIndependenceScorer::new(WINDOW_SECS, 0.8);
    let mut posted = 0;
    let mut live_after = |scorer: &mut RetweetIndependenceScorer, posts: u64| {
        // One post a second: the event keyword and five words of its own.
        while posted < posts {
            let k = posted;
            let text = format!("quake w{k}a w{k}b w{k}c w{k}d w{k}e");
            let post = RawPost::new(SourceId::new(0), Timestamp::from_secs(k), text);
            assert_eq!(scorer.independence(&post).value(), 1.0);
            posted += 1;
        }
        assert_eq!(scorer.window_len() as u64, WINDOW_SECS + 1);
        LIVE.load(Ordering::Relaxed)
    };
    let early = live_after(&mut scorer, EARLY);
    let late = live_after(&mut scorer, LATE);

    // 40 000 posts brought 200 000 new words; the window holds 1 500 at
    // either end, their names equally long (five-digit post numbers).
    let drift = late.abs_diff(early);
    assert!(
        drift < 8 * 1024,
        "live heap went from {early} B after {EARLY} posts to {late} B after {LATE}"
    );
}
