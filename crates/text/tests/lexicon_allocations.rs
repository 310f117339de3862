//! The three lexicon stages — keyword filter, attitude, hedge uncertainty —
//! allocate nothing per call on ASCII posts, lowercase or not: each walks
//! the post once, tests its tokens against a cue table, and searches the
//! text itself for phrases. No token set, no lowercased copy.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator below sees that test's allocations only (the idiom of
//! `bounded_text_state.rs`). No wall-clock assertions.

use sstd_text::{
    AttitudeScorer, HedgeUncertaintyScorer, KeywordFilter, LexiconAttitudeScorer, UncertaintyScorer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping is
// plain atomic arithmetic with no allocation or unwinding.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Lowercase and mixed-case ASCII posts: cues, phrases, stopwords,
/// apostrophes inside and around words, hashtags and a URL.
const POSTS: [&str; 8] = [
    "quake zabide zecofu zigoha possibly fake",
    "quake bridge closed, sources say it's not true",
    "there is no evidence of a second quake, waiting for confirmation",
    "'' ' a'b'c 'tis",
    "QUAKE: Bridge CLOSED!!! Reportedly a HOAX, can't confirm",
    "Allegedly the Quake didn't happen. NOT SURE if True #Quake @USGS",
    "Maybe MAYBE maybe Perhaps Possibly Likely UNCONFIRMED",
    "It'S tHe EnD, DON'T panic https://T.co/AbC123",
];

#[test]
fn the_lexicon_stages_allocate_nothing_on_ascii_posts() {
    let filter = KeywordFilter::new(["Quake", "bridge"]);
    let (attitude, hedge) = (LexiconAttitudeScorer::new(), HedgeUncertaintyScorer::new());
    let score = |post: &str| {
        black_box(filter.matches(black_box(post)));
        black_box(attitude.attitude(black_box(post)));
        black_box(hedge.uncertainty(black_box(post)));
    };
    for post in POSTS {
        score(post);
    }

    const CALLS: usize = 10_000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for k in 0..CALLS {
        score(POSTS[k % POSTS.len()]);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(allocations, 0, "{CALLS} calls of each stage allocated {allocations} times");
}
