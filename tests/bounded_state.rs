//! What a claim carries is a function of the refit horizon, not of the
//! age of its stream: between interval 1 000 and interval 5 000 of one
//! claim, a snapshot grows by its 4 000 decision bytes and nothing else,
//! and the live heap by no more than the decision vector's own growth.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator below sees that test's allocations only (the
//! `MemProbe` pattern of `sstd-eval`'s `tournament` binary). No
//! wall-clock assertions.

use sstd::core::{SstdConfig, StreamingSstd};
use sstd::types::{Attitude, ClaimId, Report, SourceId, Timeline, Timestamp};
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
fn a_claims_state_is_bounded_by_the_refit_horizon() {
    const EARLY: u64 = 1_000;
    const LATE: u64 = 5_000;
    let timeline = Timeline::new(Timestamp::from_secs(LATE + 1), LATE as usize + 1);
    let mut engine = StreamingSstd::new(SstdConfig::default(), timeline);
    let at = |engine: &mut StreamingSstd, closed: u64| {
        // One report per one-second interval; the report of interval
        // `closed` closes the one before it. Truth flips every 40.
        for t in engine.reports_seen()..=closed {
            let attitude = if (t / 40) % 2 == 0 { Attitude::Agree } else { Attitude::Disagree };
            let _ = engine.push(&Report::plain(
                SourceId::new(0),
                ClaimId::new(0),
                Timestamp::from_secs(t),
                attitude,
            ));
        }
        assert_eq!(engine.current_interval() as u64, closed);
        let live = LIVE.load(Ordering::Relaxed);
        (live, engine.checkpoint().to_bytes().len() as u64)
    };
    let (live_early, bytes_early) = at(&mut engine, EARLY);
    let (live_late, bytes_late) = at(&mut engine, LATE);

    assert_eq!(
        bytes_late - bytes_early,
        LATE - EARLY,
        "a snapshot grows by one byte per decision and by nothing else"
    );
    // A doubling vector of one-byte decisions holds less than twice its
    // length; everything else the claim owns stopped growing once the
    // ring filled.
    let grown = live_late.saturating_sub(live_early);
    assert!(
        grown < 2 * LATE - EARLY,
        "live heap grew by {grown} B between interval {EARLY} and {LATE}; \
         the decision vector accounts for less than {}",
        2 * LATE - EARLY
    );
}
