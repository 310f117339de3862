//! What a claim carries is a function of the refit horizon, not of the
//! age of its stream: between interval 1 000 and interval 5 000 of one
//! claim, a snapshot grows by its 4 000 decision bytes and nothing else,
//! and the live heap by no more than the decision vector's own growth.
//!
//! The same holds one level up: what a `Supervisor` remembers about the
//! sequence numbers it applied follows the holes in them (drops, records
//! still delayed), not how many there were. And the engine's claim index
//! follows how many claims there are, not how large their ids are. Its
//! journal is reserved once for a checkpoint cadence, at most 2^18
//! entries, and never reallocated after: not by checkpoints, not by a
//! crash.
//!
//! This file is its own test binary with a single test, so the counting
//! global allocator below sees that test's allocations only (the
//! `MemProbe` pattern of `sstd-eval`'s `tournament` binary). No
//! wall-clock assertions.

use sstd::core::{
    chaos_stream, CheckpointPolicy, JournalEntry, SstdConfig, StreamingSstd, Supervisor,
};
use sstd::runtime::FaultPlan;
use sstd::types::{Attitude, ClaimId, Report, SourceId, Timeline, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);

/// The checkpoint cadence of the journal probe.
const CADENCE: usize = 1_000;

/// Allocations (and reallocations) of at least a full journal of
/// `CADENCE` entries.
static JOURNAL_SIZED: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    if size >= CADENCE * size_of::<JournalEntry>() {
        JOURNAL_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping is
// plain atomic arithmetic with no allocation or unwinding.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
            note(layout.size());
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
            note(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Live heap right after the checkpoints at 20 000 and at 200 000
/// delivered records of `plan`'s perturbation of an in-order stream, and
/// the number of sequence numbers the plan dropped. One claim in one
/// never-closing interval and a journal truncated every 1 000 records
/// keep everything but the dedupe state the same size at both points.
fn supervisor_heap_at_20k_and_200k(plan: &FaultPlan) -> (u64, u64, usize) {
    const EARLY: usize = 20_000;
    const LATE: usize = 200_000;
    let report =
        Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::from_secs(1), Attitude::Agree);
    let records = chaos_stream(plan, &vec![report; LATE + LATE / 10]);
    let delivered: BTreeSet<u64> = records.iter().map(|r| r.seq()).collect();
    let dropped = LATE + LATE / 10 - delivered.len();
    drop(delivered);
    let mut sup = Supervisor::new(
        SstdConfig::default(),
        Timeline::new(Timestamp::from_secs(10), 1),
        CheckpointPolicy::every_reports(1_000),
    );
    let mut next = 0;
    let mut live_after = |upto: usize| {
        for record in &records[next..upto] {
            let _ = sup.ingest(record);
        }
        next = upto;
        sup.checkpoint_now();
        LIVE.load(Ordering::Relaxed)
    };
    let early = live_after(EARLY);
    let late = live_after(LATE);
    (early, late, dropped)
}

/// Journal-sized allocations a supervisor with a `CADENCE`-report
/// checkpoint cadence makes after its first checkpoint, across three
/// more checkpoints, a crash half a cadence in, and the cadence after
/// it. One claim in one never-closing interval keeps every other
/// allocation small.
fn journal_allocations_after_the_first_cadence() -> u64 {
    let report =
        Report::plain(SourceId::new(0), ClaimId::new(0), Timestamp::from_secs(1), Attitude::Agree);
    let mut sup = Supervisor::new(
        SstdConfig::default(),
        Timeline::new(Timestamp::from_secs(10), 1),
        CheckpointPolicy::every_reports(CADENCE as u64),
    );
    let mut seq = 0;
    let mut apply = |sup: &mut Supervisor, n: usize| {
        for _ in 0..n {
            let _ = sup.apply(seq, &report);
            seq += 1;
        }
    };
    apply(&mut sup, CADENCE);
    let after_first = JOURNAL_SIZED.load(Ordering::Relaxed);
    apply(&mut sup, 3 * CADENCE + CADENCE / 2);
    assert_eq!(sup.crash_and_recover(), Ok((CADENCE / 2) as u64));
    apply(&mut sup, CADENCE);
    JOURNAL_SIZED.load(Ordering::Relaxed) - after_first
}

/// Live heap a fresh supervisor with checkpoint policy `policy` holds.
fn supervisor_heap(policy: CheckpointPolicy) -> u64 {
    let before = LIVE.load(Ordering::Relaxed);
    let sup =
        Supervisor::new(SstdConfig::default(), Timeline::new(Timestamp::from_secs(10), 1), policy);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(sup);
    held
}

/// Live heap an engine holds after one interval of `ids`, one report
/// each, has closed.
fn engine_heap(ids: impl Iterator<Item = u32> + Clone) -> u64 {
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine =
        StreamingSstd::new(SstdConfig::default(), Timeline::new(Timestamp::from_secs(2), 2));
    for secs in [0, 1] {
        for id in ids.clone() {
            let _ = engine.push(&Report::plain(
                SourceId::new(0),
                ClaimId::new(id),
                Timestamp::from_secs(secs),
                Attitude::Agree,
            ));
        }
    }
    assert_eq!(engine.current_interval(), 1);
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    drop(engine);
    held
}

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
    drop(engine);

    // The claim index is sized by the number of claims, not by the
    // largest id: 10 000 ids spread over the whole `u32` range cost what
    // 10 000 dense ones do.
    const CLAIMS: u32 = 10_000;
    let dense = engine_heap(0..CLAIMS);
    let sparse = engine_heap((0..CLAIMS).map(|i| i * 400_009));
    assert!(
        sparse < 2 * dense,
        "{CLAIMS} sparse claim ids hold {sparse} B of heap, {CLAIMS} dense ones {dense} B"
    );

    // In order, 180 000 more sequence numbers extend one run.
    let (early, late, dropped) = supervisor_heap_at_20k_and_200k(&FaultPlan::default());
    assert_eq!(dropped, 0);
    let grown = late.saturating_sub(early);
    assert!(grown < 512, "in-order dedupe state grew by {grown} B over 180 000 records");

    // Under drops and bounded reorder there is at most one run per hole:
    // a dropped number, or one of the last `DEPTH` still in flight. A run
    // is 16 B and a doubling vector holds less than twice its length.
    const DEPTH: u32 = 4;
    let plan = FaultPlan {
        seed: 2017,
        ingest_drop_rate: 0.0005,
        ingest_reorder_rate: 0.05,
        ingest_reorder_depth: DEPTH,
        ..FaultPlan::default()
    };
    let (early, late, dropped) = supervisor_heap_at_20k_and_200k(&plan);
    assert!(dropped > 20, "drops fired ({dropped})");
    let grown = late.saturating_sub(early);
    let bound = 2 * 16 * (dropped as u64 + u64::from(DEPTH)) + 512;
    assert!(
        grown < bound,
        "dedupe state grew by {grown} B under {dropped} drops and reorder depth {DEPTH}; \
         its runs account for less than {bound}"
    );

    // The journal is reserved once: checkpoints keep its capacity and a
    // crash refills it in place.
    let regrown = journal_allocations_after_the_first_cadence();
    assert_eq!(regrown, 0, "{regrown} journal-sized allocations after the first cadence");

    // A cadence longer than any stream reserves no more than the clamp
    // of 2^18 entries.
    let one_entry = supervisor_heap(CheckpointPolicy::every_reports(1));
    let unbounded = supervisor_heap(CheckpointPolicy::every_reports(u64::MAX));
    let reserved = unbounded.saturating_sub(one_entry);
    let clamp = ((1 << 18) * size_of::<JournalEntry>()) as u64;
    assert!(
        reserved > 0 && reserved <= clamp,
        "an unbounded cadence reserved {reserved} B of journal; the clamp is {clamp} B"
    );
}
