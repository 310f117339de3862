//! Counting-allocator regression test: after warm-up, the `_into`
//! kernels must not touch the heap at all.
//!
//! The library crate forbids `unsafe`; this integration test is its own
//! crate, so it can install a counting [`GlobalAlloc`] to observe every
//! allocation the kernels make. The counter is a const-initialized
//! thread-local `Cell` accessed through `try_with`, so the hook itself
//! never allocates (and never recurses through TLS initialization).

use sstd_hmm::{
    forward_backward_into, viterbi_into, BaumWelch, CategoricalEmission, DecodeWorkspace,
    EmWorkspace, Emission, Hmm, StreamingViterbi, SymmetricGaussianEmission,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update is a
// plain thread-local Cell write with no allocation or unwinding.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_so_far() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `hot` once after `warmup` has sized every buffer, and returns how
/// many heap allocations the hot pass performed.
fn allocations_in(mut hot: impl FnMut()) -> u64 {
    let before = allocations_so_far();
    hot();
    allocations_so_far() - before
}

#[test]
fn em_and_decode_are_allocation_free_after_warmup_gaussian() {
    let obs: Vec<f64> = (0..256)
        .map(|t| {
            let sign = if (t / 32) % 2 == 0 { 1.0 } else { -1.0 };
            sign * (3.0 + 0.25 * ((t % 5) as f64 - 2.0))
        })
        .collect();
    let mut model = Hmm::new(
        vec![0.5, 0.5],
        vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        SymmetricGaussianEmission::new(2.0, 1.5).unwrap(),
    )
    .unwrap();
    // tolerance 0 never converges early, so every warm iteration runs the
    // full E-step + in-place M-step.
    let trainer = BaumWelch::default().max_iterations(4).tolerance(0.0);
    let mut em = EmWorkspace::new();
    let mut decode = DecodeWorkspace::new();

    // Warm-up: size every buffer to this problem shape.
    let _ = trainer.train_into(&mut model, &obs, &mut em);
    let _ = forward_backward_into(&model, &obs, &mut em);
    let _ = viterbi_into(&model, &obs, &mut decode);

    let n = allocations_in(|| {
        for _ in 0..10 {
            let _ = forward_backward_into(&model, &obs, &mut em);
            let _ = viterbi_into(&model, &obs, &mut decode);
            let _ = trainer.train_into(&mut model, &obs, &mut em);
        }
    });
    assert_eq!(n, 0, "warm Gaussian EM/decode iterations must not allocate ({n} allocations)");
}

#[test]
fn em_and_decode_are_allocation_free_after_warmup_categorical() {
    let obs: Vec<usize> =
        (0..200).map(|t| usize::from((t / 25) % 2 == (t % 3 == 0) as usize)).collect();
    let mut model = Hmm::new(
        vec![0.5, 0.5],
        vec![vec![0.8, 0.2], vec![0.2, 0.8]],
        CategoricalEmission::new(vec![vec![0.7, 0.3], vec![0.25, 0.75]]).unwrap(),
    )
    .unwrap();
    let trainer = BaumWelch::default().max_iterations(4).tolerance(0.0);
    let mut em = EmWorkspace::new();
    let mut decode = DecodeWorkspace::new();

    let _ = trainer.train_into(&mut model, &obs, &mut em);
    let _ = forward_backward_into(&model, &obs, &mut em);
    let _ = viterbi_into(&model, &obs, &mut decode);

    let n = allocations_in(|| {
        for _ in 0..10 {
            let _ = forward_backward_into(&model, &obs, &mut em);
            let _ = viterbi_into(&model, &obs, &mut decode);
            let _ = trainer.train_into(&mut model, &obs, &mut em);
        }
    });
    assert_eq!(n, 0, "warm categorical EM/decode iterations must not allocate ({n} allocations)");
}

#[test]
fn log_emission_table_fill_never_allocates() {
    // The hook forward–backward fills its table through: the provided
    // per-call loop (categorical) and the symmetric Gaussian's override.
    let reals: Vec<f64> = (0..64).map(|t| (t % 7) as f64 - 3.0).collect();
    let symbols: Vec<usize> = (0..64).map(|t| t % 2).collect();
    let symmetric = SymmetricGaussianEmission::new(2.0, 1.5).unwrap();
    let categorical = CategoricalEmission::new(vec![vec![0.7, 0.3], vec![0.25, 0.75]]).unwrap();
    let mut table = vec![0.0; 64 * 2];

    let n = allocations_in(|| {
        symmetric.log_probs_into(&reals, &mut table);
        categorical.log_probs_into(&symbols, &mut table);
    });
    assert_eq!(n, 0, "filling a caller-owned table must not allocate ({n} allocations)");
}

#[test]
fn workspaces_grow_then_stop_allocating_across_shapes() {
    // A workspace that has seen the *largest* shape must absorb smaller
    // shapes without further allocation.
    let model = Hmm::new(
        vec![0.5, 0.5],
        vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        SymmetricGaussianEmission::new(2.0, 1.0).unwrap(),
    )
    .unwrap();
    let long: Vec<f64> = (0..512).map(|t| if t % 2 == 0 { 2.0 } else { -2.0 }).collect();
    let mut em = EmWorkspace::new();
    let mut decode = DecodeWorkspace::new();
    let _ = forward_backward_into(&model, &long, &mut em);
    let _ = viterbi_into(&model, &long, &mut decode);

    let n = allocations_in(|| {
        for len in [1usize, 7, 63, 256, 511] {
            let _ = forward_backward_into(&model, &long[..len], &mut em);
            let _ = viterbi_into(&model, &long[..len], &mut decode);
        }
    });
    assert_eq!(n, 0, "shrinking the problem shape must reuse the grown buffers");
}

#[test]
fn warm_streaming_pushes_never_allocate() {
    // A decisive stream, and an all-zero one on which every state scores
    // alike for ever: the filter's memory is its two score rows either way.
    let decisive: Vec<f64> =
        (0..10_000).map(|t| if (t / 100) % 2 == 0 { 3.0 } else { -3.0 }).collect();
    let neutral = vec![0.0; 10_000];
    let model = Hmm::new(
        vec![0.5, 0.5],
        vec![vec![0.9, 0.1], vec![0.1, 0.9]],
        SymmetricGaussianEmission::new(3.0, 1.0).unwrap(),
    )
    .unwrap();
    for obs in [decisive, neutral] {
        let mut filter = StreamingViterbi::new(model.clone());
        let _ = filter.push(obs[0]);
        let n = allocations_in(|| {
            for &o in &obs {
                let _ = filter.push(o);
            }
        });
        assert_eq!(n, 0, "10 000 warm pushes allocated {n} times");
    }
}
