//! The zero-allocation contract of `zero_alloc.rs` on the parallel path.
//! `zero_alloc.rs` pins one thread and counts that thread alone; this
//! file runs two threads (`SMFL_THREADS=2`) and counts the allocations
//! of every thread, the pool's worker included. After a warm-up, the
//! fused step above the parallel threshold (both rules, graph term and
//! landmarks on) and a parallel bulk kNN query allocate nothing at all:
//! a pool dispatch allocates nothing, and each thread keeps its kNN
//! scratch heap.
//!
//! The thread count is read once per process, and the counter must see
//! no other test, so the one `#[test]` re-runs this binary as a child
//! process with `SMFL_THREADS=2`, filtered to itself; the child counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn record() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use smfl_core::updater::{gradient_step, multiplicative_step, score, UpdateContext};
use smfl_core::Landmarks;
use smfl_linalg::parallel::{max_threads, par_for_each, threads_for};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, ObservedPattern, Workspace};
use smfl_spatial::{KdTree, SpatialGraph};

/// Marks the child process.
const CHILD: &str = "SMFL_ZERO_ALLOC_THREADS_CHILD";
const NAME: &str = "parallel_path_allocates_nothing_after_warmup";

#[test]
fn parallel_path_allocates_nothing_after_warmup() {
    if std::env::var_os(CHILD).is_some() {
        return child();
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args(["--exact", NAME, "--test-threads=1", "--nocapture"])
        .env("SMFL_THREADS", "2")
        .env(CHILD, "1")
        .output()
        .expect("the child test process starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "child run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `f` with the counter armed and returns the allocation count.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Dispatches two busy items until a pool worker runs one; returns
/// whether one did.
fn worker_takes_part() -> bool {
    let caller = std::thread::current().id();
    let off_caller = AtomicUsize::new(0);
    for _ in 0..200 {
        par_for_each(2, 0..2, |_| {
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(300) {
                std::hint::spin_loop();
            }
            if std::thread::current().id() != caller {
                off_caller.fetch_add(1, Ordering::Relaxed);
            }
        });
        if off_caller.load(Ordering::Relaxed) > 0 {
            return true;
        }
    }
    false
}

fn child() {
    assert_eq!(max_threads(), 2, "the thread pin must take");

    // A tall, narrow table about 93% observed, large enough that the
    // fused step (2·|Ω|·K flops) crosses the parallel threshold.
    let (n, m, k) = (6000, 12, 6);
    let x = uniform_matrix(n, m, 0.0, 1.0, 1);
    let sel = uniform_matrix(n, m, 0.0, 1.0, 2);
    let mut omega = Mask::full(n, m);
    for i in 1..n {
        for j in 0..m {
            if sel.get(i, j) < 0.07 {
                omega.set(i, j, false);
            }
        }
    }
    let pattern = ObservedPattern::compile(&x, &omega).unwrap();
    assert!(pattern.prefers_dense(), "the fused step must run");
    assert_eq!(
        threads_for(2 * pattern.nnz() * k),
        2,
        "the step must run in parallel"
    );
    let si = x.columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 5).unwrap();
    let lm = Landmarks::compute(&si, k, 100, 0).unwrap();
    let ctx = UpdateContext {
        pattern: &pattern,
        graph: Some(&graph),
        lambda: 0.5,
        landmarks: Some(&lm),
    };
    let mut ws = Workspace::new(&pattern, k);
    let mut u = positive_uniform_matrix(n, k, 3);
    let mut v = positive_uniform_matrix(k, m, 4);
    lm.inject(&mut v).unwrap();

    let tree = KdTree::build(&si);
    let mut hits = vec![0u32; n * tree.bulk_k(5, true)];

    // Warm-up: starts the pool, sizes the workspace and each thread's
    // kNN scratch heap.
    assert!(worker_takes_part(), "no pool worker ever ran an item");
    for _ in 0..3 {
        multiplicative_step(&ctx, &mut ws, &u, &v).unwrap();
        ws.commit(&mut u, &mut v);
        gradient_step(&ctx, &mut ws, &u, &v, 1e-4).unwrap();
        ws.commit(&mut u, &mut v);
        tree.nearest_bulk_into(&si, 5, true, 2, &mut hits);
    }

    let mut worker_ran = false;
    let allocs = count_allocs(|| {
        for _ in 0..10 {
            assert!(
                multiplicative_step(&ctx, &mut ws, &u, &v)
                    .unwrap()
                    .laplacian
                    > 0.0
            );
            ws.commit(&mut u, &mut v);
        }
        for _ in 0..10 {
            assert!(
                gradient_step(&ctx, &mut ws, &u, &v, 1e-4)
                    .unwrap()
                    .laplacian
                    > 0.0
            );
            ws.commit(&mut u, &mut v);
        }
        assert!(score(&ctx, &mut ws, &u, &v).unwrap().laplacian > 0.0);
        for _ in 0..5 {
            tree.nearest_bulk_into(&si, 5, true, 2, &mut hits);
        }
        // The worker is awake and taking items inside the counted window.
        worker_ran = worker_takes_part();
    });
    assert!(worker_ran, "no pool worker ran an item while counting");
    assert_eq!(
        allocs, 0,
        "the two-thread fused step and bulk kNN heap-allocated {allocs} times after warm-up"
    );
    assert!(lm.verify_injected(&v));
    assert_eq!(ws.counters.dense_steps, 26);
}
