//! `FitPlan::memory_bytes` against the heap a compile really leaves
//! behind: the pattern of Ω and the spatial graph hold exactly their
//! `u32` index arrays (and Ω's values), with no spare capacity, and the
//! per-layer total accounts for every live byte of a compiled plan but
//! a small fixed remainder (the `Arc` around the graph and the
//! landmarks).
//!
//! Like `zero_alloc.rs`, this file holds exactly ONE `#[test]`: the
//! allocator counts only on the thread that armed it, and the test pins
//! every kernel to one thread (`SMFL_THREADS=1`, read once per process)
//! so no counted allocation runs on a worker thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

struct LiveBytes;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static LIVE: AtomicIsize = AtomicIsize::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn add(bytes: usize, sign: isize) {
    if counting() {
        LIVE.fetch_add(sign * bytes as isize, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

use smfl_core::{FitPlan, SmflConfig};
use smfl_linalg::random::uniform_matrix;
use smfl_linalg::Mask;

/// Heap bytes a compiled plan may hold beyond `memory_bytes().total()`:
/// the `Arc` allocation around the graph (two counts and the graph's
/// fields) and the `K x L` landmark centres. The config and a clean
/// compile's report own no heap.
const SLACK: usize = 256;

#[test]
fn plan_memory_matches_the_live_heap_of_a_compile() {
    std::env::set_var("SMFL_THREADS", "1");
    assert_eq!(
        smfl_linalg::parallel::max_threads(),
        1,
        "the thread pin must take"
    );

    // A tall, narrow table like the paper's: two spatial columns and
    // about 10% of the attribute cells unobserved.
    let (n, m, k, l) = (600, 7, 4, 2);
    let x = uniform_matrix(n, m, 0.0, 1.0, 3);
    let sel = uniform_matrix(n, m, 0.0, 1.0, 4);
    let mut omega = Mask::full(n, m);
    for i in 0..n {
        for j in l..m {
            if sel.get(i, j) < 0.1 {
                omega.set(i, j, false);
            }
        }
    }
    let config = SmflConfig::smfl(k, l)
        .with_lambda(10.0)
        .with_p(5)
        .with_max_iter(5)
        .with_seed(1);

    LIVE.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    let mut plan = FitPlan::compile(&x, &omega, &config).unwrap();
    COUNTING.set(false);
    let live = LIVE.load(Ordering::SeqCst);
    let mem = plan.memory_bytes();

    // Check 1: Ω's pattern is 4 bytes per row pointer, 12 per observed
    // cell for its three indices, 8 for its value, and 4 per column
    // pointer.
    let nnz = omega.count();
    assert_eq!(mem.pattern, 4 * (n + 1) + 12 * nnz + 8 * nnz + 4 * (m + 1));

    // Check 2: the graph holds its offsets and neighbour lists and no
    // spare capacity (the assembly's pre-dedupe slots are released).
    let graph = plan.graph().expect("SMFL at λ > 0 has a graph");
    assert!(graph.nnz() < 2 * 5 * n, "mutual edges were deduplicated");
    assert_eq!(mem.graph, 4 * (n + 1) + 4 * graph.nnz());

    // The step scratch of a fresh plan: U's and V's candidates and Vᵀ.
    assert_eq!(mem.workspace, 8 * (n * k + k * m + m * k));
    assert_eq!(mem.checkpoint, 0);

    // Check 3: the layers account for the live heap of the compile.
    let total = mem.total() as isize;
    assert!(
        total <= live && live <= total + SLACK as isize,
        "a compiled plan holds {live} live bytes; memory_bytes() counts {total} \
         (allowed slack {SLACK})"
    );

    // A recovering solve checkpoints: the snapshot pair appears.
    let mut recovering = FitPlan::compile(&x, &omega, &config.clone().resilient()).unwrap();
    assert_eq!(recovering.memory_bytes().checkpoint, 0);
    recovering.solve().unwrap();
    assert_eq!(recovering.memory_bytes().checkpoint, 8 * (n * k + k * m));
    plan.solve().unwrap();
    assert_eq!(
        plan.memory_bytes().checkpoint,
        0,
        "a strict solve never checkpoints"
    );
}
