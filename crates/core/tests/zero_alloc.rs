//! The engine's headline contract: after the first iteration, the
//! multiplicative update loop performs **zero heap allocations** — all
//! scratch lives in the per-fit `Workspace` and is reused verbatim.
//! The spatial preprocessing pipeline carries the same contract: bulk
//! kNN queries allocate nothing per query, and the k-means iteration
//! loop allocates nothing per iteration.
//!
//! Verified three ways:
//! 1. a counting global allocator observes no `alloc` calls across the
//!    steady-state iterations (warmup runs first so lazily created
//!    buffers exist);
//! 2. the workspace buffers keep their addresses across iterations
//!    (pointer stability — no free+realloc churn either);
//! 3. allocation-count *equality* between short and long runs of the
//!    same computation (20x the queries / 20 extra k-means iterations
//!    must not change the count, so the marginal cost is provably zero).
//!
//! The fused step — both rules, graph term and landmarks on, the
//! multiplicative one at a mask above 50% observed — carries the same
//! contract, objective included: its Laplacian term, the closing
//! `updater::score` and `SpatialGraph::regularization` walk the graph
//! without a temporary, and a fused-path fit never sizes the
//! sparse-engine scratch.
//!
//! Both steps run at K = 4 and at K = 20 (the wide tables' rank); both
//! are arms of the rank table (`smfl_linalg::rank`), whose accumulators
//! are stack values. A rank outside the table runs the runtime instance,
//! which allocates its accumulators once per kernel call.
//!
//! A step writes its candidate into the workspace and `commit` swaps it
//! in, so the factor buffers alternate between two fixed allocations;
//! a checkpoint swaps the committed-out iterate into the snapshot, so
//! under `Recover` they rotate among three.
//!
//! A strict solve never checkpoints, so it never creates the snapshot
//! buffers a recovering solve allocates on its first checkpoint. A
//! warm start borrows its seed model, so `FittedModel::refit` costs
//! what its warm solve costs, and `FittedModel::impute` allocates one
//! `N x M` matrix: the reconstruction it fills in place.
//!
//! The telemetry layer (DESIGN.md §11) extends the contract: the no-op
//! sink's instrumentation sites allocate nothing at all, and a
//! recording sink allocates only on event-buffer growth (never when
//! pre-reserved).
//!
//! This file deliberately holds exactly ONE `#[test]`, and the counter
//! counts only the allocations of the thread that armed it: the test
//! harness's main thread allocates while the test starts, which made the
//! first counted phase fail intermittently when every thread counted.
//! So that no counted work can run on a worker thread the counter does
//! not see, the test pins every kernel to one thread (`SMFL_THREADS=1`,
//! read once per process) and asserts that the pin took.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use smfl_core::health::classify;
use smfl_core::telemetry::{IterEvent, NoopSink, RecordingSink, TraceSink};
use smfl_core::updater::{gradient_step, multiplicative_step, score, UpdateContext};
use smfl_core::{Landmarks, Resilience};
use smfl_linalg::random::{positive_uniform_matrix, uniform_matrix};
use smfl_linalg::{Mask, Matrix, ObservedPattern, Workspace};
use smfl_spatial::kmeans::{kmeans, KMeansConfig};
use smfl_spatial::{KdTree, SpatialGraph};

/// Runs `f` with the counter armed and returns the allocation count.
fn count_allocs<F: FnMut()>(mut f: F) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn multiplicative_step_allocates_nothing_after_warmup() {
    // Before any kernel reads the thread count: every parallel path then
    // runs inline on this, the counted, thread.
    std::env::set_var("SMFL_THREADS", "1");
    assert_eq!(
        smfl_linalg::parallel::max_threads(),
        1,
        "the thread pin must take"
    );

    // Small enough to stay under the kernels' parallel-dispatch
    // threshold (`zero_alloc_threads.rs` covers the parallel path);
    // sparse enough (≈30% observed) to take the SpMM path, which is the
    // hot production case.
    let (n, m, k) = (60, 20, 4);
    let x = uniform_matrix(n, m, 0.0, 1.0, 7);
    let sel = uniform_matrix(n, m, 0.0, 1.0, 8);
    let mut omega = Mask::empty(n, m);
    for i in 0..n {
        for j in 0..m {
            if sel.get(i, j) < 0.3 {
                omega.set(i, j, true);
            }
        }
    }
    for j in 0..m {
        omega.set(0, j, true); // every column observed at least once
    }
    let dense_omega = mask_with_density(n, m, 0.9, 15);

    // --- Phases 1 and 1b, at a small rank and at the wide tables' rank.
    for k in [4, 20] {
        update_loop_allocates_nothing(&x, &omega, &dense_omega, k);
    }

    // --- Phase 2: bulk kNN allocates nothing per query. -----------------
    // threads = 1 keeps the run on this, the counted, thread; its only
    // transient is its scratch heap, which the thread keeps between
    // calls, so the count must be identical whether a call answers 10
    // queries or 200.
    let pts = uniform_matrix(200, 2, 0.0, 1.0, 11);
    let few = uniform_matrix(10, 2, 0.0, 1.0, 12);
    let tree = KdTree::build(&pts);
    let kk = tree.bulk_k(5, false);
    let mut out_few = vec![u32::MAX; few.rows() * kk];
    let mut out_many = vec![u32::MAX; pts.rows() * kk];
    // Warmup both paths.
    tree.nearest_bulk_into(&few, 5, false, 1, &mut out_few);
    tree.nearest_bulk_into(&pts, 5, false, 1, &mut out_many);
    let allocs_few = count_allocs(|| tree.nearest_bulk_into(&few, 5, false, 1, &mut out_few));
    let allocs_many = count_allocs(|| tree.nearest_bulk_into(&pts, 5, false, 1, &mut out_many));
    assert_eq!(
        allocs_few, allocs_many,
        "bulk kNN allocation count grew with the query count \
         ({allocs_few} for 10 queries vs {allocs_many} for 200)"
    );
    assert!(
        allocs_many <= 2,
        "bulk kNN made {allocs_many} allocations for one call; expected only the scratch heap"
    );

    // --- Phase 3: the k-means iteration loop allocates nothing. ---------
    // tol = 0 forces every iteration to run, so 20 extra iterations with
    // an unchanged allocation count prove the per-iteration cost is zero.
    let mut base = KMeansConfig::new(6).with_seed(3).with_threads(1);
    base.tol = 0.0;
    let short_cfg = base.clone().with_max_iter(3);
    let long_cfg = base.with_max_iter(23);
    // Warmup.
    kmeans(&pts, &short_cfg).unwrap();
    kmeans(&pts, &long_cfg).unwrap();
    let allocs_short = count_allocs(|| {
        kmeans(&pts, &short_cfg).unwrap();
    });
    let allocs_long = count_allocs(|| {
        kmeans(&pts, &long_cfg).unwrap();
    });
    assert_eq!(
        allocs_short, allocs_long,
        "k-means allocation count grew with the iteration count \
         ({allocs_short} for 3 iters vs {allocs_long} for 23)"
    );

    // --- Phase 4: telemetry sinks in the steady-state loop. -------------
    // The engine's per-iteration instrumentation is
    // `if S::ENABLED { sink.iter(&event) }`; drive that exact shape.
    fn drive<S: TraceSink>(sink: &mut S, iterations: usize) {
        for t in 0..iterations {
            if S::ENABLED {
                let event = IterEvent {
                    iteration: t,
                    objective: 1.0 / (t + 1) as f64,
                    fit_term: 1.0 / (t + 1) as f64,
                    laplacian_term: 0.0,
                    wall: std::time::Duration::from_micros(1),
                    health: None,
                    accepted: true,
                    landmarks_intact: true,
                };
                sink.iter(&event);
            }
        }
    }

    // The no-op sink erases the instrumentation: zero allocations, full stop.
    let noop = count_allocs(|| drive(&mut NoopSink, 1000));
    assert_eq!(noop, 0, "NoopSink instrumentation allocated {noop} times");

    // A pre-reserved recording sink stays allocation-free in the loop...
    let mut reserved = RecordingSink::with_capacity(1000);
    let rec = count_allocs(|| drive(&mut reserved, 1000));
    assert_eq!(
        rec, 0,
        "pre-reserved RecordingSink allocated {rec} times in the loop"
    );
    assert_eq!(reserved.trace().iterations.len(), 1000);

    // ...and an unreserved one allocates only on event-buffer growth:
    // amortized doubling means <= ~log2(1000) + 1 reallocations.
    let mut growing = RecordingSink::new();
    let grow = count_allocs(|| drive(&mut growing, 1000));
    assert!(
        grow > 0 && grow <= 12,
        "unreserved RecordingSink made {grow} allocations for 1000 events; \
         expected only amortized buffer doubling"
    );

    // --- Phase 5: warm-start refits through a compiled plan. ------------
    // The serving loop is `plan.rebind` + warm solve. On an unchanged
    // mask the rebind refills the compiled pattern in place — zero
    // allocations — and a warm solve's allocation count is a fixed
    // per-solve cost (the history buffer and the iterate's one copy of
    // the borrowed warm factors), independent of how many iterations it
    // runs.
    use smfl_core::{fit as core_fit, FitPlan, SmflConfig, SolveOptions};

    let cfg = SmflConfig::nmf(k)
        .with_seed(7)
        .with_tol(0.0)
        .with_max_iter(3);
    let cold_nmf = core_fit(&x, &omega, &cfg).unwrap();
    let opts = SolveOptions::warm_from(&cold_nmf);

    let mut plan_short = FitPlan::compile(&x, &omega, &cfg).unwrap();
    let mut plan_long = FitPlan::compile(&x, &omega, &cfg.clone().with_max_iter(23)).unwrap();
    let x2 = uniform_matrix(n, m, 0.0, 1.0, 14);
    // Warmup: neither the first solve nor the first rebind creates a
    // lazy buffer on this strict, sparse-path plan (phase 6 checks the
    // solve half), but both are warmed for symmetry.
    plan_short.rebind(&x2, &omega).unwrap();
    plan_short.solve_with(&opts).unwrap();
    plan_long.rebind(&x2, &omega).unwrap();
    plan_long.solve_with(&opts).unwrap();

    let rebind_allocs = count_allocs(|| plan_short.rebind(&x, &omega).unwrap());
    assert_eq!(
        rebind_allocs, 0,
        "rebind on an unchanged mask heap-allocated {rebind_allocs} times"
    );
    plan_long.rebind(&x, &omega).unwrap();

    let warm_short = count_allocs(|| {
        plan_short.solve_with(&opts).unwrap();
    });
    let warm_long = count_allocs(|| {
        plan_long.solve_with(&opts).unwrap();
    });
    assert_eq!(
        warm_short, warm_long,
        "warm solve allocation count grew with the iteration count \
         ({warm_short} for 3 iters vs {warm_long} for 23): the marginal \
         per-iteration allocation cost must be zero"
    );

    // The same for SMFL (graph, λ > 0, landmarks) on the dense path:
    // before the degree-form regularization, every iteration's objective
    // allocated an N x K temporary.
    let smfl = SmflConfig::smfl(k, 2)
        .with_lambda(0.5)
        .with_p(3)
        .with_seed(7)
        .with_tol(0.0)
        .with_max_iter(3);
    let cold = core_fit(&x, &dense_omega, &smfl).unwrap();
    let opts = SolveOptions::warm_from(&cold);
    let mut plan_short = FitPlan::compile(&x, &dense_omega, &smfl).unwrap();
    let mut plan_long =
        FitPlan::compile(&x, &dense_omega, &smfl.clone().with_max_iter(23)).unwrap();
    plan_short.solve_with(&opts).unwrap();
    plan_long.solve_with(&opts).unwrap();
    let mut long_model = None;
    let warm_short = count_allocs(|| {
        plan_short.solve_with(&opts).unwrap();
    });
    let warm_long = count_allocs(|| {
        long_model = Some(plan_long.solve_with(&opts).unwrap());
    });
    assert_eq!(
        warm_short, warm_long,
        "SMFL warm solve allocation count grew with the iteration count \
         ({warm_short} for 3 iters vs {warm_long} for 23)"
    );
    assert_eq!(
        long_model.unwrap().iterations,
        23,
        "tol = 0 must run every iteration"
    );

    // --- Phase 6: a strict solve allocates no checkpoint buffers. -------
    // The snapshot pair (`snap_u`, `snap_v`) is created lazily by the
    // first checkpoint, and only `Recover` checkpoints. So a strict warm
    // solve on a fresh plan allocates what it does on a reused one plus
    // the sparse-engine scratch its first step sizes (`uv_vals`,
    // `denom_u`, `reg_a`; this plan takes the sparse path), while a
    // recovering solve's first run allocates the two snapshot buffers on
    // top — and both policies return the same model.
    const SPARSE_SCRATCH_BUFFERS: usize = 3;
    let strict_cfg = cfg.clone().with_max_iter(10);
    let recover_cfg = strict_cfg.clone().resilient();
    let opts = SolveOptions::warm_from(&cold_nmf);
    let first_and_reused = |config: &SmflConfig| {
        let mut plan = FitPlan::compile(&x, &omega, config).unwrap();
        let mut model = None;
        let first = count_allocs(|| model = Some(plan.solve_with(&opts).unwrap()));
        let reused = count_allocs(|| {
            plan.solve_with(&opts).unwrap();
        });
        (first, reused, model.unwrap())
    };
    let (strict_first, strict_reused, strict_model) = first_and_reused(&strict_cfg);
    let (recover_first, recover_reused, recover_model) = first_and_reused(&recover_cfg);
    assert_eq!(
        strict_first,
        strict_reused + SPARSE_SCRATCH_BUFFERS,
        "a strict solve on a fresh plan allocated {} more buffers than on a reused one",
        strict_first as isize - strict_reused as isize
    );
    assert_eq!(strict_reused, recover_reused);
    assert_eq!(
        recover_first,
        strict_first + 2,
        "the recovering solve's first checkpoint must allocate exactly the snapshot pair"
    );
    assert!(strict_model.u.approx_eq(&recover_model.u, 0.0));
    assert!(strict_model.v.approx_eq(&recover_model.v, 0.0));
    assert_eq!(strict_model.report, recover_model.report);

    // --- Phase 7: a refit makes no factor copies of its own. ------------
    // `refit` is a rebind plus a warm solve that borrows the model, so it
    // allocates exactly what that warm solve allocates after a rebind.
    let mut plan = FitPlan::compile(&x, &omega, &strict_cfg).unwrap();
    plan.solve_with(&opts).unwrap();
    plan.rebind(&x2, &omega).unwrap();
    let solve_allocs = count_allocs(|| {
        plan.solve_with(&opts).unwrap();
    });
    let refit_allocs = count_allocs(|| {
        cold_nmf.refit(&mut plan, &x2, &omega).unwrap();
    });
    assert_eq!(
        refit_allocs, solve_allocs,
        "refit allocated {refit_allocs} times where the warm solve it wraps allocates \
         {solve_allocs}: it copies the warm factors"
    );

    // --- Phase 8: imputation allocates only the reconstruction. ---------
    // Formula 8 writes the observed cells into `X* = U·V` in place.
    let impute_allocs = count_allocs(|| {
        cold_nmf.impute(&x, &omega).unwrap();
    });
    assert_eq!(
        impute_allocs, 1,
        "impute allocated {impute_allocs} times; expected the one N x M reconstruction"
    );
}

/// Phases 1 (the sparse multiplicative step) and 1b (the fused step, both
/// rules, and the closing score) at rank `k`: no allocation after warmup.
fn update_loop_allocates_nothing(x: &Matrix, omega: &Mask, dense_omega: &Mask, k: usize) {
    let (n, m) = x.shape();
    let pattern = ObservedPattern::compile(x, omega).unwrap();
    assert!(
        !pattern.prefers_dense(),
        "test must exercise the sparse path"
    );

    let ctx = UpdateContext {
        pattern: &pattern,
        graph: None,
        lambda: 0.0,
        landmarks: None,
    };
    let mut ws = Workspace::new(&pattern, k);
    let mut u = positive_uniform_matrix(n, k, 9);
    let mut v = positive_uniform_matrix(k, m, 10);

    // Warmup: first iterations may lazily create buffers — the sparse
    // scratch on the first step, and the checkpoint double-buffer, which
    // allocates once on first use.
    for _ in 0..3 {
        multiplicative_step(&ctx, &mut ws, &u, &v).unwrap();
        ws.commit(&mut u, &mut v);
    }
    ws.checkpoint_committed();

    let ptrs = |ws: &Workspace, u: &Matrix| {
        // `commit` swaps U with the candidate buffer and a checkpoint
        // swaps the candidate with the snapshot: the triple is stable.
        let mut factors = [
            u.as_slice().as_ptr(),
            ws.u_next.as_slice().as_ptr(),
            ws.snap_u.as_ref().unwrap().as_slice().as_ptr(),
        ];
        factors.sort();
        (
            ws.uv_vals.as_ptr(),
            ws.vt.as_slice().as_ptr(),
            ws.reg_a.as_slice().as_ptr(),
            ws.denom_u.as_slice().as_ptr(),
            factors,
        )
    };
    let ptrs_before = ptrs(&ws, &u);

    // Steady state mirrors the recovering fit loop: update (scoring its
    // input), health scan, commit, checkpoint. All must be
    // allocation-free.
    let policy = Resilience::Recover { stall_patience: 0 };
    let mut prev = None;
    let allocs = count_allocs(|| {
        for _ in 0..10 {
            let fit = multiplicative_step(&ctx, &mut ws, &u, &v).unwrap().fit;
            assert!(classify(fit, prev, &u, &v, 0, &policy).is_none());
            prev = Some(fit);
            ws.commit(&mut u, &mut v);
            ws.checkpoint_committed();
        }
    });

    assert_eq!(
        allocs, 0,
        "update + health scan + checkpoint heap-allocated {allocs} times \
         across 10 steady-state iterations at K = {k}"
    );
    assert!(ws.has_checkpoint());

    assert_eq!(
        ptrs_before,
        ptrs(&ws, &u),
        "workspace buffers were reallocated"
    );
    assert!(u.all_finite() && v.all_finite());

    // --- Phase 1b: the fused step with graph and landmarks. -------------
    // ~90% observed takes the fused path; the objective terms (fit and
    // Laplacian) come out of the step, and the standalone degree-form
    // regularization must be allocation-free too. Gradient steps run on
    // the same passes.
    let dense_pattern = ObservedPattern::compile(x, dense_omega).unwrap();
    assert!(
        dense_pattern.prefers_dense(),
        "phase 1b must exercise the fused path"
    );
    let si = x.columns(0, 2).unwrap();
    let graph = SpatialGraph::build(&si, 3).unwrap();
    let lm = Landmarks::compute(&si, k, 100, 0).unwrap();
    let dense_ctx = UpdateContext {
        pattern: &dense_pattern,
        graph: Some(&graph),
        lambda: 0.5,
        landmarks: Some(&lm),
    };
    let mut ws = Workspace::new(&dense_pattern, k);
    let mut u = positive_uniform_matrix(n, k, 16);
    let mut v = positive_uniform_matrix(k, m, 17);
    lm.inject(&mut v).unwrap();
    for _ in 0..3 {
        multiplicative_step(&dense_ctx, &mut ws, &u, &v).unwrap();
        ws.commit(&mut u, &mut v);
    }
    let dense_allocs = count_allocs(|| {
        for _ in 0..10 {
            let terms = multiplicative_step(&dense_ctx, &mut ws, &u, &v).unwrap();
            assert!(terms.laplacian > 0.0);
            assert!(graph.regularization(&u).unwrap() > 0.0);
            ws.commit(&mut u, &mut v);
        }
        for _ in 0..10 {
            let terms = gradient_step(&dense_ctx, &mut ws, &u, &v, 1e-3).unwrap();
            assert!(terms.laplacian > 0.0);
            ws.commit(&mut u, &mut v);
        }
        assert!(score(&dense_ctx, &mut ws, &u, &v).unwrap().laplacian > 0.0);
    });
    assert_eq!(
        dense_allocs, 0,
        "fused step + objective heap-allocated {dense_allocs} times \
         across 20 steady-state iterations at K = {k}"
    );
    assert_eq!(ws.counters.dense_steps, 23);
    assert!(lm.verify_injected(&v));
    assert!(
        ws.uv_vals.is_empty() && ws.denom_u.as_slice().is_empty() && ws.reg_a.as_slice().is_empty(),
        "the fused step sized the sparse-engine scratch"
    );
}

/// An i.i.d. mask at `density`, with row 0 fully observed.
fn mask_with_density(n: usize, m: usize, density: f64, seed: u64) -> Mask {
    let sel = uniform_matrix(n, m, 0.0, 1.0, seed);
    let mut omega = Mask::empty(n, m);
    for i in 0..n {
        for j in 0..m {
            if i == 0 || sel.get(i, j) < density {
                omega.set(i, j, true);
            }
        }
    }
    omega
}
