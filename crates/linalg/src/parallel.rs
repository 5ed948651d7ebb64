//! One persistent worker pool shared by every parallel kernel in the
//! workspace, and the row-striping helper built on it.
//!
//! All parallel paths in the suite — the dense products of [`crate::ops`],
//! the sparse-residual kernels of [`crate::kernels`], the fused step of
//! `smfl-core`, and the spatial preprocessing pipeline (kd-tree
//! construction, bulk kNN, k-means assignment in `smfl-spatial`) — hand
//! a list of independent work items to [`par_for_each`], most of them
//! through [`parallel_over_rows`], which splits one output slice into
//! contiguous row stripes. Centralizing that here keeps thread-count
//! policy (including the `SMFL_THREADS` override) in one place and makes
//! every parallel path deterministic: each item's result depends only on
//! the item, never on which thread ran it or how many there were.
//!
//! # The pool
//!
//! This module is the only place in the library that starts threads. The
//! first parallel dispatch starts [`max_threads`]` − 1` workers, which
//! live for the rest of the process; nothing starts them earlier, so a
//! program may still set `SMFL_THREADS` before its first kernel runs. A
//! dispatch publishes one job — "take items from this iterator until it
//! is empty" — and the calling thread takes items too, so the caller
//! always runs a share of the work and finishes alone if no worker is
//! free. A dispatch allocates nothing: the iterator, the job and the
//! bookkeeping live on the caller's stack and in one static.
//!
//! Only one dispatch uses the workers at a time. A dispatch that finds
//! the pool busy — issued from inside a task, or by a second user thread
//! while the first one's dispatch runs — runs all of its items on its
//! own thread. That never deadlocks and never changes a result, since
//! results do not depend on the thread that computes them.
//!
//! A task that panics does not take its worker down: the payload is
//! caught, the dispatch still waits for every other participant, and the
//! caller re-raises the first payload (its own, else a worker's). The
//! pool stays usable afterwards. That is also why the workers are never
//! joined: they live as long as the process, and nothing they could
//! report is left to their exit.
//!
//! Idle workers spin for `SPIN` and then park on a condition variable,
//! so consecutive dispatches of one fit find them awake while an idle
//! process burns no CPU. A spinning thread yields its core between
//! probes, so a pool wider than the machine (`SMFL_THREADS` above the
//! core count) still lets the threads with work run.
//!
//! # Costs, measured on a 2-vCPU VM
//!
//! Dispatching two 50 µs items, the time beyond the 50 µs of work
//! (median, three rounds of 2,000 dispatches each):
//!
//! - a `std::thread::scope` that spawns one thread, which every parallel
//!   region paid before this pool: 49–53 µs;
//! - a dispatch to a spinning worker: 1.5–1.7 µs;
//! - a dispatch that wakes a parked worker: 40–44 µs, about a spawn.
//!
//! The spin window `SPIN` is 300 µs. Between consecutive dispatches of
//! a paper-scale Lake fit the caller is busy for 4 µs at the median,
//! 18 µs at p90 and 111 µs at p99 (1,010 gaps over five fits), so a
//! fit's dispatches find the workers awake, while an idle process parks
//! them within a third of a millisecond.
//!
//! [`PARALLEL_FLOP_THRESHOLD`] is set from the dispatch cost. At about
//! 1 GFLOP/s per core (the kernels are bound by memory latency, not
//! compute), splitting `f` flops over two threads saves about `f / 2` ns.
//! At 500k flops that is 250 µs: over 100x a dispatch to a spinning
//! worker and 5x the wake of a parked one, so even a cold dispatch pays
//! for itself. Lake's fused step (`2·|Ω|·K ≈ 624k` flops) crosses it;
//! under the spawn per region the threshold was 2M.
//!
//! # Safety
//!
//! A persistent worker cannot borrow the caller's stack through the type
//! system, so `Pool::run` erases the lifetime of the job it publishes.
//! That erasure is the library's only `unsafe` code; its argument is
//! written at the one `unsafe` block.
//!
//! Thread-count policy:
//! - work below [`PARALLEL_FLOP_THRESHOLD`] FLOPs stays serial;
//! - otherwise [`max_threads`] threads are used: the `SMFL_THREADS`
//!   environment variable when set (≥ 1, uncapped — an explicit override
//!   wins), else `available_parallelism` capped at 8.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Work items smaller than this many FLOPs stay on a single thread; the
/// threshold amortizes the cost of a pool dispatch (module docs).
pub const PARALLEL_FLOP_THRESHOLD: usize = 500_000;

/// How long an idle worker, or a caller waiting for its workers, spins
/// before it parks (module docs).
const SPIN: Duration = Duration::from_micros(300);

/// The thread-pool width used once a work item crosses the threshold.
///
/// Reads the `SMFL_THREADS` environment variable once per process (the
/// first call wins; later changes to the variable are ignored). Values
/// that fail to parse or are zero fall back to the hardware default of
/// `available_parallelism` capped at 8.
pub fn max_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("SMFL_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            })
    })
}

/// Number of threads to use for a work item of `flops` floating-point
/// operations: 1 below [`PARALLEL_FLOP_THRESHOLD`], [`max_threads`]
/// above it.
pub fn threads_for(flops: usize) -> usize {
    if flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    max_threads()
}

/// Runs `body` on every item of `items`, shared among the calling
/// thread and up to `threads − 1` pool workers; returns when every item
/// is done.
///
/// Items are handed out in iterator order to whichever participant asks
/// next, so `body` must not depend on which thread runs it — each item
/// should own the output it writes. With `threads <= 1`, or while the
/// pool serves another dispatch, every item runs on the calling thread.
/// A panic in `body` is re-raised here once all participants are done.
pub fn par_for_each<I, F>(threads: usize, items: I, body: F)
where
    I: Iterator + Send,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let items = Mutex::new(items);
    let job = || loop {
        let item = items
            .lock()
            .expect("an item iterator panicked in another participant")
            .next();
        match item {
            Some(item) => body(item),
            None => break,
        }
    };
    POOL.run(threads, &job);
}

/// Splits `out` (a `total_rows x row_width` row-major buffer of any
/// element type) into `threads` contiguous row stripes and runs
/// `body(start_row, end_row, stripe)` on each through [`par_for_each`].
///
/// With `threads <= 1` (or a degenerate shape) the body runs inline on
/// the full slice — callers never need a separate serial dispatch. The
/// decomposition is deterministic: stripe boundaries depend only on
/// `total_rows` and `threads`, and each stripe is written independently,
/// so results are bitwise-identical for every thread count.
///
/// Shared by the dense products in [`crate::ops`], the sparse-residual
/// kernels in [`crate::kernels`], and the spatial substrate's bulk kNN
/// and k-means assignment loops (which stripe neighbour indices and
/// per-point bound structs rather than `f64`s — hence the generic
/// element type).
pub fn parallel_over_rows<T, F>(
    out: &mut [T],
    row_width: usize,
    total_rows: usize,
    threads: usize,
    body: F,
) where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    if threads <= 1 || row_width == 0 || total_rows <= 1 {
        body(0, total_rows, out);
        return;
    }
    let chunk_rows = total_rows.div_ceil(threads);
    let stripes = out
        .chunks_mut(chunk_rows * row_width)
        .enumerate()
        .map(|(ci, chunk)| {
            let start = ci * chunk_rows;
            (
                start,
                (start + chunk.len() / row_width).min(total_rows),
                chunk,
            )
        });
    par_for_each(threads, stripes, |(start, end, chunk)| {
        body(start, end, chunk)
    });
}

/// The job a dispatch publishes: run by the caller and each worker that
/// takes a seat, it takes items until none are left.
type Job = &'static (dyn Fn() + Sync);

/// The process-wide pool. Its workers start on the first dispatch that
/// could use them ([`workers`]).
static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    epoch: AtomicUsize::new(0),
    active: AtomicUsize::new(0),
    state: Mutex::new(State {
        job: None,
        seats: 0,
        sleeping: 0,
        caller_parked: false,
        panic: None,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
};

struct Pool {
    /// Set while a dispatch owns the workers; a dispatch that finds it
    /// set runs inline.
    busy: AtomicBool,
    /// Bumped under `state` by every dispatch; idle workers spin on it.
    /// It publishes nothing itself (the job is read under `state`), so
    /// it is accessed `Relaxed`.
    epoch: AtomicUsize,
    /// Workers inside the current job. Incremented under `state` only
    /// while the job is published; decremented under `state` with
    /// `Release` once a worker is done with it, and read with `Acquire`
    /// by the caller, so a worker's writes happen before the caller's
    /// return.
    active: AtomicUsize,
    state: Mutex<State>,
    /// Parked workers wait here for the next epoch.
    wake: Condvar,
    /// A parked caller waits here for `active` to reach zero.
    done: Condvar,
}

struct State {
    /// The published job, `None` outside a dispatch.
    job: Option<Job>,
    /// Workers that may still join the published job.
    seats: usize,
    /// Workers parked on `wake`.
    sleeping: usize,
    /// The caller is parked on `done`.
    caller_parked: bool,
    /// The first panic payload a worker caught in this dispatch.
    panic: Option<Box<dyn Any + Send>>,
}

/// Starts the pool's `max_threads() − 1` workers on the first call and
/// returns how many run. A worker the OS refuses to start is left out.
fn workers() -> usize {
    static STARTED: OnceLock<usize> = OnceLock::new();
    *STARTED.get_or_init(|| {
        (1..max_threads())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("smfl-pool-{i}"))
                    .spawn(|| POOL.work())
                    .is_ok()
            })
            .count()
    })
}

impl Pool {
    /// The bookkeeping lock. Every update of [`State`] leaves it valid,
    /// and no task runs under the lock, so a poisoned guard is used as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and on up to `threads − 1`
    /// workers at once, returning when every copy has returned; re-raises
    /// the first panic among them.
    fn run(&self, threads: usize, job: &(dyn Fn() + Sync)) {
        let seats = if threads > 1 {
            workers().min(threads - 1)
        } else {
            0
        };
        if seats == 0 || self.busy.swap(true, Ordering::Acquire) {
            job();
            return;
        }
        // SAFETY: the transmute only widens the lifetime of `job`; the
        // layout of the reference is unchanged. Workers reach the widened
        // reference only through `state.job`, and only while this call
        // is still in progress:
        // - a worker copies it out of `state.job` and increments `active`
        //   in one critical section, and it decrements `active` only after
        //   its call of the job has returned (or unwound and been caught);
        // - below, this function clears `state.job` under the lock, so no
        //   worker can take the job afterwards, and then waits for
        //   `active` to reach zero;
        // - nothing between the publication and that wait can return or
        //   unwind early: the caller's own call runs under `catch_unwind`
        //   and `lock` never panics.
        // So no worker uses the reference once this call returns, which
        // is within the lifetime of `job`. `busy` keeps a second
        // dispatch from replacing the job meanwhile.
        let erased: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        {
            let mut st = self.lock();
            st.job = Some(erased);
            st.seats = seats;
            self.epoch.fetch_add(1, Ordering::Relaxed);
            if st.sleeping > 0 {
                self.wake.notify_all();
            }
        }
        let mine = catch_unwind(AssertUnwindSafe(job));
        {
            let mut st = self.lock();
            st.job = None;
            st.seats = 0;
        }
        self.wait_idle();
        let theirs = self.lock().panic.take();
        self.busy.store(false, Ordering::Release);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            resume_unwind(payload);
        }
    }

    /// Waits until no worker is inside the retracted job: spins for
    /// [`SPIN`], then parks on `done`.
    fn wait_idle(&self) {
        if spin_until(|| self.active.load(Ordering::Acquire) == 0) {
            return;
        }
        let mut st = self.lock();
        st.caller_parked = true;
        while self.active.load(Ordering::Acquire) > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.caller_parked = false;
    }

    /// A worker's life: wait for a new epoch, take a seat in its job if
    /// one is free, run it, report.
    fn work(&self) {
        let mut seen = self.epoch.load(Ordering::Acquire);
        loop {
            self.wait_past(seen);
            let job = {
                let mut st = self.lock();
                // The epoch only moves under the lock: this is the job's.
                seen = self.epoch.load(Ordering::Relaxed);
                match st.job {
                    Some(job) if st.seats > 0 => {
                        st.seats -= 1;
                        self.active.fetch_add(1, Ordering::Relaxed);
                        job
                    }
                    _ => continue,
                }
            };
            let result = catch_unwind(AssertUnwindSafe(job));
            let mut st = self.lock();
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            self.active.fetch_sub(1, Ordering::Release);
            if st.caller_parked {
                self.done.notify_one();
            }
        }
    }

    /// Waits until the epoch moves past `seen`: spins for [`SPIN`], then
    /// parks on `wake`.
    fn wait_past(&self, seen: usize) {
        if spin_until(|| self.epoch.load(Ordering::Relaxed) != seen) {
            return;
        }
        let mut st = self.lock();
        st.sleeping += 1;
        while self.epoch.load(Ordering::Relaxed) == seen {
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.sleeping -= 1;
    }
}

/// Polls `ready` for up to [`SPIN`], yielding the core between probes;
/// returns whether it became true.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() > SPIN {
            return ready();
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_respect_threshold() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PARALLEL_FLOP_THRESHOLD - 1), 1);
        assert!(threads_for(PARALLEL_FLOP_THRESHOLD) >= 1);
    }

    #[test]
    fn serial_dispatch_runs_inline() {
        let mut out = vec![0u32; 6];
        parallel_over_rows(&mut out, 2, 3, 1, |start, end, chunk| {
            assert_eq!((start, end), (0, 3));
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn stripes_cover_all_rows_disjointly() {
        for threads in 1..6 {
            for rows in [0usize, 1, 2, 5, 16, 17] {
                let width = 3;
                let mut out = vec![usize::MAX; rows * width];
                parallel_over_rows(&mut out, width, rows, threads, |start, end, chunk| {
                    assert_eq!(chunk.len(), (end - start) * width);
                    for (r, row) in chunk.chunks_mut(width).enumerate() {
                        row.fill(start + r);
                    }
                });
                for r in 0..rows {
                    assert!(out[r * width..(r + 1) * width].iter().all(|&v| v == r));
                }
            }
        }
    }

    #[test]
    fn generic_over_non_float_elements() {
        let mut out = vec![(0usize, 0.0f64); 8];
        parallel_over_rows(&mut out, 2, 4, 2, |start, _end, chunk| {
            for (r, row) in chunk.chunks_mut(2).enumerate() {
                for e in row.iter_mut() {
                    *e = (start + r, (start + r) as f64);
                }
            }
        });
        for r in 0..4 {
            assert_eq!(out[2 * r], (r, r as f64));
            assert_eq!(out[2 * r + 1], (r, r as f64));
        }
    }

    /// The participants a dispatch of `items` would see, by thread.
    fn participants(threads: usize, items: usize) -> Vec<std::thread::ThreadId> {
        let seen = Mutex::new(Vec::new());
        par_for_each(threads, 0..items, |_| {
            std::thread::sleep(Duration::from_micros(200));
            seen.lock().unwrap().push(std::thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn a_panicking_task_is_reraised_on_the_caller_and_the_pool_survives() {
        let caller = std::thread::current().id();
        // A panic in the first item, whichever thread takes it.
        let err = catch_unwind(|| par_for_each(2, 0..4, |i| assert_ne!(i, 0, "item zero")))
            .expect_err("the panic must reach the caller");
        assert!(format!("{:?}", err.downcast_ref::<String>()).contains("item zero"));
        // A panic on a worker: retried until a worker takes an item (a
        // dispatch runs inline while another test's dispatch holds the
        // pool).
        let mut from_worker = false;
        for _ in 0..50 {
            let run = catch_unwind(|| {
                par_for_each(2, 0..4, |_| {
                    std::thread::sleep(Duration::from_micros(500));
                    if std::thread::current().id() != caller {
                        panic!("worker task");
                    }
                })
            });
            if let Err(payload) = run {
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker task"));
                from_worker = true;
                break;
            }
        }
        assert!(from_worker || workers() == 0, "no worker ever took an item");
        // The pool still works, workers included.
        let mut out = vec![0usize; 64];
        parallel_over_rows(&mut out, 1, 64, 4, |start, _end, chunk| {
            for (r, v) in chunk.iter_mut().enumerate() {
                *v = start + r;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn a_dispatch_inside_a_task_runs_inline() {
        par_for_each(2, 0..4, |_| {
            let here = std::thread::current().id();
            assert!(participants(4, 4).iter().all(|&id| id == here));
        });
    }

    #[test]
    fn concurrent_dispatches_match_a_serial_run() {
        let rows = 4096;
        let fill = |threads: usize| {
            let mut out = vec![0.0f64; rows * 3];
            parallel_over_rows(&mut out, 3, rows, threads, |start, _end, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    let x = (start + r) as f64;
                    row.copy_from_slice(&[x.sin(), x.sqrt().cos(), (x * 0.5).exp().ln()]);
                }
            });
            out
        };
        let serial = fill(1);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        let par = fill(4);
                        assert!(par
                            .iter()
                            .zip(&serial)
                            .all(|(a, b)| a.to_bits() == b.to_bits()));
                    }
                });
            }
        });
    }

    #[test]
    fn the_pool_never_starts_more_than_max_threads_minus_one_workers() {
        let mut ids = std::collections::HashSet::new();
        for _ in 0..20 {
            ids.extend(participants(64, 64));
        }
        assert!(workers() < max_threads());
        // The caller plus at most every worker.
        assert!(
            ids.len() <= max_threads(),
            "{} threads ran tasks",
            ids.len()
        );
    }

    #[test]
    fn idle_workers_park() {
        participants(2, 4);
        // Parked workers wait on a condition variable and burn no CPU.
        // Other tests' dispatches may wake them again, so poll.
        let deadline = Instant::now() + Duration::from_secs(10);
        while POOL.lock().sleeping < workers() {
            assert!(Instant::now() < deadline, "workers still spin");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn zero_width_rows_run_inline() {
        let mut out: Vec<f64> = Vec::new();
        let calls = AtomicUsize::new(0);
        parallel_over_rows(&mut out, 0, 5, 4, |start, end, _chunk| {
            assert_eq!((start, end), (0, 5));
            calls.fetch_add(1, Ordering::SeqCst);
        });
        // Body runs exactly once, inline.
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
