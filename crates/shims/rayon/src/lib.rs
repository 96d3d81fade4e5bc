//! Offline stand-in for `rayon`.
//!
//! Provides the small parallel-iterator surface the workspace uses —
//! `into_par_iter()` / `par_iter()` followed by `map(...).collect()` or
//! `for_each(...)` — implemented over a **persistent worker pool**.
//! Results are collected **in input order**, so a parallel map is a
//! drop-in, bit-identical replacement for the sequential `Iterator`
//! equivalent whenever the mapped function is pure per item (no
//! cross-item state), which is exactly the contract the workspace's
//! experiment runner relies on for determinism.
//!
//! Earlier revisions spawned `std::thread::scope` threads per operation;
//! thread creation put a floor under the fan-out cost that the
//! experiment runner's minimum-work heuristic had to stay above. The
//! pool ([`pool`]) spawns its workers once per process and hands them
//! type-erased tasks through **per-worker local deques with stealing**
//! (an earlier revision used one global FIFO, which made every batch
//! contend on a single lock): submitters spread a batch round-robin
//! over the deques, workers pop their own front and steal siblings'
//! backs when idle. A parallel operation costs one enqueue per worker
//! task plus condvar traffic, dropping the fan-out floor by orders of
//! magnitude. Submitting threads *help*: they run queued tasks
//! themselves (scanning every deque) while waiting for their batch, so
//! nested parallel operations cannot deadlock even on a single-worker
//! pool.

// sst-analyze: allow(unsafe-audit) reason="the one lifetime-erasure unsafe block below is the pool's core mechanism, gated by #[allow(unsafe_code)] + a SAFETY comment; this shim has no `sys` FFI module to home it in"

#![deny(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::atomic::AtomicUsize;
use std::sync::{Mutex, OnceLock};

std::thread_local! {
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The process-wide default worker count: the `RAYON_NUM_THREADS`
/// environment variable, else the machine's available parallelism —
/// resolved **once** per process, the same semantics as real rayon,
/// whose global pool reads the variable at construction. (Re-reading it
/// per call also made this a hot-path cost: `env::var` scans the whole
/// environment block.)
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Number of worker threads a parallel operation will use: a
/// [`with_num_threads`] override if one is active on this thread, else
/// the process-wide default (`default_threads`).
pub fn current_num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|c| c.get()) {
        return n.max(1);
    }
    default_threads()
}

/// Runs `f` with parallel operations *started on this thread* capped at
/// `n` workers (shim-specific stand-in for rayon's scoped thread pools).
pub fn with_num_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// The persistent worker pool behind every parallel operation.
///
/// **Per-worker local deques with stealing** (rayon's topology, sized
/// for a shim): each worker owns a deque; submitters spread a batch's
/// tasks round-robin across the deques; a worker pops its own deque
/// from the *front* and, when empty, steals from the *back* of its
/// siblings — so concurrent batches mostly touch disjoint locks
/// instead of contending on one global queue, while imbalanced batches
/// still level out through steals. Workers are spawned lazily on first
/// use and kept for the life of the process.
///
/// Work is submitted in *batches* ([`pool::run_batch_with_inline`]):
/// the submitter enqueues its tasks, runs one share of the work inline,
/// then **helps** — it keeps popping and running queued tasks (its own
/// or anyone else's, scanning every deque) until its batch completes.
/// Helping is what makes the design sound with any worker count: even
/// if every pool worker is busy or the pool is a single thread, the
/// submitting thread alone drains its queue entries, so a batch can
/// always make progress and nested batches cannot deadlock.
pub mod pool {
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};
    use std::time::Duration;

    type Task = Box<dyn FnOnce() + Send>;

    struct Inner {
        /// One local deque per worker; submitters push round-robin,
        /// owners pop the front, everyone else steals the back.
        deques: Vec<Mutex<VecDeque<Task>>>,
        /// Queued (not yet popped) tasks across all deques — atomic so
        /// the pop/steal fast paths never touch a global lock. `sleep`
        /// and `work` exist only for the idle path: the count is
        /// re-checked under the lock to close the check-then-wait
        /// race, with the usual timeout backstop.
        pending: AtomicUsize,
        sleep: Mutex<()>,
        work: Condvar,
        /// Round-robin cursor for batch placement.
        next: AtomicUsize,
        /// Cumulative successful steals (observability for tests).
        steals: AtomicUsize,
    }

    /// Completion state of one submitted batch.
    struct Batch {
        pending: Mutex<usize>,
        done: Condvar,
        panicked: AtomicBool,
    }

    impl Batch {
        fn new(n: usize) -> Self {
            Batch {
                pending: Mutex::new(n),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }
        }

        /// Blocks until every task of this batch has finished, running
        /// queued tasks (from any batch, any deque) while waiting.
        fn wait_all(&self) {
            loop {
                if *self.pending.lock().expect("batch lock") == 0 {
                    return;
                }
                if let Some(task) = steal_any(usize::MAX) {
                    task();
                    continue;
                }
                let pending = self.pending.lock().expect("batch lock");
                if *pending == 0 {
                    return;
                }
                // Tasks of this batch are running on other threads; they
                // notify `done` as they finish. The timeout is pure
                // belt-and-suspenders against a missed wakeup.
                let _ = self
                    .done
                    .wait_timeout(pending, Duration::from_millis(50))
                    .expect("batch lock");
            }
        }
    }

    /// Worker count: the process default, floored at 2 so the stealing
    /// topology (and its tests) exist even on a single-core box — an
    /// idle extra worker costs one sleeping thread.
    fn worker_count() -> usize {
        super::default_threads().max(2)
    }

    fn inner() -> &'static Inner {
        static INNER: OnceLock<Inner> = OnceLock::new();
        static WORKERS: OnceLock<()> = OnceLock::new();
        let inner = INNER.get_or_init(|| Inner {
            deques: (0..worker_count())
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            work: Condvar::new(),
            next: AtomicUsize::new(0),
            steals: AtomicUsize::new(0),
        });
        WORKERS.get_or_init(|| {
            for i in 0..worker_count() {
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || worker_main(i))
                    .expect("spawn pool worker");
            }
        });
        inner
    }

    /// Worker thread body: drain the local deque, steal when it runs
    /// dry, sleep when everything is empty. Every queued task is
    /// panic-wrapped at submission, so nothing unwinds out of here.
    fn worker_main(me: usize) {
        let p = inner();
        loop {
            if let Some(task) = pop_local(me).or_else(|| steal_any(me)) {
                task();
                continue;
            }
            // Nothing anywhere: sleep until a submitter bumps
            // `pending`. The count is re-checked under the sleep lock
            // (submitters notify under it after incrementing), so a
            // wakeup between the scan and the wait cannot be lost; the
            // timeout is belt-and-suspenders on top.
            let guard = p.sleep.lock().expect("pool sleep");
            if p.pending.load(Ordering::SeqCst) == 0 {
                let _ = p
                    .work
                    .wait_timeout(guard, Duration::from_millis(50))
                    .expect("pool sleep");
            }
            // Re-scan; the pop itself decrements `pending`.
        }
    }

    /// Pops the front of worker `me`'s own deque.
    fn pop_local(me: usize) -> Option<Task> {
        let p = inner();
        let task = p.deques[me].lock().expect("pool deque").pop_front();
        if task.is_some() {
            p.pending.fetch_sub(1, Ordering::SeqCst);
        }
        task
    }

    /// Steals from the back of any other deque (`me == usize::MAX` for
    /// non-worker helpers: scan everything, starting at a rotating
    /// offset so helpers don't all hammer deque 0).
    fn steal_any(me: usize) -> Option<Task> {
        let p = inner();
        let n = p.deques.len();
        let start = p.next.load(Ordering::Relaxed);
        for off in 0..n {
            let i = (start + off) % n;
            if i == me {
                continue;
            }
            let task = p.deques[i].lock().expect("pool deque").pop_back();
            if let Some(task) = task {
                p.pending.fetch_sub(1, Ordering::SeqCst);
                if me != i {
                    p.steals.fetch_add(1, Ordering::Relaxed);
                }
                return Some(task);
            }
        }
        None
    }

    /// Cumulative successful steals — observability for the shim's own
    /// tests (monotone; exact value depends on scheduling).
    #[doc(hidden)]
    pub fn steal_count() -> usize {
        inner().steals.load(Ordering::Relaxed)
    }

    /// Number of worker threads backing the pool.
    #[doc(hidden)]
    pub fn pool_workers() -> usize {
        inner().deques.len()
    }

    /// Erases the batch lifetime from a task so it can sit in the
    /// `'static` pool queue.
    #[allow(unsafe_code)]
    fn erase<'env>(task: Box<dyn FnOnce() + Send + 'env>) -> Box<dyn FnOnce() + Send + 'static> {
        // SAFETY: `run_batch_with_inline` does not return — not even by
        // unwinding, thanks to its wait guard — until the batch's
        // `pending` count reaches zero, i.e. until every erased task has
        // finished executing. Data borrowed for `'env` therefore
        // strictly outlives every use of the erased closure. This is the
        // same invariant `std::thread::scope` enforces for its scoped
        // threads, applied to pool tasks.
        unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        }
    }

    /// Submits `tasks` to the pool, runs `inline` on the calling thread
    /// (its share of the work), then blocks — helping with queued work —
    /// until every submitted task has finished.
    ///
    /// # Panics
    ///
    /// Panics after completion if any submitted task panicked (the task
    /// panic is contained to the pool; the batch reports it here), and
    /// propagates `inline`'s own panic after the batch has drained.
    pub fn run_batch_with_inline<'env, R>(
        tasks: Vec<Box<dyn FnOnce() + Send + 'env>>,
        inline: impl FnOnce() -> R,
    ) -> R {
        if tasks.is_empty() {
            return inline();
        }
        let batch = Arc::new(Batch::new(tasks.len()));
        {
            let p = inner();
            let n_tasks = tasks.len();
            // Spread the batch round-robin over the worker deques,
            // starting past the previous batch's placement so
            // concurrent submitters interleave across workers instead
            // of stacking on deque 0 (stealing levels the remainder).
            let start = p.next.fetch_add(n_tasks, Ordering::Relaxed);
            // Count first, push second: a task must never be popped
            // (which decrements `pending`) before it was counted. A
            // scanning worker may briefly see the count ahead of the
            // queues and re-scan; that costs a loop, not correctness.
            p.pending.fetch_add(n_tasks, Ordering::SeqCst);
            for (i, task) in tasks.into_iter().enumerate() {
                let task = erase(task);
                let b = Arc::clone(&batch);
                let wrapped: Task = Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(task)).is_err() {
                        b.panicked.store(true, Ordering::SeqCst);
                    }
                    let mut pending = b.pending.lock().expect("batch lock");
                    *pending -= 1;
                    if *pending == 0 {
                        b.done.notify_all();
                    }
                });
                let target = (start + i) % p.deques.len();
                p.deques[target]
                    .lock()
                    .expect("pool deque")
                    .push_back(wrapped);
            }
            // Notify under the sleep lock: a worker that saw pending
            // == 0 is either inside its wait (woken here) or hasn't
            // taken the lock yet (will re-read the count under it).
            let _guard = p.sleep.lock().expect("pool sleep");
            p.work.notify_all();
        }
        // Even if `inline` unwinds, the batch must drain before frames
        // holding `'env` borrows are popped.
        struct WaitGuard<'a>(&'a Batch);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait_all();
            }
        }
        let guard = WaitGuard(&batch);
        let result = inline();
        drop(guard);
        if batch.panicked.load(Ordering::SeqCst) {
            panic!("a parallel task panicked");
        }
        result
    }
}

/// Ordered parallel map: applies `f` to every item, returning results in
/// input order. The workhorse behind the iterator adapters.
fn par_map_vec<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    let effective = current_num_threads();
    let threads = effective.min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Workers inherit the remaining thread budget, so nested parallel
    // operations (a figure fanning rate sweeps inside `repro --jobs N`)
    // stay within the caller's cap instead of re-reading the global
    // default and oversubscribing the machine.
    let nested_budget = (effective / threads).max(1);
    // Work queue of (index, item); each worker pushes (index, result).
    let queue: Mutex<Vec<(usize, I)>> = Mutex::new(items.into_iter().enumerate().rev().collect());
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    // One popping loop per worker slot: `threads - 1` pool tasks plus
    // the calling thread running the same loop inline.
    let worker = || {
        with_num_threads(nested_budget, || loop {
            let next = queue.lock().expect("queue poisoned").pop();
            match next {
                Some((i, item)) => {
                    let out = f(item);
                    done.lock().expect("results poisoned").push((i, out));
                }
                None => break,
            }
        })
    };
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (1..threads)
        .map(|_| Box::new(worker) as Box<dyn FnOnce() + Send + '_>)
        .collect();
    pool::run_batch_with_inline(tasks, worker);
    let mut pairs = done.into_inner().expect("results poisoned");
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, t)| t).collect()
}

/// A materialized parallel iterator (eager source, lazy adapters).
pub struct ParIter<I> {
    items: Vec<I>,
}

/// A `map` adapter over [`ParIter`].
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// The iterator type.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize>;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;
    type Iter = ParIter<u64>;
    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// The iterator type.
    type Iter;
    /// Parallel iterator over `&self`'s elements.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<&'a T>;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<I: Send> ParIter<I> {
    /// Maps each item through `f` (lazily; executed at `collect` /
    /// `for_each`).
    pub fn map<T: Send, F: Fn(I) -> T + Sync>(self, f: F) -> ParMap<I, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(I) + Sync>(self, f: F) {
        par_map_vec(self.items, f);
    }

    /// Collects the items (identity map) in input order.
    pub fn collect<C: FromIterator<I>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<I: Send, T: Send, F: Fn(I) -> T + Sync> ParMap<I, F> {
    /// Executes the map in parallel, collecting results in input order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        par_map_vec(self.items, self.f).into_iter().collect()
    }

    /// Runs the map for its side effects.
    pub fn for_each<G: Fn(T) + Sync>(self, g: G) {
        let f = self.f;
        par_map_vec(self.items, move |x| g(f(x)));
    }
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let rb: Mutex<Option<RB>> = Mutex::new(None);
    let ra = pool::run_batch_with_inline(
        vec![Box::new(|| {
            let out = b();
            *rb.lock().expect("join result") = Some(out);
        }) as Box<dyn FnOnce() + Send + '_>],
        a,
    );
    let rb = rb
        .into_inner()
        .expect("join result")
        .expect("join: closure panicked");
    (ra, rb)
}

/// The prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Proof-of-work counter used only by this shim's tests.
#[doc(hidden)]
pub static SHIM_TASKS_RUN: AtomicUsize = AtomicUsize::new(0);

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn ordered_map_matches_sequential() {
        let seq: Vec<u64> = (0..1000u64).map(|i| i * i + 1).collect();
        let par: Vec<u64> = (0..1000usize)
            .into_par_iter()
            .map(|i| (i as u64) * (i as u64) + 1)
            .collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn par_iter_over_slice() {
        let data: Vec<f64> = (0..257).map(|i| i as f64).collect();
        let doubled: Vec<f64> = data.par_iter().map(|&x| 2.0 * x).collect();
        assert_eq!(doubled.len(), data.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2.0 * i as f64);
        }
    }

    #[test]
    fn for_each_visits_everything() {
        SHIM_TASKS_RUN.store(0, Ordering::SeqCst);
        (0..123usize).into_par_iter().for_each(|_| {
            SHIM_TASKS_RUN.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(SHIM_TASKS_RUN.load(Ordering::SeqCst), 123);
    }

    #[test]
    fn nested_operations_inherit_the_thread_cap() {
        with_num_threads(2, || {
            let observed: Vec<usize> = (0..8usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            // Each of the 2 workers has a budget of 1 for nested work.
            assert!(observed.iter().all(|&n| n == 1), "observed {observed:?}");
        });
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_borrows_locals() {
        // The pool task borrows stack data; run_batch_with_inline must
        // block until it finishes.
        let data: Vec<u64> = (0..10_000).collect();
        let (sum, max) = join(
            || data.iter().sum::<u64>(),
            || data.iter().copied().max().unwrap_or(0),
        );
        assert_eq!(sum, 9999 * 10_000 / 2);
        assert_eq!(max, 9999);
    }

    #[test]
    fn empty_and_single_inputs() {
        let v: Vec<i32> = Vec::<i32>::new().into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let one: Vec<i32> = vec![7].into_par_iter().map(|x| x * 3).collect();
        assert_eq!(one, vec![21]);
    }

    #[test]
    fn nested_parallel_maps_complete() {
        // A parallel map whose items run parallel maps themselves: the
        // help-while-waiting protocol must drain the nested batches even
        // with a single-worker pool.
        let out: Vec<u64> = with_num_threads(4, || {
            (0..8u64)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<u64> = (0..50u64).into_par_iter().map(|j| i * 100 + j).collect();
                    inner.iter().sum()
                })
                .collect()
        });
        let want: Vec<u64> = (0..8u64)
            .map(|i| (0..50u64).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn many_concurrent_batches_from_many_threads() {
        // Independent OS threads submitting batches share the one pool.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let v: Vec<usize> = with_num_threads(3, || {
                        (0..200usize).into_par_iter().map(|i| i + t).collect()
                    });
                    v.iter().sum::<usize>()
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let got = h.join().expect("thread");
            assert_eq!(got, (0..200).sum::<usize>() + 200 * t);
        }
    }

    #[test]
    fn pool_always_has_a_stealing_topology() {
        // ≥ 2 deques even on a 1-core box, so the steal paths are real.
        assert!(pool::pool_workers() >= 2);
    }

    #[test]
    fn imbalanced_batches_complete() {
        // One long task and many short ones land round-robin on the
        // deques; idle workers (and the helping submitter) level the
        // imbalance away. Pin completion and order.
        let sums: Vec<u64> = with_num_threads(4, || {
            (0..64u64)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                    (0..1000u64).map(|j| i * 1000 + j).sum()
                })
                .collect()
        });
        let want: Vec<u64> = (0..64u64)
            .map(|i| (0..1000u64).map(|j| i * 1000 + j).sum())
            .collect();
        assert_eq!(sums, want);
    }

    #[test]
    fn helpers_steal_when_every_worker_is_busy() {
        use std::time::Duration;
        // Occupy every pool worker (plus the blocking submitter) with
        // long sleeps, then submit a quick batch from this thread: the
        // only way it can finish before the blockade lifts is by this
        // thread *stealing* its own tasks back off the worker deques —
        // so the steal counter must strictly increase.
        let workers = pool::pool_workers();
        let before = pool::steal_count();
        let blocker = std::thread::spawn(move || {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..workers)
                .map(|_| {
                    Box::new(|| std::thread::sleep(Duration::from_millis(200)))
                        as Box<dyn FnOnce() + Send>
                })
                .collect();
            pool::run_batch_with_inline(tasks, || std::thread::sleep(Duration::from_millis(200)));
        });
        // Let the sleepers claim their deques.
        std::thread::sleep(Duration::from_millis(50));
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool::run_batch_with_inline(tasks, || ());
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        assert!(
            pool::steal_count() > before,
            "the submitter must have stolen while all workers slept"
        );
        blocker.join().expect("blocker thread");
    }

    #[test]
    fn task_panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            with_num_threads(4, || {
                (0..16usize).into_par_iter().for_each(|i| {
                    if i == 7 {
                        panic!("boom");
                    }
                });
            })
        });
        assert!(result.is_err(), "panic must reach the submitter");
        // The pool must still be usable afterwards.
        let v: Vec<usize> =
            with_num_threads(2, || (0..64usize).into_par_iter().map(|i| i * 2).collect());
        assert_eq!(v.len(), 64);
    }
}
