//! Offline shim for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access to crates.io, so this crate
//! provides the subset of the rayon API the workspace actually uses, built
//! from std only. Parallel combinators run on one lazily created,
//! process-wide pool of `available_parallelism() - 1` worker threads that
//! spin briefly and then park on a `Condvar` between jobs (see the `pool`
//! module). The calling thread works through the chunks alongside the
//! workers, claiming them from an atomic counter, and returns only after
//! every worker has left the job, so borrowed data stays sound. No OS
//! thread is started per call.
//!
//! Behaviour call sites rely on:
//!
//! - **static chunking, ordered output**: `n` items split into at most
//!   [`current_num_threads`] contiguous chunks, and results land in index
//!   order whichever thread ran a chunk, so reductions are bitwise
//!   reproducible at any thread count;
//! - **[`with_max_threads`]** caps the threads of a fan-out, caller
//!   included (`1` keeps every item on the caller's thread);
//! - **panics propagate**: a panicking chunk does not stop the others; once
//!   all chunks have finished the first payload is re-raised on the caller,
//!   and the pool stays usable;
//! - **nested calls run inline**: one fan-out owns the pool at a time. A
//!   `par_iter` or [`join`] made from inside a pool task, or from a second
//!   thread while the pool is owned, runs sequentially on its own thread
//!   instead of waiting, so nesting cannot deadlock.
//!
//! Supported surface:
//!
//! - `slice.par_iter()` / `vec.par_iter()` (via [`IntoParallelRefIterator`])
//! - `slice.par_iter_mut()` / `vec.par_iter_mut()` (via [`IntoParallelRefMutIterator`])
//! - `range.into_par_iter()` / `vec.into_par_iter()` (via [`IntoParallelIterator`])
//! - adapters: `map`, `enumerate`, `zip`, `with_min_len` (caps the chunk
//!   count at `n / min_len`, so a small fan-out can stay on the caller)
//! - consumers: `collect`, `for_each`, `sum`, `reduce`
//! - [`join`] (`b` goes to an idle worker, else runs inline after `a`),
//!   [`current_num_threads`], [`with_max_threads`] (shim-only)

mod pool;

use std::ops::Range;
use std::sync::Mutex;

/// Everything call sites get from `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::{
        IndexedParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

/// Number of worker threads a parallel combinator will use at most,
/// honouring any cap installed by [`with_max_threads`].
pub fn current_num_threads() -> usize {
    let avail = pool::cores();
    match MAX_THREADS.with(|c| c.get()) {
        0 => avail,
        cap => avail.min(cap),
    }
}

thread_local! {
    /// Per-thread worker cap installed by [`with_max_threads`]
    /// (0 = uncapped). Shim-only extension: real rayon scopes thread counts
    /// through `ThreadPool::install`, which this offline shim does not carry.
    static MAX_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run `f` with parallel combinators on this thread capped at `max` worker
/// threads (`0` removes the cap). The cap nests and unwinds safely: the
/// previous value is restored when `f` returns **or panics**. This is the
/// shim's stand-in for running inside a sized `rayon::ThreadPool`.
pub fn with_max_threads<R>(max: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(MAX_THREADS.with(|c| c.replace(max)));
    f()
}

/// Run two closures, potentially in parallel, and return both results.
///
/// `a` runs on the caller; `b` goes to an idle pool worker, and runs on the
/// caller after `a` when none is free (inside a pool task, while another
/// fan-out owns the pool, or under `with_max_threads(1)`). A panic from
/// either side is re-raised on the caller once both have finished, like
/// rayon's `join`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let Some(lease) = pool::Lease::try_take(current_num_threads()) else {
        return (a(), b());
    };
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    let body = |side: usize| {
        // each side is claimed once and no lock is held while it runs, so
        // none can be poisoned or already emptied
        let once = "join: each side runs once";
        if side == 0 {
            let f = a.lock().expect(once).take().expect(once);
            let r = f();
            *ra.lock().expect(once) = Some(r);
        } else {
            let f = b.lock().expect(once).take().expect(once);
            let r = f();
            *rb.lock().expect(once) = Some(r);
        }
    };
    lease.run(&pool::Job::new(2, &body), 1);
    let done = "join: both sides finished without panicking";
    (
        ra.into_inner().expect(done).expect(done),
        rb.into_inner().expect(done).expect(done),
    )
}

/// The core parallel-iterator abstraction of the shim.
///
/// Unlike rayon's producer/consumer architecture, this is a simple *indexed
/// access* model: an iterator knows its length and can produce the item at
/// any index concurrently (`&self`). All adapters compose on top of that.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    /// Exact number of items.
    fn pi_len(&self) -> usize;

    /// Produce the item at index `i`. Must be safe to call concurrently.
    fn pi_get(&self, i: usize) -> Self::Item;

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
    {
        Zip {
            a: self,
            b: other.into_par_iter(),
        }
    }

    /// Smallest number of items a chunk may hold: the default of 1 lets a
    /// fan-out use every thread; [`with_min_len`](Self::with_min_len)
    /// raises it.
    fn pi_min_len(&self) -> usize {
        1
    }

    /// Give every chunk at least `min` items, capping the chunk count at
    /// `n / min`; with `min >= n` the whole fan-out stays on the caller.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self.pi_len(), self.pi_min_len(), &|i| f(self.pi_get(i)));
    }

    fn collect<C>(self) -> C
    where
        C: From<Vec<Self::Item>>,
    {
        C::from(drive(self.pi_len(), self.pi_min_len(), &|i| self.pi_get(i)))
    }

    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self.pi_len(), self.pi_min_len(), &|i| self.pi_get(i))
            .into_iter()
            .fold(identity(), &op)
    }

    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        drive(self.pi_len(), self.pi_min_len(), &|i| self.pi_get(i))
            .into_iter()
            .sum()
    }
}

/// Marker trait: every shim iterator is indexed.
pub trait IndexedParallelIterator: ParallelIterator {}
impl<T: ParallelIterator> IndexedParallelIterator for T {}

/// Evaluate `get(0..n)` with static chunking over the pool (chunks of at
/// least `min_len` items), preserving index order in the output.
fn drive<T, G>(n: usize, min_len: usize, get: &G) -> Vec<T>
where
    T: Send,
    G: Fn(usize) -> T + Sync,
{
    let threads = current_num_threads().min(n / min_len.max(1));
    let Some(lease) = pool::Lease::try_take(threads) else {
        return (0..n).map(get).collect();
    };
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    {
        let chunks: Vec<Mutex<&mut [Option<T>]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
        let body = |c: usize| {
            let mut slots = chunks[c].lock().expect("drive: each chunk is claimed once");
            for (k, slot) in slots.iter_mut().enumerate() {
                *slot = Some(get(c * chunk + k));
            }
        };
        lease.run(&pool::Job::new(chunks.len(), &body), chunks.len() - 1);
    }
    out.into_iter()
        .map(|slot| slot.expect("drive: every chunk ran to completion"))
        .collect()
}

// ---------------------------------------------------------------------------
// sources
// ---------------------------------------------------------------------------

/// Parallel iterator over `&[T]`.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn pi_len(&self) -> usize {
        self.slice.len()
    }
    fn pi_get(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel iterator over a `Range<usize>`.
pub struct RangeIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, i: usize) -> usize {
        self.start + i
    }
}

/// Parallel iterator that takes ownership of a `Vec<T>` (items are handed
/// out by index; `T: Clone` is avoided by using an internal `Option` store).
pub struct VecIter<T> {
    items: Vec<std::sync::Mutex<Option<T>>>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    fn pi_len(&self) -> usize {
        self.items.len()
    }
    fn pi_get(&self, i: usize) -> T {
        self.items[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("VecIter item taken twice")
    }
}

// ---------------------------------------------------------------------------
// adapters
// ---------------------------------------------------------------------------

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, F, R> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, i: usize) -> R {
        (self.f)(self.base.pi_get(i))
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
}

pub struct Enumerate<B> {
    base: B,
}

impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, i: usize) -> (usize, B::Item) {
        (i, self.base.pi_get(i))
    }
    fn pi_min_len(&self) -> usize {
        self.base.pi_min_len()
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }
    fn pi_get(&self, i: usize) -> (A::Item, B::Item) {
        (self.a.pi_get(i), self.b.pi_get(i))
    }
    fn pi_min_len(&self) -> usize {
        self.a.pi_min_len().max(self.b.pi_min_len())
    }
}

pub struct MinLen<B> {
    base: B,
    min: usize,
}

impl<B: ParallelIterator> ParallelIterator for MinLen<B> {
    type Item = B::Item;
    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }
    fn pi_get(&self, i: usize) -> B::Item {
        self.base.pi_get(i)
    }
    fn pi_min_len(&self) -> usize {
        self.min.max(self.base.pi_min_len())
    }
}

// ---------------------------------------------------------------------------
// conversion traits
// ---------------------------------------------------------------------------

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter {
            items: self
                .into_iter()
                .map(|t| std::sync::Mutex::new(Some(t)))
                .collect(),
        }
    }
}

pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

/// `par_iter_mut` support: mutable chunks are dispatched index-wise.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

/// Parallel iterator over `&mut [T]`, implemented with raw-pointer indexing
/// guarded by the exclusive borrow held for `'a`.
pub struct SliceIterMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// Safety: each index is handed out at most once per drive() pass, and the
// exclusive borrow of the slice outlives the iterator.
unsafe impl<T: Send> Sync for SliceIterMut<'_, T> {}
unsafe impl<T: Send> Send for SliceIterMut<'_, T> {}

impl<'a, T: Send + 'a> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    fn pi_len(&self) -> usize {
        self.len
    }
    fn pi_get(&self, i: usize) -> &'a mut T {
        assert!(i < self.len);
        // Safety: distinct indices alias distinct elements; drive() touches
        // each index exactly once.
        unsafe { &mut *self.ptr.add(i) }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> SliceIterMut<'data, T> {
        SliceIterMut {
            ptr: self.as_mut_ptr(),
            len: self.len(),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn par_iter_mut(&'data mut self) -> SliceIterMut<'data, T> {
        self.as_mut_slice().par_iter_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, MutexGuard};
    use std::thread::ThreadId;

    /// Serialises this module's tests: they share the one process-wide
    /// pool, and the tests that force work onto a worker would run inline
    /// (and wait forever at their barrier) while another test owns it.
    fn exclusive() -> MutexGuard<'static, ()> {
        static POOL_TESTS: Mutex<()> = Mutex::new(());
        POOL_TESTS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True when the pool has a worker to lend (more than one core).
    fn has_worker() -> bool {
        current_num_threads() > 1
    }

    /// Two items, one per chunk, that meet at a barrier before `f` runs, so
    /// one item is on the caller and the other on a pool worker.
    fn on_caller_and_worker(f: impl Fn(usize) + Sync) {
        let meet = Barrier::new(2);
        (0..2).into_par_iter().for_each(|i| {
            meet.wait();
            f(i);
        });
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<&str>() {
            Ok(s) => s.to_string(),
            Err(payload) => *payload.downcast::<String>().expect("string payload"),
        }
    }

    fn assert_pool_still_works() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(v, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_collect_preserves_order() {
        let _pool = exclusive();
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_enumerate_compose() {
        let _pool = exclusive();
        let a = vec![1, 2, 3, 4];
        let b = vec![10, 20, 30, 40];
        let v: Vec<(usize, i32)> = a
            .par_iter()
            .zip(&b)
            .enumerate()
            .map(|(i, (x, y))| (i, x + y))
            .collect();
        assert_eq!(v, vec![(0, 11), (1, 22), (2, 33), (3, 44)]);
    }

    #[test]
    fn join_runs_both() {
        let _pool = exclusive();
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn for_each_counts() {
        let _pool = exclusive();
        let n = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        items.par_iter().for_each(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn par_iter_mut_writes_all() {
        let _pool = exclusive();
        let mut v = vec![0usize; 100];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn owned_vec_into_par_iter_moves_items() {
        let _pool = exclusive();
        let v = vec!["a".to_string(), "b".to_string()];
        let out: Vec<String> = v.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(out, vec!["a!", "b!"]);
    }

    #[test]
    fn with_max_threads_caps_and_restores() {
        let _pool = exclusive();
        let unlimited = current_num_threads();
        let (inner, nested) = with_max_threads(1, || {
            (
                current_num_threads(),
                with_max_threads(0, current_num_threads),
            )
        });
        assert_eq!(inner, 1, "cap must apply inside the scope");
        assert_eq!(nested, unlimited, "0 must lift the cap while nested");
        assert_eq!(current_num_threads(), unlimited, "cap must be restored");
        // parallel combinators still produce correct, ordered output capped
        let v: Vec<usize> =
            with_max_threads(1, || (0..100).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v, (1..=100).collect::<Vec<_>>());
        // the cap must unwind with a panicking closure
        let caught = std::panic::catch_unwind(|| with_max_threads(1, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(
            current_num_threads(),
            unlimited,
            "cap must be restored across unwinding"
        );
    }

    #[test]
    fn panic_in_a_worker_chunk_propagates_its_payload() {
        let _pool = exclusive();
        if !has_worker() {
            return;
        }
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            on_caller_and_worker(|_| {
                if std::thread::current().id() != caller {
                    panic!("worker boom");
                }
            })
        });
        assert_eq!(panic_message(caught.unwrap_err()), "worker boom");
        assert_pool_still_works();
    }

    #[test]
    fn panic_in_the_callers_chunk_propagates_its_payload() {
        let _pool = exclusive();
        if !has_worker() {
            return;
        }
        let caller = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            on_caller_and_worker(|_| {
                if std::thread::current().id() == caller {
                    panic!("caller boom");
                }
            })
        });
        assert_eq!(panic_message(caught.unwrap_err()), "caller boom");
        assert_pool_still_works();
    }

    #[test]
    fn panic_from_join_b_propagates_and_a_still_runs() {
        let _pool = exclusive();
        let ran_a = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            join(
                || ran_a.fetch_add(1, Ordering::Relaxed),
                || -> usize { panic!("b boom") },
            )
        });
        assert_eq!(panic_message(caught.unwrap_err()), "b boom");
        assert_eq!(ran_a.load(Ordering::Relaxed), 1);
        assert_pool_still_works();
    }

    #[test]
    fn nested_par_iter_and_join_inside_par_iter_complete() {
        let _pool = exclusive();
        let sums: Vec<usize> = (0..16)
            .into_par_iter()
            .map(|i| (0..32).into_par_iter().map(|j| i * j).sum::<usize>())
            .collect();
        let want: Vec<usize> = (0..16).map(|i| (0..32).map(|j| i * j).sum()).collect();
        assert_eq!(sums, want);

        let pairs: Vec<(usize, usize)> = (0..16)
            .into_par_iter()
            .map(|i| join(|| i + 1, || i * 2))
            .collect();
        assert_eq!(pairs, (0..16).map(|i| (i + 1, i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_result() {
        let _pool = exclusive();
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..2000)
                            .into_par_iter()
                            .map(|i| i * t)
                            .collect::<Vec<usize>>()
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                let got = h.join().expect("caller thread panicked");
                assert_eq!(got, (0..2000).map(|i| i * t).collect::<Vec<_>>());
            }
        });
    }

    /// Wait up to 50 ms for `flag`: long enough for a parked worker to
    /// wake and claim any chunk the fan-out offers it.
    fn wait_for(flag: &std::sync::atomic::AtomicBool) {
        let start = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) && start.elapsed().as_millis() < 50 {
            std::hint::spin_loop();
        }
    }

    /// The thread each of `n` items ran on, with chunks of at least
    /// `min_len` items. Item 0 holds the caller until another thread has
    /// taken an item (or 50 ms pass), so a fan-out that offers a worker a
    /// chunk shows it in the result.
    fn item_threads(n: usize, min_len: usize) -> Vec<ThreadId> {
        let caller = std::thread::current().id();
        let elsewhere = std::sync::atomic::AtomicBool::new(false);
        (0..n)
            .into_par_iter()
            .with_min_len(min_len)
            .map(|i| {
                let me = std::thread::current().id();
                if me != caller {
                    elsewhere.store(true, Ordering::SeqCst);
                }
                if i == 0 {
                    wait_for(&elsewhere);
                }
                me
            })
            .collect()
    }

    #[test]
    fn capped_at_one_thread_every_item_runs_on_the_caller() {
        let _pool = exclusive();
        let caller = std::thread::current().id();
        if has_worker() {
            assert!(
                item_threads(256, 1).iter().any(|&id| id != caller),
                "uncapped, a worker takes part"
            );
        }
        let ids = with_max_threads(1, || item_threads(256, 1));
        assert!(ids.iter().all(|&id| id == caller));
        let b_started = std::sync::atomic::AtomicBool::new(false);
        let (a, b) = with_max_threads(1, || {
            join(
                || {
                    wait_for(&b_started);
                    std::thread::current().id()
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    std::thread::current().id()
                },
            )
        });
        assert_eq!((a, b), (caller, caller));
    }

    #[test]
    fn with_min_len_caps_the_chunk_count() {
        let _pool = exclusive();
        let caller = std::thread::current().id();
        assert!(
            item_threads(64, 64).iter().all(|&id| id == caller),
            "min_len >= n must keep the fan-out on the caller"
        );
        // at most one chunk per 32 items, so each half runs on one thread
        let ids = item_threads(64, 32);
        assert!(ids[..32].iter().all(|&id| id == ids[0]));
        assert!(ids[32..].iter().all(|&id| id == ids[32]));
        let v: Vec<usize> = (0..100).into_par_iter().with_min_len(7).collect();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_drops_every_produced_item_exactly_once() {
        let _pool = exclusive();
        #[derive(Debug)]
        struct Counted<'a>(&'a AtomicUsize);
        impl Drop for Counted<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let made = AtomicUsize::new(0);
        let dropped = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            (0..64)
                .into_par_iter()
                .map(|i| {
                    if i == 5 {
                        panic!("item 5");
                    }
                    made.fetch_add(1, Ordering::Relaxed);
                    Counted(&dropped)
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(panic_message(caught.unwrap_err()), "item 5");
        let made = made.load(Ordering::Relaxed);
        assert!(made >= 5, "the items before the panic were produced");
        assert_eq!(dropped.load(Ordering::Relaxed), made);
        assert_pool_still_works();
    }
}
