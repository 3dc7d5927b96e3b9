//! The shim's one process-wide pool of parked worker threads.
//!
//! A fan-out publishes a [`Job`] (`n_chunks` calls of one body, each chunk
//! index claimed once through an atomic counter) to the workers, and the
//! caller works through the chunks alongside them. The caller returns only
//! after every worker that joined has left the job, which is what makes
//! lending the workers a borrowed, non-`'static` job sound.
//!
//! One fan-out at a time owns the pool through a [`Lease`]. A call made while
//! the pool is owned (nested inside a pool task, or from a second thread)
//! gets no lease and runs inline on its own thread, so no call ever waits for
//! the pool and none can deadlock.
//!
//! Waiting is spin-then-park: a worker that has just left a job, and a
//! caller waiting for workers to leave, spin for up to [`SPIN`] before they
//! block on a `Condvar`. Waking a blocked thread is a kernel round trip
//! that on a 2-vCPU KVM guest takes over 100 µs, longer than a whole PCPG
//! fan-out, so back-to-back fan-outs (two per PCPG iteration) must find the
//! worker awake; an idle pool still costs no CPU after [`SPIN`].
//!
//! Every handshake between a publisher and a worker is a store to one
//! atomic followed by a load of another on each side (the job pointer
//! against `inside`, the epoch against `sleepers`, `inside` against
//! `caller_parked`). Those accesses are all `SeqCst`, so in their single
//! total order at least one side sees the other's store; the comments at
//! each site name the pair.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long a worker waits for the next job, and a caller for its workers
/// to leave, before blocking in the kernel.
const SPIN: Duration = Duration::from_micros(200);

/// One fan-out: `n_chunks` calls of `body`, each index claimed exactly once.
pub(crate) struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    n_chunks: usize,
    next: AtomicUsize,
    /// Payload of the first chunk that panicked.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'a> Job<'a> {
    pub(crate) fn new(n_chunks: usize, body: &'a (dyn Fn(usize) + Sync)) -> Self {
        Job {
            body,
            n_chunks,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        }
    }

    /// Claim and run chunks until none are left. A panicking chunk is
    /// caught so the others still run; its payload is kept for the caller.
    fn work(&self) {
        loop {
            // What a chunk writes reaches the caller through the worker's
            // `SeqCst` decrement of `inside`, which the caller reads before
            // it returns.
            let c = self.next.fetch_add(1, SeqCst);
            if c >= self.n_chunks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(c))) {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// Lock a mutex whose data every update leaves valid (a single `Option`
/// store, or no data at all), so a poisoned guard is still sound to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spin until `done()` or [`SPIN`] has passed; returns `done()`.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if done() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() > SPIN {
            return done();
        }
    }
}

struct Pool {
    /// Set while a [`Lease`] owns the pool.
    owned: AtomicBool,
    /// The published job with its lifetime erased; null between fan-outs.
    /// Dereferenced only by a worker counted in `inside` (see [`park`]).
    job: AtomicPtr<Job<'static>>,
    /// Bumped on every publish, so a worker can tell a new job from the one
    /// it just left (a new `Job` often sits at the same stack address).
    epoch: AtomicUsize,
    /// Workers that may be dereferencing `job`.
    inside: AtomicUsize,
    /// Workers blocked (or about to block) on `wake`.
    sleepers: AtomicUsize,
    /// Set while the lease holder is blocked (or about to block) on `left`.
    caller_parked: AtomicBool,
    /// Guards the `Condvar` waits; holds no data.
    sleep: Mutex<()>,
    /// Signalled when a job is published and a worker sleeps.
    wake: Condvar,
    /// Signalled when the last worker leaves while the caller sleeps.
    left: Condvar,
}

/// `available_parallelism()`, read once: the query re-reads the cgroup
/// files on every call (tens of µs), and the pool is sized from it anyway.
pub(crate) fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide pool, created on first use with one parked worker per
/// core beyond the caller's own.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            owned: AtomicBool::new(false),
            job: AtomicPtr::new(ptr::null_mut()),
            epoch: AtomicUsize::new(0),
            inside: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            caller_parked: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            left: Condvar::new(),
        }));
        for i in 1..cores() {
            // The workers live as long as the process and are never joined;
            // they cannot panic, since `Job::work` catches every chunk. A
            // worker that fails to spawn only means fewer helpers: the
            // caller then runs that share of the chunks itself.
            let _ = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || park(pool));
        }
        pool
    })
}

/// A worker's life: wait for a job newer than the last one seen, work it,
/// repeat.
fn park(pool: &'static Pool) {
    // the pool is created at epoch 0; a worker that starts after the first
    // publish must still see that job as new
    let mut seen = 0;
    loop {
        if !spin_until(|| pool.epoch.load(SeqCst) != seen) {
            let mut guard = lock(&pool.sleep);
            // Pairs with the publisher's epoch bump then `sleepers` load:
            // either this load sees the new epoch, or the publisher sees
            // this sleeper and notifies under the lock held until `wait`.
            pool.sleepers.fetch_add(1, SeqCst);
            while pool.epoch.load(SeqCst) == seen {
                guard = pool
                    .wake
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            pool.sleepers.fetch_sub(1, SeqCst);
        }
        seen = pool.epoch.load(SeqCst);
        // Pairs with the caller's retraction (null store) then `inside`
        // load: either this load sees null, or the caller sees this worker
        // inside and waits for it to leave before the job goes away.
        pool.inside.fetch_add(1, SeqCst);
        let job = pool.job.load(SeqCst);
        if !job.is_null() {
            // SAFETY: the pointer was published by a live `Lease::run` and
            // loaded after this worker entered `inside`, so that call does
            // not return (and its `Job` stays in place) until this worker
            // leaves below.
            unsafe { &*job }.work();
        }
        // Pairs with the caller's `caller_parked` store then `inside` load
        // (see `Lease::run`).
        if pool.inside.fetch_sub(1, SeqCst) == 1 && pool.caller_parked.load(SeqCst) {
            let _guard = lock(&pool.sleep);
            pool.left.notify_one();
        }
    }
}

/// Exclusive use of the pool's workers for one fan-out.
pub(crate) struct Lease(&'static Pool);

impl Lease {
    /// Take the pool for a fan-out over `threads` threads (caller
    /// included) if that needs a worker and no other fan-out owns the pool;
    /// `None` means run inline.
    pub(crate) fn try_take(threads: usize) -> Option<Lease> {
        if threads < 2 {
            return None;
        }
        let pool = pool();
        pool.owned
            .compare_exchange(false, true, SeqCst, SeqCst)
            .ok()
            .map(|_| Lease(pool))
    }

    /// Run every chunk of `job` on the caller and on up to `helpers` woken
    /// workers. Returns once all chunks have finished and every worker has
    /// left the job, then re-raises the first chunk panic, if any.
    pub(crate) fn run(self, job: &Job<'_>, helpers: usize) {
        let pool = self.0;
        pool.job.store(ptr::from_ref(job).cast_mut().cast(), SeqCst);
        pool.epoch.fetch_add(1, SeqCst);
        if pool.sleepers.load(SeqCst) > 0 {
            let _guard = lock(&pool.sleep);
            for _ in 0..helpers {
                pool.wake.notify_one();
            }
        }
        job.work();
        // Retract the job, then wait until no worker can still hold it.
        pool.job.store(ptr::null_mut(), SeqCst);
        if !spin_until(|| pool.inside.load(SeqCst) == 0) {
            let mut guard = lock(&pool.sleep);
            pool.caller_parked.store(true, SeqCst);
            while pool.inside.load(SeqCst) > 0 {
                guard = pool
                    .left
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            pool.caller_parked.store(false, SeqCst);
        }
        drop(self);
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.0.owned.store(false, SeqCst);
    }
}
