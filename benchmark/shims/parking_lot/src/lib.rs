//! `std`-backed stand-in for the slice of `parking_lot` 0.12 the AtomFS
//! crates use: `Mutex` (with `lock_arc`/`try_lock_arc`, feature
//! `arc_lock`), `RwLock`, and `Condvar` (with `wait_until`/`wait_for`).
//!
//! The benchmark builds with no registry, so the real crate cannot be
//! fetched. This is the benchmark's code, not `parking_lot`: numbers
//! taken with it are stamped `cargo-offline+shims` and must not be
//! compared with a build against the published crate.
//!
//! [`RawMutex`] is the three-state futex mutex (unlocked / locked /
//! locked-with-waiters) with the futex replaced by a `std` mutex +
//! condvar pair, so `is_locked` is a plain load — the optimistic walk
//! probes ancestors with it on every mutation and must not write the
//! lock word to do so. Like `parking_lot`, nothing here poisons.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// Version stamped into benchmark results.
pub const SHIM_VERSION: &str = env!("CARGO_PKG_VERSION");

const UNLOCKED: u32 = 0;
const LOCKED: u32 = 1;
const CONTENDED: u32 = 2;

/// Spins on a held lock before sleeping; critical sections in AtomFS
/// are a few hundred nanoseconds.
const SPINS: u32 = 64;

/// The lock word behind [`Mutex`].
pub struct RawMutex {
    state: AtomicU32,
    sleep_lock: std::sync::Mutex<()>,
    sleep_cv: std::sync::Condvar,
}

impl RawMutex {
    const fn new() -> Self {
        RawMutex {
            state: AtomicU32::new(UNLOCKED),
            sleep_lock: std::sync::Mutex::new(()),
            sleep_cv: std::sync::Condvar::new(),
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        self.state
            .compare_exchange(UNLOCKED, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn lock(&self) {
        if !self.try_lock() {
            self.lock_slow();
        }
    }

    #[cold]
    fn lock_slow(&self) {
        for _ in 0..SPINS {
            if self.state.load(Ordering::Relaxed) == UNLOCKED && self.try_lock() {
                return;
            }
            std::hint::spin_loop();
        }
        // A sleeper holds `sleep_lock` from its swap until it is parked
        // in `wait`, and `unlock` takes `sleep_lock` before notifying, so
        // an unlock that saw CONTENDED cannot notify before we sleep.
        let mut parked = self
            .sleep_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while self.state.swap(CONTENDED, Ordering::Acquire) != UNLOCKED {
            parked = self
                .sleep_cv
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    #[inline]
    fn unlock(&self) {
        if self.state.swap(UNLOCKED, Ordering::Release) == CONTENDED {
            self.unlock_slow();
        }
    }

    #[cold]
    fn unlock_slow(&self) {
        let _parked = self
            .sleep_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.sleep_cv.notify_one();
    }

    #[inline]
    fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed) != UNLOCKED
    }
}

/// A mutual-exclusion lock that does not poison.
pub struct Mutex<T: ?Sized> {
    raw: RawMutex,
    data: UnsafeCell<T>,
}

// SAFETY: the mutex hands out `&mut T` to one thread at a time, so moving
// it or sharing it across threads moves or shares access to a `T` that is
// only ever touched under the lock; both need exactly `T: Send`.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` gives no access to `T` without the lock.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            raw: RawMutex::new(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.raw.lock();
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Take the lock if it is free.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.raw.try_lock().then_some(MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        })
    }

    /// Whether any thread holds the lock right now (a load, no write).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// Access the data through exclusive ownership of the mutex.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Lock through an `Arc`, returning a guard that owns a clone of it
    /// and so may outlive the borrow it was taken through.
    #[inline]
    pub fn lock_arc(self: &Arc<Self>) -> ArcMutexGuard<RawMutex, T> {
        self.raw.lock();
        ArcMutexGuard {
            mutex: Arc::clone(self),
            _raw: PhantomData,
        }
    }

    /// [`Mutex::lock_arc`] without blocking.
    #[inline]
    pub fn try_lock_arc(self: &Arc<Self>) -> Option<ArcMutexGuard<RawMutex, T>> {
        self.raw.try_lock().then(|| ArcMutexGuard {
            mutex: Arc::clone(self),
            _raw: PhantomData,
        })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// Scoped lock of a [`Mutex`]. Not `Send`: it must be dropped on the
/// thread that locked.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    _not_send: PhantomData<*const ()>,
}

// SAFETY: sharing `&MutexGuard` shares `&T`.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while `raw` is held by it.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard exists only while `raw` is held by it, and
        // `&mut self` makes this the only reference derived from it.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.mutex.raw.unlock();
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Owning lock of an `Arc<Mutex<T>>` (see [`Mutex::lock_arc`]). The `R`
/// parameter mirrors `lock_api`'s signature; it is always [`RawMutex`].
pub struct ArcMutexGuard<R, T: ?Sized> {
    mutex: Arc<Mutex<T>>,
    _raw: PhantomData<(R, *const ())>,
}

// SAFETY: sharing `&ArcMutexGuard` shares `&T`.
unsafe impl<R, T: ?Sized + Sync> Sync for ArcMutexGuard<R, T> {}

impl<R, T: ?Sized> Deref for ArcMutexGuard<R, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only while `raw` is held by it, and
        // its `Arc` keeps the mutex alive.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<R, T: ?Sized> DerefMut for ArcMutexGuard<R, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as `deref`, and `&mut self` makes this reference unique.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<R, T: ?Sized> Drop for ArcMutexGuard<R, T> {
    #[inline]
    fn drop(&mut self) {
        // Runs before the `mutex` field (the Arc) is dropped.
        self.mutex.raw.unlock();
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with any [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    gate: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            gate: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Release `guard`'s mutex, sleep until notified, re-take the mutex.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_deadline(guard, None);
    }

    /// [`Condvar::wait`] that gives up at `deadline`.
    pub fn wait_until<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_deadline(guard, Some(deadline))
    }

    /// [`Condvar::wait`] that gives up after `timeout`.
    pub fn wait_for<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.wait_deadline(guard, Some(Instant::now() + timeout))
    }

    fn wait_deadline<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Option<Instant>,
    ) -> WaitTimeoutResult {
        // `gate` is held from before the user mutex is released until
        // this thread is parked, and notifiers take `gate` first: a
        // notify issued after the release cannot be missed.
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        guard.mutex.raw.unlock();
        let timed_out = match deadline {
            None => {
                drop(self.cv.wait(gate).unwrap_or_else(PoisonError::into_inner));
                false
            }
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let (gate, result) = self
                    .cv
                    .wait_timeout(gate, left)
                    .unwrap_or_else(PoisonError::into_inner);
                drop(gate);
                result.timed_out()
            }
        };
        guard.mutex.raw.lock();
        WaitTimeoutResult(timed_out)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        let _gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A reader-writer lock that does not poison (`std::sync::RwLock`
/// with poisoning ignored).
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the data.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Access the data through exclusive ownership of the lock.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn lock_arc_is_mutually_exclusive() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 20_000;
        // A non-atomic read-modify-write: lost updates show if two
        // threads are ever inside at once.
        let counter = Arc::new(Mutex::new(0usize));
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let mut g = Mutex::lock_arc(&counter);
                        let v = *g;
                        std::hint::black_box(&v);
                        *g = v + 1;
                    }
                });
            }
        });
        assert_eq!(*counter.lock(), THREADS * ROUNDS);
    }

    #[test]
    fn arc_guard_outlives_its_borrow() {
        let guard = {
            let m = Arc::new(Mutex::new(String::from("kept alive")));
            let g = Mutex::lock_arc(&m);
            assert!(m.is_locked());
            assert!(Mutex::try_lock_arc(&m).is_none());
            g
            // `m` dropped here; the guard's own Arc keeps the mutex.
        };
        assert_eq!(&*guard, "kept alive");
    }

    #[test]
    fn is_locked_tracks_the_guard() {
        let m = Mutex::new(1);
        assert!(!m.is_locked());
        let g = m.lock();
        assert!(m.is_locked());
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(!m.is_locked());
    }

    #[test]
    fn wait_until_times_out_and_reacquires() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let t0 = Instant::now();
        let r = cv.wait_until(&mut g, t0 + Duration::from_millis(20));
        assert!(r.timed_out());
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(m.is_locked(), "the mutex is held again after the wait");
    }

    #[test]
    fn notify_wakes_a_waiter() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let (m, cv) = &*state;
                let mut ready = m.lock();
                while !*ready {
                    let r = cv.wait_until(&mut ready, Instant::now() + Duration::from_secs(30));
                    assert!(!r.timed_out(), "notify was lost");
                }
            })
        };
        let (m, cv) = &*state;
        *m.lock() = true;
        cv.notify_all();
        waiter.join().expect("waiter panicked");
    }

    #[test]
    fn contended_lock_hands_over() {
        // Forces the sleep path: the holder keeps the lock past the spin
        // budget while the other thread is already waiting.
        let m = Arc::new(Mutex::new(0u32));
        let held = m.lock();
        let waiter = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                *m.lock() += 1;
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        waiter.join().expect("waiter panicked");
        assert_eq!(*m.lock(), 1);
    }
}
