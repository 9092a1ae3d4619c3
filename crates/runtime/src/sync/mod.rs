//! Synchronization shim: the runtime's single doorway to `std::sync`
//! and `std::thread`.
//!
//! Every blocking primitive the executor is built from — mutexes,
//! condition variables, atomics, thread spawning and scoping — is used
//! through this module rather than through `std` directly (the
//! `lint-sources` CI gate enforces it). In a normal build the wrappers
//! here are zero-cost delegations to `std`. When the crate is compiled
//! with the `schedcheck` feature *and* the current thread is running
//! inside a [`sched`] model-checking execution, the same wrappers
//! instead route every acquire, release, wait, notify, spawn, and join
//! through a cooperative single-threaded scheduler that owns every
//! interleaving decision — which is what lets `tempstream-schedcheck`
//! explore thread schedules systematically and replay failures
//! deterministically.
//!
//! Two deliberate semantic notes:
//!
//! * **Poisoning.** [`Mutex::lock`] panics when the lock is poisoned
//!   (the runtime treats a panic while holding an internal lock as
//!   fatal, exactly as the previous `.lock().expect(..)` call sites
//!   did) — except while the current thread is already unwinding, where
//!   it recovers the inner value instead so that `Drop` implementations
//!   never double-panic.
//! * **Relaxed atomics.** Operations with `Ordering::Relaxed` are not
//!   scheduling points under the model checker. The runtime only uses
//!   relaxed atomics for monotonic metrics (queue high-water marks)
//!   and ID allocation, never for synchronization, so
//!   excluding them keeps the explored state space small without hiding
//!   real interleavings.

use std::fmt;
use std::ops::{Deref, DerefMut};

pub use std::sync::Arc;

#[cfg(feature = "schedcheck")]
pub mod sched;

pub mod atomic;
pub mod thread;

/// Locks a std mutex with the runtime's poisoning policy: panic with
/// `what` when poisoned, unless the thread is already unwinding (then
/// recover, so drops during a panic cannot abort the process).
fn lock_std<'a, T>(m: &'a std::sync::Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(e) if std::thread::panicking() => e.into_inner(),
        Err(_) => panic!("{what} poisoned"),
    }
}

/// A mutual-exclusion lock with the same surface as [`std::sync::Mutex`]
/// minus poisoning (see the module docs for the poisoning policy).
///
/// Under an active `schedcheck` execution, acquisition order is decided
/// by the model-checking scheduler instead of the OS.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    #[cfg(feature = "schedcheck")]
    tag: Option<sched::ObjectTag>,
}

impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
            #[cfg(feature = "schedcheck")]
            tag: sched::register_mutex(),
        }
    }

    /// Acquires the mutex, blocking until it is available.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked while holding the lock (unless
    /// the current thread is itself already unwinding).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "schedcheck")]
        if let Some(ctx) = sched::active_context(self.tag.as_ref()) {
            let idx = self.tag.as_ref().expect("tagged").index;
            if sched::mutex_lock(&ctx, idx) {
                let std = match self.inner.try_lock() {
                    Ok(g) => g,
                    Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(std::sync::TryLockError::WouldBlock) => {
                        unreachable!("virtual mutex owner found the std mutex held")
                    }
                };
                return MutexGuard {
                    std: Some(std),
                    mutex: self,
                    #[cfg(feature = "schedcheck")]
                    virt: Some((ctx, idx)),
                };
            }
            // Execution aborted while this thread unwinds: degrade to a
            // plain std acquisition below.
        }
        MutexGuard {
            std: Some(lock_std(&self.inner, "mutex")),
            mutex: self,
            #[cfg(feature = "schedcheck")]
            virt: None,
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
pub struct MutexGuard<'a, T> {
    /// `Some` for the guard's whole life; taken by drop/wait handoff.
    std: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    #[cfg(feature = "schedcheck")]
    virt: Option<(sched::VCtx, usize)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard live")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard live")
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first so the virtual release (which may
        // yield to the scheduler) never runs while the data is held.
        drop(self.std.take());
        #[cfg(feature = "schedcheck")]
        if let Some((ctx, idx)) = self.virt.take() {
            sched::mutex_unlock(&ctx, idx);
        }
    }
}

/// A condition variable with the same `wait`/`notify_one`/`notify_all`
/// surface as [`std::sync::Condvar`], paired with [`Mutex`].
///
/// The model-checking backend does not generate spurious wakeups; the
/// runtime's wait loops stay correct either way because they re-check
/// their predicate, as `std` requires.
pub struct Condvar {
    inner: std::sync::Condvar,
    #[cfg(feature = "schedcheck")]
    tag: Option<sched::ObjectTag>,
}

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            #[cfg(feature = "schedcheck")]
            tag: sched::register_condvar(),
        }
    }

    /// Atomically releases `guard` and blocks until notified, then
    /// reacquires the mutex.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is poisoned (same policy as [`Mutex::lock`]).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex;
        #[cfg(feature = "schedcheck")]
        {
            let virt = guard.virt.take();
            if let (Some(tag), Some((ctx, midx))) = (self.tag.as_ref(), virt) {
                if sched::same_execution(&ctx, tag) {
                    // Virtual path: release the real lock, park on the
                    // virtual condvar, then reacquire both layers.
                    drop(guard.std.take());
                    drop(guard);
                    if sched::condvar_wait(&ctx, tag.index, midx) {
                        let std = match mutex.inner.try_lock() {
                            Ok(g) => g,
                            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                            Err(std::sync::TryLockError::WouldBlock) => {
                                unreachable!("virtual mutex owner found the std mutex held")
                            }
                        };
                        return MutexGuard {
                            std: Some(std),
                            mutex,
                            virt: Some((ctx, midx)),
                        };
                    }
                    // Aborted mid-wait while unwinding: hand back a
                    // plain std guard so drops stay well-formed.
                    return MutexGuard {
                        std: Some(lock_std(&mutex.inner, "mutex")),
                        mutex,
                        virt: None,
                    };
                }
                // Guard from a different (or no longer live) execution:
                // restore the marker and fall through to std.
                guard.virt = Some((ctx, midx));
            }
        }
        let std = guard.std.take().expect("guard live");
        drop(guard);
        let std = match self.inner.wait(std) {
            Ok(g) => g,
            Err(e) if std::thread::panicking() => e.into_inner(),
            Err(_) => panic!("condvar mutex poisoned"),
        };
        MutexGuard {
            std: Some(std),
            mutex,
            #[cfg(feature = "schedcheck")]
            virt: None,
        }
    }

    /// Wakes one thread blocked in [`wait`](Self::wait) on this condvar.
    pub fn notify_one(&self) {
        #[cfg(feature = "schedcheck")]
        if let Some(ctx) = sched::active_context(self.tag.as_ref()) {
            sched::condvar_notify(&ctx, self.tag.as_ref().expect("tagged").index, false);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every thread blocked in [`wait`](Self::wait) on this
    /// condvar.
    pub fn notify_all(&self) {
        #[cfg(feature = "schedcheck")]
        if let Some(ctx) = sched::active_context(self.tag.as_ref()) {
            sched::condvar_notify(&ctx, self.tag.as_ref().expect("tagged").index, true);
            return;
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}
