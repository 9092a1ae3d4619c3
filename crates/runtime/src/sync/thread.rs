//! Thread spawning and scoping shims.
//!
//! Mirrors the `std::thread` subset the runtime uses: free [`spawn`]
//! and the [`scope_with`] helper that replaces direct
//! `std::thread::scope` use (a safe wrapper cannot
//! re-expose std's scope API — `std::thread::Scope` is invariant in its
//! `'scope` parameter — so the shim offers the narrower "run these
//! borrowed closures on threads while I run the body" shape the runtime
//! actually needs). Under an active `schedcheck` execution, spawned
//! closures become *virtual threads* of the cooperative scheduler: they
//! still run on real OS threads, but only ever one at a time, with
//! every handoff chosen by the exploration strategy; joins block in
//! scheduler space, never in the OS.

pub use std::thread::available_parallelism;

#[cfg(feature = "schedcheck")]
use super::sched;
#[cfg(feature = "schedcheck")]
use std::sync::Arc;

/// Result slot a virtual thread writes before it finishes.
#[cfg(feature = "schedcheck")]
type Slot<T> = Arc<std::sync::Mutex<Option<T>>>;

/// Spawns a new thread running `f`, like [`std::thread::spawn`].
///
/// # Panics
///
/// Panics if the OS refuses to spawn the thread.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(feature = "schedcheck")]
    if let Some(ctx) = sched::current() {
        let vid = sched::register_thread(&ctx, "thread");
        let slot: Slot<T> = Arc::new(std::sync::Mutex::new(None));
        let exec = sched::execution_of(&ctx);
        let write = Arc::clone(&slot);
        let real = std::thread::spawn(move || {
            sched::vthread_main(exec, vid, move || {
                let v = f();
                *write
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(v);
            });
        });
        sched::yield_if_active("thread.spawn");
        return JoinHandle(HandleInner::Virtual {
            ctx,
            vid,
            slot,
            real,
        });
    }
    JoinHandle(HandleInner::Std(std::thread::spawn(f)))
}

enum HandleInner<T> {
    Std(std::thread::JoinHandle<T>),
    #[cfg(feature = "schedcheck")]
    Virtual {
        ctx: sched::VCtx,
        vid: usize,
        slot: Slot<T>,
        real: std::thread::JoinHandle<()>,
    },
}

/// Owned handle to join a spawned thread, like
/// [`std::thread::JoinHandle`].
pub struct JoinHandle<T>(HandleInner<T>);

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            HandleInner::Std(h) => h.join(),
            #[cfg(feature = "schedcheck")]
            HandleInner::Virtual {
                ctx,
                vid,
                slot,
                real,
            } => {
                sched::join(&ctx, vid);
                let _ = real.join();
                match slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                {
                    Some(v) => Ok(v),
                    // The joined virtual thread panicked; the execution
                    // is aborting and this thread unwinds with it.
                    None => sched::abort_unwind(),
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle { .. }")
    }
}

/// A borrowing worker closure for [`scope_with`].
pub type ScopedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Runs `body` on the calling thread while every closure in `workers`
/// runs on its own thread; all worker threads are joined before the
/// call returns, so the closures may borrow from the caller's
/// environment.
///
/// If a worker panics, the panic is re-raised here after every worker
/// has been joined (the behavior of [`std::thread::scope`], which backs
/// this in normal builds).
pub fn scope_with<'env, T>(workers: Vec<ScopedTask<'env>>, body: impl FnOnce() -> T) -> T {
    #[cfg(feature = "schedcheck")]
    if let Some(ctx) = sched::current() {
        return std::thread::scope(|s| {
            let mut vids = Vec::with_capacity(workers.len());
            for (i, w) in workers.into_iter().enumerate() {
                let vid = sched::register_thread(&ctx, &format!("scoped-{i}"));
                let exec = sched::execution_of(&ctx);
                s.spawn(move || sched::vthread_main(exec, vid, w));
                sched::yield_if_active("thread.spawn");
                vids.push(vid);
            }
            let out = body();
            // Join in scheduler space first; the implicit std join below
            // then completes immediately instead of blocking the whole
            // execution on an OS join the scheduler cannot see.
            for vid in vids {
                sched::join(&ctx, vid);
            }
            out
        });
    }
    std::thread::scope(|s| {
        for w in workers {
            s.spawn(w);
        }
        body()
    })
}
