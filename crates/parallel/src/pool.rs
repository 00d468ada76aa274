//! Thread-count configuration for the workspace.
//!
//! The simulator and the host-side algorithms both use
//! [`current_num_threads`] worker threads. The default is the machine's
//! available parallelism; tests and benchmarks that need determinism in
//! timing-sensitive assertions can pin it with [`set_num_threads`] (results
//! are deterministic regardless — only wall-clock time changes), and code
//! that must not race the process-global setting (a thread-sweep benchmark,
//! a test harness running cases concurrently) can scope an override to the
//! calling thread with [`with_thread_count`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static LOCAL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads used by the `par_*` helpers. Defaults to
/// `std::thread::available_parallelism()`, clamped to at least 1. A
/// [`with_thread_count`] scope on the calling thread takes precedence over
/// the process-global [`set_num_threads`] value.
pub fn current_num_threads() -> usize {
    let local = LOCAL_THREADS.with(|c| c.get());
    if local > 0 {
        return local;
    }
    let configured = NUM_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Override the number of worker threads for the whole process. Passing 0
/// restores the default (machine parallelism).
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
    if let Some(t) = rtnn_telemetry::Telemetry::current() {
        t.gauge_set("parallel.threads", current_num_threads() as f64);
    }
}

/// Run `f` with the worker-thread count pinned to `n` on the *calling
/// thread only* (`n = 0` re-exposes the global/default). Nestable and
/// panic-safe; unlike [`set_num_threads`] it cannot race other threads, so
/// concurrent callers (a thread-sweep bench, parallel test cases) can each
/// pin their own width. Note the override applies to `par_*` calls made by
/// this thread — worker threads spawned inside those calls see the global
/// setting if they start nested parallel sections of their own.
pub fn with_thread_count<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| c.replace(n));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that set or read the process-global thread
    /// count: the test harness runs them concurrently, and one test's
    /// `set_num_threads` would otherwise land between another's set and
    /// read.
    fn global_thread_count() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn default_is_at_least_one() {
        let _global = global_thread_count();
        set_num_threads(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn override_round_trips() {
        let _global = global_thread_count();
        set_num_threads(3);
        assert_eq!(current_num_threads(), 3);
        set_num_threads(0);
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn scoped_override_beats_the_global_and_restores() {
        let _global = global_thread_count();
        let outside = current_num_threads();
        let inner = with_thread_count(2, || {
            let mid = current_num_threads();
            // Nested scopes stack; 0 re-exposes the outer default.
            assert_eq!(with_thread_count(5, current_num_threads), 5);
            assert_eq!(with_thread_count(0, current_num_threads), outside);
            mid
        });
        assert_eq!(inner, 2);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn scoped_override_is_restored_on_panic() {
        let _global = global_thread_count();
        let before = current_num_threads();
        let caught = std::panic::catch_unwind(|| {
            with_thread_count(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }
}
