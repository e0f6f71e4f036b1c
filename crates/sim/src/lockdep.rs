//! Runtime witness of the one-lock rule for [`Shared`](crate::Shared)
//! handles (see [`crate::shared`]): no thread ever holds two guards.
//!
//! Every acquisition first checks that the calling thread holds no guard
//! and panics with both sites if it does. The check runs *before* the
//! `Mutex::lock` call, so a same-handle re-entry fails with a diagnostic
//! instead of deadlocking silently. Compiled into every `debug_assertions`
//! build — so every debug `cargo test` runs under it — and into no release
//! build.

use std::collections::HashMap;
use std::panic::Location;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, ThreadId};

/// Where each thread that holds a guard acquired it.
fn holders() -> &'static Mutex<HashMap<ThreadId, &'static Location<'static>>> {
    static HOLDERS: OnceLock<Mutex<HashMap<ThreadId, &'static Location<'static>>>> =
        OnceLock::new();
    HOLDERS.get_or_init(Mutex::default)
}

/// Records that the current thread is about to acquire a guard at `site`.
///
/// # Panics
///
/// Panics if the thread already holds a guard.
// analyze: lock-primitive
pub(crate) fn on_acquire(site: &'static Location<'static>) {
    let mut holders = holders().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(held) = holders.insert(thread::current().id(), site) {
        panic!(
            "acquiring a Shared guard at {site} while this thread holds the one taken at \
             {held}; no thread holds two Shared guards"
        );
    }
}

/// Records that the current thread released its guard.
// analyze: lock-primitive
pub(crate) fn on_release() {
    let mut holders = holders().lock().unwrap_or_else(PoisonError::into_inner);
    holders.remove(&thread::current().id());
}

#[cfg(test)]
mod tests {
    use crate::Shared;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_text(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("a second guard must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_second_guard_panics_and_sequential_guards_do_not() {
        let a = Shared::new(1u32);
        let b = Shared::new(2u32);

        // Acquire, release, acquire: one guard at a time is the rule.
        for _ in 0..2 {
            let x = *a.borrow();
            *b.borrow_mut() += x;
        }

        // Nesting in one consistent order is still a second guard.
        let msg = panic_text(|| {
            let _ga = a.borrow();
            let _gb = b.borrow();
        });
        assert!(msg.contains("holds two Shared guards"), "got: {msg}");

        // Re-entry panics instead of deadlocking on the inner lock.
        let msg = panic_text(|| {
            let _g1 = a.borrow_mut();
            let _g2 = a.borrow_mut();
        });
        assert!(msg.contains("holds two Shared guards"), "got: {msg}");

        // Unwinding dropped the first guard, so the thread holds none.
        assert_eq!(*a.borrow(), 1);
        assert_eq!(*b.borrow(), 4);
    }
}
