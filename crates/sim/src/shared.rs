//! Thread-safe shared state for simulation components.
//!
//! Actors share substrate state — the fabric model, the cluster directory,
//! the memory store — through [`Shared`] handles. The wrapper is a thin
//! `Arc<Mutex<T>>` with the `borrow`/`borrow_mut` vocabulary of `RefCell`,
//! which the codebase used before the parallel sharded backend existed:
//! the single-threaded engine never contends, so the uncontended-lock fast
//! path costs about as much as `RefCell` bookkeeping did, and the same
//! actor code runs unmodified on the multi-threaded backend.
//!
//! # One lock at a time
//!
//! No thread ever holds two `Shared` guards. Guards are held for single
//! statements or short blocks; code copies what it needs out of one guard
//! and drops it before taking the next, and never holds one across a call
//! that may lock or across a send to another actor. A thread waiting for
//! a lock therefore holds none, so no interleaving can deadlock and lock
//! classes need no order between them.
//!
//! The rule is checked twice: statically by `fractos-analyze`'s lock-order
//! pass, which reports every acquisition made while a guard is held,
//! directly or through a call; and at run time by a witness compiled into
//! every `debug_assertions` build, which panics with both sites when a
//! thread holding a guard takes another — before blocking, so a re-entry
//! fails loudly instead of deadlocking. Release builds carry no witness.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cloneable, thread-safe, mutably borrowable handle to `T`.
pub struct Shared<T> {
    inner: Arc<Mutex<T>>,
}

/// An acquired [`Shared`] lock.
///
/// Dereferences to `T` exactly like the `MutexGuard` it wraps. In debug
/// builds, dropping the guard also clears the witness's record that this
/// thread holds one.
pub struct SharedGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Deref for SharedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for SharedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for SharedGuard<'_, T> {
    fn drop(&mut self) {
        crate::lockdep::on_release();
    }
}

impl<T> Shared<T> {
    /// Wraps `value` in a fresh shared handle.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(Mutex::new(value)),
        }
    }

    /// Locks the value for shared-style access.
    ///
    /// The name mirrors `RefCell::borrow` for call-site compatibility; the
    /// guard is exclusive either way.
    ///
    /// Poisoning is recovered, not propagated: shared simulation state is
    /// deterministic and mutated only under single-statement guards (see
    /// the module docs), so a worker that panicked while holding the lock
    /// cannot have left the value torn — the panic itself is the failure
    /// to report, and letting every other shard panic on "poisoned" would
    /// bury it in a cascade.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a `Shared` guard.
    #[track_caller]
    pub fn borrow(&self) -> SharedGuard<'_, T> {
        self.acquire()
    }

    /// Locks the value for mutable access.
    ///
    /// Recovers from poisoning and panics exactly like
    /// [`borrow`](Shared::borrow).
    #[track_caller]
    pub fn borrow_mut(&self) -> SharedGuard<'_, T> {
        self.acquire()
    }

    // analyze: lock-primitive
    #[track_caller]
    fn acquire(&self) -> SharedGuard<'_, T> {
        // The witness runs *before* the lock call: a re-entry then panics
        // with both sites instead of deadlocking silently.
        #[cfg(debug_assertions)]
        crate::lockdep::on_acquire(std::panic::Location::caller());
        SharedGuard(self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether two handles refer to the same underlying value.
    pub fn ptr_eq(&self, other: &Shared<T>) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f.debug_tuple("Shared").field(&&*guard).finish(),
            Err(_) => f.write_str("Shared(<locked>)"),
        }
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_alias_one_value() {
        let a = Shared::new(1u32);
        let b = a.clone();
        *b.borrow_mut() += 1;
        assert_eq!(*a.borrow(), 2);
        assert!(a.ptr_eq(&b));
        assert!(!a.ptr_eq(&Shared::new(2)));
    }

    #[test]
    fn crosses_threads() {
        let s = Shared::new(0u64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *s.borrow_mut() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*s.borrow(), 4000);
    }
}
