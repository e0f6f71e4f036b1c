//! Shared state for simulation components.
//!
//! Actors share substrate state — the fabric model, the cluster directory,
//! the memory store — through [`Shared`] handles. The simulator runs on one
//! thread (both engines execute every event on the caller's thread), so the
//! wrapper is a thin `Rc<RefCell<T>>`.
//!
//! # One guard per handle
//!
//! [`borrow`](Shared::borrow) and [`borrow_mut`](Shared::borrow_mut) both
//! hand out an exclusive `RefMut`: the two names only say what the caller
//! means to do with it. Guards are held for single statements or short
//! blocks; code copies what it needs out of one guard and drops it before
//! calling into code that may take the same handle again. A re-entry — a
//! second guard on a handle whose first guard is still live — panics at the
//! second site through `RefCell`'s own check, in every build profile.
//! Guards on two different handles may nest.

use std::cell::{RefCell, RefMut};
use std::fmt;
use std::rc::Rc;

/// A cloneable, mutably borrowable handle to `T`.
pub struct Shared<T> {
    inner: Rc<RefCell<T>>,
}

impl<T> Shared<T> {
    /// Wraps `value` in a fresh shared handle.
    pub fn new(value: T) -> Self {
        Shared {
            inner: Rc::new(RefCell::new(value)),
        }
    }

    /// Borrows the value for shared-style access.
    ///
    /// The name mirrors `RefCell::borrow` for the call sites that only
    /// read; the guard is exclusive either way.
    ///
    /// # Panics
    ///
    /// If a guard on this handle is live.
    #[track_caller]
    pub fn borrow(&self) -> RefMut<'_, T> {
        self.inner.borrow_mut()
    }

    /// Borrows the value for mutable access.
    ///
    /// # Panics
    ///
    /// If a guard on this handle is live.
    #[track_caller]
    pub fn borrow_mut(&self) -> RefMut<'_, T> {
        self.inner.borrow_mut()
    }

    /// Whether two handles refer to the same underlying value.
    pub fn ptr_eq(&self, other: &Shared<T>) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_borrow() {
            Ok(guard) => f.debug_tuple("Shared").field(&&*guard).finish(),
            Err(_) => f.write_str("Shared(<borrowed>)"),
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
    fn a_second_guard_on_one_handle_panics_and_two_handles_nest() {
        let a = Shared::new(1u32);
        let b = Shared::new(2u32);

        // Every pairing of the two names is a re-entry, and so is a second
        // guard taken through a clone of the handle.
        let alias = a.clone();
        let reentries: [&dyn Fn(); 5] = [
            &|| drop((a.borrow(), a.borrow())),
            &|| drop((a.borrow(), a.borrow_mut())),
            &|| drop((a.borrow_mut(), a.borrow())),
            &|| drop((a.borrow_mut(), a.borrow_mut())),
            &|| drop((a.borrow_mut(), alias.borrow_mut())),
        ];
        for reenter in reentries {
            assert!(catch_unwind(AssertUnwindSafe(reenter)).is_err());
        }

        // Unwinding released the first guard.
        *a.borrow_mut() += 1;

        // Guards on two different handles may be live at once.
        {
            let mut ga = a.borrow_mut();
            let mut gb = b.borrow_mut();
            *gb += *ga;
            *ga = 0;
        }
        assert_eq!((*a.borrow(), *b.borrow()), (0, 4));
    }
}
