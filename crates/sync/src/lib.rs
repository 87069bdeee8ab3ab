//! gridwatch-sync: the leaf mutex and the channels every gridwatch lock
//! and queue is built on.
//!
//! One rule covers every lock in the workspace: **a lock is a leaf.** A
//! thread that holds one takes no other lock and makes no blocking call.
//! Two threads that each hold at most one lock cannot deadlock on each
//! other's locks, so no ordering between locks needs to exist.
//!
//! [`LeafMutex`] wraps `parking_lot::Mutex` and checks the rule at
//! runtime in every build with `debug_assertions` (every `cargo test`): a
//! thread-local slot remembers the one lock the thread holds, and
//! acquiring any lock while the slot is set panics *before* blocking,
//! naming where both locks were created and acquired. Re-locking the
//! same mutex is caught the same way. [`may_block`] reads the same slot:
//! every blocking choke point of the serving tier calls it first (the
//! [`channel`] operations that wait, fabric frame I/O, socket writes,
//! joins, sleeps, checkpoint writes), so a guard held across a blocking
//! call panics too, however deep in a callee the call is. Release builds
//! compile the check out; the wrapper is then a plain
//! `parking_lot::Mutex`, which the `lockdep_overhead` bench hard-gates.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;

pub mod channel;

#[cfg(debug_assertions)]
mod leaf {
    use std::cell::Cell;
    use std::fmt;
    use std::panic::Location;

    /// A source location recorded by `#[track_caller]`.
    type Site = &'static Location<'static>;

    thread_local! {
        /// The lock this thread holds, if any: where it was created and
        /// where it was acquired.
        static HELD: Cell<Option<(Site, Site)>> = const { Cell::new(None) };
    }

    /// Panics if this thread holds a lock, naming it after `doing`.
    fn assert_free(doing: fmt::Arguments<'_>) {
        #[expect(clippy::panic, reason = "fail-stop is the leaf check's contract")]
        if let Some((held_created, held_at)) = HELD.get() {
            panic!(
                "{doing} while holding the lock created at {held_created} \
                 (acquired at {held_at}); gridwatch locks are leaves"
            );
        }
    }

    /// Claims this thread's slot for the lock created at `created`.
    /// Panics before the caller blocks if the slot is already taken: the
    /// acquisition would nest, or re-lock the held mutex and hang.
    pub(super) fn acquire(created: Site, at: Site) {
        assert_free(format_args!(
            "nested lock: acquiring the lock created at {created} (at {at})"
        ));
        HELD.set(Some((created, at)));
    }

    /// Panics if this thread holds a lock: the caller at `at` is about
    /// to block with the guard still held.
    pub(super) fn blocking(at: Site) {
        assert_free(format_args!("blocking call at {at}"));
    }

    /// Frees this thread's slot.
    pub(super) fn release() {
        HELD.set(None);
    }
}

/// Marks a call that may block. In debug builds, panics if this thread
/// holds a [`LeafMutex`], naming where that lock was created and acquired
/// and where the blocking call is made. Release builds compile it to
/// nothing.
#[track_caller]
#[inline]
pub fn may_block() {
    #[cfg(debug_assertions)]
    leaf::blocking(Location::caller());
}

/// A mutex under the leaf rule; see the crate docs.
pub struct LeafMutex<T> {
    created_at: &'static Location<'static>,
    inner: parking_lot::Mutex<T>,
}

impl<T> LeafMutex<T> {
    /// Wraps `value` in a mutex identified by the caller's location.
    #[track_caller]
    pub fn new(value: T) -> LeafMutex<T> {
        LeafMutex {
            created_at: Location::caller(),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Acquires the mutex. In debug builds, panics with all four sites
    /// if this thread already holds a lock.
    #[track_caller]
    pub fn lock(&self) -> LeafMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        leaf::acquire(self.created_at, Location::caller());
        LeafMutexGuard {
            inner: self.inner.lock(),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T> fmt::Debug for LeafMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeafMutex")
            .field("created_at", &self.created_at)
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`LeafMutex::lock`].
pub struct LeafMutexGuard<'a, T> {
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Deref for LeafMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for LeafMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for LeafMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for LeafMutexGuard<'_, T> {
    fn drop(&mut self) {
        leaf::release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_data() {
        let m = LeafMutex::new(0u64);
        *m.lock() += 41;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn debug_names_the_creation_site() {
        let m = LeafMutex::new(());
        assert!(format!("{m:?}").contains("lib.rs"), "{m:?}");
    }
}
