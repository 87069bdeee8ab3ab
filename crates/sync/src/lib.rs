//! gridwatch-sync: rank-ordered lock wrappers with a runtime lockdep.
//!
//! Every shared lock in the serving fabric belongs to a [`LockClass`]
//! with a global **rank**; the rule is that a thread may only acquire
//! locks in strictly increasing rank order. The workspace's rank table
//! lives in [`classes`] so the whole ordering is reviewable in one
//! place (and documented in DESIGN.md §13).
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] wrap their `parking_lot`
//! counterparts:
//!
//! * with the `validate` feature **off** (the default), they are plain
//!   pass-throughs — no atomics, no thread-locals, no branches beyond
//!   the underlying lock. The `lockdep_overhead` bench hard-gates this.
//! * with `validate` **on**, each acquisition is checked against a
//!   per-thread stack of held locks and the actual acquisition order is
//!   recorded in a global edge table ([`observed_edges`]). Acquiring a
//!   lock whose rank is not strictly greater than every held lock's
//!   rank panics with *both* acquisition locations — the would-be
//!   deadlock dies loudly in tests instead of hanging in production.
//!
//! The static side of the same contract is `gridwatch audit`, which
//! lints the source for lock-order cycles; this crate catches the
//! orders that actually execute.

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

/// One lock class: a name for reports and a global rank. Locks must be
/// acquired in strictly increasing rank order within a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockClass {
    name: &'static str,
    rank: u32,
}

impl LockClass {
    /// Defines a lock class. Ranks are compared globally: keep the full
    /// table in [`classes`] so orderings stay reviewable.
    pub const fn new(name: &'static str, rank: u32) -> LockClass {
        LockClass { name, rank }
    }

    /// The class name, used in lockdep panics and the edge table.
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// The class rank. Lower ranks must be acquired first.
    pub const fn rank(self) -> u32 {
        self.rank
    }
}

/// The workspace rank table. One constant per lock class, ordered by
/// rank: a thread holding one of these may only acquire classes that
/// appear *later* in this list.
///
/// The spacing leaves room to slot new classes between existing ones
/// without renumbering.
pub mod classes {
    use super::LockClass;

    /// Coordinator per-shard slot (`Coordinator::slots[i]`): connection
    /// state, epoch, and the upstream socket for one shard.
    pub const FABRIC_SLOT: LockClass = LockClass::new("fabric.slot", 10);
    /// Coordinator checkpoint state cache (`Coordinator::state_cache`).
    pub const FABRIC_STATE_CACHE: LockClass = LockClass::new("fabric.state_cache", 20);
    /// Coordinator fabric counters (`Coordinator::stats`).
    pub const FABRIC_STATS: LockClass = LockClass::new("fabric.stats", 30);
    /// `ShardedEngine` serving counters (its live `ServeStats` document).
    pub const ENGINE_STATS: LockClass = LockClass::new("engine.stats", 32);
    /// `NetServer` ingestion counters and per-connection stats table.
    pub const NET_ACCUMULATOR: LockClass = LockClass::new("net.accumulator", 34);
    /// `NetServer` live-connection registry (for shutdown teardown).
    pub const NET_CONNS: LockClass = LockClass::new("net.connections", 36);
    /// Shard-worker live session socket (`ShardWorker::session`).
    pub const WORKER_SESSION: LockClass = LockClass::new("worker.session", 40);
    /// Shard-worker lifetime counters (`ShardWorker::summary`).
    pub const WORKER_SUMMARY: LockClass = LockClass::new("worker.summary", 42);
    /// Exemplar tracer's in-flight trace table (`ExemplarTracer`
    /// pending map): spans accumulate here between open and finalize.
    /// Acquired from submit/merge/report paths that may hold stats
    /// locks, so it ranks above every counter class.
    pub const EXEMPLAR_PENDING: LockClass = LockClass::new("obs.exemplar_pending", 44);
    /// Exemplar tracer's retained ring. Ranks above the pending map:
    /// `finalize` moves a trace from pending into the ring.
    pub const EXEMPLAR_RING: LockClass = LockClass::new("obs.exemplar_ring", 46);
    /// Burn-rate gauge sample window (`BurnGauges`): appended to and
    /// read at scrape time only.
    pub const HEALTH_WINDOW: LockClass = LockClass::new("obs.health_window", 48);
    /// Flight-recorder event ring. Highest rank on purpose: `record()`
    /// is called from code that may hold any other lock, so the ring
    /// must be acquirable last from anywhere.
    pub const FLIGHT_RING: LockClass = LockClass::new("obs.flight_ring", 50);
}

#[cfg(feature = "validate")]
mod lockdep {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::panic::Location;

    use super::LockClass;

    #[derive(Clone, Copy)]
    struct Held {
        class: LockClass,
        acquired_at: &'static Location<'static>,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
    }

    /// Every (held, acquired) class-name pair actually executed under
    /// `validate`, across all threads — the runtime lock-order graph.
    static EDGES: parking_lot::Mutex<BTreeSet<(&'static str, &'static str)>> =
        parking_lot::Mutex::new(BTreeSet::new());

    pub(super) fn observed_edges() -> Vec<(&'static str, &'static str)> {
        EDGES.lock().iter().copied().collect()
    }

    /// Checks `class` against this thread's held stack, records the
    /// order edges, and pushes the acquisition. Panics on inversion
    /// *before* blocking on the lock, so a real AB/BA deadlock fails
    /// fast instead of hanging the suite.
    pub(super) fn acquire(class: LockClass, at: &'static Location<'static>) -> u64 {
        let token = NEXT_TOKEN.with(|t| {
            let mut t = t.borrow_mut();
            *t += 1;
            *t
        });
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            #[expect(clippy::panic, reason = "fail-stop is the validator's contract")]
            if let Some(blocker) = held.iter().find(|h| h.class.rank() >= class.rank()) {
                let stack: Vec<String> = held
                    .iter()
                    .map(|h| {
                        format!(
                            "{} (rank {}, acquired at {})",
                            h.class.name(),
                            h.class.rank(),
                            h.acquired_at
                        )
                    })
                    .collect();
                let msg = format!(
                    "lock-order inversion: acquiring `{}` (rank {}) at {} while holding \
                     `{}` (rank {}) acquired at {}; this thread's held stack: [{}]",
                    class.name(),
                    class.rank(),
                    at,
                    blocker.class.name(),
                    blocker.class.rank(),
                    blocker.acquired_at,
                    stack.join(", ")
                );
                // Deliberate fail-stop: an order inversion is a latent
                // deadlock; crashing with both locations is the point.
                panic!("{msg}");
            }
            if !held.is_empty() {
                let mut edges = EDGES.lock();
                for h in held.iter() {
                    edges.insert((h.class.name(), class.name()));
                }
            }
            held.push(Held {
                class,
                acquired_at: at,
                token,
            });
        });
        token
    }

    /// Removes the acquisition with `token` from this thread's stack.
    /// Guards may be dropped out of LIFO order, so release is by token,
    /// not by popping.
    pub(super) fn release(token: u64) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|h| h.token == token) {
                held.remove(pos);
            }
        });
    }
}

/// The (held → acquired) lock-class pairs actually executed so far,
/// across all threads — the runtime lock-order graph, for tests that
/// want to assert which orders a scenario exercised.
#[cfg(feature = "validate")]
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    lockdep::observed_edges()
}

/// A mutex belonging to a [`LockClass`]; see the crate docs for the
/// ordering contract.
pub struct OrderedMutex<T> {
    class: LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex of the given class.
    pub const fn new(class: LockClass, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// This lock's class.
    pub const fn class(&self) -> LockClass {
        self.class
    }

    /// Acquires the mutex. Under `validate`, panics with both
    /// acquisition locations if this would invert the rank order
    /// against any lock the current thread already holds.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(feature = "validate")]
        let token = lockdep::acquire(self.class, std::panic::Location::caller());
        OrderedMutexGuard {
            #[cfg(feature = "validate")]
            token,
            inner: self.inner.lock(),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class.name())
            .field("rank", &self.class.rank())
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedMutex::lock`].
pub struct OrderedMutexGuard<'a, T> {
    #[cfg(feature = "validate")]
    token: u64,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(feature = "validate")]
impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.token);
    }
}

/// A reader–writer lock belonging to a [`LockClass`]. Both read and
/// write acquisitions participate in the rank order: a same-class
/// read-under-read is also rejected under `validate`, because a writer
/// queued between the two reads deadlocks a fair rwlock.
pub struct OrderedRwLock<T> {
    class: LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in an rwlock of the given class.
    pub const fn new(class: LockClass, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            class,
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// This lock's class.
    pub const fn class(&self) -> LockClass {
        self.class
    }

    /// Acquires a shared read guard, rank-checked under `validate`.
    #[track_caller]
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(feature = "validate")]
        let token = lockdep::acquire(self.class, std::panic::Location::caller());
        OrderedReadGuard {
            #[cfg(feature = "validate")]
            token,
            inner: self.inner.read(),
        }
    }

    /// Acquires an exclusive write guard, rank-checked under `validate`.
    #[track_caller]
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(feature = "validate")]
        let token = lockdep::acquire(self.class, std::panic::Location::caller());
        OrderedWriteGuard {
            #[cfg(feature = "validate")]
            token,
            inner: self.inner.write(),
        }
    }

    /// Consumes the rwlock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("class", &self.class.name())
            .field("rank", &self.class.rank())
            .finish_non_exhaustive()
    }
}

/// RAII guard for [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T> {
    #[cfg(feature = "validate")]
    token: u64,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(feature = "validate")]
impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.token);
    }
}

/// RAII guard for [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T> {
    #[cfg(feature = "validate")]
    token: u64,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(feature = "validate")]
impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOW: LockClass = LockClass::new("test.low", 1);
    const HIGH: LockClass = LockClass::new("test.high", 2);

    #[test]
    fn mutex_guards_data() {
        let m = OrderedMutex::new(LOW, 0u64);
        *m.lock() += 41;
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_guards_data() {
        let l = OrderedRwLock::new(LOW, vec![1u32, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
        assert_eq!(l.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn ascending_order_is_legal() {
        let a = OrderedMutex::new(LOW, ());
        let b = OrderedMutex::new(HIGH, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga);
        drop(gb);
        // Re-acquire to prove the stack was not corrupted by the
        // out-of-LIFO release above.
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    }

    #[test]
    fn class_metadata_is_exposed() {
        let m = OrderedMutex::new(classes::FLIGHT_RING, ());
        assert_eq!(m.class().name(), "obs.flight_ring");
        assert!(m.class().rank() > classes::FABRIC_SLOT.rank());
        assert!(format!("{m:?}").contains("obs.flight_ring"));
    }

    #[test]
    fn rank_table_is_strictly_increasing() {
        let table = [
            classes::FABRIC_SLOT,
            classes::FABRIC_STATE_CACHE,
            classes::FABRIC_STATS,
            classes::ENGINE_STATS,
            classes::NET_ACCUMULATOR,
            classes::NET_CONNS,
            classes::WORKER_SESSION,
            classes::WORKER_SUMMARY,
            classes::EXEMPLAR_PENDING,
            classes::EXEMPLAR_RING,
            classes::HEALTH_WINDOW,
            classes::FLIGHT_RING,
        ];
        for pair in table.windows(2) {
            assert!(
                pair[0].rank() < pair[1].rank(),
                "{} must rank below {}",
                pair[0].name(),
                pair[1].name()
            );
        }
    }
}
