//! The leaf rule at runtime: in debug builds a thread that holds a
//! `LeafMutex` panics, before blocking, on any further acquisition or
//! any blocking call, and the message names the sites involved.
//! Sequential acquisitions, one lock per thread, and blocking with no
//! lock held stay legal.

use std::thread;
use std::time::Duration;

use gridwatch_sync::{channel, may_block, LeafMutex};

#[test]
fn sequential_acquisitions_pass() {
    // Dropping a guard frees the thread's slot, in any order of locks.
    let a = LeafMutex::new(1u32);
    let b = LeafMutex::new(2u32);
    let x = *a.lock();
    let y = *b.lock();
    assert_eq!(x + y, 3);
    drop(b.lock());
    drop(a.lock());
    let ga = a.lock();
    drop(ga);
    drop(b.lock());
}

#[test]
fn one_lock_per_thread_is_legal_across_threads() {
    // The slot is per thread: one thread holding a lock does not stop
    // another thread from taking a different one.
    let a = LeafMutex::new(());
    let held = a.lock();
    let worker = thread::spawn(|| {
        let b = LeafMutex::new(());
        drop(b.lock());
    });
    worker.join().expect("a lock on another thread is legal");
    drop(held);
}

/// Runs `f` on a fresh thread and returns its panic message, failing
/// the test if `f` returns normally or is still running after a
/// deadline (a lock or a call that blocked instead of panicking).
#[cfg(debug_assertions)]
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    use std::time::{Duration, Instant};

    let worker = thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !worker.is_finished() {
        assert!(Instant::now() < deadline, "the call blocked");
        thread::sleep(Duration::from_millis(5));
    }
    let err = worker.join().expect_err("the call must panic");
    err.downcast_ref::<String>()
        .expect("panic payload is a String")
        .clone()
}

#[cfg(debug_assertions)]
#[test]
fn any_nesting_panics_and_names_both_acquisition_sites() {
    let msg = panic_message(|| {
        let a = LeafMutex::new(());
        let b = LeafMutex::new(());
        let _ga = a.lock();
        let _gb = b.lock();
    });
    assert!(msg.starts_with("nested lock"), "{msg}");
    // Two creation sites and two acquisition sites, all in this file
    // and each on its own line.
    assert_eq!(msg.matches("lockdep.rs:").count(), 4, "{msg}");
    let lines: std::collections::BTreeSet<&str> = msg
        .split("lockdep.rs:")
        .skip(1)
        .filter_map(|rest| rest.split(':').next())
        .collect();
    assert_eq!(lines.len(), 4, "{msg}");
}

#[cfg(debug_assertions)]
#[test]
fn relocking_the_held_mutex_panics_before_it_blocks() {
    let msg = panic_message(|| {
        let a = LeafMutex::new(0u32);
        let _first = a.lock();
        let _second = a.lock();
    });
    assert!(msg.starts_with("nested lock"), "{msg}");
}

#[cfg(debug_assertions)]
#[test]
fn unwinding_frees_the_slot() {
    // A caught nesting panic drops the held guard on the way out, so the
    // thread can lock again afterwards.
    let a = LeafMutex::new(());
    let b = LeafMutex::new(());
    let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ga = a.lock();
        let _gb = b.lock();
    }));
    assert!(nested.is_err());
    drop(b.lock());
    drop(a.lock());
}

#[test]
fn blocking_with_no_lock_held_passes() {
    let (tx, rx) = channel::bounded(2);
    may_block();
    tx.send(1u32).unwrap();
    tx.try_send(2).unwrap();
    assert_eq!(tx.len(), 2);
    assert_eq!(rx.recv().unwrap(), 1);
    assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 2);
    assert!(rx.try_recv().is_err());
    // A guard dropped before the call leaves nothing held.
    let a = LeafMutex::new(());
    drop(a.lock());
    tx.send(3).unwrap();
}

#[test]
fn non_blocking_channel_calls_pass_under_a_guard() {
    let a = LeafMutex::new(());
    let (tx, rx) = channel::bounded(1);
    let _held = a.lock();
    tx.try_send(1u32).unwrap();
    assert!(tx.try_send(2).is_err(), "full");
    assert_eq!(tx.len(), 1);
    assert_eq!(rx.len(), 1);
    assert_eq!(rx.try_recv().unwrap(), 1);
}

/// Asserts that `msg` reports a blocking call under a held lock and
/// names three distinct sites in this file: the lock's creation, its
/// acquisition, and the blocking call.
#[cfg(debug_assertions)]
fn assert_names_three_sites(msg: &str) {
    assert!(msg.starts_with("blocking call at"), "{msg}");
    let lines: std::collections::BTreeSet<&str> = msg
        .split("lockdep.rs:")
        .skip(1)
        .filter_map(|rest| rest.split(':').next())
        .collect();
    assert_eq!(msg.matches("lockdep.rs:").count(), 3, "{msg}");
    assert_eq!(lines.len(), 3, "{msg}");
}

#[cfg(debug_assertions)]
#[test]
fn may_block_under_a_guard_panics_and_names_three_sites() {
    assert_names_three_sites(&panic_message(|| {
        let a = LeafMutex::new(());
        let _held = a.lock();
        may_block();
    }));
}

#[cfg(debug_assertions)]
#[test]
fn blocking_channel_calls_under_a_guard_panic_before_they_block() {
    // Each call would block (a full channel, an empty one) if the check
    // let it through, so a hang here is the check missing.
    assert_names_three_sites(&panic_message(|| {
        let a = LeafMutex::new(());
        let (tx, _rx) = channel::bounded(1);
        tx.send(1u32).unwrap();
        let _held = a.lock();
        let _ = tx.send(2);
    }));
    assert_names_three_sites(&panic_message(|| {
        let a = LeafMutex::new(());
        let (_tx, rx) = channel::bounded::<u32>(1);
        let _held = a.lock();
        let _ = rx.recv();
    }));
    assert_names_three_sites(&panic_message(|| {
        let a = LeafMutex::new(());
        let (_tx, rx) = channel::bounded::<u32>(1);
        let _held = a.lock();
        let _ = rx.recv_timeout(Duration::from_secs(60));
    }));
}

#[cfg(not(debug_assertions))]
#[test]
fn release_builds_compile_the_check_out() {
    // What panics in a debug build passes here: the release wrapper and
    // channels carry no check.
    let a = LeafMutex::new(());
    let b = LeafMutex::new(());
    let (tx, rx) = channel::bounded(1);
    let _held = a.lock();
    drop(b.lock());
    may_block();
    tx.send(1u32).unwrap();
    assert_eq!(rx.recv().unwrap(), 1);
    assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
}
