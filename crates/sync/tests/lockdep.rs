//! The leaf rule at runtime: in debug builds a thread that holds a
//! `LeafMutex` panics, before blocking, on any further acquisition, and
//! the message names where both locks were created and acquired.
//! Sequential acquisitions and one lock per thread stay legal.

use std::thread;

use gridwatch_sync::LeafMutex;

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
/// deadline (a lock that blocked instead of panicking).
#[cfg(debug_assertions)]
fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
    use std::time::{Duration, Instant};

    let worker = thread::spawn(f);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !worker.is_finished() {
        assert!(Instant::now() < deadline, "the acquisition blocked");
        thread::sleep(Duration::from_millis(5));
    }
    let err = worker.join().expect_err("the acquisition must panic");
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
