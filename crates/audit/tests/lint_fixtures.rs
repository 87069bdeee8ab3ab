//! Self-tests over the fixture corpora: every concurrency rule fires on
//! the bad corpus and nothing fires on the good corpus. (The `gridwatch
//! audit` exit codes over the same corpora are pinned in
//! `crates/cli/tests`.)

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use gridwatch_audit::concurrency::{scan_concurrency_paths, Rule, Violation};

fn fixture_dir(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

/// The concurrency pass over a fixture directory — what `gridwatch
/// audit --paths` reports.
fn scan_all(which: &str) -> Vec<Violation> {
    scan_concurrency_paths(&fixture_dir(which))
        .expect("concurrency scan fixtures")
        .violations
}

#[test]
fn bad_corpus_trips_every_rule() {
    let violations = scan_all("bad");
    let fired: BTreeSet<Rule> = violations.iter().map(|v| v.rule).collect();
    for rule in [Rule::NestedLock, Rule::BlockingUnderLock] {
        assert!(fired.contains(&rule), "rule {} never fired", rule.name());
    }

    let by_file = |name: &str| violations.iter().filter(|v| v.file == name).count();
    assert_eq!(by_file("nested_lock.rs"), 1, "{violations:#?}");
    assert_eq!(by_file("blocking_under_lock.rs"), 3, "{violations:#?}");
}

#[test]
fn good_corpus_is_clean() {
    let violations = scan_all("good");
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn seeded_nesting_names_the_held_guard() {
    let violations = scan_all("bad");
    let nested: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::NestedLock)
        .collect();
    assert_eq!(nested.len(), 1, "{nested:#?}");
    let v = nested[0];
    assert_eq!(v.file, "nested_lock.rs");
    assert_eq!(v.excerpt, "let b = self.beta.lock();");
    assert!(v.message.contains("alpha<State>"), "{}", v.message);
    assert!(v.message.contains("line 13"), "{}", v.message);
}

#[test]
fn violations_carry_usable_locations() {
    let violations = scan_all("bad");
    for v in &violations {
        assert!(v.line > 0, "{v:?}");
        assert!(!v.excerpt.is_empty(), "{v:?}");
        // The excerpt is the trimmed source line of the violation.
        let path = fixture_dir("bad").join(&v.file);
        let source = std::fs::read_to_string(path).expect("fixture readable");
        let line = source
            .lines()
            .nth(v.line as usize - 1)
            .expect("line in range");
        assert_eq!(line.trim(), v.excerpt, "{v:?}");
    }
}
