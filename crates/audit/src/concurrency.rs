//! The concurrency analysis pass (`gridwatch audit`).
//!
//! Every gridwatch lock is a **leaf**: a thread that holds one takes no
//! other lock and makes no blocking call. Built on a self-contained lexer
//! ([`crate::lexer`]), this pass walks every function in the
//! concurrency-scanned crates, tracks which guards are held, and flags
//!
//! 1. any **lock acquisition under a held guard** ([`Rule::NestedLock`]),
//!    naming the held guard and the line it was taken on;
//! 2. any **blocking operation under a held guard** — channel `send`/
//!    `recv`, socket reads/writes, `join()`, `sync_all`/`sync_data`,
//!    sleeps, and the project's frame I/O helpers
//!    ([`Rule::BlockingUnderLock`]).
//!
//! Being lexical, the pass is deliberately conservative in both
//! directions (see DESIGN.md §13 for the caveat list):
//!
//! * guard lifetimes are inferred syntactically: a `let`-bound guard is
//!   held until its enclosing block closes or an explicit `drop(g)`;
//!   any other acquisition is a temporary released at the end of its
//!   statement;
//! * calls are not followed across functions, so a lock taken inside a
//!   callee is invisible at the call site (the debug-build leaf check in
//!   `gridwatch-sync` covers exactly that gap);
//! * a `match` scrutinee guard (`match m.lock() { … }`) is treated as a
//!   temporary even though the guard lives for the whole match.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, strip_test_code, Tok, TokKind};

/// One concurrency rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Lock acquisition while a lock guard is held: locks are leaves.
    NestedLock,
    /// Blocking operation (channel send/recv, socket I/O, `join()`,
    /// fsync, condvar wait) executed while a lock guard is held.
    BlockingUnderLock,
}

impl Rule {
    /// The rule's stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NestedLock => "nested-lock",
            Rule::BlockingUnderLock => "blocking-under-lock",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Repo-relative path (forward slashes) of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The trimmed source line.
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Crates scanned by the concurrency pass: everything that owns a lock
/// or runs on the serving path.
pub const CONCURRENCY_LINT_CRATES: &[&str] = &["serve", "obs", "detect", "store", "sync"];

/// Method names that block: channels, sockets, files, threads,
/// condvars. Checked when invoked as `.name(…)` or `Path::name(…)`.
const BLOCKING_METHODS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "flush",
    "wait",
    "wait_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "accept",
    "connect",
    "join",
];

/// Blocking methods that only count with an *empty* argument list —
/// their arg-taking namesakes (`Path::join`, `str::join`) don't block.
const EMPTY_ARGS_ONLY: &[&str] = &["join"];

/// Free functions and project helpers that block in any call form.
const BLOCKING_FREE_FNS: &[&str] = &["sleep", "write_frame", "read_frame"];

/// Identifiers that declare a mutex-flavored lock type.
const MUTEX_TYPES: &[&str] = &["Mutex", "LeafMutex"];
/// Identifiers that declare an rwlock-flavored lock type.
const RWLOCK_TYPES: &[&str] = &["RwLock"];

/// What the concurrency pass found, plus the numbers the CI trend line
/// reports.
#[derive(Debug)]
pub struct ConcurrencyReport {
    /// All violations, sorted by file and line.
    pub violations: Vec<Violation>,
    /// Total lock acquisition sites seen.
    pub lock_sites: usize,
    /// Distinct lock classes acquired.
    pub classes: usize,
}

/// Per-file lock declarations: receiver name → class identity.
#[derive(Debug, Default)]
struct FileDecls {
    /// Any lock-typed declaration: field, let ascription, fn param,
    /// or static. Name → `name<InnerType>` class string.
    locks: BTreeMap<String, String>,
    /// Names declared with an rwlock type (whose bare `.read()` /
    /// `.write()` calls are lock acquisitions, not socket I/O).
    rwlocks: BTreeSet<String>,
}

/// Collects `name: … Mutex<Inner> …` style declarations from a token
/// stream. Walks back from each lock-type identifier through type-ish
/// tokens to the `:` that names the declaration.
fn collect_decls(toks: &[Tok]) -> FileDecls {
    let mut decls = FileDecls::default();
    for (k, tok) in toks.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let is_mutex = MUTEX_TYPES.contains(&tok.text.as_str());
        let is_rwlock = RWLOCK_TYPES.contains(&tok.text.as_str());
        // A lock *type* is followed by `<`; `Mutex::new` and friends are
        // expressions, not declarations.
        if !(is_mutex || is_rwlock) || !toks.get(k + 1).is_some_and(|t| t.is_punct("<")) {
            continue;
        }
        // Walk back through wrapper-type tokens (`Arc<`, `Vec<`, `&`,
        // paths) to the `:` of the declaration.
        let Some(name) = declared_name(toks, k) else {
            continue;
        };
        let inner = inner_type(toks, k + 1);
        let class = match inner {
            Some(t) => format!("{name}<{t}>"),
            None => name.clone(),
        };
        if is_rwlock {
            decls.rwlocks.insert(name.clone());
        }
        decls.locks.insert(name, class);
    }
    decls
}

/// From the index of a lock-type identifier, walks left through
/// type-position tokens until the declaration's `:` and returns the
/// declared name before it.
fn declared_name(toks: &[Tok], type_ident: usize) -> Option<String> {
    let mut j = type_ident.checked_sub(1)?;
    loop {
        let t = &toks[j];
        let type_ish = t.kind == TokKind::Ident
            || t.kind == TokKind::Lifetime
            || t.is_punct("<")
            || t.is_punct("::")
            || t.is_punct("&")
            || t.is_punct("'");
        if t.is_punct(":") {
            let name_tok = toks.get(j.checked_sub(1)?)?;
            if name_tok.kind == TokKind::Ident {
                return Some(name_tok.text.clone());
            }
            return None;
        }
        if !type_ish {
            return None;
        }
        j = j.checked_sub(1)?;
    }
}

/// The first identifier inside the `<…>` following a lock type: its
/// inner type's head (e.g. `ShardSlot` for `Mutex<ShardSlot>`, `Option`
/// for `Mutex<Option<TcpStream>>`).
fn inner_type(toks: &[Tok], open_angle: usize) -> Option<String> {
    let mut depth = 0i64;
    for t in toks.iter().skip(open_angle) {
        if t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(">") {
            depth -= 1;
            if depth <= 0 {
                return None;
            }
        } else if t.is_punct(">>") {
            depth -= 2;
            if depth <= 0 {
                return None;
            }
        } else if t.kind == TokKind::Ident && depth >= 1 {
            return Some(t.text.clone());
        }
    }
    None
}

/// Walks a postfix receiver chain backwards from `end` (the token just
/// before the `.` of the method call) and returns the chain's last
/// *field or base* identifier — the lock's name — plus the index where
/// the chain starts. Method names along the chain (idents owning a
/// `(...)` group) are skipped; `self` never names a lock.
fn receiver_base(toks: &[Tok], end: usize) -> Option<(String, usize)> {
    let mut j = end as i64;
    let mut name: Option<String> = None;
    while j >= 0 {
        let t = &toks[j as usize];
        if t.is_punct(")") || t.is_punct("]") {
            let (open, close) = if t.is_punct(")") {
                ("(", ")")
            } else {
                ("[", "]")
            };
            let was_args = t.is_punct(")");
            let mut depth = 1i64;
            j -= 1;
            while j >= 0 && depth > 0 {
                let u = &toks[j as usize];
                if u.is_punct(close) {
                    depth += 1;
                } else if u.is_punct(open) {
                    depth -= 1;
                }
                j -= 1;
            }
            if depth > 0 {
                return None;
            }
            if was_args {
                // `(args)` groups belong to a method or function name:
                // consume it without taking it as the lock name.
                if j >= 0 && toks[j as usize].kind == TokKind::Ident {
                    j -= 1;
                    if j >= 0 && (toks[j as usize].is_punct(".") || toks[j as usize].is_punct("::"))
                    {
                        j -= 1;
                        continue;
                    }
                    break;
                }
                // A parenthesized expression receiver: unresolvable.
                return None;
            }
            // `[index]`: the collection ident is next on the left.
            continue;
        }
        if t.kind == TokKind::Ident {
            if name.is_none() && t.text != "self" {
                name = Some(t.text.clone());
            }
            if j >= 1
                && (toks[(j - 1) as usize].is_punct(".") || toks[(j - 1) as usize].is_punct("::"))
            {
                j -= 2;
                continue;
            }
            j -= 1;
            break;
        }
        break;
    }
    let start = (j + 1) as usize;
    name.map(|n| (n, start))
}

/// A guard the walk currently considers held.
#[derive(Debug)]
struct HeldGuard {
    class: String,
    /// The `let`-bound variable name, for `drop(var)` releases.
    var: Option<String>,
    line: u32,
    /// Brace depth at acquisition; released when the block closes.
    depth: usize,
    /// Temporary (not `let`-bound): released at end of statement.
    temp: bool,
}

/// Analyzes one file's token stream, adding the lock classes it
/// acquires to `classes` and its violations to `out`. Returns the number
/// of lock acquisition sites seen.
fn analyze_source(
    file: &str,
    source: &str,
    classes: &mut BTreeSet<String>,
    out: &mut Vec<Violation>,
) -> usize {
    let toks = strip_test_code(&lex(source));
    let decls = collect_decls(&toks);
    let lines: Vec<&str> = source.lines().collect();
    let excerpt_at = |line: u32| -> String {
        lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut sites = 0usize;

    let mut k = 0usize;
    while k < toks.len() {
        // Find the next function and the span of its body.
        if !(toks[k].is_ident("fn") && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)) {
            k += 1;
            continue;
        }
        // Scan the signature for the body's opening brace; a `;` at
        // paren depth 0 first means a bodyless trait method.
        let mut b = k + 2;
        let mut paren = 0i64;
        let body_open = loop {
            match toks.get(b) {
                None => break None,
                Some(t) if t.is_punct("(") => paren += 1,
                Some(t) if t.is_punct(")") => paren -= 1,
                Some(t) if t.is_punct(";") && paren == 0 => break None,
                Some(t) if t.is_punct("{") && paren == 0 => break Some(b),
                _ => {}
            }
            b += 1;
        };
        let Some(open) = body_open else {
            k += 2;
            continue;
        };
        // Find the matching close brace.
        let mut depth = 1usize;
        let mut close = open + 1;
        while close < toks.len() && depth > 0 {
            if toks[close].is_punct("{") {
                depth += 1;
            } else if toks[close].is_punct("}") {
                depth -= 1;
            }
            close += 1;
        }
        let body = &toks[open..close.saturating_sub(1).max(open)];

        // Main walk: block structure, guard lifetimes, acquisitions.
        let mut held: Vec<HeldGuard> = Vec::new();
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < body.len() {
            let t = &body[i];
            if t.is_punct("{") {
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct("}") {
                held.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                i += 1;
                continue;
            }
            // Temporaries die at statement boundaries. `,` and `=>`
            // count too: a brace-less match arm (`… => expr,`) has no
            // `;`, and a temporary must not leak into the next arm.
            if t.is_punct(";") || t.is_punct(",") || t.is_punct("=>") {
                held.retain(|g| !g.temp);
                i += 1;
                continue;
            }
            // Explicit `drop(var)` releases that guard.
            if t.is_ident("drop")
                && body.get(i + 1).is_some_and(|u| u.is_punct("("))
                && body.get(i + 2).is_some_and(|u| u.kind == TokKind::Ident)
                && body.get(i + 3).is_some_and(|u| u.is_punct(")"))
            {
                let var = &body[i + 2].text;
                if let Some(pos) = held
                    .iter()
                    .rposition(|g| g.var.as_deref() == Some(var.as_str()))
                {
                    held.remove(pos);
                }
                i += 4;
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let dotted = i >= 1 && (body[i - 1].is_punct(".") || body[i - 1].is_punct("::"));
            let called = body.get(i + 1).is_some_and(|u| u.is_punct("("));
            let empty_args = called && body.get(i + 2).is_some_and(|u| u.is_punct(")"));

            // Lock acquisition: `.lock()`, or `.read()`/`.write()` on a
            // declared rwlock.
            let is_lock_call = dotted
                && empty_args
                && (t.text == "lock"
                    || ((t.text == "read" || t.text == "write") && i >= 2 && {
                        receiver_base(body, i - 2)
                            .is_some_and(|(name, _)| decls.rwlocks.contains(&name))
                    }));
            if is_lock_call {
                sites += 1;
                let receiver = if i >= 2 {
                    receiver_base(body, i - 2)
                } else {
                    None
                };
                if let Some((name, start)) = receiver {
                    let class = decls.locks.get(&name).cloned().unwrap_or(name);
                    if let Some(g) = held.last() {
                        out.push(Violation {
                            rule: Rule::NestedLock,
                            file: file.to_string(),
                            line: t.line,
                            excerpt: excerpt_at(t.line),
                            message: format!(
                                "acquiring `{class}` while holding `{}` (locked at line {}): \
                                 locks are leaves, so release the held guard first",
                                g.class, g.line
                            ),
                        });
                    }
                    classes.insert(class.clone());
                    // `let [mut] g = <recv>.lock()` holds to block end;
                    // anything else is a temporary. The binding only
                    // counts when the acquisition is the *whole* RHS
                    // (modulo `.expect(…)`/`.unwrap()`): in
                    // `let x = m.lock()[i].clone();` the guard is a
                    // temporary and `x` is plain data.
                    let mut var = None;
                    let mut temp = true;
                    let guard_is_rhs = {
                        let mut e = i + 3; // past `name ( )`
                        if body.get(e).is_some_and(|u| u.is_punct("."))
                            && body
                                .get(e + 1)
                                .is_some_and(|u| u.is_ident("expect") || u.is_ident("unwrap"))
                            && body.get(e + 2).is_some_and(|u| u.is_punct("("))
                        {
                            let mut d = 1i64;
                            e += 3;
                            while e < body.len() && d > 0 {
                                if body[e].is_punct("(") {
                                    d += 1;
                                } else if body[e].is_punct(")") {
                                    d -= 1;
                                }
                                e += 1;
                            }
                        }
                        body.get(e).is_some_and(|u| u.is_punct(";"))
                    };
                    if guard_is_rhs && start >= 1 && body[start - 1].is_punct("=") {
                        let p = start.wrapping_sub(2);
                        if let Some(v) = body.get(p) {
                            if v.kind == TokKind::Ident {
                                let before = p.checked_sub(1).map(|q| &body[q]);
                                let let_bound = match before {
                                    Some(b) if b.is_ident("let") => true,
                                    Some(b) if b.is_ident("mut") => {
                                        p.checked_sub(2).is_some_and(|q| body[q].is_ident("let"))
                                    }
                                    _ => false,
                                };
                                if let_bound {
                                    var = Some(v.text.clone());
                                    temp = false;
                                }
                            }
                        }
                    }
                    held.push(HeldGuard {
                        class,
                        var,
                        line: t.line,
                        depth,
                        temp,
                    });
                }
                i += 1;
                continue;
            }

            // Blocking operations under a held guard.
            let blocking_method = dotted
                && called
                && BLOCKING_METHODS.contains(&t.text.as_str())
                && (!EMPTY_ARGS_ONLY.contains(&t.text.as_str()) || empty_args);
            let blocking_free = called && BLOCKING_FREE_FNS.contains(&t.text.as_str());
            if blocking_method || blocking_free {
                if let Some(g) = held.first() {
                    let held_classes: Vec<&str> = held.iter().map(|h| h.class.as_str()).collect();
                    out.push(Violation {
                        rule: Rule::BlockingUnderLock,
                        file: file.to_string(),
                        line: t.line,
                        excerpt: excerpt_at(t.line),
                        message: format!(
                            "blocking `{}` while holding `{}` (locked at line {}): \
                             release the guard before blocking, or the lock stalls \
                             every other thread for the full wait [held: {}]",
                            t.text,
                            g.class,
                            g.line,
                            held_classes.join(", ")
                        ),
                    });
                }
            }
            i += 1;
        }
        k = close;
    }
    sites
}

/// Runs the concurrency pass over in-memory `(name, source)` pairs —
/// the core of [`scan_concurrency`], exposed for tests.
pub fn scan_sources<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> ConcurrencyReport {
    let mut classes = BTreeSet::new();
    let mut violations = Vec::new();
    let mut lock_sites = 0usize;
    for (name, source) in files {
        lock_sites += analyze_source(name, source, &mut classes, &mut violations);
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    ConcurrencyReport {
        violations,
        lock_sites,
        classes: classes.len(),
    }
}

/// Runs the concurrency pass over [`CONCURRENCY_LINT_CRATES`] in the
/// workspace rooted at `root`.
pub fn scan_concurrency(root: &Path) -> io::Result<ConcurrencyReport> {
    let mut files = Vec::new();
    for krate in CONCURRENCY_LINT_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files)?;
        }
    }
    scan_file_list(root, &files)
}

/// Fixture mode: runs the concurrency pass over every `.rs` file under
/// `dir` (or over `dir` itself when it is a file).
pub fn scan_concurrency_paths(dir: &Path) -> io::Result<ConcurrencyReport> {
    let mut files = Vec::new();
    if dir.is_dir() {
        rust_sources(dir, &mut files)?;
    } else {
        files.push(dir.to_path_buf());
    }
    scan_file_list(dir, &files)
}

fn scan_file_list(root: &Path, files: &[PathBuf]) -> io::Result<ConcurrencyReport> {
    let mut sources = Vec::new();
    for path in files {
        let text = fs::read_to_string(path)?;
        sources.push((relative_name(root, path), text));
    }
    Ok(scan_sources(
        sources.iter().map(|(n, s)| (n.as_str(), s.as_str())),
    ))
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output; `tests/`, `benches/`, and `examples/` directories are skipped
/// (the pass targets library code reachable in production).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                continue;
            }
            rust_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The repo-relative, forward-slash form of `path` under `root` (used in
/// reports so they are stable across machines).
fn relative_name(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Renders one violation as a `file:line: [rule] message: excerpt` line.
pub fn render_violation(v: &Violation) -> String {
    format!(
        "{}:{}: [{}] {}\n    {}",
        v.file,
        v.line,
        v.rule.name(),
        v.message,
        v.excerpt
    )
}

/// Renders the concurrency trend line CI prints.
pub fn render_trend(report: &ConcurrencyReport) -> String {
    format!(
        "concurrency: {} lock acquisition sites across {} classes",
        report.lock_sites, report.classes
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decls_key_classes_by_field_path_and_type() {
        let toks = strip_test_code(&lex(
            "struct A { stats: Arc<Mutex<FabricStats>>, slots: Arc<Vec<Mutex<ShardSlot>>>, \
             table: RwLock<Vec<u32>> }",
        ));
        let decls = collect_decls(&toks);
        assert_eq!(
            decls.locks.get("stats").map(String::as_str),
            Some("stats<FabricStats>")
        );
        assert_eq!(
            decls.locks.get("slots").map(String::as_str),
            Some("slots<ShardSlot>")
        );
        assert!(decls.rwlocks.contains("table"));
        // `Mutex::new(...)` is an expression, not a declaration.
        let toks = strip_test_code(&lex("fn f() { let x = Mutex::new(0); }"));
        assert!(collect_decls(&toks).locks.is_empty());
    }

    #[test]
    fn consistent_order_nesting_is_flagged() {
        // Both functions nest alpha → beta in the same order: no cycle,
        // no deadlock, but each inner acquisition breaks the leaf rule.
        let src = r"
            struct P { alpha: Mutex<State>, beta: Mutex<State> }
            impl P {
                fn forward(&self) {
                    let a = self.alpha.lock();
                    let b = self.beta.lock();
                }
                fn also_forward(&self) {
                    let a = self.alpha.lock();
                    a.tick();
                    self.beta.lock().merge(&a);
                }
            }
        ";
        let report = scan_sources([("ok.rs", src)]);
        assert_eq!(report.violations.len(), 2, "{:#?}", report.violations);
        for v in &report.violations {
            assert_eq!(v.rule, Rule::NestedLock);
            assert!(v.message.contains("beta<State>"), "{}", v.message);
            assert!(v.message.contains("alpha<State>"), "{}", v.message);
        }
        assert!(
            report.violations[0].message.contains("line 5"),
            "{}",
            report.violations[0].message
        );
        assert_eq!(report.lock_sites, 4);
        assert_eq!(report.classes, 2);
    }

    #[test]
    fn relocking_the_same_class_is_flagged() {
        let src = r"
            struct C { slots: Vec<Mutex<Slot>> }
            impl C {
                fn pair(&self) {
                    let s = self.slots[0].lock();
                    let t = self.slots[1].lock();
                }
            }
        ";
        let report = scan_sources([("same.rs", src)]);
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
        assert_eq!(report.violations[0].rule, Rule::NestedLock);
    }

    #[test]
    fn scoped_guard_releases_at_block_end() {
        // The alpha guard dies with its block, so taking beta after it
        // is not a nesting.
        let src = r"
            struct P { alpha: Mutex<State>, beta: Mutex<State> }
            impl P {
                fn forward(&self) {
                    { let a = self.alpha.lock(); }
                    let b = self.beta.lock();
                }
            }
        ";
        let report = scan_sources([("scoped.rs", src)]);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = r"
            struct P { stats: Mutex<Stats>, tx: Sender<u64> }
            impl P {
                fn publish(&self) {
                    let mut acc = self.stats.lock();
                    acc.count += 1;
                    drop(acc);
                    self.tx.send(1);
                }
            }
        ";
        let report = scan_sources([("drop.rs", src)]);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn temporary_guard_does_not_span_statements() {
        let src = r"
            struct P { stats: Mutex<Stats>, tx: Sender<u64> }
            impl P {
                fn publish(&self) {
                    self.stats.lock().count += 1;
                    self.tx.send(1);
                }
            }
        ";
        let report = scan_sources([("temp.rs", src)]);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }

    #[test]
    fn blocking_send_under_guard_is_flagged() {
        let src = r"
            struct P { stats: Mutex<Stats>, tx: Sender<u64> }
            impl P {
                fn publish(&self) {
                    let mut acc = self.stats.lock();
                    acc.count += 1;
                    self.tx.send(1);
                }
            }
        ";
        let report = scan_sources([("send.rs", src)]);
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
        assert_eq!(report.violations[0].rule, Rule::BlockingUnderLock);
        assert!(report.violations[0].message.contains("stats<Stats>"));
    }

    #[test]
    fn join_requires_empty_args_to_count() {
        let src = r#"
            struct P { stats: Mutex<Stats> }
            impl P {
                fn ok_path_join(&self, root: &Path) {
                    let g = self.stats.lock();
                    let p = root.join("file.txt");
                }
                fn bad_thread_join(&self, h: JoinHandle<()>) {
                    let g = self.stats.lock();
                    let r = h.join();
                }
            }
        "#;
        let report = scan_sources([("join.rs", src)]);
        assert_eq!(report.violations.len(), 1, "{:#?}", report.violations);
        assert!(report.violations[0].message.contains("join"));
    }

    #[test]
    fn rwlock_read_write_are_acquisitions_but_socket_io_is_not() {
        let src = r"
            struct S { table: RwLock<Vec<u32>>, stats: Mutex<Stats> }
            impl S {
                fn read_then_lock(&self) {
                    let t = self.table.read();
                    let s = self.stats.lock();
                }
                fn lock_then_write(&self) {
                    let s = self.stats.lock();
                    let t = self.table.write();
                }
                fn socket(&self, stream: &mut TcpStream, buf: &mut [u8]) {
                    stream.read(buf);
                }
            }
        ";
        let report = scan_sources([("rw.rs", src)]);
        let nested: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == Rule::NestedLock)
            .collect();
        assert_eq!(nested.len(), 2, "{:#?}", report.violations);
        // stream.read(buf) is not an acquisition: args are non-empty
        // and `stream` is not a declared rwlock.
        assert_eq!(report.lock_sites, 4);
    }
}
