#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verification suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> repo hygiene: no tracked file over 1 MB, no stray tracked root-level file"
# Scratch output must not ride along with a PR (PR 14 committed a 9.8 MB
# simulator CSV at the root by accident). A new root-level file is a
# deliberate act: add it to this list. A PR's recorded perf trajectory,
# BENCH_<pr>.json, is allowed by pattern.
root_allow=" .gitignore BENCHMARK.json CHANGELOG.md CHANGES.md Cargo.lock Cargo.toml \
clippy.toml DESIGN.md EXPERIMENTS.md ISSUE.md LICENSE-APACHE LICENSE-MIT PAPER.md PAPERS.md \
README.md ROADMAP.md SNIPPETS.md ci.sh repro_all_output.txt "
hygiene=0
while IFS= read -r -d '' f; do
    # Deleted in the working tree but not yet staged: nothing to measure.
    [ -e "$f" ] || continue
    if [ "$(wc -c < "$f")" -gt 1048576 ]; then
        echo "tracked file over 1 MB: $f" >&2
        hygiene=1
    fi
    if [[ "$f" != */* && "$root_allow" != *" $f "* && "$f" != BENCH_[0-9]*.json ]]; then
        echo "tracked root-level file not on the allowlist: $f" >&2
        hygiene=1
    fi
done < <(git ls-files -z)
[ "$hygiene" -eq 0 ]

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
# The eight runtime crates deny panics, naked float comparisons,
# clippy.toml's unbounded channel constructors and silent #[allow]s at
# their crate roots; each justified site carries #[expect(…, reason)],
# and a fixed site fails here as an unfulfilled expectation.
# Dev-profile clippy compiles the debug-only leaf check in gridwatch-sync
# (its fail-stop panic! and the #[expect] on it) too.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> runtime lint policy: one identical deny block per runtime crate root"
# The crate roots are the single source of the lint list: the runtime
# crates are those whose lib.rs carries `#![cfg_attr(not(test), deny(…))]`,
# and every such block must match the first one word for word.
lint_block() { awk '/^#!\[cfg_attr\($/ { on = 1 } on { print } on && /^\)\]$/ { exit }' "$1"; }
mapfile -t lint_roots < <(grep -lzP '#!\[cfg_attr\(\s*not\(test\),\s*deny\(' crates/*/src/lib.rs)
for root in "${lint_roots[@]}"; do
    if [ "$(lint_block "$root")" != "$(lint_block "${lint_roots[0]}")" ]; then
        echo "lint block in $root differs from ${lint_roots[0]}" >&2
        exit 1
    fi
done

echo "==> justified lint sites: #[expect(clippy::…)] per lint in the runtime crates"
grep -rhoE 'expect\(clippy::[a-z_]+' "${lint_roots[@]%/lib.rs}" \
    | sed 's/expect(clippy:://' | sort | uniq -c \
    | awk -v crates="${#lint_roots[@]}" '{ s = s sep $2 " " $1; sep = ", " }
        END { print "lint expectations over " crates " crates: " s " (goal: 0)" }'

echo "==> leaf rule at runtime: nesting, re-locking and blocking under a guard panic first"
cargo test -q -p gridwatch-sync
# The same suite in release: the check must be compiled out there (a
# release-only test locks, nests and blocks under a guard and passes).
cargo test -q --release -p gridwatch-sync

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> every crate's unit tests (lib targets of the whole workspace)"
# The named suites below run only some crates' integration tests; this
# runs the unit tests inside each crate's src/ (timeseries, grid, core,
# detect, store, sim, baselines, eval, audit, cli, ...).
cargo test -q --workspace --lib

echo "==> scoring contract: kernel table, row-memo coherence, persisted-format compatibility, CLI pins"
# Tier-1 covers the facade package (and its paper-literal oracle); these
# are the suites that pin the log-space scorer (table rows bit-equal to
# direct log_weight rows, no underflow ties, never-stale memo, old
# snapshots with removed keys, the committed compat fixtures, the
# workflow's alarm count and fitness floor, unknown flags).
cargo test -q -p gridwatch-core --test log_rank
cargo test -q -p gridwatch-core --test row_cache_coherence
cargo test -q -p gridwatch-audit --test checkpoint_validate
cargo test -q -p gridwatch-cli --test cli

echo "==> the paper's evaluation: repro all (release) equals repro_all_output.txt"
# Every figure, ablation and the scale check, against the committed
# golden. Only the lines that carry wall time or memory are masked,
# each named by section and label: fig13b's three timing rows, and in
# scale the training time, per-snapshot step, per-model update and peak
# resident set rows plus the three checks that quote them (10 lines).
# A masked check keeps its [PASS]/[FAIL]; any [FAIL] fails CI.
mask_timing() {
    awk '
        /^=== / { section = $2; part = "" }
        /^## / { part = $2 }
        section == "fig13" && part == "fig13b:" && match($0, /^ *[0-9.]+-[0-9.]+ /) {
            print substr($0, 1, RLENGTH) "<timing>"; next
        }
        section == "scale" && match($0, /^ *(training time|per-snapshot step \(serial\)|per-model update \(serial\)|peak resident set) /) {
            print substr($0, 1, RLENGTH) "<timing>"; next
        }
        section == "scale" && match($0, /^  \[[A-Z]+\] (a full snapshot across all pairs|per-model update cost|the whole process)/) {
            print substr($0, 1, RLENGTH) " <timing>"; next
        }
        { print }'
}
repro_dir=$(mktemp -d)
repro_status=0
cargo run -q --release -p gridwatch-eval --bin repro -- all --out "$repro_dir" \
    > "$repro_dir/repro_all_output.txt" || repro_status=$?
if grep -n '\[FAIL\]' "$repro_dir/repro_all_output.txt" >&2 || [ "$repro_status" -ne 0 ]; then
    echo "repro all: a shape check failed (exit $repro_status)" >&2
    exit 1
fi
if ! diff <(mask_timing < repro_all_output.txt) \
          <(mask_timing < "$repro_dir/repro_all_output.txt") >&2; then
    echo "repro all differs from repro_all_output.txt beyond the masked timing lines" >&2
    exit 1
fi
rm -rf "$repro_dir"

echo "==> perf ledger: unit tests + 1/50-size smoke of all four workloads"
# Catches a refactor that breaks ledger/src/sut.rs or the report stream
# before the benchmark driver does.
cargo test -q --offline --manifest-path ledger/Cargo.toml

echo "==> tracked size: non-test lines of crates/*/src (ROADMAP aim 2: goes down)"
# Lines before the first #[cfg(test)] that opens a line in each file (a
# mention of the marker inside a comment or string does not count).
find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print "non-test source lines: " n }'

echo "==> every test of the crates that hold locks, leaf check armed (single-threaded)"
# A debug build arms gridwatch-sync's leaf check, so a nested lock, or a
# blocking call under a guard, on any path these tests execute panics
# with its sites. The suites that start servers and workers run under
# `timeout`: a guard held across a blocking call can hang a peer instead
# of failing, and a hang must fail CI rather than stall it. Each bound is
# over 5x the step's time with its test targets compiled (this step: 71 s
# on a 2-vCPU VM; the CLI and crash suites: 1-7 s). This covers the
# observability goldens (exposition format, stats schema, burn, healthz),
# network fault injection and the wire round trip, the multi-process
# shard fabric, the history sink, trace exemplars, and serve's
# equivalence, recovery and sequencing suites.
timeout 600 cargo test -q -p gridwatch-serve -p gridwatch-obs -- --test-threads=1

echo "==> observability overhead gate (disabled tracing + exemplars must be free)"
# Hard-gates both disabled hot paths at <= 15ns/step and prints a
# CI trend line: exemplar posture (retained / dropped / bytes).
cargo bench -q -p gridwatch-bench --bench obs_overhead

echo "==> TCP listener and multi-process fabric end to end (single-threaded, real processes)"
# Under `timeout` like the serve/obs step above: a hang fails CI.
timeout 120 cargo test -q -p gridwatch-cli --test listen -- --test-threads=1
timeout 120 cargo test -q -p gridwatch-cli --test fabric -- --test-threads=1

echo "==> leaf-check overhead gate (release-build LeafMutex must be free)"
cargo bench -q -p gridwatch-bench --bench lockdep_overhead

echo "==> history store: format goldens, corruption corpus, proptests"
cargo test -q -p gridwatch-store --test golden
cargo test -q -p gridwatch-store --test corruption
cargo test -q -p gridwatch-store --test proptests

echo "==> history store: crash consistency (SIGKILL mid-append, real processes)"
timeout 120 cargo test -q -p gridwatch-store --test crash_kill -- --test-threads=1

echo "==> chaos regimes: pinned per-regime goldens + drift pipeline e2e"
cargo test -q -p gridwatch-cli --test chaos

echo "==> drift detector: zero false rebuilds on stationary traces (proptest)"
cargo test -q -p gridwatch-detect --test drift_props

echo "==> scored chaos evaluation smoke (all shape checks must pass)"
cargo run -q --release -p gridwatch-cli -- eval --chaos \
    --machines 2 --max-pairs 10 --days 1

echo "==> drift overhead gate (disabled drift path must be free)"
cargo bench -q -p gridwatch-bench --bench chaos_step

echo "==> trace query + health plane e2e (gridwatch trace, /healthz flip)"
timeout 120 cargo test -q -p gridwatch-cli --test trace -- --test-threads=1

echo "CI OK"
