#!/usr/bin/env bash
# Determinism lint: greps for constructs that can smuggle nondeterminism
# into the deterministic core — wall-clock reads and hash-ordered
# collections in the schedule/serve/recovery/analysis hot paths.
#
# The simulator's contract is byte-identical output for a given seed at
# any worker count (PIMNET_THREADS). Wall-clock time and HashMap/HashSet
# *iteration order* both break that silently, so every use must either
# live in the benchmarking crate (whose whole point is wall time) or be
# on the audited allowlist below with a reason.
#
# Run from the repository root: scripts/determinism_lint.sh

set -u
cd "$(dirname "$0")/.."

fail=0

# ---------------------------------------------------------------------
# 1. Wall-clock reads are banned outside crates/bench (timing harnesses)
#    and target/. Simulated time comes from SimTime/the timing model.
# ---------------------------------------------------------------------
clock_hits=$(grep -rn --include='*.rs' -E 'Instant::now|SystemTime' \
    crates/arch crates/cli crates/core crates/faults crates/noc \
    crates/sim crates/workloads src 2>/dev/null)
if [ -n "$clock_hits" ]; then
    echo "FAIL: wall-clock reads in deterministic crates (only crates/bench may time walls):"
    echo "$clock_hits"
    fail=1
fi

# ---------------------------------------------------------------------
# 2. HashMap/HashSet in the hot paths (schedule construction/repair/
#    cache, serving, recovery, resilience, analysis) must be on the
#    audited allowlist. Audited means: the collection is used for
#    membership, counting, or keyed lookup only — its iteration order
#    never reaches any output, diagnostic, or schedule. Anything
#    order-visible must use BTreeMap/BTreeSet or sorted Vecs (see the
#    structural pass's P009 usage map and the hazard pass's per-node
#    maps, which were converted for exactly this reason).
# ---------------------------------------------------------------------
allowlist=(
    # Membership tests for claimed resources / conflict detection; the
    # reroute order itself follows the schedule's own transfer order.
    "crates/core/src/schedule/repair.rs"
    # Process-global cache tables: keyed get/insert only, never iterated;
    # outputs are the cached values, which are deterministic by build.
    "crates/core/src/schedule/cache.rs"
    # Per-step usage/count maps used for membership and len() only; the
    # validator walks transfers in schedule order and stops at the first
    # violation it meets in that order.
    "crates/core/src/schedule/validate.rs"
    # P009 flow sets: HashSet used for dedup + len(); the emission loop
    # iterates the enclosing BTreeMap, never the set.
    "crates/core/src/analysis/structural.rs"
    # Per-link busy tallies: the map is iterated, but only into
    # commutative integer sums (per-tier totals and a max), so iteration
    # order cannot reach the output. The boost planner's per-class facts
    # use BTreeMap instead because its busiest-resource *selection* is
    # order-visible on ties.
    "crates/core/src/timeline.rs"
)

hot_paths=(
    crates/core/src/schedule
    crates/core/src/analysis
    crates/core/src/serve.rs
    crates/core/src/recovery.rs
    crates/core/src/resilience.rs
    # The flat SoA layout (schedule/soa.rs) and the boost planner
    # (schedule/boost.rs) are covered by the schedule directory above;
    # the calendar-queue event core must stay hash-free too — bucket
    # drain order is FIFO-within-priority by contract.
    crates/sim/src/engine.rs
    crates/core/src/timeline.rs
)

hash_files=$(grep -rl --include='*.rs' -E 'HashMap|HashSet' "${hot_paths[@]}" 2>/dev/null | sort)
for f in $hash_files; do
    allowed=0
    for a in "${allowlist[@]}"; do
        if [ "$f" = "$a" ]; then
            allowed=1
            break
        fi
    done
    if [ "$allowed" -eq 0 ]; then
        echo "FAIL: $f uses HashMap/HashSet in a determinism hot path and is not allowlisted."
        echo "      Audit every use (iteration order must not reach any output), then either"
        echo "      switch to BTreeMap/BTreeSet or add the file to scripts/determinism_lint.sh"
        echo "      with a reason."
        fail=1
    fi
done

# Allowlist hygiene: entries must still exist and still use hash
# collections, so stale rows don't mask future regressions.
for a in "${allowlist[@]}"; do
    if [ ! -f "$a" ]; then
        echo "FAIL: allowlisted file $a no longer exists; remove it from the allowlist."
        fail=1
    elif ! grep -qE 'HashMap|HashSet' "$a"; then
        echo "FAIL: allowlisted file $a no longer uses hash collections; remove it from the allowlist."
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "determinism lint: clean (no wall-clock reads outside bench, no unaudited hash collections in hot paths)"
