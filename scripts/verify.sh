#!/usr/bin/env bash
# Tier-1 verification gate (offline; no network access needed):
# formatting, lints as errors, release build, and the full test suite.
# Run from the repo root: ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> every crate's tests build in release too (no test helper hides"
echo "    behind debug_assertions)"
cargo test --release --workspace --no-run -q

echo "==> fusion equivalence (Off = Full on every counter) over the corpus,"
echo "    five modes (release)"
cargo test --release -p kit-bench --test fusion -q

echo "==> randomized differential: generated programs agree with the"
echo "    evaluator, and Off = Full on every counter (release)"
cargo test --release -p kit-bench --test randomized -q

echo "==> GC-root regressions in release too (debug trips the dangling-root"
echo "    check, release the collector itself): raise handled in the frame"
echo "    that owns the letregion, dead heap cells pointing into popped frames"
cargo test --release -p kit-bench --test regressions -q

echo "==> pay for what you use (Tier-1 leg, release): empty program <= 16"
echo "    instructions, a program keeps exactly the prelude it reaches"
cargo test --release --test pay_for_use -q

echo "==> compile-output identity: corpus x modes + 200 generated programs"
echo "    disassemble to the recorded bytecode, region programs equal up"
echo "    to renaming (release)"
cargo test --release -p kit-bench --test compile_identity -q

echo "==> collector tests: full and generational (release)"
cargo test --release -p kit-runtime -q gc

echo "==> soak: short config-fuzzing run (all modes; the evaluator, and"
echo "    Off = Full; page size, heap sizing, trigger and heap-to-live ratio"
echo "    fuzzed)"
cargo run --release -p kit-bench --bin soak -- --cases 25 --seed 0x5EED0400

echo "==> soak: full-surface generator (datatypes, arrays (large objects),"
echo "    strings, reals, refs, nested handlers;"
echo "    all modes; the evaluator, and Off = Full; fuzzed configuration)"
cargo run --release -p kit-bench --bin soak -- \
    --cases 25 --seed 0x5EED0800 --surface full

echo "==> one measuring instrument: no time or rate field outside benchmark/"
echo "    (times come from benchmark/run.sh, counts from bench-summary)"
if grep -rnE 'instructions_per_sec|"rps"|p50_ms|p99_ms|mean_ms' crates/; then
    echo "verify: a time or rate field is back under crates/ (see above)" >&2
    exit 1
fi

echo "==> deleted names stay deleted: the sliced collector, its barriers, its"
echo "    flag and the pause histogram (PR 20); the region-handle pools beside"
echo "    the stack and the frame and handler fields indexing them (PR 21); the"
echo "    linked copy of the instruction set and the label tables it read (PR 23)"
if grep -rnE 'gc_slice|gc_sliced|sliced_active|gc_write_barrier|note_stack_trunc|PauseHist|gc-compare|formal_pool|region_pool|fbase|rbase|formal_pool_len|region_pool_len|LInstr|LinkedProgram|link_one|disassemble_linked|label_addrs|entry_of' \
    crates src tests examples scripts | grep -v 'scripts/verify.sh:.*grep -rnE'; then
    echo "verify: a name deleted in PR 20, 21 or 23 is back (see above)" >&2
    exit 1
fi
echo "==> deleted names stay deleted, as whole words: the two unused"
echo "    pretty-printers and the expression parser only they used, the orphan"
echo "    helpers, the region probe bin, the options nobody set (shed policy"
echo "    included) and the unread in-flight gauge"
if grep -rnE '\b(kit_syntax::pretty|kit_lambda::pretty|parse_exp|points_into_stack|used_pages|is_unboxed|nullary_count|region_probe|large_object_words|without_optimizer|ShedPolicy|RejectNewest|shed_policy|shed-policy|in_flight)\b' \
    crates src tests examples scripts | grep -v 'scripts/verify.sh:.*grep -rnE'; then
    echo "verify: a deleted name is back (see above)" >&2
    exit 1
fi
echo "==> deleted names stay deleted, as whole words: the re-walks of region"
echo "    placement, representation inference and finite-region sizing, the"
echo "    unread multiplicity table, codegen's second free-name walker and the"
echo "    optimiser options only tests set; the boxed-type tree walkers the"
echo "    type arena replaced and the row scans the match compiler's buckets"
echo "    replaced; the second collection sequence, the two collector flags"
echo "    and the region-inference debug dump with its env var; codegen's"
echo "    per-closure capture re-walks and the boxed region-program tree's"
echo "    helpers the region arena replaced"
if grep -rnwE 'under_lambda_rel|collect_mults|find_finite_site|count_caps_upper|free_names|max_rounds|inline_size|subst_qvars|resolve_deep|keys_of|default_rows|spine_end|KIT_REGION_DEBUG|show_ty|collect_generational|collect_phase|collect_gen|gc_enabled|collect_caps|distinct_free|size_sites|finite_sizes|fix_binds|own_places|map_own_regions|count_occurrences|drop_markers' \
    crates || grep -rnw 'mults' crates/region; then
    echo "verify: a deleted name is back (see above)" >&2
    exit 1
fi
echo "==> deleted names stay deleted, as whole words: the match loop, what"
echo "    selected it (the dispatch list, the loadgen flag, the count config)"
echo "    and the superinstruction that fused nowhere"
if grep -rnwE 'exec_match|match_off|Executable::Match|DispatchMode::Match|DispatchMode::ALL|h_select_store|--dispatch' \
    crates src tests examples scripts | grep -v 'scripts/verify.sh:.*grep -rnwE'; then
    echo "verify: a deleted name is back (see above)" >&2
    exit 1
fi
echo "==> the VM does not know which collector runs: crates/kam/src names no"
echo "    generational policy, remembered set or generational branch"
if grep -rnwE 'GenPolicy|remembered|generational' crates/kam/src; then
    echo "verify: collector policy is back in the VM (see above)" >&2
    exit 1
fi

echo "==> doc rot: every repo path README.md and DESIGN.md name exists, and"
echo "    every backticked Type::item there is in the code (a line naming"
echo "    the PR that removed it is exempt)"
rot=0
for p in $(grep -ohE '(^|[^A-Za-z0-9_/.~-])(crates|scripts|examples|benchmark|tests|src)/[A-Za-z0-9_./*-]*' \
    README.md DESIGN.md | sed -E 's/^[^a-z]//; s/[.,:]+$//' | sort -u); do
    compgen -G "$p" >/dev/null || { echo "doc rot: $p does not exist" >&2; rot=1; }
done
in_code() { grep -rqw --include='*.rs' -e "$1" crates src tests examples benchmark; }
while IFS=: read -r file line text; do
    for ref in $(grep -oE '`[A-Z][A-Za-z0-9_]*::(\{[^}`]*\}?|[A-Za-z_][A-Za-z0-9_]*)' <<<"$text" |
        sed -E 's/[`{}]//g; s/::/ /; s/,//g' | tr ' ' ':'); do
        ty=${ref%%:*}
        for item in $(tr ':' ' ' <<<"${ref#*:}"); do
            in_code "$ty" && in_code "$item" ||
                { echo "doc rot: $file:$line: $ty::$item is not in the code" >&2; rot=1; }
        done
    done
done < <(grep -nE '`[A-Z][A-Za-z0-9_]*::' README.md DESIGN.md | grep -vE '\bPRs? ?[0-9]+')
[ "$rot" = 0 ] || { echo "verify: README.md/DESIGN.md name what is not there (see above)" >&2; exit 1; }

echo "==> bench-summary --profile-fusion (fib, msort): exits 0, and every"
echo "    uncovered-candidate row is '<count>  Op;Op[;Op]'"
cargo run --release -q -p kit-bench --bin bench-summary -- \
    --profile-fusion --only fib,msort 2>/dev/null |
    awk '/^== uncovered/ { tail = 1; next }
         tail && NF && !/^ +[0-9]+  [A-Za-z]+(;[A-Za-z]+)(;[A-Za-z]+)?$/ { print "malformed: " $0; bad = 1 }
         tail && NF { rows++ }
         END { exit bad || !rows }'

echo "==> bench-summary count check: instructions, words allocated, #GC and"
echo "    bytes copied of the 80 full-scale cells of BENCH_PR32.json in r, gt,"
echo "    rgt and the generational baseline, both fusion levels; writes"
echo "    nothing (a PR that moves them on purpose points this at its own"
echo "    BENCH file)"
cargo run --release -p kit-bench --bin bench-summary -- \
    --full --modes r,gt,rgt,smlnj \
    --only dlx,fib,tak,kitlife,machine,accum,msort,churn,lexgen,book \
    --check-counts BENCH_PR32.json

echo "==> bench_output/ holds what the tree prints: the paper's four tables,"
echo "    Figs. 4 and 5 and the bootstrap run, regenerated and diffed"
for b in table1 table2 table3 table4 fig4 fig5 bootstrap; do
    cargo run --release -q -p kit-bench --bin "$b" | diff -u "bench_output/$b.txt" - ||
        { echo "verify: bench_output/$b.txt is stale (see above)" >&2; exit 1; }
done

echo "==> kit-serve smoke: 64-session burst, mixed fuel/memory-quota"
echo "    outcomes, every served counter bit-identical to standalone"
cargo run --release -p kit-bench --bin loadgen -- \
    --sessions 64 --conns 8 --requests 256 --workers 4 \
    --mix 'fib:12,fib:12:fuel=1000,churn:10:pages=4' --check

echo "==> kit-serve chaos smoke: slowloris, mid-frame disconnects,"
echo "    malformed frames, stalled readers and connection churn next to"
echo "    a healthy mix; post-chaos burst must be exact, no worker/cache/"
echo "    connection leaks"
cargo run --release -p kit-bench --bin loadgen -- \
    --sessions 64 --conns 8 --requests 512 --workers 4 \
    --mix 'fib:12,churn:10' --chaos --chaos-secs 3 --check

echo "==> kit-serve flood + drain-under-load: 4x-capacity flood into a"
echo "    tiny queue sheds typed Overloaded while executed work stays"
echo "    bit-identical (serve test suite, release)"
cargo test --release -p kit-serve -q flood
cargo test --release -p kit-serve -q drain

echo "==> kit-serve: a program nested past the compiler's limits (2 000"
echo "    declarations, 20 000 parentheses, 1 000 wide pattern declarations)"
echo "    is a typed refusal, in release too"
cargo test --release -p kit-serve -q nested

echo "==> repo benchmark (BENCHMARK.json): its own tests, then every"
echo "    workload for 2 s untraced plus one traced run (exit status only),"
echo "    so a crate change that breaks its build fails here"
(cd benchmark && cargo test --offline -q)
benchmark/run.sh --smoke

echo "verify: wall ${SECONDS} s"
echo "verify: OK"
