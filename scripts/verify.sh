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

echo "==> the corpus through the one differential harness: every program in"
echo "    five modes (gt and rgt again at gc_threshold 1.0) agrees with the"
echo "    evaluator, and Off = Full on every counter (release)"
cargo test --release -p kit-bench --test corpus -q

echo "==> randomized differential: generated programs agree with the"
echo "    evaluator, and Off = Full on every counter (release)"
cargo test --release -p kit-bench --test randomized -q

echo "==> GC-root regressions in release too (the collector's own checks"
echo "    trip in both builds; a debug build also poisons freed pages): raise"
echo "    handled in the frame that owns the letregion, dead heap cells"
echo "    pointing into popped frames"
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
echo "    (times come from benchmark/run.sh, counts from bench_output/counts.txt)"
if grep -rnE 'instructions_per_sec|"rps"|p50_ms|p99_ms|mean_ms' crates/; then
    echo "verify: a time or rate field is back under crates/ (see above)" >&2
    exit 1
fi

echo "==> deleted names stay deleted: one row per deletion, each with its"
echo "    mode (E: substring, w: whole words), the paths it greps and what is"
echo "    back if it matches (the pattern comes last, so it may hold any text)"
while IFS=';' read -r mode paths what pattern; do
    flags=-rnE
    [ "$mode" = w ] && flags=-rnwE
    # $paths is unquoted on purpose: it is a list of paths.
    if grep $flags -e "$pattern" $paths | grep -v '^scripts/verify.sh:[0-9]*:[Ew];'; then
        echo "verify: $what is back (see above)" >&2
        exit 1
    fi
done <<'ROWS'
E;crates src tests examples scripts;the sliced collector, its barriers, its flag or the pause histogram, a region-handle pool beside the stack, or the linked copy of the instruction set and its label tables;gc_slice|gc_sliced|sliced_active|gc_write_barrier|note_stack_trunc|PauseHist|gc-compare|formal_pool|region_pool|fbase|rbase|formal_pool_len|region_pool_len|LInstr|LinkedProgram|link_one|disassemble_linked|label_addrs|entry_of
E;crates src tests examples scripts;an unused pretty-printer, the expression parser only they used, an orphan helper, the region probe bin, an option nobody set (shed policy included) or the unread in-flight gauge;\b(kit_syntax::pretty|kit_lambda::pretty|parse_exp|points_into_stack|used_pages|is_unboxed|nullary_count|region_probe|large_object_words|without_optimizer|ShedPolicy|RejectNewest|shed_policy|shed-policy|in_flight)\b
w;crates;a re-walk of region placement, representation inference or finite-region sizing, codegen's second free-name walker, an optimiser option only tests set, a boxed-type tree walker, a match-compiler row scan, the second collection sequence or a collector flag, the region-inference debug dump, a per-closure capture re-walk or a boxed region-tree helper;under_lambda_rel|collect_mults|find_finite_site|count_caps_upper|free_names|max_rounds|inline_size|subst_qvars|resolve_deep|keys_of|default_rows|spine_end|KIT_REGION_DEBUG|show_ty|collect_generational|collect_phase|collect_gen|gc_enabled|collect_caps|distinct_free|size_sites|finite_sizes|fix_binds|own_places|map_own_regions|count_occurrences|drop_markers
w;crates/region;the unread multiplicity table;mults
w;crates src tests examples scripts;the match loop, what selected it (the dispatch list, the loadgen flag, the count config) or the superinstruction that fused nowhere;exec_match|match_off|Executable::Match|DispatchMode::Match|DispatchMode::ALL|h_select_store|--dispatch
E;crates src tests examples scripts;the poison knob (a debug build poisons every freed page) or the VM's root pre-scan;config\.poison|poison: (true|false)|dangling GC root
w;crates src tests examples scripts;a codegen slot clear or a letregion counter that placed one (the roots come from the frame map);clear_dead_slot|clear_slot|open_lr|lr_seen
w;crates src tests examples scripts;the heap shrink, the free-list sort or arena-tail release that served it, or their counters (the heap only grows);heap_shrink_factor|shrink_with_hysteresis|release_tail|quota_reclaim|sort_free_list|sort_skips|heap_shrinks|pages_released
w;crates src tests examples scripts;an integer fast path beside the one helper, or an out-of-line reader of the stack case (prims and finite-region reads run in the handlers);fast_int_cmp|fast_int_arith|read_addr_outside_heap|write_addr_outside_heap
w;crates src tests examples scripts;a second encoding of the instruction set (the instruction enum the compiler emitted, its re-encoding or the second disassembler);Instr|push_instr|disassemble_threaded|Op::of
w;crates src tests examples scripts;a hand-written copy of the differential, a second deep-stack wrapper or the relative deadline (one harness, kit_bench::differential; with_deadline_at is the one deadline);check_on_current_thread|assert_matches_oracle_everywhere|on_big_stack|with_deep_stack|with_deadline
w;crates src tests examples scripts;the greedy matcher, a pair/triple profile matrix or a fusion row the dispatch-saving selection dropped;match_at|hot_pairs|hot_triples|packs|StoreLoadSelect|LoadPrimJump|StoreLoad|PrimJump|GcCheckLoad|RegHandleRegHandle|SelectStoreLoad|RegHandleRegHandleLoad
w;crates src tests examples scripts;the second region recorder, the second heap check, the baseline's second compile-and-run path or the tables' copy of the outcome (each collection is recorded in its GcRecord and checked by Rt::check_heap);Profiler|Sample|with_profiling|check_epilogue|check_page_conservation|compile_baseline|run_baseline|run_baseline_with|run_scaled|MeasuredRun
E;crates src tests examples scripts;the region profiler's module, its knob or the outcome's copy of its samples (the profile is GcRecord::region_words);kit_runtime::profile|profile\.rs|config\.profile\b|\.profiler\b|(out|outcome)\.profile\b
w;crates src tests examples scripts;the count JSON's reader, its gate and its flag, its environment block or its two fusion configs (the counts are bench_output/counts.txt, diffed);read_runs|check_counts|env_json|threaded_off|threaded_full|check-counts
ROWS
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

echo "==> bench-summary --check-fusion: the committed FUSION_CANDIDATES are"
echo "    the rows the selection takes on the paper-scale corpus, and every one"
echo "    is dispatched there"
cargo run --release -q -p kit-bench --bin bench-summary -- --check-fusion >/dev/null

echo "==> bench_output/ holds what the tree prints: the paper's four tables,"
echo "    Figs. 4 and 5, the bootstrap run and the counts of every benchmark"
echo "    in every mode (each cell held equal at both fusion levels on every"
echo "    counter), regenerated and diffed"
for b in table1 table2 table3 table4 fig4 fig5 bootstrap counts; do
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
