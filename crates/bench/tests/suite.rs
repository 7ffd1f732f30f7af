//! Whole-suite differential test: every benchmark of the paper's Fig. 3
//! must produce identical results in all four paper modes, the
//! generational baseline, and the reference evaluator (scaled-down
//! workloads), and `gt` and `rgt` must again with a collection scheduled
//! by every page.

use kit::oracle::run_oracle;
use kit::{Compiler, Mode};
use kit_bench::programs::all;
use kit_runtime::RtConfig;

#[test]
fn every_benchmark_agrees_across_all_modes_and_oracle() {
    // Deep stack: the reference evaluator recurses per data constructor,
    // and its debug-mode frames on the larger benchmarks exceed the
    // default test-thread stack.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            for b in all() {
                let src = b.source_scaled(b.test_scale);
                let oracle = run_oracle(&src, Some(2_000_000_000))
                    .unwrap_or_else(|e| panic!("{} oracle: {e}", b.name));
                // Default heap in every mode; then `gt` and `rgt` with a
                // collection scheduled by every page taken, so every
                // program collects and every debug collection checks the
                // heap it leaves. `zebra` and `lexgen` agree too, but at
                // 1.0 their `rgt` runs take 130 140 and 20 949
                // collections: 254 s and 42 s in a debug build (17 s and
                // 3 s in release, on a 2-vCPU host).
                let pressure = RtConfig {
                    gc_threshold: 1.0,
                    ..RtConfig::rgt()
                };
                let mut runs: Vec<_> = Mode::ALL_WITH_BASELINE
                    .iter()
                    .map(|&m| (m, "default heap", Compiler::new(m)))
                    .collect();
                if !["zebra", "lexgen"].contains(&b.name) {
                    for m in [Mode::Gt, Mode::Rgt] {
                        let c = Compiler::new(m).with_config(pressure.clone());
                        runs.push((m, "threshold 1.0", c));
                    }
                }
                for (mode, at, compiler) in runs {
                    let out = compiler
                        .run_source(&src)
                        .unwrap_or_else(|e| panic!("{} [{mode}, {at}]: {e}", b.name));
                    assert_eq!(
                        out.result, oracle.result,
                        "{} [{mode}, {at}]: result mismatch",
                        b.name
                    );
                    assert_eq!(
                        out.output, oracle.output,
                        "{} [{mode}, {at}]: output mismatch",
                        b.name
                    );
                }
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn region_modes_reduce_collections() {
    // The paper's headline (Table 2): enabling region inference
    // dramatically reduces the number of collections. Check the aggregate
    // over the suite at test scale with a small heap so `gt` must collect.
    let cfg_of = |mode: Mode| kit_runtime::RtConfig {
        initial_pages: 16,
        ..match mode {
            Mode::Gt => kit_runtime::RtConfig::gt(),
            _ => kit_runtime::RtConfig::rgt(),
        }
    };
    let mut gc_gt = 0;
    let mut gc_rgt = 0;
    for b in all() {
        let src = b.source_scaled(b.test_scale);
        for mode in [Mode::Gt, Mode::Rgt] {
            let out = Compiler::new(mode)
                .with_config(cfg_of(mode))
                .run_source(&src)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", b.name));
            match mode {
                Mode::Gt => gc_gt += out.stats.gc_count,
                _ => gc_rgt += out.stats.gc_count,
            }
        }
    }
    assert!(
        gc_rgt * 2 <= gc_gt,
        "regions should at least halve collections: gt {gc_gt} vs rgt {gc_rgt}"
    );
}

#[test]
fn untagged_mode_uses_less_memory_than_tagged() {
    // Table 1's memory shape: m_r <= m_rt for allocation-heavy programs.
    for name in ["msort", "tyan", "kitlife"] {
        let b = kit_bench::by_name(name).unwrap();
        let src = b.source_scaled(b.test_scale);
        let r = Compiler::new(Mode::R).run_source(&src).unwrap();
        let rt = Compiler::new(Mode::Rt).run_source(&src).unwrap();
        assert!(
            r.stats.words_allocated < rt.stats.words_allocated,
            "{name}: untagged should allocate fewer words ({} vs {})",
            r.stats.words_allocated,
            rt.stats.words_allocated
        );
    }
}
