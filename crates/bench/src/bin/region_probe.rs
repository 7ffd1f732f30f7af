//! Diagnostic probe for one benchmark: peak words by region (default),
//! or — with a leading `gc` argument — a quick collector A/B over
//! worker counts {1, 2, 4, 8} printing #GC, collection time, bytes
//! copied, max pause and wall time.
//!
//! Usage: `cargo run -p kit-bench --release --bin region_probe --
//!         [gc] [program] [scale]`
use kit::{Compiler, Mode};
use kit_bench::programs::by_name;
use kit_runtime::RtConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("gc") {
        return gc_ab(&args[2..]);
    }
    let name = args.get(1).cloned().unwrap_or_else(|| "churn".into());
    let scale = args.get(2).and_then(|s| s.parse::<i64>().ok()).unwrap_or(0);
    let b = by_name(&name).unwrap();
    let scale = if scale == 0 { b.default_scale } else { scale };
    let src = b.source_scaled(scale);
    let c = Compiler::new(Mode::Rgt).with_profiling();
    let out = c.run_source(&src).unwrap();
    let mut peak: std::collections::BTreeMap<u32, u64> = Default::default();
    for s in &out.profile {
        for (&r, &w) in &s.by_region {
            let e = peak.entry(r).or_default();
            *e = (*e).max(w);
        }
    }
    let mut v: Vec<_> = peak.iter().collect();
    v.sort_by_key(|(_, w)| std::cmp::Reverse(**w));
    println!("{name} scale {scale} peak words by region:");
    for (r, w) in v.iter().take(12) {
        println!("  region {r}: {w} words");
    }
}

fn gc_ab(args: &[String]) {
    let name = args.first().cloned().unwrap_or_else(|| "churn".into());
    let scale = args.get(1).and_then(|s| s.parse::<i64>().ok()).unwrap_or(0);
    let b = by_name(&name).unwrap();
    let scale = if scale == 0 { b.default_scale } else { scale };
    let src = b.source_scaled(scale);
    for workers in [1usize, 2, 4, 8] {
        let cfg = RtConfig {
            gc_workers: workers,
            ..RtConfig::default()
        };
        let c = Compiler::new(Mode::Rgt).with_config(cfg);
        let out = c.run_source(&src).unwrap();
        println!(
            "workers={workers}: #GC {:<3} gc {:>8.3}ms  copied {:>10}B  \
             max pause {:>8.3}ms  wall {:>8.3}ms",
            out.stats.gc_count,
            out.stats.gc_time_ns as f64 / 1e6,
            out.stats.gc_copied_words * 8,
            out.stats.gc_pause_max_ns as f64 / 1e6,
            out.wall.as_secs_f64() * 1e3,
        );
    }
}
