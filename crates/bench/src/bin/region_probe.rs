//! Diagnostic probe for one benchmark: peak words by region.
//!
//! Usage: `cargo run -p kit-bench --release --bin region_probe --
//!         [program] [scale]`
use kit::{Compiler, Mode};
use kit_bench::programs::by_name;

fn main() {
    let args: Vec<String> = std::env::args().collect();
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
