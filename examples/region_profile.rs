//! Region profiling (paper §3 and Fig. 5): runs the Knuth-Bendix-style
//! benchmark and prints, per collection, the words held by the largest
//! regions, read off the collection's `GcRecord`.
//!
//! ```sh
//! cargo run --release --example region_profile
//! ```

use kit::{Compiler, Mode};
use kit_bench::by_name;
use kit_runtime::stats::regions_by_peak;
use kit_runtime::RtConfig;

fn main() -> Result<(), kit::Error> {
    let bench = by_name("kitkb").expect("kitkb benchmark");
    let src = bench.source_scaled(30);
    let cfg = RtConfig {
        initial_pages: 16,
        ..RtConfig::rgt()
    };
    let out = Compiler::new(Mode::Rgt).with_config(cfg).run_source(&src)?;

    println!(
        "kitkb finished: result {}, {} collections",
        out.result, out.stats.gc_count
    );
    // Rank regions by peak footprint, like the ML Kit profiler's legend.
    let records = &out.stats.gc_records;
    let mut top = regions_by_peak(records);
    top.truncate(4);

    println!(
        "\nper-collection words in the {} largest regions:",
        top.len()
    );
    print!("{:>7}", "gc#");
    for (r, _) in &top {
        print!("{:>12}", format!("r{r}"));
    }
    println!();
    for (i, rec) in records.iter().enumerate() {
        print!("{:>7}", i + 1);
        for (r, _) in &top {
            print!("{:>12}", rec.region_words.get(r).copied().unwrap_or(0));
        }
        println!();
    }
    println!(
        "\n(the global region would grow without bound under pure region\n\
         inference for this program; the collector keeps it in check — the\n\
         paper's Fig. 5 observation)"
    );
    Ok(())
}
