//! The paper's §2.6 example: a closure captures a list it never reads.
//!
//! Under pure region inference (`r` mode) the list's region is popped
//! before the closure is applied — a *safe* dangling pointer, legal
//! exactly because the program never dereferences it. With the collector
//! enabled (`rgt`) region inference is weakened so the captured list
//! lives at least as long as the closure; otherwise the collector would
//! trace a dangling pointer. The last run gives `rgt` a heap of four
//! 64-word pages, small enough that it collects.
//!
//! ```sh
//! cargo run --example dangling
//! ```

use kit::{Compiler, Mode};
use kit_bench::programs::DANGLING_CLOSURE;
use kit_runtime::RtConfig;

fn main() -> Result<(), kit::Error> {
    let pressured = RtConfig {
        gc_threshold: 1.0,
        initial_pages: 4,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let runs = [
        ("r", Compiler::new(Mode::R)),
        ("rgt", Compiler::new(Mode::Rgt)),
        (
            "rgt, 4 pages",
            Compiler::new(Mode::Rgt).with_config(pressured),
        ),
    ];
    for (name, compiler) in runs {
        let out = compiler.run_source(DANGLING_CLOSURE)?;
        println!(
            "{name:<12} result {}  (regions created {}, popped {}, collections {})",
            out.result, out.stats.regions_created, out.stats.regions_popped, out.stats.gc_count
        );
    }
    println!(
        "\nEvery run prints 22. In `r` the list's region is popped before `h 5`\n\
         runs (f ignores the list), so `h` holds a dangling pointer it never\n\
         follows; in `rgt` the §2.6 weakening makes that region global\n\
         (popped 0), so a collection never meets a dangling pointer."
    );
    Ok(())
}
