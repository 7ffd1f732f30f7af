//! Regenerates the count table (see kit-bench docs). Pass `--quick` for
//! the scaled-down test workload.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    print!("{}", kit_bench::tables::counts(quick));
}
