//! What the `loadgen` binary and the root `tests/serve.rs` share for
//! driving the multi-tenant server (`kit-serve`): the mix syntax and the
//! count report of one load run. No times — those are the repo
//! benchmark's (`benchmark/`).

use crate::programs::by_name;
use kit::Mode;
use kit_serve::load::{LoadProgram, LoadReport, LoadSpec};

/// The default serve mix: the paper benchmarks scaled so one request
/// costs on the order of a millisecond — a multi-tenant service's
/// request, not a batch job. `name:scale` entries as accepted by
/// [`parse_mix`].
pub const DEFAULT_MIX: &str = "fib:12,tak:4,churn:10,interp:30,book:60";

/// Parses a mix spec: comma-separated
/// `name[:scale][:fuel=N][:pages=N][:deadline=MS][:tenant=ID]` entries
/// over the Fig. 3 benchmark set. A bare number annotation is the scale;
/// `fuel=`/`pages=` set per-request quotas, `deadline=` a wall-clock
/// budget in milliseconds, and `tenant=` the tenant id the entry's
/// requests are attributed to (for rate-limit and fair-shed runs).
///
/// # Errors
///
/// Returns a message naming the offending entry.
pub fn parse_mix(spec: &str, mode: Mode) -> Result<Vec<LoadProgram>, String> {
    let mut mix = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let mut parts = entry.split(':');
        let name = parts.next().expect("split yields at least one part");
        let bench = by_name(name).ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        let mut scale = bench.test_scale;
        let mut fuel = None;
        let mut pages = None;
        let mut deadline_ms = None;
        let mut tenant = String::new();
        for part in parts {
            if let Some(v) = part.strip_prefix("fuel=") {
                fuel = Some(v.parse().map_err(|_| format!("{entry}: bad fuel {v:?}"))?);
            } else if let Some(v) = part.strip_prefix("pages=") {
                pages = Some(v.parse().map_err(|_| format!("{entry}: bad pages {v:?}"))?);
            } else if let Some(v) = part.strip_prefix("deadline=") {
                deadline_ms = Some(
                    v.parse()
                        .map_err(|_| format!("{entry}: bad deadline {v:?}"))?,
                );
            } else if let Some(v) = part.strip_prefix("tenant=") {
                tenant = v.to_string();
            } else {
                scale = part
                    .parse()
                    .map_err(|_| format!("{entry}: bad scale {part:?}"))?;
            }
        }
        mix.push(LoadProgram {
            name: entry.to_string(),
            mode,
            fuel,
            max_heap_pages: pages,
            deadline_ms,
            tenant,
            src: bench.source_scaled(scale),
        });
    }
    if mix.is_empty() {
        return Err("empty mix".to_string());
    }
    Ok(mix)
}

/// Prints the counts of one load run.
pub fn print_report(label: &str, spec: &LoadSpec, workers: usize, report: &LoadReport) {
    eprintln!(
        "{label:<12} {:>6} sessions {:>4} conns {workers:>4} workers {:>7} reqs answered: \
         {} shed, {} rate-limited, {} deadline-exceeded, queue depth p99 {}",
        spec.sessions,
        spec.conns,
        report.requests,
        report.shed,
        report.rate_limited,
        report.deadline_exceeded,
        report.queue_depth_p99,
    );
    for p in &report.per_program {
        eprintln!(
            "    {:<22} {:>6} reqs  {:?}  {:>10} instr  {:>3} gcs  {:>9} B peak{}",
            p.name,
            p.requests,
            p.status,
            p.instructions,
            p.gc_count,
            p.peak_bytes,
            if p.shed + p.rate_limited + p.deadline_exceeded > 0 {
                format!(
                    "  ({} shed, {} limited, {} deadline)",
                    p.shed, p.rate_limited, p.deadline_exceeded
                )
            } else {
                String::new()
            },
        );
    }
}
