//! Metrics by name, the result files, and `compare`.

use crate::json::Json;
use crate::layers::Counts;
use crate::stats::{Reading, Summary};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub reading: Reading,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, reading: Reading) -> Metric {
        Metric {
            name,
            unit,
            reading,
        }
    }

    fn to_json(&self) -> Json {
        let r = self.reading;
        Json::obj(vec![
            ("value", Json::Num(r.value)),
            ("unit", Json::str(self.unit)),
            ("n", Json::Num(r.n as f64)),
            ("q1", Json::Num(r.q1)),
            ("q3", Json::Num(r.q3)),
        ])
    }
}

/// Failure bookkeeping: jobs attempted, jobs failed, and the first few
/// reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    const REASONS_KEPT: usize = 8;

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < Tally::REASONS_KEPT {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(Tally::REASONS_KEPT);
    }
}

/// One process's measurements of one workload.
#[derive(Debug)]
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub tally: Tally,
    /// What the result line carries: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Printed and saved, but not part of the result line.
    pub ungated: Vec<Metric>,
    pub jobs: Vec<JobRow>,
    /// Timing guards the run tripped.
    pub guards: Vec<String>,
}

/// One row of the per-job table: a program at one scale in one mode.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    pub label: String,
    pub quiet_ms: f64,
    /// Collector time over the job's whole time.
    pub gc_share: f64,
    /// Exact counts of one run; `None` for a request seen only from outside.
    pub counts: Option<Counts>,
}

impl Run {
    fn failed_share(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one line the driver reads.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(m.reading.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    pub fn print(&self) {
        println!(
            "== {} seed {} window {} s {} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        println!(
            "{:<28} {:>16} {:<8} {:>8} {:>16} {:>16}",
            "metric", "value", "unit", "n", "q1", "q3"
        );
        for m in self.metrics.iter().chain(&self.ungated) {
            let r = m.reading;
            println!(
                "{:<28} {:>16.6} {:<8} {:>8} {:>16.6} {:>16.6}",
                m.name, r.value, m.unit, r.n, r.q1, r.q3
            );
        }
        println!(
            "{:<28} {:>16.6} {:<8} {:>8}",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.tally.attempted
        );
        if !self.jobs.is_empty() {
            println!(
                "{:<22} {:>10} {:>8} {:>12} {:>10} {:>10} {:>6} {:>10}",
                "job",
                "quiet_ms",
                "gc_share",
                "instructions",
                "allocs",
                "regions",
                "gcs",
                "copied_w"
            );
            for j in &self.jobs {
                print!("{:<22} {:>10.4} {:>8.4}", j.label, j.quiet_ms, j.gc_share);
                match j.counts {
                    Some(c) => println!(
                        " {:>12} {:>10} {:>10} {:>6} {:>10}",
                        c.instructions,
                        c.allocations,
                        c.regions_created,
                        c.gc_count,
                        c.gc_copied_words
                    ),
                    None => println!(),
                }
            }
        }
        for f in &self.tally.failures {
            println!("FAILED {f}");
        }
        for g in &self.guards {
            println!("GUARD {g}");
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("window_s", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            (
                "guards",
                Json::Arr(self.guards.iter().map(|g| Json::str(g.as_str())).collect()),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .chain(&self.ungated)
                        .map(|m| (m.name.to_string(), m.to_json()))
                        .collect(),
                ),
            ),
            (
                "jobs",
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|j| {
                            let mut fields = vec![
                                ("job", Json::str(j.label.as_str())),
                                ("quiet_ms", Json::Num(j.quiet_ms)),
                                ("gc_share", Json::Num(j.gc_share)),
                            ];
                            if let Some(c) = j.counts {
                                fields.extend([
                                    ("instructions", Json::Num(c.instructions as f64)),
                                    ("words_allocated", Json::Num(c.words_allocated as f64)),
                                    ("allocations", Json::Num(c.allocations as f64)),
                                    ("regions_created", Json::Num(c.regions_created as f64)),
                                    ("gc_count", Json::Num(c.gc_count as f64)),
                                    ("gc_copied_words", Json::Num(c.gc_copied_words as f64)),
                                    ("peak_bytes", Json::Num(c.peak_bytes as f64)),
                                ]);
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
pub fn environment(dir: &Path) -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let dir_arg = dir.to_string_lossy();
    Json::obj(vec![
        (
            "git_commit",
            Json::str(command_line("git", &["-C", &dir_arg, "rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("cpu", Json::str(cpu)),
    ])
}

/// `out/<workload>.json` for untraced runs, `out/<workload>.traced.json`
/// for traced ones.
pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(if traced {
        format!("{workload}.traced.json")
    } else {
        format!("{workload}.json")
    })
}

/// Writes `run` to its result file. With `append` the file's earlier runs
/// are kept, so that a set of back-to-back runs ends up in one file.
pub fn write_result(out_dir: &Path, env: Json, run: &Run, append: bool) -> Result<PathBuf, String> {
    fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = result_path(out_dir, run.workload, run.traced);
    let mut runs = Vec::new();
    if append {
        if let Ok(text) = fs::read_to_string(&path) {
            let old = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.extend_from_slice(old.get("runs").map_or(&[][..], Json::as_arr));
        }
    }
    runs.push(run.to_json());
    let file = Json::obj(vec![
        ("workload", Json::str(run.workload)),
        ("env", env),
        ("runs", Json::Arr(runs)),
    ]);
    fs::write(&path, format!("{file}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn declared_end_to_end(benchmark_json: &Json) -> Result<Vec<Declared>, String> {
    benchmark_json
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: end_to_end entry without `{k}`"))
            };
            Ok(Declared {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One (workload, metric) row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse B is than A, as a share of A; negative is better.
    pub worse_by: f64,
    /// The wider of the two sets' q1–q3 distances, as a share of A.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares the values one metric took over set A's runs and set B's.
pub fn compare_metric(a: &[f64], b: &[f64], m: &Declared) -> Comparison {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse_by = if m.higher_is_better {
        (sa.median - sb.median) / sa.median
    } else {
        (sb.median - sa.median) / sa.median
    };
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1) / sa.median;
    let verdict = if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Comparison {
        median_a: sa.median,
        median_b: sb.median,
        worse_by,
        spread,
        verdict,
    }
}

fn metric_values(file: &Json, metric: &str) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints one row per (workload, end-to-end metric) of the result sets in
/// directories `a` and `b`; returns whether any row regressed.
pub fn compare_dirs(
    a: &Path,
    b: &Path,
    workloads: &[&str],
    declared: &[Declared],
) -> Result<bool, String> {
    let load = |dir: &Path, w: &str| -> Result<Json, String> {
        let path = result_path(dir, w, false);
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>8} {:>5}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread", "runs"
    );
    let mut regressed = false;
    for w in workloads {
        let (fa, fb) = (load(a, w)?, load(b, w)?);
        for m in declared {
            let (va, vb) = (metric_values(&fa, &m.name), metric_values(&fb, &m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w}: no `{}` in one of the sets", m.name));
            }
            let c = compare_metric(&va, &vb, m);
            regressed |= c.verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>7.1}% {:>7.2}% {:>2}/{:<2}  {}",
                w,
                m.name,
                c.median_a,
                c.median_b,
                c.worse_by * 100.0,
                m.bound * 100.0,
                c.spread * 100.0,
                va.len(),
                vb.len(),
                match c.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "lat_ms_p50".to_string(),
            unit: "ms".to_string(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = compare_metric(&a, &[10.2, 10.1, 10.3, 10.2, 10.25], &lower(0.05));
        assert_eq!(same.verdict, Verdict::Ok);
        assert!((same.worse_by - 0.02).abs() < 1e-9);
        let slow = compare_metric(&a, &[11.0, 11.1, 10.9, 11.0, 11.05], &lower(0.05));
        assert_eq!(slow.verdict, Verdict::Regressed);
        let noisy = compare_metric(&a, &[8.0, 12.0, 10.0, 9.0, 11.0], &lower(0.05));
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        // Faster is never a regression.
        let fast = compare_metric(&a, &[5.0; 5], &lower(0.05));
        assert!(fast.worse_by < 0.0 && fast.verdict == Verdict::Ok);
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        let cap = Declared {
            higher_is_better: true,
            ..lower(0.05)
        };
        assert_eq!(
            compare_metric(&[100.0], &[90.0], &cap).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&[100.0], &[120.0], &cap).verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let run = Run {
            workload: "batch_dispatch",
            seed: 1,
            seconds: 2,
            traced: false,
            tally: Tally {
                attempted: 10,
                ..Tally::default()
            },
            metrics: vec![Metric::new("setup_s", "s", Reading::exact(0.5, 3))],
            ungated: vec![Metric::new("peak_rss_mb", "MB", Reading::exact(9.0, 1))],
            jobs: Vec::new(),
            guards: Vec::new(),
        };
        let line = Json::parse(&run.driver_line()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.get("metrics").unwrap().get("peak_rss_mb").is_none());
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert!(matches!(m, Json::Obj(f) if f.len() == 2));
    }
}
