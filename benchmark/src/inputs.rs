//! The four workloads, their frozen inputs, and everything the seed
//! decides: job order, scale jitter, arrival times and uniqueness nonces.

use kit::Mode;
use std::fs;
use std::path::{Path, PathBuf};

/// SplitMix64 (Steele et al., OOPSLA 2014): the benchmark's only source of
/// randomness, so a seed means the same inputs on every toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform in `(0, 1]` — safe to take the logarithm of.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A program and the scales it runs at. Programs whose `scale` moves the
/// work by a few per cent per step get five levels within ±10 % of the
/// middle one; `fib`, `tak` and `lexgen` jump by tens of per cent with every
/// step and keep a single level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramSpec {
    pub name: &'static str,
    pub scales: &'static [i64],
}

const fn prog(name: &'static str, scales: &'static [i64]) -> ProgramSpec {
    ProgramSpec { name, scales }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Closed loop, one thread: passes over every (program, mode) cell.
    Batch { modes: [Mode; 2] },
    /// Open loop against an in-process server at `rate` requests per
    /// second, then a closed-loop saturation phase. With `unique` every
    /// source carries a nonce, so the compile cache never hits.
    Serve { rate: f64, unique: bool },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub programs: &'static [ProgramSpec],
}

/// Scales were tuned once so that a batch pass takes 80–120 ms on the
/// 2-core reference box; the two rates are a fifth of the `capacity_per_s`
/// measured there, so that the server keeps up through the deepest slow
/// spell seen of the host, 3.7 times slower. They are constants
/// from here on (README, "Calibration").
const DISPATCH_PROGRAMS: &[ProgramSpec] = &[
    prog("dlx", &[180, 190, 200, 210, 220]),
    prog("machine", &[117, 124, 130, 136, 143]),
    prog("accum", &[27, 28, 30, 32, 33]),
    prog("fib", &[24]),
    prog("tak", &[7]),
    prog("kitlife", &[13, 14, 15]),
];

const MEMORY_PROGRAMS: &[ProgramSpec] = &[
    prog("churn", &[63, 66, 70, 74, 77]),
    prog("msort", &[2700, 2850, 3000, 3150, 3300]),
    prog("lexgen", &[6]),
    prog("book", &[3600, 3800, 4000, 4200, 4400]),
    prog("livechurn", &[18, 19, 20, 21, 22]),
];

/// The small `rgt` mix of the serve pair: 0.1–0.7 ms of VM time each.
const SERVE_PROGRAMS: &[ProgramSpec] = &[
    prog("fib", &[12]),
    prog("tak", &[4]),
    prog("churn", &[10]),
    prog("interp", &[30]),
    prog("book", &[60]),
];

pub const SERVE_MODE: Mode = Mode::Rgt;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "batch_dispatch",
        kind: Kind::Batch {
            modes: [Mode::R, Mode::Rgt],
        },
        programs: DISPATCH_PROGRAMS,
    },
    Workload {
        name: "batch_memory",
        kind: Kind::Batch {
            modes: [Mode::Gt, Mode::Rgt],
        },
        programs: MEMORY_PROGRAMS,
    },
    Workload {
        name: "serve_hot",
        kind: Kind::Serve {
            rate: 500.0,
            unique: false,
        },
        programs: SERVE_PROGRAMS,
    },
    Workload {
        name: "serve_miss",
        kind: Kind::Serve {
            rate: 50.0,
            unique: true,
        },
        programs: SERVE_PROGRAMS,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The mix every idle-server and standalone probe of the serve layer uses,
/// whichever workload is being traced.
pub fn serve_mix() -> &'static [ProgramSpec] {
    SERVE_PROGRAMS
}

/// The benchmark's own directory (`programs/`, `expected/`, `out/`).
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("KIT_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn read_program(dir: &Path, name: &str) -> Result<String, String> {
    read(&dir.join("programs").join(format!("{name}.sml")))
}

/// `src` with its `val scale = N` line rewritten to `scale`.
pub fn source_scaled(src: &str, scale: i64) -> Result<String, String> {
    let mut out = String::with_capacity(src.len() + 8);
    let mut done = false;
    for line in src.lines() {
        if !done && line.trim_start().starts_with("val scale =") {
            out.push_str(&format!("val scale = {scale}"));
            done = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    if done {
        Ok(out)
    } else {
        Err("program has no `val scale =` line".to_string())
    }
}

/// What a run must produce: the rendered result and everything printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub result: String,
    pub output: String,
}

impl Expected {
    pub fn path(dir: &Path, program: &str, scale: i64) -> PathBuf {
        dir.join("expected").join(format!("{program}.{scale}.txt"))
    }

    /// First line: the result. Everything after it: the printed output.
    pub fn to_file_text(&self) -> String {
        format!("{}\n{}", self.result, self.output)
    }

    pub fn from_file_text(text: &str) -> Expected {
        let (result, output) = text.split_once('\n').unwrap_or((text, ""));
        Expected {
            result: result.to_string(),
            output: output.to_string(),
        }
    }

    pub fn load(dir: &Path, program: &str, scale: i64) -> Result<Expected, String> {
        read(&Expected::path(dir, program, scale)).map(|t| Expected::from_file_text(&t))
    }

    pub fn matches(&self, result: &str, output: &str) -> bool {
        self.result == result && self.output == output
    }
}

/// One program run of a batch pass: indices into the workload's cells and
/// into that cell's scale levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchJob {
    pub cell: usize,
    pub level: usize,
}

/// The seeded order of a batch workload. Every pass visits every cell once,
/// in a fresh random order. A cell's scale level changes from pass to pass,
/// but in every run of `levels` consecutive passes each level comes up
/// once, so any two seeds put the same work into a window and differ in
/// its order only.
#[derive(Debug)]
pub struct BatchSchedule {
    rng: Rng,
    levels: Vec<usize>,
    /// Per cell, the level order of the block of passes under way.
    blocks: Vec<Vec<usize>>,
}

impl BatchSchedule {
    /// `levels[c]` is the number of scale levels of cell `c`.
    pub fn new(seed: u64, levels: Vec<usize>) -> BatchSchedule {
        BatchSchedule {
            rng: Rng::new(seed ^ 0xBA7C_4000),
            blocks: vec![Vec::new(); levels.len()],
            levels,
        }
    }

    pub fn next_pass(&mut self) -> Vec<BatchJob> {
        let mut pass: Vec<BatchJob> = (0..self.levels.len())
            .map(|cell| {
                if self.blocks[cell].is_empty() {
                    let mut block: Vec<usize> = (0..self.levels[cell]).collect();
                    self.rng.shuffle(&mut block);
                    self.blocks[cell] = block;
                }
                let level = self.blocks[cell].pop().expect("block was just refilled");
                BatchJob { cell, level }
            })
            .collect();
        self.rng.shuffle(&mut pass);
        pass
    }
}

/// One request of the open loop: when it is due, counted from the start of
/// the phase, and which program of the mix it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub program: usize,
}

/// Poisson arrivals at `rate` per second over `window_ns`: independent
/// users, so exponential gaps and a uniformly drawn program.
pub fn arrivals(seed: u64, rate: f64, window_ns: u64, programs: usize) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x0A44_17A1);
    let mut out = Vec::with_capacity((rate * window_ns as f64 / 1e9 * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate * 1e9;
        if t >= window_ns as f64 {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            program: rng.below(programs),
        });
    }
}

/// The program of the `i`-th request of a closed-loop phase: one seeded
/// permutation of the mix after another, so that any stretch of the phase
/// holds every program equally often and two stretches differ in speed
/// only, not in what they were asked to run.
pub fn closed_loop_programs(seed: u64, programs: usize) -> impl FnMut() -> usize {
    let mut rng = Rng::new(seed ^ 0xC105_ED00);
    let mut round: Vec<usize> = Vec::new();
    move || {
        if round.is_empty() {
            round = (0..programs).collect();
            rng.shuffle(&mut round);
        }
        round.pop().expect("round was just refilled")
    }
}

/// A trailing comment that makes `src` a source the server has never seen.
/// `phase` keeps set-up, warm-up and measured requests apart.
pub fn with_nonce(src: &str, seed: u64, phase: &str, index: u64) -> String {
    format!("{src}(* nonce {seed:016x} {phase} {index} *)\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passes(seed: u64, n: usize) -> Vec<Vec<BatchJob>> {
        let mut s = BatchSchedule::new(seed, vec![5, 5, 1, 3]);
        (0..n).map(|_| s.next_pass()).collect()
    }

    #[test]
    fn same_seed_same_cell_order_and_other_seed_differs() {
        assert_eq!(passes(7, 40), passes(7, 40));
        assert_ne!(passes(7, 40), passes(8, 40));
    }

    #[test]
    fn every_pass_visits_every_cell_and_levels_balance_per_block() {
        let all = passes(3, 15);
        for pass in &all {
            let mut cells: Vec<usize> = pass.iter().map(|j| j.cell).collect();
            cells.sort_unstable();
            assert_eq!(cells, vec![0, 1, 2, 3]);
        }
        // 15 passes = 3 blocks of 5 and 5 blocks of 3.
        for (cell, levels) in [(0, 5), (3, 3)] {
            let mut seen = vec![0; levels];
            for pass in &all {
                seen[pass.iter().find(|j| j.cell == cell).unwrap().level] += 1;
            }
            assert_eq!(seen, vec![15 / levels; levels]);
        }
    }

    #[test]
    fn same_seed_same_request_schedule_and_other_seed_differs() {
        let a = arrivals(11, 800.0, 2_000_000_000, 5);
        assert_eq!(a, arrivals(11, 800.0, 2_000_000_000, 5));
        assert_ne!(a, arrivals(12, 800.0, 2_000_000_000, 5));
        // Byte-identical requests too: the nonce depends on the seed only.
        assert_eq!(
            with_nonce("x\n", 11, "open", 3),
            with_nonce("x\n", 11, "open", 3)
        );
        assert_ne!(
            with_nonce("x\n", 11, "open", 3),
            with_nonce("x\n", 12, "open", 3)
        );
        assert_ne!(
            with_nonce("x\n", 11, "open", 3),
            with_nonce("x\n", 11, "warm", 3)
        );
    }

    #[test]
    fn arrivals_are_ordered_and_close_to_the_rate() {
        let a = arrivals(5, 1000.0, 10_000_000_000, 5);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.last().unwrap().due_ns < 10_000_000_000);
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!((0..5).all(|p| a.iter().any(|x| x.program == p)));
    }

    #[test]
    fn closed_loop_rounds_hold_every_program_once() {
        let mut pick = closed_loop_programs(9, 5);
        let picks: Vec<usize> = (0..50).map(|_| pick()).collect();
        for round in picks.chunks(5) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2, 3, 4]);
        }
        let mut again = closed_loop_programs(9, 5);
        assert!(picks.iter().all(|&p| p == again()));
        let mut other = closed_loop_programs(10, 5);
        assert!(picks.iter().any(|&p| p != other()));
    }

    #[test]
    fn scale_line_is_rewritten_once() {
        let src = "(* c *)\nval scale = 24\nval it = scale\n";
        assert_eq!(
            source_scaled(src, 7).unwrap(),
            "(* c *)\nval scale = 7\nval it = scale\n"
        );
        assert!(source_scaled("val it = 0", 7).is_err());
    }

    #[test]
    fn expected_text_round_trips() {
        let e = Expected {
            result: "42".to_string(),
            output: "a\nb\n".to_string(),
        };
        assert_eq!(Expected::from_file_text(&e.to_file_text()), e);
        let quiet = Expected {
            result: "()".to_string(),
            output: String::new(),
        };
        assert_eq!(Expected::from_file_text(&quiet.to_file_text()), quiet);
        assert!(e.matches("42", "a\nb\n") && !e.matches("42", ""));
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name), Some(w));
        }
        assert!(workload("nope").is_none());
    }
}
