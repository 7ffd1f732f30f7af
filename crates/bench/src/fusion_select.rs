//! Choosing the rows of the fusion table by the dispatches they save.
//!
//! A [`Corpus`] holds the straight-line runs of unfused streams — maximal
//! stretches between leaders ([`ThreadedCode::leaders`]) and control
//! transfers ([`Op::transfers`]) — with the dispatches each pc took in a
//! profiled run ([`kit::FusionProfile`] at `Fusion::Off`). No group of
//! the fewest-groups [`parse`] crosses a run's ends, so a row set's fused
//! dispatches are a sum over runs, and runs with the same opcodes parse
//! alike: the corpus merges them and adds their counts.
//!
//! Every profiled run weighs alike: its counts are scaled to [`WEIGHT`]
//! dispatches unfused. Unscaled, the one program with the most dispatches
//! would choose the table (`lexgen` takes 58 % of the paper-scale
//! corpus's dispatches over its five modes).
//!
//! [`Corpus::select`] adds, one at a time, the run of base opcodes that
//! [`fits`] a row and saves the most dispatches under the parse with the
//! rows chosen so far, until the next would save less than 1 % of the
//! dispatches left; then it drops any row whose removal costs nothing.
//! `bench-summary --profile-fusion` prints the result for
//! `crates/kam/src/fusion_table.rs`, and `--check-fusion` holds that table
//! to it.

use kit_kam::fusion_table::FUSION_CANDIDATES;
use kit_kam::threaded::{fits, parse, Op, Rows, ThreadedCode, MAX_ROW};
use std::collections::{BTreeMap, HashMap};

/// A selection stops when the best next row saves less than
/// `1 / STOP` of the dispatches left.
const STOP: u64 = 100;

/// The unfused dispatches every profiled run is scaled to: large enough
/// that a pc dispatched once in the longest run still counts.
pub const WEIGHT: u64 = 1 << 40;

/// Straight-line runs of profiled unfused streams, merged by opcodes.
#[derive(Debug, Default)]
pub struct Corpus {
    runs: HashMap<Vec<Op>, Vec<u64>>,
}

/// One selected row: its opcodes and the dispatches the corpus takes more
/// without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selected {
    /// The run of base opcodes.
    pub seq: Vec<Op>,
    /// Dispatches the corpus saves by it, the other rows kept.
    pub saves: u64,
}

impl Corpus {
    /// Adds the runs of the unfused stream `code` with `counts`, its
    /// dispatches per pc in one run, scaled to [`WEIGHT`] in all. Runs
    /// that never executed are left out: they dispatch nothing under any
    /// row set.
    pub fn add(&mut self, code: &ThreadedCode, counts: &[u64]) {
        assert_eq!(code.len(), counts.len(), "a profile of another stream");
        let total = u128::from(counts.iter().sum::<u64>().max(1));
        let scaled = |n: u64| (u128::from(n) * u128::from(WEIGHT) / total) as u64;
        let counts: Vec<u64> = counts.iter().map(|&n| scaled(n)).collect();
        let leader = code.leaders();
        let mut start = 0;
        for pc in 0..code.len() {
            let end = pc + 1;
            if end == code.len() || leader[end] || code.ops[pc].transfers() {
                if counts[start..end].iter().any(|&n| n > 0) {
                    let sum = self.runs.entry(code.ops[start..end].to_vec()).or_default();
                    sum.resize(end - start, 0);
                    for (s, n) in sum.iter_mut().zip(&counts[start..end]) {
                        *s += n;
                    }
                }
                start = end;
            }
        }
    }

    /// Dispatches of the corpus under the fewest-groups parse by `rows`.
    pub fn dispatches(&self, rows: &[&[Op]]) -> u64 {
        let rows = Rows::new(rows.to_vec());
        self.runs.iter().map(|(ops, n)| cost(ops, n, &rows)).sum()
    }

    /// How often each of `rows` is dispatched under the parse by `rows`.
    pub fn fired(&self, rows: &[&[Op]]) -> Vec<u64> {
        let mut fired = vec![0; rows.len()];
        let rows = Rows::new(rows.to_vec());
        for (ops, counts) in &self.runs {
            for (pc, row) in groups(ops, &rows) {
                if let Some(r) = row {
                    fired[r] += counts[pc];
                }
            }
        }
        fired
    }

    /// The rows that save the most dispatches, chosen one at a time (module
    /// docs), each with what it saves in the final set.
    pub fn select(&self) -> Vec<Selected> {
        let runs: Vec<(&Vec<Op>, &Vec<u64>)> = self.runs.iter().collect();
        // Every opcode sequence that fits a row, and the runs it occurs in.
        let mut occurs: BTreeMap<&[Op], Vec<usize>> = BTreeMap::new();
        for (r, (ops, _)) in runs.iter().enumerate() {
            for i in 0..ops.len() {
                for end in i + 2..=ops.len().min(i + MAX_ROW) {
                    if fits(&ops[i..end]) {
                        let at = occurs.entry(&ops[i..end]).or_default();
                        if at.last() != Some(&r) {
                            at.push(r);
                        }
                    }
                }
            }
        }
        let mut rows: Vec<&[Op]> = Vec::new();
        let none = Rows::new(Vec::new());
        let mut now: Vec<u64> = runs.iter().map(|(ops, n)| cost(ops, n, &none)).collect();
        loop {
            let left: u64 = now.iter().sum();
            let mut best: Option<(u64, &[Op])> = None;
            for (&seq, at) in &occurs {
                if rows.contains(&seq) {
                    continue;
                }
                let with = Rows::new(rows.iter().copied().chain([seq]).collect());
                let saves: u64 = at
                    .iter()
                    .map(|&r| now[r] - cost(runs[r].0, runs[r].1, &with))
                    .sum();
                if best.is_none_or(|(most, _)| saves > most) {
                    best = Some((saves, seq));
                }
            }
            let Some((_, seq)) = best.filter(|&(saves, _)| saves * STOP >= left) else {
                break;
            };
            rows.push(seq);
            let chosen = Rows::new(rows.clone());
            for &r in &occurs[seq] {
                now[r] = cost(runs[r].0, runs[r].1, &chosen);
            }
        }
        // Drop what a later row made worthless, then report each row's
        // saving against the rest.
        let saves = |rows: &[&[Op]], i: usize| {
            let without: Vec<&[Op]> = (rows.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .map(|(_, seq)| *seq)
                .collect();
            self.dispatches(&without) - self.dispatches(rows)
        };
        while let Some(i) = (0..rows.len()).find(|&i| saves(&rows, i) == 0) {
            rows.remove(i);
        }
        (0..rows.len())
            .map(|i| Selected {
                seq: rows[i].to_vec(),
                saves: saves(&rows, i),
            })
            .collect()
    }
}

/// The groups of one run under the fewest-groups parse by `rows`: each
/// group's first pc and its row (`None`: a base instruction alone).
fn groups(ops: &[Op], rows: &Rows<'_>) -> Vec<(usize, Option<usize>)> {
    let choice = parse(ops, &vec![false; ops.len()], rows);
    let mut starts = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        starts.push((pc, choice[pc]));
        pc += choice[pc].map_or(1, |r| rows.seq(r).len());
    }
    starts
}

/// Dispatches of one run under the fewest-groups parse by `rows`: each
/// group is dispatched as often as its first pc.
fn cost(ops: &[Op], counts: &[u64], rows: &Rows<'_>) -> u64 {
    groups(ops, rows).iter().map(|&(pc, _)| counts[pc]).sum()
}

/// The opcode name a row gets, as the table spells them: the members'
/// mnemonics, a `PushConst` after the first member as `Const` and the
/// `JumpIfFalse` after a `Prim` as `Jump`.
pub fn row_name(seq: &[Op]) -> String {
    if let Some(p) = FUSION_CANDIDATES.iter().find(|p| p.seq == seq) {
        return format!("{:?}", p.out);
    }
    let mut name = String::new();
    for (i, op) in seq.iter().enumerate() {
        name.push_str(match op {
            Op::PushConst if i > 0 => "Const",
            Op::JumpIfFalse if i > 0 && seq[i - 1] == Op::Prim => "Jump",
            _ => op.mnemonic(),
        });
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit_kam::threaded::Args;
    use Op::*;

    fn code(ops: &[Op], labels: &[u32]) -> ThreadedCode {
        let mut c = ThreadedCode::default();
        for &op in ops {
            c.ops.push(op);
            c.args.push(Args::ZERO);
        }
        c.pc_of_label = labels.to_vec();
        c
    }

    #[test]
    fn runs_split_at_leaders_and_after_transfers_and_weigh_alike() {
        // pc 3 is a leader; the Ret ends a run.
        let c = code(&[Load, Load, Prim, Load, Ret, Load, Store], &[0, 3]);
        let mut corpus = Corpus::default();
        corpus.add(&c, &[1, 1, 1, 1, 1, 1, 0]);
        corpus.add(&c, &[7, 7, 7, 0, 0, 0, 0]);
        let mut runs: Vec<_> = corpus.runs.into_iter().collect();
        runs.sort();
        let (sixth, third) = (WEIGHT / 6, WEIGHT / 3);
        assert_eq!(
            runs,
            vec![
                (vec![Load, Load, Prim], vec![sixth + third; 3]),
                (vec![Load, Store], vec![sixth, 0]),
                (vec![Load, Ret], vec![sixth; 2]),
            ]
        );
    }

    #[test]
    fn selection_takes_the_biggest_saving_first_and_stops_below_one_percent() {
        let mut corpus = Corpus::default();
        let c = code(&[Load, Load, Prim, Store, Load, Ret], &[0]);
        corpus.add(&c, &[100; 6]);
        // `Pop; Pop; Halt` runs once to the second run's thousand times:
        // fusing it would save 0.07 % of what is left.
        let c = code(&[Pop, Pop, Halt, Load, Pop, Ret], &[0, 3]);
        corpus.add(&c, &[1, 1, 1, 1000, 1000, 1000]);
        let rows = corpus.select();
        let seqs: Vec<&[Op]> = rows.iter().map(|r| &r.seq[..]).collect();
        assert_eq!(
            seqs,
            [
                &[Load, Pop, Ret][..],
                &[Load, Load, Prim],
                &[Store, Load, Ret]
            ]
        );
        let thousand = 1000 * WEIGHT / 3003;
        assert_eq!(rows[0].saves, 2 * thousand);
        assert_eq!(rows[1].saves, 2 * (WEIGHT / 6));
        assert!(corpus.fired(&seqs).iter().all(|&n| n > 0));
    }
}
