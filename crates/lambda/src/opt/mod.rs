//! The `LambdaExp` optimizer (paper §3, "Optimization").
//!
//! The ML Kit optimizer "rewrites LambdaExp fragments as long as it can
//! guarantee that the resulting fragments run in less space than the
//! original fragments". We implement the same contraction-style passes:
//!
//! * reachability pruning of the top-level declarations ([`prune`]), so
//!   that every later pass and phase is paid for the code the program
//!   uses and not for the prelude in front of it,
//! * uncurrying of `fix`-bound functions ([`uncurry`]): `fun f a b = e`
//!   takes both arguments at once, saturated calls pass them directly and
//!   every other occurrence is eta-wrapped,
//! * constant folding and branch simplification ([`simplify`]),
//! * dead-binding elimination and atomic-value propagation,
//! * beta reduction and inlining of functions used exactly once or whose
//!   bodies are small ([`inline`]),
//! * flattening of tuple arguments ([`flatten`]), last.
//!
//! Passes run to a (bounded) fixpoint. All passes preserve the uniqueness
//! of [`VarId`]s, which the region-inference phase relies on — and which
//! lets the rewrites read use counts from one table (`uses.rs`) instead
//! of walking a binding's scope each time they need one.
//!
//! [`VarId`]: crate::exp::VarId

pub mod flatten;
pub mod inline;
pub mod prune;
pub mod simplify;
pub mod uncurry;
mod uses;

use crate::exp::LProgram;
use uses::Uses;

/// Optimizer configuration: there is none, the optimiser has one
/// behaviour. The type stays for the callers written against it: the repo
/// benchmark's layer probe (`benchmark/src/layers.rs`), which changes only
/// with the benchmark itself, passes `&OptOptions::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptOptions {}

/// Contract/inline rounds at most.
const MAX_ROUNDS: usize = 4;

/// Statistics reported by one optimizer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Number of contraction rewrites applied.
    pub rewrites: usize,
    /// Number of functions inlined.
    pub inlined: usize,
    /// Number of functions whose tuple argument was flattened.
    pub flattened: usize,
    /// Number of curried functions that now take their arguments at once.
    pub uncurried: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Top-level bindings dropped as unreachable before the first round.
    pub pruned: usize,
    /// Expression nodes visited by all of the optimiser's walks: its work,
    /// which has to stay proportional to the size of the program.
    pub node_visits: usize,
}

/// Optimizes `prog` in place and reports statistics.
pub fn optimize(prog: &mut LProgram, _: &OptOptions) -> OptStats {
    optimize_using(prog, Uses::default())
}

/// [`optimize`] with every use count taken by the walkers the table
/// replaced: the reference the table-driven passes are held to.
#[cfg(test)]
pub(crate) fn optimize_with_walkers(prog: &mut LProgram) -> OptStats {
    optimize_using(prog, Uses::with_walkers())
}

fn optimize_using(prog: &mut LProgram, mut uses: Uses) -> OptStats {
    let mut stats = OptStats {
        // The pruning walk fills the table; every rewrite below keeps it
        // exact.
        pruned: prune::prune_counting(prog, &mut uses),
        // Before the first round, so that the inliner sees known n-ary
        // calls and contraction dissolves the eta wrappers' atomic bindings.
        uncurried: uncurry::uncurry_with(prog, &mut uses),
        ..OptStats::default()
    };
    #[cfg(debug_assertions)]
    uses.assert_exact(&prog.body, "after uncurrying");
    for _ in 0..MAX_ROUNDS {
        stats.rounds += 1;
        let r1 = simplify::simplify_with(&mut prog.body, &mut uses);
        let r2 = inline::inline_with(prog, &mut uses);
        #[cfg(debug_assertions)]
        uses.assert_exact(&prog.body, "after an optimiser round");
        stats.rewrites += r1;
        stats.inlined += r2;
        if r1 + r2 == 0 {
            break;
        }
    }
    // Argument flattening last (its output shapes are final), followed by
    // one contraction round to clean up the projections it introduced.
    stats.flattened = flatten::flatten_counting(prog, &mut uses.visits);
    if stats.flattened > 0 {
        uses.recount(&prog.body);
        stats.rewrites += simplify::simplify_with(&mut prog.body, &mut uses);
    }
    stats.node_visits = uses.visits;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::{LExp, Prim, VarTable};
    use crate::ty::{DataEnv, ExnEnv, LTy};

    fn prog(body: LExp, vars: VarTable) -> LProgram {
        LProgram {
            data: DataEnv::new(),
            exns: ExnEnv::new(),
            vars,
            body,
            result_ty: LTy::Int,
        }
    }

    #[test]
    fn optimizer_reaches_fixpoint() {
        let mut vars = VarTable::new();
        let x = vars.fresh("x");
        // let x = 1 + 2 in x * 1  ==>  3 (after folding + propagation)
        let body = LExp::Let {
            var: x,
            ty: LTy::Int,
            rhs: Box::new(LExp::Prim(Prim::IAdd, vec![LExp::Int(1), LExp::Int(2)])),
            body: Box::new(LExp::Prim(Prim::IMul, vec![LExp::Var(x), LExp::Int(1)])),
        };
        let mut p = prog(body, vars);
        let mut by_walkers = p.clone();
        let stats = optimize(&mut p, &OptOptions::default());
        assert!(stats.rewrites > 0);
        assert_eq!(p.body, LExp::Int(3));
        // The reference the table is held to on real programs
        // (`tests/optimizer.rs`) agrees here too.
        optimize_with_walkers(&mut by_walkers);
        assert_eq!(by_walkers, p);
    }
}
