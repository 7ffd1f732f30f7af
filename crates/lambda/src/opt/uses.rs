//! The optimiser's use-count table.
//!
//! One dense table indexed by [`VarId`] holds, for every variable, how
//! often it occurs in the program and how many of those occurrences are
//! the callee of an application. It is filled by one walk ([`prune`]
//! builds it while marking what is reachable) and then *maintained*: a
//! rewrite that discards a subtree releases it, one that copies a
//! subtree adds the copy, and an atomic substitution moves the counts of
//! the bound variable to the one that replaces it. Every variable has one
//! binder and is used only inside that binder's scope, so the count over
//! the whole program is the count over the scope — what the rewrites
//! used to establish by walking the scope once per binding.
//!
//! [`prune`]: crate::opt::prune

use crate::exp::{LExp, VarId};

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Count {
    total: u32,
    callee: u32,
}

/// Use counts of every variable, plus the work the optimiser's walkers
/// did (they all hold the table, so it carries their visit counter).
#[derive(Debug, Default)]
pub struct Uses {
    counts: Vec<Count>,
    /// Expression nodes visited by the optimiser's walks so far.
    pub(crate) visits: usize,
    /// Answer queries from the per-binding walkers instead of the table.
    #[cfg(test)]
    oracle: bool,
}

impl Uses {
    /// The table of `e` alone (for running one pass by itself).
    pub(crate) fn of(e: &LExp) -> Self {
        let mut uses = Uses::default();
        uses.add(e);
        uses
    }

    fn at(&mut self, v: VarId) -> &mut Count {
        let i = v.0 as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, Count::default());
        }
        &mut self.counts[i]
    }

    fn get(&self, v: VarId) -> Count {
        self.counts.get(v.0 as usize).copied().unwrap_or_default()
    }

    /// `true` if `v` occurs anywhere in what has been counted.
    pub(crate) fn is_used(&self, v: VarId) -> bool {
        self.get(v).total > 0
    }

    /// Occurrences of `v`, whose binder has scope `scope`.
    pub(crate) fn total(&self, v: VarId, scope: &LExp) -> usize {
        self.total_and_callee(v, scope).0
    }

    /// `(occurrences, occurrences as a callee)` of `v`, whose binder has
    /// scope `scope`.
    pub(crate) fn total_and_callee(&self, v: VarId, scope: &LExp) -> (usize, usize) {
        #[cfg(test)]
        if self.oracle {
            return walkers::count_uses_in(scope, v);
        }
        let _ = scope;
        let c = self.get(v);
        (c.total as usize, c.callee as usize)
    }

    /// Counts the occurrences in `e` (a subtree that joined the program).
    pub(crate) fn add(&mut self, e: &LExp) {
        self.walk(e, true);
    }

    /// Uncounts the occurrences in `e` (a subtree that left the program).
    pub(crate) fn release(&mut self, e: &LExp) {
        self.walk(e, false);
    }

    fn walk(&mut self, e: &LExp, add: bool) {
        self.visits += 1;
        match e {
            LExp::Var(v) => self.bump(*v, add, false),
            LExp::App(f, args) => {
                match f.as_ref() {
                    LExp::Var(v) => {
                        self.visits += 1;
                        self.bump(*v, add, true);
                    }
                    f => self.walk(f, add),
                }
                for a in args {
                    self.walk(a, add);
                }
            }
            _ => e.for_each_child(|c| self.walk(c, add)),
        }
    }

    fn bump(&mut self, v: VarId, add: bool, callee: bool) {
        let c = self.at(v);
        if add {
            c.total += 1;
            c.callee += u32::from(callee);
        } else {
            c.total -= 1;
            c.callee -= u32::from(callee);
        }
    }

    /// An occurrence of `v` that was not a callee has become one (the
    /// callee expression of an application simplified to `v`).
    pub(crate) fn now_callee(&mut self, v: VarId) {
        self.at(v).callee += 1;
    }

    /// `let v = value in body` was replaced by `body[value/v]`: the
    /// occurrence in the right-hand side is gone and every use of `v` is
    /// now a use of `value` (if that is a variable).
    pub(crate) fn substituted(&mut self, v: VarId, value: &LExp) {
        let old = std::mem::take(self.at(v));
        if let LExp::Var(w) = value {
            let c = self.at(*w);
            c.total = c.total - 1 + old.total;
            c.callee += old.callee;
        }
    }

    /// Starts over from the uses in `body` (after a pass that does not
    /// maintain the table).
    pub(crate) fn recount(&mut self, body: &LExp) {
        self.counts.clear();
        self.add(body);
    }

    /// Every occurrence of `v` was rewritten away.
    pub(crate) fn forget(&mut self, v: VarId) {
        *self.at(v) = Count::default();
    }

    /// A table that answers every query by walking the scope, as the
    /// optimiser did before it had one.
    #[cfg(test)]
    pub(crate) fn with_walkers() -> Self {
        Uses {
            oracle: true,
            ..Uses::default()
        }
    }

    #[cfg(test)]
    pub(crate) fn uses_walkers(&self) -> bool {
        self.oracle
    }

    /// Panics unless the maintained table equals a recount of `body`.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_exact(&self, body: &LExp, when: &str) {
        let fresh = Uses::of(body);
        let n = self.counts.len().max(fresh.counts.len());
        for i in 0..n {
            let v = VarId(i as u32);
            assert_eq!(self.get(v), fresh.get(v), "use counts of {v:?} {when}");
        }
    }
}

/// The per-binding walkers the table replaced, kept as its oracle.
#[cfg(test)]
pub(crate) mod walkers {
    use crate::exp::{FixFun, LExp, VarId};
    use std::collections::HashMap;

    /// Counts, for every variable, total uses and uses in callee position.
    fn count_uses(e: &LExp, uses: &mut HashMap<VarId, (usize, usize)>) {
        if let LExp::Var(v) = e {
            uses.entry(*v).or_default().0 += 1;
            return;
        }
        if let LExp::App(f, args) = e {
            if let LExp::Var(v) = f.as_ref() {
                let ent = uses.entry(*v).or_default();
                ent.0 += 1;
                ent.1 += 1;
            } else {
                count_uses(f, uses);
            }
            for a in args {
                count_uses(a, uses);
            }
            return;
        }
        e.for_each_child(|c| count_uses(c, uses));
    }

    /// A fresh map of the whole scope per query.
    pub(crate) fn count_uses_in(scope: &LExp, v: VarId) -> (usize, usize) {
        let mut uses = HashMap::new();
        count_uses(scope, &mut uses);
        uses.get(&v).copied().unwrap_or((0, 0))
    }

    /// A free-variable set per function of the group.
    pub(crate) fn group_is_recursive(funs: &[FixFun]) -> bool {
        funs.iter().any(|f| {
            let fv = f.body.free_vars();
            funs.iter().any(|g| fv.contains(&g.var))
        })
    }
}
