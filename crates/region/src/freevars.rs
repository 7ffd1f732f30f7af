//! Free-variable side table for region annotation.
//!
//! Annotation asks for free-variable sets at every `letregion` candidate
//! (the escape set of a candidate covers the types of the variables free in
//! it), at every closure (§2.6 weakening) and at every `fix` (what the
//! group's schemes may not quantify) — and it asks again in every
//! fixed-point round. The sets are computed here once, bottom-up, in a
//! single walk of the program, and looked up by node address afterwards.

use kit_lambda::exp::{LExp, VarId};
use std::collections::HashMap;

type Span = (u32, u32);

/// Sorted free-variable lists of the nodes annotation asks about.
pub(crate) struct FreeVars {
    pool: Vec<VarId>,
    /// Free variables of a node, by its address: every `letregion`
    /// candidate (branch arms, `let` right-hand sides, function bodies,
    /// handler parts) and every `Fn`.
    nodes: HashMap<*const LExp, Span>,
    /// For a `Fix` node: the variables free in its function bodies, minus
    /// the group itself and the parameters — the variables the closure
    /// shared by the group captures.
    fixes: HashMap<*const LExp, Span>,
}

impl FreeVars {
    /// Builds the table in one walk of `body`.
    pub fn of_program(body: &LExp) -> FreeVars {
        let mut table = FreeVars {
            pool: Vec::new(),
            nodes: HashMap::new(),
            fixes: HashMap::new(),
        };
        table.walk(body, &mut Vec::new());
        table
    }

    /// Free variables of a recorded node, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a node this table records.
    pub fn of(&self, e: &LExp) -> &[VarId] {
        self.slice(self.nodes[&(e as *const LExp)])
    }

    /// Variables captured by the closure of the `Fix` node `e`, ascending.
    pub fn of_fix_closure(&self, e: &LExp) -> &[VarId] {
        self.slice(self.fixes[&(e as *const LExp)])
    }

    fn slice(&self, (start, len): Span) -> &[VarId] {
        &self.pool[start as usize..(start + len) as usize]
    }

    fn keep(&mut self, vars: &[VarId]) -> Span {
        let start = self.pool.len() as u32;
        self.pool.extend_from_slice(vars);
        (start, vars.len() as u32)
    }

    /// Walks a `letregion` candidate, recording its free variables.
    fn candidate(&mut self, e: &LExp, stack: &mut Vec<VarId>) {
        let start = stack.len();
        self.walk(e, stack);
        let span = self.keep(&stack[start..]);
        self.nodes.insert(e, span);
    }

    /// Walks a switch: the scrutinee, then every arm as a candidate.
    fn switch<K>(
        &mut self,
        scrut: &LExp,
        arms: &[(K, LExp)],
        default: Option<&LExp>,
        stack: &mut Vec<VarId>,
    ) {
        self.walk(scrut, stack);
        for a in arms.iter().map(|(_, a)| a).chain(default) {
            self.candidate(a, stack);
        }
    }

    /// Appends the free variables of `e`, sorted and without duplicates,
    /// to `stack`. Variables are unique program-wide, so a binder only has
    /// to be removed from the part of the stack its scope produced.
    fn walk(&mut self, e: &LExp, stack: &mut Vec<VarId>) {
        let start = stack.len();
        match e {
            LExp::Var(v) => stack.push(*v),
            LExp::Int(_) | LExp::Real(_) | LExp::Str(_) | LExp::Bool(_) | LExp::Unit => {}
            LExp::Prim(_, es) | LExp::Record(es) => {
                for e in es {
                    self.walk(e, stack);
                }
            }
            LExp::Select { tup: e, .. }
            | LExp::DeCon { scrut: e, .. }
            | LExp::DeExn { scrut: e, .. }
            | LExp::Raise { exp: e, .. } => self.walk(e, stack),
            LExp::Con { arg, .. } | LExp::ExCon { arg, .. } => {
                if let Some(a) = arg {
                    self.walk(a, stack);
                }
            }
            LExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => self.switch(scrut, arms, default.as_deref(), stack),
            LExp::SwitchInt {
                scrut,
                arms,
                default,
            } => self.switch(scrut, arms, Some(default.as_ref()), stack),
            LExp::SwitchStr {
                scrut,
                arms,
                default,
            } => self.switch(scrut, arms, Some(default.as_ref()), stack),
            LExp::SwitchExn {
                scrut,
                arms,
                default,
            } => self.switch(scrut, arms, Some(default.as_ref()), stack),
            LExp::If(c, t, f) => {
                self.walk(c, stack);
                self.candidate(t, stack);
                self.candidate(f, stack);
            }
            LExp::Fn { params, body, .. } => {
                self.candidate(body, stack);
                retain_from(stack, start, |v| params.iter().all(|(p, _)| *p != v));
                let span = self.keep(&stack[start..]);
                self.nodes.insert(e, span);
                return;
            }
            LExp::App(f, args) => {
                self.walk(f, stack);
                for a in args {
                    self.walk(a, stack);
                }
            }
            LExp::Let { var, rhs, body, .. } => {
                self.candidate(rhs, stack);
                let scope = stack.len();
                self.walk(body, stack);
                retain_from(stack, scope, |v| v != *var);
            }
            LExp::Fix { funs, body } => {
                for f in funs {
                    self.candidate(&f.body, stack);
                }
                sort_dedup_from(stack, start);
                retain_from(stack, start, |v| {
                    funs.iter()
                        .all(|f| f.var != v && f.params.iter().all(|(p, _)| *p != v))
                });
                let span = self.keep(&stack[start..]);
                self.fixes.insert(e, span);
                let scope = stack.len();
                self.walk(body, stack);
                retain_from(stack, scope, |v| funs.iter().all(|f| f.var != v));
            }
            LExp::Handle { body, var, handler } => {
                self.candidate(body, stack);
                let scope = stack.len();
                self.candidate(handler, stack);
                retain_from(stack, scope, |v| v != *var);
            }
        }
        sort_dedup_from(stack, start);
    }
}

/// Drops the elements of `v[from..]` that `keep` rejects.
fn retain_from(v: &mut Vec<VarId>, from: usize, keep: impl Fn(VarId) -> bool) {
    let mut w = from;
    for i in from..v.len() {
        if keep(v[i]) {
            v[w] = v[i];
            w += 1;
        }
    }
    v.truncate(w);
}

/// Sorts `v[from..]` and drops its duplicates.
fn sort_dedup_from(v: &mut Vec<VarId>, from: usize) {
    v[from..].sort_unstable();
    let mut w = from;
    for i in from..v.len() {
        if w == from || v[w - 1] != v[i] {
            v[w] = v[i];
            w += 1;
        }
    }
    v.truncate(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_table_matches_walks(e: &LExp, table: &FreeVars, seen: &mut usize) {
        if let Some(&span) = table.nodes.get(&(e as *const LExp)) {
            let want: Vec<VarId> = e.free_vars().into_iter().collect();
            assert_eq!(table.slice(span), want, "free variables of {e:?}");
            *seen += 1;
        }
        if let LExp::Fix { funs, .. } = e {
            let closure = LExp::Fix {
                funs: funs.clone(),
                body: Box::new(LExp::Unit),
            };
            let want: Vec<VarId> = closure.free_vars().into_iter().collect();
            assert_eq!(table.of_fix_closure(e), want, "closure of {e:?}");
            *seen += 1;
        }
        e.for_each_child(|c| assert_table_matches_walks(c, table, seen));
    }

    /// The table agrees with a fresh `LExp::free_vars` walk at every node
    /// it records, on a program that uses every binding form (and enough
    /// of the prelude that the optimiser's pruning leaves a few dozen).
    #[test]
    fn table_agrees_with_per_node_walks() {
        let src = "exception Boom of int\n\
                   datatype t = A | B of int * t\n\
                   fun len (A, n) = n | len (B (_, r), n) = len (r, n + 1)\n\
                   fun build 0 = A | build n = B (n, build (n - 1))\n\
                   val k = 3\n\
                   fun outer x =\n\
                     let fun go (i, acc) = if i > x then acc else go (i + k, fn y => acc (y + i))\n\
                         val h = go (0, fn y => y + k)\n\
                     in (h x handle Boom n => n + x | _ => k) end\n\
                   val it = outer (len (build 5, 0)) + (case \"s\" of \"s\" => 1 | _ => 2)\n\
                            + foldl (fn (a, b) => a + b) k (map (fn y => y + k) (rev [1, 2, 3]))";
        let mut prog = kit_typing::compile_str(src).expect("front end");
        kit_lambda::opt::optimize(&mut prog, &Default::default());
        let table = FreeVars::of_program(&prog.body);
        let mut seen = 0;
        assert_table_matches_walks(&prog.body, &table, &mut seen);
        assert!(seen > 40, "only {seen} recorded nodes checked");
    }
}
