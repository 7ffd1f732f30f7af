//! Pattern-match compilation to `LambdaExp` decision trees.
//!
//! A first-column matrix algorithm (Augustsson-style):
//!
//! * irrefutable tests (wildcards, variables, tuples) are resolved without
//!   branching — variables by substituting the occurrence variable into the
//!   rule body, tuples by destructuring the occurrence once with `Select`s;
//! * the first refutable column of the first row decides the branch
//!   construct (`SwitchCon`/`SwitchInt`/`SwitchStr`/`SwitchExn`/`If`);
//! * rows without a test at the branched occurrence flow into every arm and
//!   the default, preserving first-match semantics.
//!
//! A branch sorts its rows by key in one pass ([`Buckets`]), so each arm
//! is built from its own rows and the shared ones: a `case` of `n` arms
//! costs `n`, not `n²`.
//!
//! Rule bodies may be duplicated across branches; duplicated copies are
//! alpha-renamed so variable ids stay globally unique (a requirement of the
//! optimizer and region inference). Pattern variables never produce `let`
//! bindings of their own: the occurrence variable is substituted directly.
//!
//! A one-row match (a `val` pattern, a one-rule `fn`, a one-clause `fun`)
//! reaches its body exactly once, so the body is moved into the tree, and
//! a variable pattern at a tuple component or a constructor's argument is
//! that sub-value's binder — alpha-equivalent to a temporary substituted
//! into the body, without the walk over it. For a top-level `val` the body
//! is the rest of the program: this is what keeps lowering linear in the
//! number of declarations.

use crate::texp::TPat;
use kit_lambda::exp::{LExp, VarId, VarTable};
use kit_lambda::opt::inline::rename_clone;
use kit_lambda::opt::simplify::subst_atomic;
use kit_lambda::ty::{DataEnv, LTy, TyConId};
use std::collections::HashMap;
use std::hash::Hash;

/// Placeholder type for compiler-introduced binders whose precise type is
/// irrelevant downstream (region inference recomputes types bottom-up).
pub const UNKNOWN_TY: LTy = LTy::TyVar(u32::MAX);

/// Shared state for match compilation.
pub struct MatchCtx<'a> {
    /// Variable table for fresh temporaries.
    pub vars: &'a mut VarTable,
    /// Datatype environment (for signature-completeness checks).
    pub data: &'a DataEnv,
}

#[derive(Debug, Clone)]
struct Row {
    cols: Vec<(VarId, TPat)>,
    subst: Vec<(VarId, VarId)>, // pattern var -> occurrence var
    body: usize,
}

/// The rows of a branch at one occurrence, sorted by their test there:
/// the keys in order of first occurrence, the positions of the rows
/// testing each, and those of the rows every arm and the default share
/// (a variable, a wildcard or no test at the occurrence). Positions are
/// ascending.
struct Buckets<K> {
    keys: Vec<K>,
    keyed: Vec<Vec<usize>>,
    any: Vec<usize>,
}

impl<K: PartialEq> Buckets<K> {
    /// The rows testing `k`, found by a scan (for `bool`'s two keys).
    fn keyed_at(&self, k: &K) -> &[usize] {
        match self.keys.iter().position(|x| x == k) {
            Some(s) => &self.keyed[s],
            None => &[],
        }
    }
}

/// Compiles a match over the occurrence variables `occs`.
///
/// Each row pairs one pattern per occurrence with a rule body. `default`
/// must contain no binders (it is cloned freely); it is typically
/// `raise Match`, `raise Bind`, or a re-raise.
pub fn compile(
    mc: &mut MatchCtx<'_>,
    occs: &[VarId],
    rows: Vec<(Vec<TPat>, LExp)>,
    default: &LExp,
) -> LExp {
    let mut bodies = Vec::new();
    let mut mrows = Vec::new();
    for (i, (pats, body)) in rows.into_iter().enumerate() {
        assert_eq!(pats.len(), occs.len(), "row arity mismatch");
        bodies.push(body);
        mrows.push(Row {
            cols: occs.iter().copied().zip(pats).collect(),
            subst: Vec::new(),
            body: i,
        });
    }
    let mut st = Solver {
        mc,
        bodies,
        used: vec![false; mrows.len()],
        default,
    };
    st.solve(mrows)
}

struct Solver<'a, 'b> {
    mc: &'a mut MatchCtx<'b>,
    bodies: Vec<LExp>,
    used: Vec<bool>,
    default: &'a LExp,
}

impl Solver<'_, '_> {
    fn one_row(&self) -> bool {
        self.bodies.len() == 1
    }

    fn emit_body(&mut self, row: &Row) -> LExp {
        let first = !std::mem::replace(&mut self.used[row.body], true);
        let mut e = if first && self.one_row() {
            std::mem::replace(&mut self.bodies[0], LExp::Unit)
        } else {
            assert!(!self.one_row(), "a one-row match emits its body once");
            let body = &self.bodies[row.body];
            crate::count_work(|| body.size());
            if first {
                body.clone()
            } else {
                rename_clone(body, self.mc.vars, &mut HashMap::new())
            }
        };
        for (pvar, occ) in &row.subst {
            crate::count_work(|| e.size());
            subst_atomic(&mut e, *pvar, &LExp::Var(*occ));
        }
        e
    }

    /// The variable bound to a sub-value (a tuple component, a
    /// constructor's argument) whose pattern in the first row is `pat`: in
    /// a one-row match a variable pattern is its own binder, otherwise a
    /// fresh temporary named `name`.
    fn sub_occ(&mut self, pat: Option<&TPat>, name: &str) -> VarId {
        match pat {
            Some(TPat::Var(v, _)) if self.one_row() => *v,
            _ => self.mc.vars.fresh(name),
        }
    }

    fn solve(&mut self, mut rows: Vec<Row>) -> LExp {
        if rows.is_empty() {
            return self.default.clone();
        }
        // Normalize the first row: drop irrefutable-variable tests.
        {
            let Row { cols, subst, .. } = &mut rows[0];
            cols.retain_mut(|(occ, pat)| match pat {
                TPat::Wild => false,
                TPat::Var(v, _) => {
                    // A binder (see `sub_occ`) needs no substitution.
                    if v != occ {
                        subst.push((*v, *occ));
                    }
                    false
                }
                _ => true,
            });
        }
        if rows[0].cols.is_empty() {
            let row0 = rows.swap_remove(0);
            return self.emit_body(&row0);
        }
        let (occ, pat) = rows[0].cols[0].clone();
        match pat {
            TPat::Wild | TPat::Var(_, _) => unreachable!("normalized above"),
            TPat::Tuple(ps) => self.destructure_tuple(occ, &ps, rows),
            TPat::Int(_) => {
                let (arms, default) = self.literal_arms(occ, &rows, |p| match p {
                    TPat::Int(n) => Some(*n),
                    _ => None,
                });
                LExp::SwitchInt {
                    scrut: Box::new(LExp::Var(occ)),
                    arms,
                    default: Box::new(default),
                }
            }
            TPat::Str(_) => {
                let (arms, default) = self.literal_arms(occ, &rows, |p| match p {
                    TPat::Str(s) => Some(s.clone()),
                    _ => None,
                });
                LExp::SwitchStr {
                    scrut: Box::new(LExp::Var(occ)),
                    arms,
                    default: Box::new(default),
                }
            }
            TPat::Bool(_) => self.branch_bool(occ, rows),
            TPat::Con { tycon, .. } => self.branch_con(occ, tycon, rows),
            TPat::Exn { .. } => self.branch_exn(occ, rows),
        }
    }

    /// Destructures the tuple at `occ` once, expanding tuple tests at `occ`
    /// in every row into component tests; `first` is the first row's.
    fn destructure_tuple(&mut self, occ: VarId, first: &[TPat], mut rows: Vec<Row>) -> LExp {
        let arity = first.len();
        let comps: Vec<VarId> = first
            .iter()
            .enumerate()
            .map(|(i, p)| self.sub_occ(Some(p), &format!("t{i}")))
            .collect();
        for row in &mut rows {
            let mut new_cols = Vec::new();
            for (o, p) in std::mem::take(&mut row.cols) {
                if o == occ {
                    match p {
                        TPat::Tuple(ps) => {
                            assert_eq!(ps.len(), arity, "tuple pattern arity mismatch");
                            new_cols.extend(comps.iter().copied().zip(ps));
                        }
                        TPat::Wild => {}
                        TPat::Var(v, _) => row.subst.push((v, occ)),
                        other => panic!("non-tuple pattern {other:?} at tuple occurrence"),
                    }
                } else {
                    new_cols.push((o, p));
                }
            }
            row.cols = new_cols;
        }
        let inner = self.solve(rows);
        comps
            .into_iter()
            .enumerate()
            .rev()
            .fold(inner, |acc, (i, c)| LExp::Let {
                var: c,
                ty: UNKNOWN_TY,
                rhs: Box::new(LExp::Select {
                    i,
                    arity,
                    tup: Box::new(LExp::Var(occ)),
                }),
                body: Box::new(acc),
            })
    }

    /// Sorts `rows` by their test at `occ`, in one pass.
    fn buckets<K: Eq + Hash + Clone>(
        rows: &[Row],
        occ: VarId,
        get_key: impl Fn(&TPat) -> Option<K>,
    ) -> Buckets<K> {
        crate::count_work(|| rows.len());
        let mut slots: HashMap<K, usize> = HashMap::new();
        let mut b = Buckets {
            keys: Vec::new(),
            keyed: Vec::new(),
            any: Vec::new(),
        };
        for (i, row) in rows.iter().enumerate() {
            let test = row.cols.iter().find(|(o, _)| *o == occ);
            match test.and_then(|(_, p)| get_key(p)) {
                Some(k) => {
                    let slot = *slots.entry(k.clone()).or_insert_with(|| {
                        b.keys.push(k);
                        b.keyed.push(Vec::new());
                        b.keys.len() - 1
                    });
                    b.keyed[slot].push(i);
                }
                None => b.any.push(i),
            }
        }
        b
    }

    /// The rows relevant when `occ` is known to match one key: those at
    /// positions `keyed`, which test `occ` against it (`expand` replaces
    /// the test by its sub-patterns), and those at positions `any`, which
    /// match whatever `occ` holds — merged back into row order.
    fn specialize(
        rows: &[Row],
        occ: VarId,
        keyed: &[usize],
        any: &[usize],
        expand: impl Fn(&mut Row, TPat),
    ) -> Vec<Row> {
        crate::count_work(|| keyed.len() + any.len());
        let mut out = Vec::with_capacity(keyed.len() + any.len());
        let (mut k, mut a) = (keyed.iter().peekable(), any.iter().peekable());
        loop {
            let (i, tests_key) = match (k.peek(), a.peek()) {
                (Some(&&i), Some(&&j)) if i < j => (*k.next().unwrap(), true),
                (_, Some(_)) => (*a.next().unwrap(), false),
                (Some(_), None) => (*k.next().unwrap(), true),
                (None, None) => return out,
            };
            let mut r = rows[i].clone();
            if let Some(ix) = r.cols.iter().position(|(o, _)| *o == occ) {
                let (_, p) = r.cols.remove(ix);
                match p {
                    p if tests_key => expand(&mut r, p),
                    TPat::Wild => {}
                    TPat::Var(v, _) => r.subst.push((v, occ)),
                    other => panic!("mixed pattern kinds at occurrence: {other:?}"),
                }
            }
            out.push(r);
        }
    }

    /// The arms and the default of a switch on literal keys at `occ`.
    fn literal_arms<K: Eq + Hash + Clone>(
        &mut self,
        occ: VarId,
        rows: &[Row],
        get_key: impl Fn(&TPat) -> Option<K>,
    ) -> (Vec<(K, LExp)>, LExp) {
        let b = Self::buckets(rows, occ, get_key);
        let arms = b
            .keys
            .into_iter()
            .zip(&b.keyed)
            .map(|(k, keyed)| {
                let spec = Self::specialize(rows, occ, keyed, &b.any, |_, _| {});
                (k, self.solve(spec))
            })
            .collect();
        let default = self.solve(Self::specialize(rows, occ, &[], &b.any, |_, _| {}));
        (arms, default)
    }

    fn branch_bool(&mut self, occ: VarId, rows: Vec<Row>) -> LExp {
        let b = Self::buckets(&rows, occ, |p| match p {
            TPat::Bool(b) => Some(*b),
            _ => None,
        });
        let mut arm = |v: bool| {
            let spec = Self::specialize(&rows, occ, b.keyed_at(&v), &b.any, |_, _| {});
            self.solve(spec)
        };
        let t = arm(true);
        let f = arm(false);
        LExp::If(Box::new(LExp::Var(occ)), Box::new(t), Box::new(f))
    }

    fn branch_con(&mut self, occ: VarId, tycon: TyConId, rows: Vec<Row>) -> LExp {
        let b = Self::buckets(&rows, occ, |p| match p {
            TPat::Con { con, .. } => Some(*con),
            _ => None,
        });
        let mut arms = Vec::new();
        for (k, keyed) in b.keys.iter().zip(&b.keyed) {
            // The variable for the constructor argument in this arm.
            let carries = self.mc.data.get(tycon).constructors[k.0 as usize]
                .arg
                .is_some();
            let first = match &rows[0].cols[0].1 {
                TPat::Con { con, arg, .. } if con == k => arg.as_deref(),
                _ => None,
            };
            let argv = carries.then(|| self.sub_occ(first, "conarg"));
            let spec = Self::specialize(&rows, occ, keyed, &b.any, |r, p| {
                if let TPat::Con { arg: Some(ap), .. } = p {
                    r.cols.insert(0, (argv.expect("carrying constructor"), *ap));
                }
            });
            let inner = self.solve(spec);
            let arm = match argv {
                Some(v) => LExp::Let {
                    var: v,
                    ty: UNKNOWN_TY,
                    rhs: Box::new(LExp::DeCon {
                        tycon,
                        con: *k,
                        scrut: Box::new(LExp::Var(occ)),
                    }),
                    body: Box::new(inner),
                },
                None => inner,
            };
            arms.push((*k, arm));
        }
        let complete = b.keys.len() == self.mc.data.get(tycon).constructors.len();
        let default = if complete {
            None
        } else {
            let spec = Self::specialize(&rows, occ, &[], &b.any, |_, _| {});
            Some(Box::new(self.solve(spec)))
        };
        LExp::SwitchCon {
            scrut: Box::new(LExp::Var(occ)),
            tycon,
            arms,
            default,
        }
    }

    fn branch_exn(&mut self, occ: VarId, rows: Vec<Row>) -> LExp {
        let b = Self::buckets(&rows, occ, |p| match p {
            TPat::Exn { exn, .. } => Some(*exn),
            _ => None,
        });
        let mut arms = Vec::new();
        for (k, keyed) in b.keys.iter().zip(&b.keyed) {
            let first = match &rows[0].cols[0].1 {
                TPat::Exn { exn, arg } if exn == k => arg.as_deref(),
                _ => None,
            };
            let argv = self.sub_occ(first, "exnarg");
            let spec = Self::specialize(&rows, occ, keyed, &b.any, |r, p| {
                if let TPat::Exn { arg: Some(ap), .. } = p {
                    r.cols.insert(0, (argv, *ap));
                }
            });
            // Whether any row binds the argument.
            let used_arg = spec
                .iter()
                .any(|row| row.cols.iter().any(|(o, _)| *o == argv));
            let inner = self.solve(spec);
            let arm = if used_arg {
                LExp::Let {
                    var: argv,
                    ty: UNKNOWN_TY,
                    rhs: Box::new(LExp::DeExn {
                        exn: *k,
                        scrut: Box::new(LExp::Var(occ)),
                    }),
                    body: Box::new(inner),
                }
            } else {
                inner
            };
            arms.push((*k, arm));
        }
        // Exceptions are an open type: always emit a default.
        let spec = Self::specialize(&rows, occ, &[], &b.any, |_, _| {});
        let default = Box::new(self.solve(spec));
        LExp::SwitchExn {
            scrut: Box::new(LExp::Var(occ)),
            arms,
            default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TyId;
    use kit_lambda::eval::{eval, Value};
    use kit_lambda::ty::{ExnEnv, CONS, LIST, NIL};

    fn list_pat(ps: Vec<TPat>) -> TPat {
        // [p1, p2, ...] as nested cons patterns
        let mut out = TPat::Con {
            tycon: LIST,
            con: NIL,
            targs: vec![TyId::INT],
            arg: None,
        };
        for p in ps.into_iter().rev() {
            out = TPat::Con {
                tycon: LIST,
                con: CONS,
                targs: vec![TyId::INT],
                arg: Some(Box::new(TPat::Tuple(vec![p, out]))),
            };
        }
        out
    }

    fn int_list(vals: &[i64]) -> LExp {
        let mut out = LExp::Con {
            tycon: LIST,
            con: NIL,
            targs: vec![],
            arg: None,
        };
        for v in vals.iter().rev() {
            out = LExp::Con {
                tycon: LIST,
                con: CONS,
                targs: vec![],
                arg: Some(Box::new(LExp::Record(vec![LExp::Int(*v), out]))),
            };
        }
        out
    }

    fn run(e: &LExp) -> i64 {
        match eval(e, &ExnEnv::new(), Some(1_000_000)).unwrap().value {
            Value::Int(n) => n,
            other => panic!("expected int, got {other:?}"),
        }
    }

    /// `case n of …` over the integer rows, evaluated at each scrutinee.
    fn int_case(rows: Vec<(Vec<TPat>, LExp)>, expect: &[(i64, i64)]) {
        let mut vars = VarTable::new();
        let data = DataEnv::new();
        let n = vars.fresh("n");
        let mut mc = MatchCtx {
            vars: &mut vars,
            data: &data,
        };
        let tree = compile(&mut mc, &[n], rows, &LExp::Int(-1));
        for &(v, want) in expect {
            let prog = LExp::Let {
                var: n,
                ty: UNKNOWN_TY,
                rhs: Box::new(LExp::Int(v)),
                body: Box::new(tree.clone()),
            };
            assert_eq!(run(&prog), want, "scrut {v}");
        }
    }

    #[test]
    fn compiles_list_length_style_match() {
        // case xs of nil => 0 | x :: _ => x
        let mut vars = VarTable::new();
        let data = DataEnv::new();
        let xs = vars.fresh("xs");
        let x = vars.fresh("x");
        let rows = vec![
            (vec![list_pat(vec![])], LExp::Int(0)),
            (
                vec![TPat::Con {
                    tycon: LIST,
                    con: CONS,
                    targs: vec![TyId::INT],
                    arg: Some(Box::new(TPat::Tuple(vec![
                        TPat::Var(x, TyId::INT),
                        TPat::Wild,
                    ]))),
                }],
                LExp::Var(x),
            ),
        ];
        let mut mc = MatchCtx {
            vars: &mut vars,
            data: &data,
        };
        let tree = compile(&mut mc, &[xs], rows, &LExp::Int(-1));
        // Exhaustive: no default in the switch.
        let LExp::SwitchCon { default: None, .. } = &tree else {
            panic!("expected exhaustive switch, got {tree:?}")
        };
        let prog = LExp::Let {
            var: xs,
            ty: UNKNOWN_TY,
            rhs: Box::new(int_list(&[42, 1])),
            body: Box::new(tree),
        };
        assert_eq!(run(&prog), 42);
    }

    #[test]
    fn first_match_priority_with_literals() {
        // case n of 0 => 10 | 1 => 11 | _ => 99
        let rows = vec![
            (vec![TPat::Int(0)], LExp::Int(10)),
            (vec![TPat::Int(1)], LExp::Int(11)),
            (vec![TPat::Wild], LExp::Int(99)),
        ];
        int_case(rows, &[(0, 10), (1, 11), (7, 99)]);
    }

    #[test]
    fn a_wildcard_between_keys_shadows_the_rows_after_it() {
        // case n of 1 => 1 | _ => 2 | 1 => 3 | 4 => 4
        let rows = vec![
            (vec![TPat::Int(1)], LExp::Int(1)),
            (vec![TPat::Wild], LExp::Int(2)),
            (vec![TPat::Int(1)], LExp::Int(3)),
            (vec![TPat::Int(4)], LExp::Int(4)),
        ];
        int_case(rows, &[(1, 1), (4, 2), (7, 2)]);
    }

    #[test]
    fn multi_column_tuple_rows() {
        // fun f 0 y = y | f x 0 = x | f x y = x + y (two occurrences)
        let mut vars = VarTable::new();
        let data = DataEnv::new();
        let a = vars.fresh("a");
        let b = vars.fresh("b");
        let x1 = vars.fresh("x");
        let y1 = vars.fresh("y");
        let x2 = vars.fresh("x");
        let y2 = vars.fresh("y");
        let rows = vec![
            (vec![TPat::Int(0), TPat::Var(y1, TyId::INT)], LExp::Var(y1)),
            (vec![TPat::Var(x1, TyId::INT), TPat::Int(0)], LExp::Var(x1)),
            (
                vec![TPat::Var(x2, TyId::INT), TPat::Var(y2, TyId::INT)],
                LExp::Prim(
                    kit_lambda::exp::Prim::IAdd,
                    vec![LExp::Var(x2), LExp::Var(y2)],
                ),
            ),
        ];
        let mut mc = MatchCtx {
            vars: &mut vars,
            data: &data,
        };
        let tree = compile(&mut mc, &[a, b], rows, &LExp::Int(-1));
        let mk = |av: i64, bv: i64, t: &LExp| LExp::Let {
            var: a,
            ty: UNKNOWN_TY,
            rhs: Box::new(LExp::Int(av)),
            body: Box::new(LExp::Let {
                var: b,
                ty: UNKNOWN_TY,
                rhs: Box::new(LExp::Int(bv)),
                body: Box::new(t.clone()),
            }),
        };
        assert_eq!(run(&mk(0, 5, &tree)), 5);
        assert_eq!(run(&mk(5, 0, &tree)), 5);
        assert_eq!(run(&mk(3, 4, &tree)), 7);
    }

    #[test]
    fn default_reached_when_no_rule_matches() {
        int_case(vec![(vec![TPat::Int(1)], LExp::Int(1))], &[(9, -1)]);
    }
}
