//! Region-annotated type reconstruction (the heart of region inference).
//!
//! The pass re-types the (alpha-unique, monomorphic-representation)
//! `LambdaExp` program with [`crate::rtype::RTy`] types, assigning a fresh
//! region variable to every allocation point and unifying regions exactly
//! where types unify. Arrows carry latent effects; every allocation adds a
//! `put`, every inspection a `get`, into the effect of the enclosing
//! function.
//!
//! `fix`-bound functions are **region polymorphic**: their schemes quantify
//! region and effect variables local to the function, and each call site
//! instantiates them with fresh actuals (Tofte–Talpin). Region-polymorphic
//! *recursion* is inferred by bounded fixed-point iteration: bodies are
//! re-annotated against the previous scheme until the scheme reaches a
//! fixed point (compared up to alpha-equivalence), falling back to
//! region-monomorphic recursion if the bound is exceeded.
//!
//! The §2.6 weakening (`gc_safe`): the regions of values captured by a
//! closure are added to the closure's latent effect, so they stay live at
//! least as long as the closure, ruling out dangling pointers. Without it
//! (`r` mode) a captured-but-unused value's region may die first — the
//! paper's example of a safe dangling pointer.
//!
//! Work is kept proportional to what is annotated:
//!
//! * free-variable sets come from a side table built in one walk
//!   ([`crate::freevars`]), never from re-walking a subtree;
//! * a fixed-point round that is superseded leaves nothing behind: its
//!   nodes and its `letregion` candidates (markers) are truncated away
//!   before the next round starts, so only candidates of the final tree
//!   are ever finalized;
//! * a marker records the *bindings* of its free variables — indices into
//!   an append-only arena, since the environment rebinds a group's
//!   variables between rounds — and escape sets are computed at the end,
//!   when the stores are frozen, as unions of per-binding region sets that
//!   are each computed once;
//! * types are arena indices ([`crate::rtype::TyId`]);
//! * the program is pushed into an arena ([`crate::rexp::Arena`]) as it is
//!   annotated; variable-length parts wait on scratch stacks, so no node
//!   allocates.
//!
//! Output: an arena program whose places are densely numbered in order of
//! first occurrence, plus per-marker escape sets consumed by `letregion`
//! placement. Regions that occur nowhere in the program get no number:
//! placement could never bind them.

use crate::freevars::FreeVars;
use crate::rexp::{Arena, Arm, ExpId, Mark, RExp, RFixFun, RProgram, RegVar, Span};
use crate::rtype::{Eff, IdSet, Kids, RScheme, RTy, Reg, Stores, TyId};
use kit_lambda::exp::{FixFun, LExp, Prim, VarId};
use kit_lambda::ty::{ConId, LTy, SchemeTy, TyConId};
use kit_lambda::LProgram;

/// Work counters of one annotation run: plain counts, so that "linear in
/// program size" can be asserted without timing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnotateStats {
    /// Expression nodes annotated, counting every fixed-point round.
    pub node_visits: u64,
    /// Walks that computed free-variable sets (one: the side table).
    pub free_var_walks: u64,
    /// Fixed-point rounds run over all `fix` groups.
    pub fix_rounds: u64,
    /// `letregion` candidates in the final tree.
    pub markers_live: u64,
    /// Candidates of superseded rounds, dropped without being finalized.
    pub markers_dropped: u64,
    /// Free-region-variable walks over a type (with its effect closure).
    pub frv_calls: u64,
    /// Effect nodes and their regions visited by effect-closure walks.
    pub eff_closure_steps: u64,
}

/// Result of annotation: the program (with [`RExp::Marker`] nodes still in
/// place) and the per-marker escape sets (dense region numbering).
#[derive(Debug)]
pub struct Annotated {
    /// The annotated program; `globals` is empty until placement runs.
    pub prog: RProgram,
    /// For each marker id: regions that must *not* be bound at or below
    /// it.
    pub marker_escapes: Escapes,
    /// Regions escaping globally (program result, raised exceptions),
    /// ascending.
    pub global_escapes: Vec<RegVar>,
    /// How much work annotation did.
    pub stats: AnnotateStats,
}

/// The escape sets of the markers, one run of a shared pool each.
#[derive(Debug, Default)]
pub struct Escapes {
    pool: Vec<RegVar>,
    /// Where each marker's set ends in `pool` (it starts where the
    /// previous one's ends).
    ends: Vec<u32>,
}

impl Escapes {
    /// Builds the table from one ascending set per marker.
    #[cfg(test)]
    pub(crate) fn from_sets<'s>(sets: impl IntoIterator<Item = &'s [RegVar]>) -> Escapes {
        let mut t = Escapes::default();
        for set in sets {
            t.pool.extend_from_slice(set);
            t.ends.push(t.pool.len() as u32);
        }
        t
    }

    /// The regions marker `id` may not bind, ascending.
    pub fn of(&self, id: u32) -> &[RegVar] {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        };
        &self.pool[start..self.ends[id as usize] as usize]
    }

    /// Number of markers.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no markers.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// Runs annotation over an optimized `LambdaExp` program.
pub fn annotate(prog: &LProgram, gc_safe: bool) -> Annotated {
    let fvs = FreeVars::of_program(&prog.body);
    let mut ann = Ann {
        st: Stores::new(),
        prog,
        fvs: &fvs,
        env: vec![UNBOUND; prog.vars.len()],
        binds: Vec::new(),
        cur_eff: Vec::new(),
        markers: Vec::new(),
        marker_binds: Vec::new(),
        fixmeta: vec![(u32::MAX, 0); prog.vars.len()],
        formal_idx: Vec::new(),
        out: Arena::default(),
        kid_stack: Vec::new(),
        ty_stack: Vec::new(),
        arm_stack: Vec::new(),
        global_frv: Vec::new(),
        gc_safe,
        stats: AnnotateStats {
            free_var_walks: 1,
            ..AnnotateStats::default()
        },
        tmp: IdSet::default(),
        scratch: Default::default(),
        alpha: AlphaCx::default(),
    };
    let top_eff = ann.st.fresh_eff();
    ann.cur_eff.push(top_eff);
    let (body, ty) = ann.ann(&prog.body);
    // The program result escapes.
    ann.escapes_globally(ty);
    ann.finalize(body)
}

type BindId = u32;
const UNBOUND: BindId = u32::MAX;

#[derive(Debug)]
enum Bind {
    Mono(TyId),
    /// Type-polymorphic, region-monomorphic (`let`-bound values).
    PolyVal(RScheme),
    /// Region-polymorphic `fix` function.
    Fix(RScheme),
}

impl Bind {
    /// The type, and the type, region and effect variables a scheme
    /// quantifies over it.
    fn parts(&self) -> (TyId, &[u32], &[Reg], &[Eff]) {
        match self {
            Bind::Mono(t) => (*t, &[], &[], &[]),
            Bind::PolyVal(s) | Bind::Fix(s) => (s.ty, &s.qtys, &s.qregs, &s.qeffs),
        }
    }
}

/// What `v` is bound to right now (a free function, so that the borrow
/// covers the two fields and not the whole annotator).
fn binding<'b>(binds: &'b [Bind], env: &[BindId], v: VarId) -> Option<&'b Bind> {
    binds.get(env[v.0 as usize] as usize)
}

struct MarkerInfo {
    /// Type of the expression the marker wraps.
    ty: TyId,
    /// Where the bindings of the expression's free variables start in
    /// `Ann::marker_binds` (they end where the next marker's start).
    binds_start: u32,
}

struct Ann<'a> {
    st: Stores,
    prog: &'a LProgram,
    fvs: &'a FreeVars,
    /// Current binding of every variable.
    env: Vec<BindId>,
    /// Every binding ever made, in order; markers refer to these.
    binds: Vec<Bind>,
    cur_eff: Vec<Eff>,
    /// The markers of the tree built so far (superseded rounds truncated).
    markers: Vec<MarkerInfo>,
    marker_binds: Vec<BindId>,
    /// Per variable (a `fix` function's, or `(u32::MAX, 0)`): where its
    /// runtime formals — the indices into its scheme's `qregs` of the
    /// regions the body allocates into — lie in `formal_idx`.
    fixmeta: Vec<(u32, u32)>,
    formal_idx: Vec<u32>,
    /// The program built so far.
    out: Arena,
    /// Scratch stacks for variable-length node parts whose elements are
    /// annotated one by one; each call leaves them as it found them.
    kid_stack: Vec<ExpId>,
    ty_stack: Vec<TyId>,
    arm_stack: Vec<Arm>,
    /// Regions forced global; not necessarily canonical.
    global_frv: Vec<Reg>,
    gc_safe: bool,
    stats: AnnotateStats,
    /// Scratch sets, used within one step and never across a recursive
    /// `ann` call.
    tmp: IdSet,
    scratch: [IdSet; 2],
    /// Scratch for comparing schemes.
    alpha: AlphaCx,
}

impl<'a> Ann<'a> {
    fn eff(&self) -> Eff {
        *self.cur_eff.last().unwrap()
    }

    fn put(&mut self, r: Reg) {
        let e = self.eff();
        self.st.eff_add_reg(e, r);
    }

    fn get_ty(&mut self, ty: TyId) {
        if let Some(r) = self.st.node(ty).outer_region() {
            let e = self.eff();
            self.st.eff_add_reg(e, r);
        }
    }

    fn bind(&mut self, v: VarId, b: Bind) {
        self.env[v.0 as usize] = self.binds.len() as BindId;
        self.binds.push(b);
    }

    /// Forces every region of `ty` global.
    fn escapes_globally(&mut self, ty: TyId) {
        self.tmp.clear();
        self.st.frv(ty, &mut self.tmp);
        self.global_frv.extend_from_slice(self.tmp.items());
    }

    /// Pushes `n` fresh type variables onto `ty_stack`; returns where
    /// they start.
    fn fresh_tys(&mut self, n: usize) -> usize {
        let base = self.ty_stack.len();
        for _ in 0..n {
            let t = self.st.fresh_ty();
            self.ty_stack.push(t);
        }
        base
    }

    /// Converts a constructor-argument scheme to a type.
    ///
    /// Datatypes are **region uniform** (as in the ML Kit's basic region
    /// typing): every boxed component in a non-parameter position — the
    /// recursive spine, nested datatypes, tuples, strings, reals — lives in
    /// `self_reg`, the datatype's own region. Only type-parameter
    /// positions carry their instantiation's regions. This is what makes
    /// the component regions visible in the datatype's (single-region)
    /// type, so escape analysis cannot lose them. The type arguments are
    /// on `ty_stack` from `targs` on.
    fn conv_scheme(&mut self, s: &SchemeTy, targs: usize, self_reg: Reg) -> TyId {
        match s {
            SchemeTy::Param(i) => self.ty_stack[targs + *i as usize],
            SchemeTy::Int => Stores::INT,
            SchemeTy::Bool => Stores::BOOL,
            SchemeTy::Unit => Stores::UNIT,
            SchemeTy::Real => self.st.real(self_reg),
            SchemeTy::Str => self.st.string(self_reg),
            SchemeTy::Exn => self.st.exn(self_reg),
            SchemeTy::Con(tc, args) => {
                let base = self.conv_all(args, targs, self_reg);
                let ty = self.st.con(*tc, &self.ty_stack[base..], self_reg);
                self.ty_stack.truncate(base);
                ty
            }
            SchemeTy::Arrow(a, b) => {
                // Functions stored in datatypes: the closure shares the
                // spine region; the latent effect additionally records a
                // use of the spine so callers keep it alive.
                let na = self.conv_scheme(a, targs, self_reg);
                let nb = self.conv_scheme(b, targs, self_reg);
                let e = self.st.fresh_eff();
                self.st.eff_add_reg(e, self_reg);
                self.st.arrow(&[na], e, nb, self_reg)
            }
            SchemeTy::Tuple(ts) => {
                let base = self.conv_all(ts, targs, self_reg);
                let ty = self.st.tuple(&self.ty_stack[base..], self_reg);
                self.ty_stack.truncate(base);
                ty
            }
            SchemeTy::Ref(t) => {
                let nt = self.conv_scheme(t, targs, self_reg);
                self.st.reference(nt, self_reg)
            }
            SchemeTy::Array(t) => {
                let nt = self.conv_scheme(t, targs, self_reg);
                self.st.array(nt, self_reg)
            }
        }
    }

    /// Converts `ss` onto `ty_stack`; returns where they start.
    fn conv_all(&mut self, ss: &[SchemeTy], targs: usize, self_reg: Reg) -> usize {
        let base = self.ty_stack.len();
        for s in ss {
            let t = self.conv_scheme(s, targs, self_reg);
            self.ty_stack.push(t);
        }
        base
    }

    /// The argument type of constructor `con` of the datatype whose type
    /// arguments and spine region `ty` (a resolved `Con` type) carries.
    fn con_arg_ty(&mut self, tycon: TyConId, con: ConId, ty: TyId) -> Option<TyId> {
        let prog = self.prog;
        let scheme = prog.data.get(tycon).constructors[con.0 as usize]
            .arg
            .as_ref()?;
        let RTy::Con(_, targs, spine) = self.st.node(ty) else {
            unreachable!("constructor of a non-datatype type")
        };
        let base = self.ty_stack.len();
        self.ty_stack.extend_from_slice(self.st.kids(targs));
        let ty = self.conv_scheme(scheme, base, spine);
        self.ty_stack.truncate(base);
        Some(ty)
    }

    /// A fresh instance `tycon<'a, ...> @ ρ` of a datatype, and its ρ.
    fn fresh_con_ty(&mut self, tycon: TyConId) -> (TyId, Reg) {
        let arity = self.prog.data.get(tycon).arity as usize;
        let targs = self.fresh_tys(arity);
        let reg = self.st.fresh_reg();
        let ty = self.st.con(tycon, &self.ty_stack[targs..], reg);
        self.ty_stack.truncate(targs);
        (ty, reg)
    }

    /// Records a `letregion` candidate around `inner`, the annotation of
    /// `lexp`: the escape set will cover `node_ty` and the types the free
    /// variables of `lexp` are bound at right now.
    fn marker(&mut self, inner: ExpId, node_ty: TyId, lexp: &LExp) -> ExpId {
        let binds_start = self.marker_binds.len() as u32;
        for v in self.fvs.of(lexp) {
            match self.env[v.0 as usize] {
                UNBOUND => {}
                b => self.marker_binds.push(b),
            }
        }
        let id = self.markers.len() as u32;
        self.markers.push(MarkerInfo {
            ty: node_ty,
            binds_start,
        });
        self.out.push(RExp::Marker { id, body: inner })
    }

    /// Forgets the nodes and markers made since `mark` was taken: the
    /// round they belong to has been superseded.
    fn drop_round(&mut self, (markers, nodes): (usize, Mark)) {
        self.out.truncate(nodes);
        if let Some(first) = self.markers.get(markers) {
            self.marker_binds.truncate(first.binds_start as usize);
            self.stats.markers_dropped += (self.markers.len() - markers) as u64;
            self.markers.truncate(markers);
        }
    }

    /// Free type variables of the bindings of `vars` (schemes exclude the
    /// variables they quantify); may list a variable more than once.
    fn env_ftv(&mut self, vars: &[VarId]) -> Vec<u32> {
        let mut ftv = Vec::new();
        for &v in vars {
            let Some(b) = binding(&self.binds, &self.env, v) else {
                continue;
            };
            let (ty, qtys, ..) = b.parts();
            self.tmp.clear();
            self.st.ftv(ty, &mut self.tmp);
            ftv.extend(self.tmp.items().iter().filter(|t| !qtys.contains(t)));
        }
        ftv
    }

    /// Free region, effect and type variables of the bindings of `vars`,
    /// as generalization wants them.
    fn env_free_sets(&mut self, vars: &[VarId]) -> (Vec<Reg>, Vec<Eff>, Vec<u32>) {
        let mut frv = Vec::new();
        let mut fev = Vec::new();
        for &v in vars {
            let Some(b) = binding(&self.binds, &self.env, v) else {
                continue;
            };
            let (ty, _, qregs, qeffs) = b.parts();
            self.tmp.clear();
            self.st.frv(ty, &mut self.tmp);
            let bound: Vec<Reg> = qregs.iter().map(|&q| self.st.find_reg(q)).collect();
            frv.extend(self.tmp.items().iter().filter(|r| !bound.contains(r)));
            self.tmp.clear();
            self.st.fev(ty, &mut self.tmp);
            let bound: Vec<Eff> = qeffs.iter().map(|&q| self.st.find_eff(q)).collect();
            fev.extend(self.tmp.items().iter().filter(|e| !bound.contains(e)));
        }
        frv.sort_unstable();
        frv.dedup();
        fev.sort_unstable();
        fev.dedup();
        (frv, fev, self.env_ftv(vars))
    }

    // --------------------------------------------------------------- driver

    fn ann(&mut self, e: &LExp) -> (ExpId, TyId) {
        self.stats.node_visits += 1;
        let (node, ty) = match e {
            LExp::Var(v) => {
                let bind = binding(&self.binds, &self.env, *v)
                    .unwrap_or_else(|| panic!("unbound variable {} in region inference", v.0));
                match bind {
                    Bind::Mono(t) => (RExp::Var(*v), *t),
                    Bind::PolyVal(s) => (RExp::Var(*v), self.st.instantiate(s)),
                    Bind::Fix(s) => {
                        // Escaping use of a fix function: allocate a pair
                        // closure; the shared closure's region stays in the
                        // latent effect so it outlives the pair.
                        let inst = self.st.instantiate(s);
                        let rargs = self.out.push_places(self.st.reg_actuals().map(RegVar));
                        let RTy::Arrow(ps, eff, ret, shared_reg) = self.st.node(inst) else {
                            panic!("fix-bound variable with non-arrow type")
                        };
                        let pair_reg = self.st.fresh_reg();
                        self.st.eff_add_reg(eff, shared_reg);
                        self.put(pair_reg);
                        (
                            RExp::FixVar {
                                var: *v,
                                rargs,
                                at: RegVar(pair_reg),
                            },
                            self.st.arrow_at(ps, eff, ret, pair_reg),
                        )
                    }
                }
            }
            LExp::Int(n) => (RExp::Int(*n), Stores::INT),
            LExp::Bool(b) => (RExp::Bool(*b), Stores::BOOL),
            LExp::Unit => (RExp::Unit, Stores::UNIT),
            LExp::Str(s) => {
                // Constants live in the data segment; the region in the
                // type is never allocated into.
                let r = self.st.fresh_reg();
                (RExp::Str(self.out.push_str(s)), self.st.string(r))
            }
            LExp::Real(x) => {
                let r = self.alloc_reg();
                (RExp::Real(*x, RegVar(r)), self.st.real(r))
            }
            LExp::Prim(p, args) => self.ann_prim(*p, args),
            LExp::Record(es) => {
                let (kids, tys) = self.ann_all(es);
                let r = self.alloc_reg();
                let ty = self.st.tuple(&self.ty_stack[tys..], r);
                self.ty_stack.truncate(tys);
                (RExp::Record(kids, RegVar(r)), ty)
            }
            LExp::Select { i, arity, tup } => {
                let (re, t) = self.ann(tup);
                let comps = self.fresh_tys(*arity);
                let reg = self.st.fresh_reg();
                let want = self.st.tuple(&self.ty_stack[comps..], reg);
                let comp = self.ty_stack[comps + *i];
                self.ty_stack.truncate(comps);
                self.st.unify(t, want);
                self.get_ty(t);
                (RExp::Select(*i, re), comp)
            }
            LExp::Con {
                tycon, con, arg, ..
            } => self.ann_con(*tycon, *con, arg.as_deref()),
            LExp::DeCon { tycon, con, scrut } => {
                let (rs, t) = self.ann_scrutinee(scrut, *tycon);
                let arg_ty = self
                    .con_arg_ty(*tycon, *con, t)
                    .expect("decon of nullary constructor");
                (
                    RExp::DeCon {
                        tycon: *tycon,
                        con: *con,
                        scrut: rs,
                    },
                    arg_ty,
                )
            }
            LExp::SwitchCon {
                scrut,
                tycon,
                arms,
                default,
            } => {
                let (rs, _) = self.ann_scrutinee(scrut, *tycon);
                let result = self.st.fresh_ty();
                (
                    RExp::SwitchCon {
                        scrut: rs,
                        tycon: *tycon,
                        arms: self.ann_arms(arms, result, |_, c| c.0 as i64),
                        default: default.as_ref().map(|d| self.ann_arm(d, result)),
                    },
                    result,
                )
            }
            LExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                let (rs, _) = self.ann(scrut);
                let result = self.st.fresh_ty();
                (
                    RExp::SwitchInt {
                        scrut: rs,
                        arms: self.ann_arms(arms, result, |_, k| *k),
                        default: self.ann_arm(default, result),
                    },
                    result,
                )
            }
            LExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                let (rs, t) = self.ann(scrut);
                self.get_ty(t);
                let result = self.st.fresh_ty();
                (
                    RExp::SwitchStr {
                        scrut: rs,
                        arms: self.ann_arms(arms, result, |out, k| out.push_str(k).0 as i64),
                        default: self.ann_arm(default, result),
                    },
                    result,
                )
            }
            LExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                let (rs, t) = self.ann(scrut);
                self.get_ty(t);
                let result = self.st.fresh_ty();
                (
                    RExp::SwitchExn {
                        scrut: rs,
                        arms: self.ann_arms(arms, result, |_, x| x.0 as i64),
                        default: self.ann_arm(default, result),
                    },
                    result,
                )
            }
            LExp::If(c, th, el) => {
                let (rc, _) = self.ann(c);
                let (rt, tt) = self.ann_armed(th);
                let (re, te) = self.ann_armed(el);
                self.st.unify(tt, te);
                (RExp::If(rc, rt, re), tt)
            }
            LExp::Fn { params, body, .. } => {
                let ptys = self.fresh_tys(params.len());
                for (k, (v, _)) in params.iter().enumerate() {
                    self.bind(*v, Bind::Mono(self.ty_stack[ptys + k]));
                }
                let eff = self.st.fresh_eff();
                self.cur_eff.push(eff);
                let (rb, tb) = self.ann_armed(body);
                self.cur_eff.pop();
                let clos = self.alloc_reg();
                let captured = self.fvs.of(e);
                self.weaken_captures(captured, eff);
                let ty = self.st.arrow(&self.ty_stack[ptys..], eff, tb, clos);
                self.ty_stack.truncate(ptys);
                (
                    RExp::Fn {
                        params: self.out.push_params(params.iter().map(|(v, _)| *v)),
                        body: rb,
                        at: RegVar(clos),
                    },
                    ty,
                )
            }
            LExp::App(f, args) => self.ann_app(f, args),
            LExp::Let { var, rhs, body, .. } => {
                let (rrhs, trhs) = self.ann_armed(rhs);
                let bind = if is_value(rhs) {
                    // Type-polymorphic, region-monomorphic generalization.
                    // Only type variables reachable through the rhs's own
                    // free variables can be shared with the environment.
                    let rhs_vars = self.fvs.of(rhs);
                    let env_ftv = self.env_ftv(rhs_vars);
                    Bind::PolyVal(RScheme {
                        qtys: self.st.quantifiable_tys(trhs, &env_ftv, &mut self.scratch),
                        qregs: Vec::new(),
                        qeffs: Vec::new(),
                        ty: trhs,
                    })
                } else {
                    Bind::Mono(trhs)
                };
                self.bind(*var, bind);
                let (rb, tb) = self.ann(body);
                (
                    RExp::Let {
                        var: *var,
                        rhs: rrhs,
                        body: rb,
                    },
                    tb,
                )
            }
            LExp::Fix { funs, body } => self.ann_fix(e, funs, body),
            LExp::ExCon { exn, arg: None } => {
                let r = self.st.fresh_reg();
                (
                    RExp::ExCon {
                        exn: *exn,
                        arg: None,
                        at: None,
                    },
                    self.st.exn(r),
                )
            }
            LExp::ExCon { exn, arg: Some(a) } => {
                let (ra, ta) = self.ann(a);
                // Exception payloads escape non-locally (raising unwinds
                // the region stack), so their regions are forced global.
                self.escapes_globally(ta);
                let r = self.alloc_reg();
                self.global_frv.push(r);
                (
                    RExp::ExCon {
                        exn: *exn,
                        arg: Some(ra),
                        at: Some(RegVar(r)),
                    },
                    self.st.exn(r),
                )
            }
            LExp::DeExn { exn, scrut } => {
                let (rs, t) = self.ann(scrut);
                self.get_ty(t);
                let prog = self.prog;
                let arg_lty = prog.exns.get(*exn).arg.as_ref();
                let ty = self.rty_of_lty(arg_lty.expect("deexn of nullary exception"));
                // The payload regions were forced global at construction;
                // fresh regions here are safe over-approximations that also
                // become global through unification at use sites.
                self.escapes_globally(ty);
                (
                    RExp::DeExn {
                        exn: *exn,
                        scrut: rs,
                    },
                    ty,
                )
            }
            LExp::Raise { exp, .. } => {
                let (re, t) = self.ann(exp);
                self.escapes_globally(t);
                (RExp::Raise(re), self.st.fresh_ty())
            }
            LExp::Handle { body, var, handler } => {
                let (rb, tb) = self.ann_armed(body);
                let exn_reg = self.st.fresh_reg();
                self.global_frv.push(exn_reg);
                let exn_ty = self.st.exn(exn_reg);
                self.bind(*var, Bind::Mono(exn_ty));
                let (rh, th) = self.ann_armed(handler);
                self.st.unify(tb, th);
                (
                    RExp::Handle {
                        body: rb,
                        var: *var,
                        handler: rh,
                    },
                    tb,
                )
            }
        };
        (self.out.push(node), ty)
    }

    /// Annotates `es` in order: their nodes become a child list, and their
    /// types are left on `ty_stack` from the returned position (the caller
    /// truncates it back).
    fn ann_all(&mut self, es: &[LExp]) -> (Span<ExpId>, usize) {
        let (kids, tys) = (self.kid_stack.len(), self.ty_stack.len());
        for e in es {
            let (id, t) = self.ann(e);
            self.kid_stack.push(id);
            self.ty_stack.push(t);
        }
        (self.out.push_kids(self.kid_stack.drain(kids..)), tys)
    }

    /// Annotates `e` and wraps it in a `letregion` candidate.
    fn ann_armed(&mut self, e: &LExp) -> (ExpId, TyId) {
        let (r, t) = self.ann(e);
        (self.marker(r, t, e), t)
    }

    /// A branch arm: a candidate whose type is the switch's `result`.
    fn ann_arm(&mut self, e: &LExp, result: TyId) -> ExpId {
        let (r, t) = self.ann_armed(e);
        self.st.unify(t, result);
        r
    }

    /// The arms of a switch, each keyed by `key` of its `K`.
    fn ann_arms<K>(
        &mut self,
        arms: &[(K, LExp)],
        result: TyId,
        key: impl Fn(&mut Arena, &K) -> i64,
    ) -> Span<Arm> {
        let base = self.arm_stack.len();
        for (k, a) in arms {
            let body = self.ann_arm(a, result);
            let key = key(&mut self.out, k);
            self.arm_stack.push(Arm { key, body });
        }
        self.out.push_arms(self.arm_stack.drain(base..))
    }

    /// Annotates a scrutinee of datatype `tycon` and records the read of
    /// its spine; returns its (resolved `Con`) type.
    fn ann_scrutinee(&mut self, scrut: &LExp, tycon: TyConId) -> (ExpId, TyId) {
        let (rs, t) = self.ann(scrut);
        let (want, _) = self.fresh_con_ty(tycon);
        self.st.unify(t, want);
        self.get_ty(t);
        (rs, t)
    }

    fn ann_con(&mut self, tycon: TyConId, con: ConId, arg: Option<&LExp>) -> (RExp, TyId) {
        let (ty, spine) = self.fresh_con_ty(tycon);
        let takes_arg = self.prog.data.get(tycon).constructors[con.0 as usize]
            .arg
            .is_some();
        assert_eq!(
            arg.is_some(),
            takes_arg,
            "constructor arity mismatch in region inference"
        );
        let arg = arg.map(|a| {
            let (ra, ta) = self.ann(a);
            let want = self.con_arg_ty(tycon, con, ty).expect("checked above");
            self.st.unify(ta, want);
            self.put(spine);
            ra
        });
        (
            RExp::Con {
                tycon,
                con,
                at: arg.map(|_| RegVar(spine)),
                arg,
            },
            ty,
        )
    }

    /// A fresh region with a `put` into it in the current effect.
    fn alloc_reg(&mut self) -> Reg {
        let r = self.st.fresh_reg();
        self.put(r);
        r
    }

    /// A boxed type of the given shape in a fresh region.
    fn at_fresh_reg(&mut self, shape: fn(&mut Stores, Reg) -> TyId) -> TyId {
        let r = self.st.fresh_reg();
        shape(&mut self.st, r)
    }

    /// Unifies `t` with a fresh `real`/`string`/`'a ref`/`'a array` type.
    fn constrain(&mut self, t: TyId, shape: fn(&mut Stores, Reg) -> TyId) {
        let want = self.at_fresh_reg(shape);
        self.st.unify(t, want);
    }

    fn ann_prim(&mut self, p: Prim, args: &[LExp]) -> (RExp, TyId) {
        let (ras, base) = self.ann_all(args);
        let n = args.len();
        let arg = |ann: &Self, k: usize| ann.ty_stack[base + k];
        use Prim::*;
        // Constrain operand types to the primitive's expected shapes (the
        // operand may still be an unresolved variable otherwise).
        let any_ref: fn(&mut Stores, Reg) -> TyId = |st, r| {
            let inner = st.fresh_ty();
            st.reference(inner, r)
        };
        let any_array: fn(&mut Stores, Reg) -> TyId = |st, r| {
            let inner = st.fresh_ty();
            st.array(inner, r)
        };
        let all = |ann: &mut Self, shape: fn(&mut Stores, Reg) -> TyId| {
            for k in 0..n {
                ann.constrain(arg(ann, k), shape);
            }
        };
        match p {
            RAdd | RSub | RMul | RDiv | RLt | RLe | RGt | RGe | REq => all(self, Stores::real),
            RNeg | RAbs | Sqrt | Sin | Cos | Atan | Exp | Floor | Trunc | RtoS | Ln => {
                self.constrain(arg(self, 0), Stores::real);
            }
            StrEq | StrLt | StrConcat => all(self, Stores::string),
            StrSize | Print => self.constrain(arg(self, 0), Stores::string),
            StrSub => {
                self.constrain(arg(self, 0), Stores::string);
                self.st.unify(arg(self, 1), Stores::INT);
            }
            RefGet | RefSet => self.constrain(arg(self, 0), any_ref),
            RefEq => all(self, any_ref),
            ArrSub | ArrUpd | ArrLen => self.constrain(arg(self, 0), any_array),
            ArrEq => all(self, any_array),
            _ => {}
        }
        // Reads touch the operands' outer regions.
        for k in 0..n {
            self.get_ty(arg(self, k));
        }
        let (place, ty): (Option<Reg>, TyId) = match p {
            IAdd | ISub | IMul | IDiv | IMod | INeg | IAbs => (None, Stores::INT),
            ILt | ILe | IGt | IGe | IEq => (None, Stores::BOOL),
            RLt | RLe | RGt | RGe | REq => (None, Stores::BOOL),
            RAdd | RSub | RMul | RDiv | RNeg | RAbs | IntToReal | Sqrt | Sin | Cos | Atan | Ln
            | Exp => {
                let r = self.alloc_reg();
                (Some(r), self.st.real(r))
            }
            Floor | Trunc => (None, Stores::INT),
            StrEq | StrLt => (None, Stores::BOOL),
            StrConcat | ItoS | RtoS | Chr => {
                let r = self.alloc_reg();
                (Some(r), self.st.string(r))
            }
            StrSize | StrSub => (None, Stores::INT),
            Print => (None, Stores::UNIT),
            RefNew => {
                let r = self.alloc_reg();
                (Some(r), self.st.reference(arg(self, 0), r))
            }
            RefGet | RefSet => {
                let RTy::Ref(inner, _) = self.st.node(arg(self, 0)) else {
                    panic!("deref of or assignment to non-ref")
                };
                if p == RefGet {
                    (None, inner)
                } else {
                    self.st.unify(inner, arg(self, 1));
                    (None, Stores::UNIT)
                }
            }
            RefEq | ArrEq => (None, Stores::BOOL),
            ArrNew => {
                let r = self.alloc_reg();
                (Some(r), self.st.array(arg(self, 1), r))
            }
            ArrSub | ArrUpd => {
                let RTy::Array(inner, _) = self.st.node(arg(self, 0)) else {
                    panic!("sub or update of non-array")
                };
                if p == ArrSub {
                    (None, inner)
                } else {
                    self.st.unify(inner, arg(self, 2));
                    (None, Stores::UNIT)
                }
            }
            ArrLen => (None, Stores::INT),
        };
        self.ty_stack.truncate(base);
        (RExp::Prim(p, ras, place.map(RegVar)), ty)
    }

    fn ann_app(&mut self, f: &LExp, args: &[LExp]) -> (RExp, TyId) {
        // Known call to a fix-bound function?
        if let LExp::Var(v) = f {
            if let Some(Bind::Fix(s)) = binding(&self.binds, &self.env, *v) {
                let inst = self.st.instantiate(s);
                let rargs = self.out.push_places(self.st.reg_actuals().map(RegVar));
                let RTy::Arrow(ps, eff, ret, shared_reg) = self.st.node(inst) else {
                    panic!("fix function with non-arrow type")
                };
                assert_eq!(ps.len(), args.len(), "fix call arity mismatch");
                let base = self.kid_stack.len();
                for (i, a) in args.iter().enumerate() {
                    let (ra, ta) = self.ann(a);
                    let pt = self.st.kids(ps)[i];
                    self.st.unify(ta, pt);
                    self.kid_stack.push(ra);
                }
                let e = self.eff();
                self.st.eff_add_child(e, eff);
                self.st.eff_add_reg(e, shared_reg);
                let args = self.out.push_kids(self.kid_stack.drain(base..));
                return (
                    RExp::App {
                        callee: self.out.push(RExp::Var(*v)),
                        rargs,
                        args,
                    },
                    ret,
                );
            }
        }
        let (rf, tf) = self.ann(f);
        let (ras, tys) = self.ann_all(args);
        let eff = self.st.fresh_eff();
        let ret = self.st.fresh_ty();
        let clos = self.st.fresh_reg();
        let want = self.st.arrow(&self.ty_stack[tys..], eff, ret, clos);
        self.ty_stack.truncate(tys);
        self.st.unify(tf, want);
        let e = self.eff();
        self.st.eff_add_child(e, eff);
        self.st.eff_add_reg(e, clos);
        (
            RExp::App {
                callee: rf,
                rargs: Span::EMPTY,
                args: ras,
            },
            ret,
        )
    }

    /// §2.6 weakening: the regions of the values a closure captures join
    /// its latent effect so they cannot be deallocated while it lives.
    fn weaken_captures(&mut self, captured: &[VarId], eff: Eff) {
        if !self.gc_safe {
            return;
        }
        self.tmp.clear();
        for &v in captured {
            if let Some(b) = binding(&self.binds, &self.env, v) {
                self.st.frv(b.parts().0, &mut self.tmp);
            }
        }
        for &r in self.tmp.items() {
            self.st.eff_add_reg(eff, r);
        }
    }

    /// One fixed-point round over a `fix` group: fresh arrow skeletons,
    /// the group bound monomorphically (`prev` is `None`) or at the
    /// previous round's schemes, every body annotated against its
    /// skeleton. Returns the annotated bodies — each as the first and the
    /// last (root) of the nodes it consists of — and the skeletons.
    fn fix_round(
        &mut self,
        funs: &[FixFun],
        prev: Option<&[RScheme]>,
        shared_reg: Reg,
        weaken: Option<&[VarId]>,
    ) -> (Vec<(ExpId, ExpId)>, Vec<TyId>) {
        self.stats.fix_rounds += 1;
        // Per function: where its parameter types start on `ty_stack`, its
        // result type and its latent effect.
        let base = self.ty_stack.len();
        let skeletons: Vec<(usize, TyId, Eff)> = funs
            .iter()
            .map(|f| {
                let ptys = self.fresh_tys(f.params.len());
                (ptys, self.st.fresh_ty(), self.st.fresh_eff())
            })
            .collect();
        let arrows: Vec<TyId> = funs
            .iter()
            .zip(&skeletons)
            .map(|(f, &(ptys, ret, eff))| {
                let ps = &self.ty_stack[ptys..ptys + f.params.len()];
                self.st.arrow(ps, eff, ret, shared_reg)
            })
            .collect();
        for (i, f) in funs.iter().enumerate() {
            let bind = match prev {
                None => Bind::Mono(arrows[i]),
                Some(schemes) => Bind::Fix(schemes[i].clone()),
            };
            self.bind(f.var, bind);
        }
        let mut rbodies = Vec::with_capacity(funs.len());
        for (f, &(ptys, ret, eff)) in funs.iter().zip(&skeletons) {
            for (k, (v, _)) in f.params.iter().enumerate() {
                self.bind(*v, Bind::Mono(self.ty_stack[ptys + k]));
            }
            self.cur_eff.push(eff);
            let first = ExpId(self.out.num_nodes() as u32);
            let (rb, tb) = self.ann_armed(&f.body);
            self.cur_eff.pop();
            self.st.unify(tb, ret);
            if let Some(captured) = weaken {
                self.weaken_captures(captured, eff);
            }
            rbodies.push((first, rb));
        }
        self.ty_stack.truncate(base);
        (rbodies, arrows)
    }

    fn ann_fix(&mut self, e: &LExp, funs: &[FixFun], body: &LExp) -> (RExp, TyId) {
        const MAX_ITERS: usize = 6;
        // What the closure shared by the group captures: the variables
        // free in the bodies, minus the group and the parameters.
        let captured = self.fvs.of_fix_closure(e);
        let (mut env_frv, env_fev, env_ftv) = self.env_free_sets(captured);

        // One shared closure region for the whole group; it is never
        // quantified (the closure is allocated exactly once).
        let shared_reg = self.st.fresh_reg();
        env_frv.push(shared_reg);

        // Round 0 is region-monomorphic recursion; every later round binds
        // the group at the previous round's schemes (region-polymorphic
        // recursion). Each round supersedes the one before: its nodes and
        // its markers are truncated away before the next one starts.
        let mark = (self.markers.len(), self.out.mark());
        let mut schemes: Vec<RScheme> = Vec::new();
        let mut bodies = Vec::new();
        let mut converged = false;
        for iter in 0..=MAX_ITERS {
            self.drop_round(mark);
            let prev = (iter > 0).then_some(schemes.as_slice());
            let (rbodies, arrows) = self.fix_round(funs, prev, shared_reg, Some(captured));
            let new_schemes: Vec<RScheme> = arrows
                .iter()
                .map(|&a| {
                    self.st
                        .generalize(a, &env_frv, &env_fev, &env_ftv, &mut self.scratch)
                })
                .collect();
            let same = !schemes.is_empty()
                && schemes
                    .iter()
                    .zip(&new_schemes)
                    .all(|(a, b)| self.scheme_alpha_eq(a, b));
            bodies = rbodies;
            schemes = new_schemes;
            if same {
                converged = true;
                break;
            }
        }
        if !converged {
            // Fall back to the sound region-monomorphic result: redo one
            // round with Mono bindings.
            self.drop_round(mark);
            let (rbodies, arrows) = self.fix_round(funs, None, shared_reg, None);
            bodies = rbodies;
            // Region/effect-monomorphic, but still type-polymorphic —
            // HM already established type generality; only region and
            // effect quantification depends on the fixed point.
            schemes = arrows
                .iter()
                .map(|&a| RScheme {
                    qtys: self.st.quantifiable_tys(a, &env_ftv, &mut self.scratch),
                    qregs: Vec::new(),
                    qeffs: Vec::new(),
                    ty: a,
                })
                .collect();
        }

        // Determine runtime formals: quantified regions that actually
        // receive allocations in the body (syntactic places / rargs).
        for ((f, &(first, rbody)), s) in funs.iter().zip(&bodies).zip(&schemes) {
            self.tmp.clear();
            collect_places(&self.out, first, rbody, &mut self.st, &mut self.tmp);
            let start = self.formal_idx.len() as u32;
            for k in 0..s.qregs.len() {
                if self.tmp.contains(self.st.find_reg(s.qregs[k])) {
                    self.formal_idx.push(k as u32);
                }
            }
            self.fixmeta[f.var.0 as usize] = (start, self.formal_idx.len() as u32);
        }

        // Bind the final schemes for the let-body.
        for (f, s) in funs.iter().zip(&schemes) {
            self.bind(f.var, Bind::Fix(s.clone()));
        }
        self.put(shared_reg);
        let (rb, tb) = self.ann(body);
        let rfuns: Vec<RFixFun> = funs
            .iter()
            .zip(&bodies)
            .zip(&schemes)
            .map(|((f, &(_, rbody)), s)| RFixFun {
                var: f.var,
                // Filtered down to the runtime formals in `finalize`.
                formals: self.out.push_places(s.qregs.iter().map(|&r| RegVar(r))),
                params: self.out.push_params(f.params.iter().map(|(v, _)| *v)),
                body: rbody,
            })
            .collect();
        (
            RExp::Fix {
                funs: self.out.push_funs(rfuns),
                body: rb,
                at: RegVar(shared_reg),
            },
            tb,
        )
    }

    /// Alpha-equivalence of two schemes (quantified variables matched by a
    /// bijection built during a parallel walk; free variables must be the
    /// same canonical representatives).
    fn scheme_alpha_eq(&mut self, a: &RScheme, b: &RScheme) -> bool {
        if a.qtys.len() != b.qtys.len()
            || a.qregs.len() != b.qregs.len()
            || a.qeffs.len() != b.qeffs.len()
        {
            return false;
        }
        let mut cx = std::mem::take(&mut self.alpha);
        cx.qa.clear();
        cx.qa.extend(a.qregs.iter().map(|&r| self.st.find_reg(r)));
        cx.qb.clear();
        cx.qb.extend(b.qregs.iter().map(|&r| self.st.find_reg(r)));
        cx.ea.clear();
        cx.ea.extend(a.qeffs.iter().map(|&e| self.st.find_eff(e)));
        cx.eb.clear();
        cx.eb.extend(b.qeffs.iter().map(|&e| self.st.find_eff(e)));
        cx.rmap.clear();
        cx.emap.clear();
        let same = self.ty_alpha_eq(a.ty, b.ty, &mut cx);
        self.alpha = cx;
        same
    }

    fn ty_alpha_eq(&mut self, a: TyId, b: TyId, cx: &mut AlphaCx) -> bool {
        match (self.st.node(a), self.st.node(b)) {
            (RTy::Var, RTy::Var) => true, // type vars: shape only
            (RTy::Int, RTy::Int) | (RTy::Bool, RTy::Bool) | (RTy::Unit, RTy::Unit) => true,
            (RTy::Real(r1), RTy::Real(r2))
            | (RTy::Str(r1), RTy::Str(r2))
            | (RTy::Exn(r1), RTy::Exn(r2)) => self.reg_alpha_eq(r1, r2, cx),
            (RTy::Tuple(x, r1), RTy::Tuple(y, r2)) if x.len() == y.len() => {
                self.reg_alpha_eq(r1, r2, cx) && self.kids_alpha_eq(x, y, cx)
            }
            (RTy::Arrow(x, e1, xr, r1), RTy::Arrow(y, e2, yr, r2)) if x.len() == y.len() => {
                if !self.reg_alpha_eq(r1, r2, cx) {
                    return false;
                }
                let c1 = self.st.find_eff(e1);
                let c2 = self.st.find_eff(e2);
                // Effects are compared positionally only: their member
                // sets are monotone over-approximations that may keep
                // growing without affecting the quantification shape.
                matched(c1, c2, &cx.ea, &cx.eb, &mut cx.emap)
                    && self.kids_alpha_eq(x, y, cx)
                    && self.ty_alpha_eq(xr, yr, cx)
            }
            (RTy::Con(c1, x, r1), RTy::Con(c2, y, r2)) if c1 == c2 && x.len() == y.len() => {
                self.reg_alpha_eq(r1, r2, cx) && self.kids_alpha_eq(x, y, cx)
            }
            (RTy::Ref(x, r1), RTy::Ref(y, r2)) | (RTy::Array(x, r1), RTy::Array(y, r2)) => {
                self.reg_alpha_eq(r1, r2, cx) && self.ty_alpha_eq(x, y, cx)
            }
            _ => false,
        }
    }

    fn reg_alpha_eq(&mut self, r1: Reg, r2: Reg, cx: &mut AlphaCx) -> bool {
        let c1 = self.st.find_reg(r1);
        let c2 = self.st.find_reg(r2);
        matched(c1, c2, &cx.qa, &cx.qb, &mut cx.rmap)
    }

    fn kids_alpha_eq(&mut self, x: Kids, y: Kids, cx: &mut AlphaCx) -> bool {
        (0..x.len()).all(|i| {
            let (p, q) = (self.st.kids(x)[i], self.st.kids(y)[i]);
            self.ty_alpha_eq(p, q, cx)
        })
    }

    fn rty_of_lty(&mut self, t: &LTy) -> TyId {
        match t {
            LTy::TyVar(_) => self.st.fresh_ty(),
            LTy::Int => Stores::INT,
            LTy::Bool => Stores::BOOL,
            LTy::Unit => Stores::UNIT,
            LTy::Real => self.at_fresh_reg(Stores::real),
            LTy::Str => self.at_fresh_reg(Stores::string),
            LTy::Exn => self.at_fresh_reg(Stores::exn),
            LTy::Con(c, ts) => {
                let nts: Vec<TyId> = ts.iter().map(|t| self.rty_of_lty(t)).collect();
                let r = self.st.fresh_reg();
                self.st.con(*c, &nts, r)
            }
            LTy::Arrow(a, b) => {
                let na = self.rty_of_lty(a);
                let nb = self.rty_of_lty(b);
                let e = self.st.fresh_eff();
                let r = self.st.fresh_reg();
                self.st.arrow(&[na], e, nb, r)
            }
            LTy::Tuple(ts) => {
                let nts: Vec<TyId> = ts.iter().map(|t| self.rty_of_lty(t)).collect();
                let r = self.st.fresh_reg();
                self.st.tuple(&nts, r)
            }
            LTy::Ref(t) => {
                let nt = self.rty_of_lty(t);
                let r = self.st.fresh_reg();
                self.st.reference(nt, r)
            }
            LTy::Array(t) => {
                let nt = self.rty_of_lty(t);
                let r = self.st.fresh_reg();
                self.st.array(nt, r)
            }
        }
    }

    // ----------------------------------------------------------- finalize

    /// Numbers the regions that occur in the program densely, filters fix
    /// formals and call-site actuals to the runtime formals, and computes
    /// the escape sets of the markers (all of which are in `body`).
    fn finalize(mut self, body: ExpId) -> Annotated {
        self.filter_formals();
        // Canonical region → its dense number, handed out in order of
        // first occurrence in the tree. A region that does not occur could
        // never be bound by placement, so it needs no number and no
        // mention in an escape set.
        let mut dense = vec![u32::MAX; self.st.num_regs()];
        let mut next = 0u32;
        regions_in_order(&self.out, body, &mut |r| {
            let slot = &mut dense[self.st.find_reg(r.0) as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
        });
        // Every node is reachable here (superseded rounds are gone, and no
        // marker has been dissolved into a copy yet), so one pass over the
        // arena renumbers each region once.
        for id in 0..self.out.num_nodes() {
            self.out.map_regions(ExpId(id as u32), |r| {
                RegVar(dense[self.st.find_reg(r.0) as usize])
            });
        }

        // The occurring regions of a binding's type (minus the regions its
        // scheme quantifies), computed when the first marker asks: a span
        // of `pool`.
        let mut pool: Vec<RegVar> = Vec::new();
        let mut frv_of_bind: Vec<Option<(u32, u32)>> = vec![None; self.binds.len()];
        let mut escapes = Escapes::default();
        for (i, m) in self.markers.iter().enumerate() {
            let binds_end = match self.markers.get(i + 1) {
                Some(next) => next.binds_start as usize,
                None => self.marker_binds.len(),
            };
            self.tmp.clear();
            self.st.frv(m.ty, &mut self.tmp);
            let start = escapes.pool.len();
            escapes.pool.extend(occurring(self.tmp.items(), &dense));
            for &b in &self.marker_binds[m.binds_start as usize..binds_end] {
                let (from, len) = *frv_of_bind[b as usize].get_or_insert_with(|| {
                    let (ty, _, qregs, _) = self.binds[b as usize].parts();
                    self.tmp.clear();
                    self.st.frv(ty, &mut self.tmp);
                    let from = pool.len();
                    pool.extend(occurring(self.tmp.items(), &dense));
                    for &q in qregs {
                        let q = dense[self.st.find_reg(q) as usize];
                        if let Some(at) = pool[from..].iter().position(|r| r.0 == q) {
                            pool.swap_remove(from + at);
                        }
                    }
                    (from as u32, (pool.len() - from) as u32)
                });
                escapes
                    .pool
                    .extend_from_slice(&pool[from as usize..(from + len) as usize]);
            }
            let set = &mut escapes.pool[start..];
            set.sort_unstable();
            let kept = dedup_sorted(set);
            escapes.pool.truncate(start + kept);
            escapes.ends.push(escapes.pool.len() as u32);
        }
        let mut global_escapes: Vec<RegVar> = {
            let canonical: Vec<Reg> = self
                .global_frv
                .iter()
                .map(|&r| self.st.find_reg(r))
                .collect();
            occurring(&canonical, &dense).collect()
        };
        global_escapes.sort_unstable();
        global_escapes.dedup();
        Annotated {
            prog: RProgram {
                data: self.prog.data.clone(),
                exns: self.prog.exns.clone(),
                vars: self.prog.vars.clone(),
                arena: self.out,
                body,
                globals: Vec::new(),
                num_regvars: next,
            },
            marker_escapes: escapes,
            global_escapes,
            stats: AnnotateStats {
                markers_live: self.markers.len() as u64,
                frv_calls: self.st.frv_calls,
                eff_closure_steps: self.st.eff_closure_steps,
                ..self.stats
            },
        }
    }

    /// Filters `Fix` formals and the matching call-site and escape `rargs`
    /// down to the runtime formals (quantified regions with allocations),
    /// in place.
    fn filter_formals(&mut self) {
        let meta = |v: VarId| {
            let (start, end) = self.fixmeta[v.0 as usize];
            (start != u32::MAX).then(|| &self.formal_idx[start as usize..end as usize])
        };
        for id in 0..self.out.num_nodes() {
            let id = ExpId(id as u32);
            let mut e = self.out.node(id);
            let (var, rargs) = match &mut e {
                RExp::Fix { funs, .. } => {
                    for k in 0..funs.len() {
                        let f = self.out.funs(*funs)[k];
                        if let Some(idx) = meta(f.var) {
                            let formals = self.out.keep_places(f.formals, idx);
                            self.out.funs_mut(*funs)[k].formals = formals;
                        }
                    }
                    continue;
                }
                RExp::App { callee, rargs, .. } => match self.out.node(*callee) {
                    RExp::Var(v) => (v, rargs),
                    _ => continue,
                },
                RExp::FixVar { var, rargs, .. } => (*var, rargs),
                _ => continue,
            };
            if let Some(idx) = meta(var) {
                *rargs = self.out.keep_places(*rargs, idx);
                self.out.set(id, e);
            }
        }
    }
}

/// Quantified variables of the two schemes under comparison (canonical),
/// and the correspondence built so far.
#[derive(Default)]
struct AlphaCx {
    qa: Vec<Reg>,
    qb: Vec<Reg>,
    ea: Vec<Eff>,
    eb: Vec<Eff>,
    rmap: Vec<(Reg, Reg)>,
    emap: Vec<(Eff, Eff)>,
}

/// Two canonical variables correspond if both are quantified (`qa`, `qb`)
/// and `map` pairs them — extending it when `c1` is new — or if neither
/// is quantified and they are the same variable.
fn matched(c1: u32, c2: u32, qa: &[u32], qb: &[u32], map: &mut Vec<(u32, u32)>) -> bool {
    match (qa.contains(&c1), qb.contains(&c2)) {
        (true, true) => match map.iter().find(|(k, _)| *k == c1) {
            Some(&(_, to)) => to == c2,
            None => {
                map.push((c1, c2));
                true
            }
        },
        (false, false) => c1 == c2,
        _ => false,
    }
}

/// The dense numbers of those of the canonical regions `regs` that occur
/// in the program.
fn occurring<'s>(regs: &'s [Reg], dense: &'s [u32]) -> impl Iterator<Item = RegVar> + 's {
    regs.iter()
        .map(|&r| RegVar(dense[r as usize]))
        .filter(|r| r.0 != u32::MAX)
}

/// Moves the distinct elements of the sorted `v` to its front; returns
/// how many there are.
fn dedup_sorted(v: &mut [RegVar]) -> usize {
    let mut w = 0;
    for i in 0..v.len() {
        if w == 0 || v[w - 1] != v[i] {
            v[w] = v[i];
            w += 1;
        }
    }
    w
}

/// Collects all canonical places syntactically occurring in the expression
/// made of the nodes `first..=root`: annotating it pushed exactly those,
/// nested functions' bodies included. Formals of nested fixes are binders,
/// not occurrences; but their bodies' places still count (they are
/// allocated through the formal at runtime, bound at call sites — for the
/// *enclosing* function the rargs at call sites already count).
fn collect_places(out: &Arena, first: ExpId, root: ExpId, st: &mut Stores, set: &mut IdSet) {
    for id in first.0..=root.0 {
        out.for_each_place(&out.node(ExpId(id)), |p| {
            set.insert(st.find_reg(p.0));
        });
    }
}

/// Applies `f` to every region under `id` in pre-order, a `fix`'s formals
/// after its place, as [`Arena::map_regions`] would meet them.
fn regions_in_order(out: &Arena, id: ExpId, f: &mut impl FnMut(RegVar)) {
    let e = out.node(id);
    out.for_each_place(&e, &mut *f);
    if let RExp::Fix { funs, .. } = e {
        for fun in out.funs(funs) {
            out.places(fun.formals).iter().for_each(|&r| f(r));
        }
    }
    out.for_each_child(&e, |c| regions_in_order(out, c, f));
}

/// Syntactic values may be generalized (type variables only).
fn is_value(e: &LExp) -> bool {
    match e {
        LExp::Fn { .. }
        | LExp::Var(_)
        | LExp::Int(_)
        | LExp::Real(_)
        | LExp::Str(_)
        | LExp::Bool(_)
        | LExp::Unit => true,
        LExp::Record(es) => es.iter().all(is_value),
        LExp::Con { arg, .. } => arg.as_deref().map(is_value).unwrap_or(true),
        _ => false,
    }
}
