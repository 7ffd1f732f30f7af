//! **RegionExp**: `LambdaExp` with explicit memory directives (paper §3).
//!
//! Every value-creating expression carries an `at ρ` *place*; `letregion`
//! delimits region lifetimes; functions carry formal region parameters and
//! known calls pass actual regions (*region polymorphism*).
//!
//! A program is an arena: every node is an [`RExp`] in [`RProgram`]'s node
//! table, named by its [`ExpId`], and refers to its children by id. Child
//! lists, region lists, parameter lists, switch arms, `fix` groups,
//! `letregion` bindings and string constants are [`Span`]s of a few shared
//! pools. Annotation pushes nodes (a superseded fixed-point round is
//! truncated away), and placement and representation inference rewrite
//! nodes in place. A node's children are pushed before it, so every child
//! id is smaller than its parent's.

use kit_lambda::exp::{Prim, VarId, VarTable};
use kit_lambda::ty::{ConId, DataEnv, ExnEnv, ExnId, TyConId};
use std::marker::PhantomData;

/// A region variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegVar(pub u32);

/// An allocation place (a region variable).
pub type Place = RegVar;

/// Multiplicity of a region (representation inference, paper §3 and its
/// reference \[3\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mult {
    /// At most one value of statically known size: allocated in the
    /// activation record (a *finite region*).
    Finite,
    /// Unbounded: a linked list of region pages (an *infinite region*).
    Infinite,
}

/// A node of a program's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExpId(pub u32);

/// A run `start..start + len` of one of [`RProgram`]'s pools; `T` names
/// the pool.
pub struct Span<T> {
    start: u32,
    len: u32,
    pool: PhantomData<T>,
}

impl<T> Span<T> {
    /// The empty run.
    pub const EMPTY: Span<T> = Span {
        start: 0,
        len: 0,
        pool: PhantomData,
    };

    /// Number of elements.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl<T> Clone for Span<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Span<T> {}

impl<T> PartialEq for Span<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.start, self.len) == (other.start, other.len)
    }
}

impl<T> std::fmt::Debug for Span<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.start + self.len)
    }
}

/// A string constant: an index into [`RProgram`]'s string pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrId(pub u32);

/// One arm of a switch. The key is the constructor's index
/// (`SwitchCon`), the integer (`SwitchInt`), the exception's index
/// (`SwitchExn`) or the [`StrId`] of the string (`SwitchStr`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arm {
    /// What the scrutinee is compared with.
    pub key: i64,
    /// The arm's expression.
    pub body: ExpId,
}

/// One function of a region-polymorphic `fix` group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RFixFun {
    /// Function variable.
    pub var: VarId,
    /// Formal region parameters (regions the body allocates into that are
    /// bound at call sites).
    pub formals: Span<RegVar>,
    /// Value parameters.
    pub params: Span<VarId>,
    /// Body.
    pub body: ExpId,
}

/// A region-annotated expression node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RExp {
    /// Variable use.
    Var(VarId),
    /// Escaping use of a `fix`-bound function: allocates a closure pair
    /// `at` the place, closing over the given actual regions.
    FixVar {
        /// The function.
        var: VarId,
        /// Actual regions for the function's formals.
        rargs: Span<RegVar>,
        /// Where the escaping closure is allocated.
        at: Place,
    },
    /// Integer constant (unboxed).
    Int(i64),
    /// Boolean constant (unboxed).
    Bool(bool),
    /// Unit (unboxed).
    Unit,
    /// String constant (data segment; no region).
    Str(StrId),
    /// Real constant, boxed `at` the place.
    Real(f64, Place),
    /// Primitive; allocating primitives carry a place.
    Prim(Prim, Span<ExpId>, Option<Place>),
    /// Tuple `at` the place.
    Record(Span<ExpId>, Place),
    /// Projection.
    Select(usize, ExpId),
    /// Constructor application; nullary constructors are unboxed and have
    /// no place.
    Con {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Argument.
        arg: Option<ExpId>,
        /// Allocation place for carrying constructors.
        at: Option<Place>,
    },
    /// Constructor-argument extraction.
    DeCon {
        /// Datatype.
        tycon: TyConId,
        /// Constructor.
        con: ConId,
        /// Scrutinee.
        scrut: ExpId,
    },
    /// Branch on constructors.
    SwitchCon {
        /// Scrutinee.
        scrut: ExpId,
        /// Datatype.
        tycon: TyConId,
        /// Arms, keyed by constructor index.
        arms: Span<Arm>,
        /// Default.
        default: Option<ExpId>,
    },
    /// Branch on integers.
    SwitchInt {
        /// Scrutinee.
        scrut: ExpId,
        /// Arms.
        arms: Span<Arm>,
        /// Default.
        default: ExpId,
    },
    /// Branch on strings.
    SwitchStr {
        /// Scrutinee.
        scrut: ExpId,
        /// Arms, keyed by [`StrId`].
        arms: Span<Arm>,
        /// Default.
        default: ExpId,
    },
    /// Branch on exception constructors.
    SwitchExn {
        /// Scrutinee.
        scrut: ExpId,
        /// Arms, keyed by exception index.
        arms: Span<Arm>,
        /// Default.
        default: ExpId,
    },
    /// Conditional.
    If(ExpId, ExpId, ExpId),
    /// Lambda; the closure is allocated `at` the place.
    Fn {
        /// Parameters.
        params: Span<VarId>,
        /// Body.
        body: ExpId,
        /// Closure allocation place.
        at: Place,
    },
    /// Application. `rargs` are the actual regions for a known call to a
    /// region-polymorphic function (empty otherwise).
    App {
        /// Callee.
        callee: ExpId,
        /// Actual region arguments.
        rargs: Span<RegVar>,
        /// Value arguments.
        args: Span<ExpId>,
    },
    /// Non-recursive binding.
    Let {
        /// Bound variable.
        var: VarId,
        /// Bound expression.
        rhs: ExpId,
        /// Scope.
        body: ExpId,
    },
    /// Recursive functions; the shared closure is allocated `at` the place.
    Fix {
        /// The group.
        funs: Span<RFixFun>,
        /// Scope.
        body: ExpId,
        /// Shared-closure allocation place.
        at: Place,
    },
    /// `letregion ρ1..ρn in body end` (paper §1.1). Regions are
    /// deallocated, newest first, when `body` completes.
    Letregion {
        /// Bound regions with their multiplicities.
        regs: Span<(RegVar, Mult)>,
        /// Scope.
        body: ExpId,
    },
    /// Internal: a `letregion` candidate point inserted by [`crate::annotate`]
    /// and resolved by [`crate::letregion`]; never reaches code generation.
    Marker {
        /// Index into the annotation pass's escape-set table.
        id: u32,
        /// Scope.
        body: ExpId,
    },
    /// Exception construction; carrying exceptions allocate `at` a place.
    ExCon {
        /// The exception.
        exn: ExnId,
        /// Argument.
        arg: Option<ExpId>,
        /// Allocation place.
        at: Option<Place>,
    },
    /// Exception-argument extraction.
    DeExn {
        /// The exception.
        exn: ExnId,
        /// Scrutinee.
        scrut: ExpId,
    },
    /// Raise.
    Raise(ExpId),
    /// Handle.
    Handle {
        /// Protected body.
        body: ExpId,
        /// Variable bound to the exception.
        var: VarId,
        /// Handler.
        handler: ExpId,
    },
}

/// The node arena and its pools. Everything is appended; a fixed-point
/// round that is superseded is dropped by `truncate` to the
/// `mark` taken before it.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    nodes: Vec<RExp>,
    kids: Vec<ExpId>,
    places: Vec<RegVar>,
    params: Vec<VarId>,
    arms: Vec<Arm>,
    funs: Vec<RFixFun>,
    regs: Vec<(RegVar, Mult)>,
    strs: Vec<Box<str>>,
}

/// The lengths of an [`Arena`]'s tables at one point.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark([u32; 8]);

fn push_all<T>(pool: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Span<T> {
    let start = pool.len() as u32;
    pool.extend(items);
    Span {
        start,
        len: pool.len() as u32 - start,
        pool: PhantomData,
    }
}

impl Arena {
    /// Appends a node.
    pub(crate) fn push(&mut self, e: RExp) -> ExpId {
        self.nodes.push(e);
        ExpId(self.nodes.len() as u32 - 1)
    }

    /// The node `id` (a copy: children are ids).
    pub fn node(&self, id: ExpId) -> RExp {
        self.nodes[id.0 as usize]
    }

    /// Replaces the node `id` in place.
    pub(crate) fn set(&mut self, id: ExpId, e: RExp) {
        self.nodes[id.0 as usize] = e;
    }

    /// Number of nodes, reachable or not.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a child list.
    pub(crate) fn push_kids(&mut self, kids: impl IntoIterator<Item = ExpId>) -> Span<ExpId> {
        push_all(&mut self.kids, kids)
    }

    /// Appends a region list.
    pub(crate) fn push_places(&mut self, places: impl IntoIterator<Item = RegVar>) -> Span<RegVar> {
        push_all(&mut self.places, places)
    }

    /// Appends a parameter list.
    pub(crate) fn push_params(&mut self, params: impl IntoIterator<Item = VarId>) -> Span<VarId> {
        push_all(&mut self.params, params)
    }

    /// Appends switch arms.
    pub(crate) fn push_arms(&mut self, arms: impl IntoIterator<Item = Arm>) -> Span<Arm> {
        push_all(&mut self.arms, arms)
    }

    /// Appends a `fix` group.
    pub(crate) fn push_funs(&mut self, funs: impl IntoIterator<Item = RFixFun>) -> Span<RFixFun> {
        push_all(&mut self.funs, funs)
    }

    /// Appends `letregion` bindings.
    pub(crate) fn push_regs(
        &mut self,
        regs: impl IntoIterator<Item = (RegVar, Mult)>,
    ) -> Span<(RegVar, Mult)> {
        push_all(&mut self.regs, regs)
    }

    /// Appends a string constant.
    pub(crate) fn push_str(&mut self, s: &str) -> StrId {
        self.strs.push(s.into());
        StrId(self.strs.len() as u32 - 1)
    }

    /// A child list.
    pub fn kids(&self, s: Span<ExpId>) -> &[ExpId] {
        &self.kids[s.range()]
    }

    /// A region list.
    pub fn places(&self, s: Span<RegVar>) -> &[RegVar] {
        &self.places[s.range()]
    }

    fn places_mut(&mut self, s: Span<RegVar>) -> &mut [RegVar] {
        &mut self.places[s.range()]
    }

    /// A parameter list.
    pub fn params(&self, s: Span<VarId>) -> &[VarId] {
        &self.params[s.range()]
    }

    /// Switch arms.
    pub fn arms(&self, s: Span<Arm>) -> &[Arm] {
        &self.arms[s.range()]
    }

    /// A `fix` group.
    pub fn funs(&self, s: Span<RFixFun>) -> &[RFixFun] {
        &self.funs[s.range()]
    }

    /// A `fix` group, to rewrite in place.
    pub(crate) fn funs_mut(&mut self, s: Span<RFixFun>) -> &mut [RFixFun] {
        &mut self.funs[s.range()]
    }

    /// `letregion` bindings.
    pub fn regs(&self, s: Span<(RegVar, Mult)>) -> &[(RegVar, Mult)] {
        &self.regs[s.range()]
    }

    /// Keeps the elements at the ascending positions `idx` of the region
    /// list `s`, in place; returns the shorter list.
    pub(crate) fn keep_places(&mut self, s: Span<RegVar>, idx: &[u32]) -> Span<RegVar> {
        let base = s.start as usize;
        for (w, &i) in idx.iter().enumerate() {
            self.places[base + w] = self.places[base + i as usize];
        }
        Span {
            len: idx.len() as u32,
            ..s
        }
    }

    /// Rewrites the `letregion` bindings `s` through `f` in place, keeping
    /// those it returns; returns the shorter list.
    pub(crate) fn retain_regs(
        &mut self,
        s: Span<(RegVar, Mult)>,
        mut f: impl FnMut(RegVar) -> Option<Mult>,
    ) -> Span<(RegVar, Mult)> {
        let mut len = 0;
        for i in s.range() {
            if let Some(m) = f(self.regs[i].0) {
                self.regs[s.start as usize + len] = (self.regs[i].0, m);
                len += 1;
            }
        }
        Span {
            len: len as u32,
            ..s
        }
    }

    /// A string constant.
    pub fn str(&self, s: StrId) -> &str {
        &self.strs[s.0 as usize]
    }

    /// The current length of every table.
    pub(crate) fn mark(&self) -> Mark {
        Mark(
            [
                self.nodes.len(),
                self.kids.len(),
                self.places.len(),
                self.params.len(),
                self.arms.len(),
                self.funs.len(),
                self.regs.len(),
                self.strs.len(),
            ]
            .map(|n| n as u32),
        )
    }

    /// Drops everything appended since `m` was taken.
    pub(crate) fn truncate(&mut self, m: Mark) {
        let [nodes, kids, places, params, arms, funs, regs, strs] = m.0.map(|n| n as usize);
        self.nodes.truncate(nodes);
        self.kids.truncate(kids);
        self.places.truncate(places);
        self.params.truncate(params);
        self.arms.truncate(arms);
        self.funs.truncate(funs);
        self.regs.truncate(regs);
        self.strs.truncate(strs);
    }

    /// Applies `f` to each direct child of `e`, in evaluation order (a
    /// `fix`'s function bodies before its scope).
    pub fn for_each_child(&self, e: &RExp, mut f: impl FnMut(ExpId)) {
        match *e {
            RExp::Var(_)
            | RExp::FixVar { .. }
            | RExp::Int(_)
            | RExp::Bool(_)
            | RExp::Unit
            | RExp::Str(_)
            | RExp::Real(_, _) => {}
            RExp::Prim(_, ks, _) | RExp::Record(ks, _) => self.kids(ks).iter().for_each(|&c| f(c)),
            RExp::Select(_, c)
            | RExp::DeCon { scrut: c, .. }
            | RExp::DeExn { scrut: c, .. }
            | RExp::Raise(c)
            | RExp::Fn { body: c, .. }
            | RExp::Letregion { body: c, .. }
            | RExp::Marker { body: c, .. } => f(c),
            RExp::Con { arg, .. } | RExp::ExCon { arg, .. } => arg.into_iter().for_each(f),
            RExp::SwitchCon {
                scrut,
                arms,
                default,
                ..
            } => {
                f(scrut);
                self.arms(arms).iter().for_each(|a| f(a.body));
                default.into_iter().for_each(f);
            }
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            }
            | RExp::SwitchStr {
                scrut,
                arms,
                default,
            }
            | RExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                f(scrut);
                self.arms(arms).iter().for_each(|a| f(a.body));
                f(default);
            }
            RExp::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            RExp::App { callee, args, .. } => {
                f(callee);
                self.kids(args).iter().for_each(|&c| f(c));
            }
            RExp::Let {
                rhs: a, body: b, ..
            }
            | RExp::Handle {
                body: a,
                handler: b,
                ..
            } => {
                f(a);
                f(b);
            }
            RExp::Fix { funs, body, .. } => {
                self.funs(funs).iter().for_each(|fun| f(fun.body));
                f(body);
            }
        }
    }

    /// Pushes the direct children of `e` onto `out`, in evaluation order:
    /// a walk that rewrites the arena or stops early iterates over them
    /// there, truncating `out` back when done.
    pub(crate) fn push_children(&self, e: &RExp, out: &mut Vec<ExpId>) {
        self.for_each_child(e, |c| out.push(c));
    }

    /// Applies `f` to every place `e` names itself (not its children's),
    /// in order: region arguments before the place they are allocated at.
    /// A `fix`'s formals are binders, not places.
    pub fn for_each_place(&self, e: &RExp, mut f: impl FnMut(RegVar)) {
        match *e {
            RExp::Real(_, p)
            | RExp::Record(_, p)
            | RExp::Fn { at: p, .. }
            | RExp::Fix { at: p, .. }
            | RExp::Prim(_, _, Some(p))
            | RExp::Con { at: Some(p), .. }
            | RExp::ExCon { at: Some(p), .. } => f(p),
            RExp::FixVar { rargs, at, .. } => {
                self.places(rargs).iter().for_each(|&r| f(r));
                f(at);
            }
            RExp::App { rargs, .. } => self.places(rargs).iter().for_each(|&r| f(r)),
            _ => {}
        }
    }

    /// Replaces every region the node `id` names — its places and, for a
    /// `fix`, its functions' formals — by `f` of it (not descending into
    /// children). The order is [`Arena::for_each_place`]'s, a `fix`'s
    /// formals after its place. A node that shares its lists with a copy
    /// of itself (a dissolved marker's former body) must not be mapped
    /// twice, so rewriting walks go by the tree.
    pub(crate) fn map_regions(&mut self, id: ExpId, mut f: impl FnMut(RegVar) -> RegVar) {
        let mut e = self.node(id);
        match &mut e {
            RExp::Real(_, p)
            | RExp::Record(_, p)
            | RExp::Fn { at: p, .. }
            | RExp::Prim(_, _, Some(p))
            | RExp::Con { at: Some(p), .. }
            | RExp::ExCon { at: Some(p), .. } => *p = f(*p),
            RExp::Fix { at, funs, .. } => {
                *at = f(*at);
                for fun in funs.range() {
                    for r in self.funs[fun].formals.range() {
                        self.places[r] = f(self.places[r]);
                    }
                }
            }
            RExp::FixVar { rargs, at, .. } => {
                self.places_mut(*rargs).iter_mut().for_each(|r| *r = f(*r));
                *at = f(*at);
            }
            RExp::App { rargs, .. } => self.places_mut(*rargs).iter_mut().for_each(|r| *r = f(*r)),
            _ => return,
        }
        self.set(id, e);
    }
}

/// A complete RegionExp program.
#[derive(Debug, Clone)]
pub struct RProgram {
    /// Datatype environment (shared with the front-end).
    pub data: DataEnv,
    /// Exception environment.
    pub exns: ExnEnv,
    /// Variable names.
    pub vars: VarTable,
    /// The nodes of the program.
    pub arena: Arena,
    /// The program body.
    pub body: ExpId,
    /// Top-level ("global") regions, pushed at program start and popped at
    /// exit — the paper's `r1`, `r2`, ...
    pub globals: Vec<(RegVar, Mult)>,
    /// Total number of region variables.
    pub num_regvars: u32,
}

impl std::ops::Deref for RProgram {
    type Target = Arena;

    fn deref(&self) -> &Arena {
        &self.arena
    }
}

impl std::ops::DerefMut for RProgram {
    fn deref_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }
}
