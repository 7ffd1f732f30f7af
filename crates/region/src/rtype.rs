//! Region-annotated types, effects and their unification stores.
//!
//! Following Tofte–Talpin, every boxed type constructor carries a region
//! variable and every arrow carries a *latent effect* — the set of regions
//! the function may `put` into or `get` from when applied. Region variables
//! live in a union-find store; effects are union-find nodes whose roots
//! carry a set of atomic region effects plus links to other effect nodes
//! (Talpin–Jouvelot style unification-based effect inference).
//!
//! Types live in an arena inside [`Stores`]: a type is a [`TyId`], a node
//! is a `Copy` [`RTy`] whose children are further ids, and a unification
//! variable is a node that is overwritten with a link when it is bound. So
//! resolving, unifying, instantiating and binding a type in an environment
//! all copy an index; no type is ever deep-cloned.

use kit_lambda::ty::TyConId;

/// A region unification variable (index into [`Stores`]).
pub type Reg = u32;
/// An effect unification variable.
pub type Eff = u32;

/// A region-annotated type: an index into the arena of [`Stores`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TyId(u32);

impl TyId {
    /// The arena index (the identity of an unbound type variable).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// The component types of a node: a range of the arena's child pool
/// (read it with [`Stores::kids`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kids {
    start: u32,
    len: u32,
}

impl Kids {
    /// Number of component types.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// `true` for a node without component types.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One node of a region-annotated type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RTy {
    /// Unbound type unification variable (also erased source-level
    /// polymorphism); its identity is its [`TyId`].
    Var,
    /// A bound unification variable.
    Link(TyId),
    /// Unboxed integer.
    Int,
    /// Unboxed boolean.
    Bool,
    /// Unboxed unit.
    Unit,
    /// Boxed real in a region.
    Real(Reg),
    /// String in a region (constants never inspect it).
    Str(Reg),
    /// Exception value in a region.
    Exn(Reg),
    /// Tuple in a region.
    Tuple(Kids, Reg),
    /// Function: argument types, latent effect, result, closure region.
    Arrow(Kids, Eff, TyId, Reg),
    /// Datatype in a region.
    Con(TyConId, Kids, Reg),
    /// Reference cell in a region.
    Ref(TyId, Reg),
    /// Array in a region.
    Array(TyId, Reg),
}

impl RTy {
    /// The outermost region of a boxed type, if any.
    pub fn outer_region(&self) -> Option<Reg> {
        match self {
            RTy::Real(r)
            | RTy::Str(r)
            | RTy::Exn(r)
            | RTy::Tuple(_, r)
            | RTy::Arrow(_, _, _, r)
            | RTy::Con(_, _, r)
            | RTy::Ref(_, r)
            | RTy::Array(_, r) => Some(*r),
            _ => None,
        }
    }
}

/// A set of small integer ids (regions, effects or type variables) that is
/// emptied in O(1): membership is a per-id stamp compared with the current
/// epoch, and the members are also kept as a list in insertion order.
#[derive(Debug)]
pub struct IdSet {
    stamp: Vec<u32>,
    epoch: u32,
    items: Vec<u32>,
}

impl Default for IdSet {
    fn default() -> Self {
        IdSet {
            stamp: Vec::new(),
            epoch: 1,
            items: Vec::new(),
        }
    }
}

impl IdSet {
    /// Empties the set.
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.items.clear();
    }

    /// Adds `id`; `false` if it was already a member.
    pub fn insert(&mut self, id: u32) -> bool {
        let i = id as usize;
        if i >= self.stamp.len() {
            self.stamp.resize((i + 1).next_power_of_two(), 0);
        }
        if self.stamp[i] == self.epoch {
            return false;
        }
        self.stamp[i] = self.epoch;
        self.items.push(id);
        true
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.stamp.get(id as usize) == Some(&self.epoch)
    }

    /// The members, in insertion order.
    pub fn items(&self) -> &[u32] {
        &self.items
    }
}

/// Inserts `x` into the sorted, duplicate-free `v`.
fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

/// An effect node. Roots carry the sets (sorted, duplicate-free; region
/// members were canonical when they were added).
#[derive(Debug, Clone, Default)]
struct EffNode {
    parent: Option<Eff>,
    regs: Vec<Reg>,
    children: Vec<Eff>,
}

/// Union-find stores for regions and effects, and the type arena.
#[derive(Debug)]
pub struct Stores {
    reg_parent: Vec<Reg>,
    effs: Vec<EffNode>,
    tys: Vec<RTy>,
    kids: Vec<TyId>,
    /// Effect nodes already visited by the closure walk in progress.
    seen_eff: IdSet,
    /// The last instantiation's substitution.
    sub: Subst,
    /// Scratch: the copied component types of the nodes being copied.
    copied: Vec<TyId>,
    /// Number of [`Stores::frv`] walks so far (a work counter).
    pub frv_calls: u64,
    /// Effect nodes and their regions visited by effect-closure walks so
    /// far (a work counter).
    pub eff_closure_steps: u64,
}

impl Default for Stores {
    fn default() -> Self {
        Self::new()
    }
}

impl Stores {
    /// The type `int`.
    pub const INT: TyId = TyId(0);
    /// The type `bool`.
    pub const BOOL: TyId = TyId(1);
    /// The type `unit`.
    pub const UNIT: TyId = TyId(2);

    /// Creates empty stores (holding only the three unboxed base types).
    pub fn new() -> Self {
        Stores {
            reg_parent: Vec::new(),
            effs: Vec::new(),
            tys: vec![RTy::Int, RTy::Bool, RTy::Unit],
            kids: Vec::new(),
            seen_eff: IdSet::default(),
            sub: Subst::default(),
            copied: Vec::new(),
            frv_calls: 0,
            eff_closure_steps: 0,
        }
    }

    // -------------------------------------------------------------- regions

    /// A fresh region variable.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = self.reg_parent.len() as Reg;
        self.reg_parent.push(r);
        r
    }

    /// Number of region variables created.
    pub fn num_regs(&self) -> usize {
        self.reg_parent.len()
    }

    /// Canonical representative of `r`.
    pub fn find_reg(&mut self, r: Reg) -> Reg {
        let mut root = r;
        while self.reg_parent[root as usize] != root {
            root = self.reg_parent[root as usize];
        }
        let mut cur = r;
        while cur != root {
            cur = std::mem::replace(&mut self.reg_parent[cur as usize], root);
        }
        root
    }

    /// Unifies two region variables.
    pub fn union_reg(&mut self, a: Reg, b: Reg) {
        let ra = self.find_reg(a);
        let rb = self.find_reg(b);
        if ra != rb {
            self.reg_parent[ra as usize] = rb;
        }
    }

    // -------------------------------------------------------------- effects

    /// A fresh effect variable with empty effect.
    pub fn fresh_eff(&mut self) -> Eff {
        let e = self.effs.len() as Eff;
        self.effs.push(EffNode::default());
        e
    }

    /// Canonical representative of `e`.
    pub fn find_eff(&mut self, e: Eff) -> Eff {
        let mut root = e;
        while let Some(p) = self.effs[root as usize].parent {
            root = p;
        }
        let mut cur = e;
        while cur != root {
            cur = self.effs[cur as usize]
                .parent
                .replace(root)
                .expect("non-root effect has a parent");
        }
        root
    }

    /// Adds an atomic region effect (`put`/`get` ρ) to `e`.
    pub fn eff_add_reg(&mut self, e: Eff, r: Reg) {
        let e = self.find_eff(e);
        let r = self.find_reg(r);
        insert_sorted(&mut self.effs[e as usize].regs, r);
    }

    /// Makes `child`'s effect part of `e` (e.g. a call's latent effect
    /// flowing into the caller's effect).
    pub fn eff_add_child(&mut self, e: Eff, child: Eff) {
        let e = self.find_eff(e);
        let c = self.find_eff(child);
        if e != c {
            insert_sorted(&mut self.effs[e as usize].children, c);
        }
    }

    /// Unifies two effect variables, merging their sets.
    pub fn union_eff(&mut self, a: Eff, b: Eff) {
        let ra = self.find_eff(a);
        let rb = self.find_eff(b);
        if ra == rb {
            return;
        }
        let node = std::mem::take(&mut self.effs[ra as usize]);
        self.effs[ra as usize].parent = Some(rb);
        let tgt = &mut self.effs[rb as usize];
        for r in node.regs {
            insert_sorted(&mut tgt.regs, r);
        }
        for c in node.children {
            insert_sorted(&mut tgt.children, c);
        }
        if let Ok(i) = tgt.children.binary_search(&ra) {
            tgt.children.remove(i);
        }
    }

    /// Adds all (canonical) regions in the transitive closure of effect `e`
    /// to `out`, skipping effect nodes already in `seen`.
    fn eff_closure(&mut self, e: Eff, out: &mut IdSet, seen: &mut IdSet) {
        let e = self.find_eff(e);
        self.eff_closure_steps += 1;
        if !seen.insert(e) {
            return;
        }
        self.eff_closure_steps += self.effs[e as usize].regs.len() as u64;
        for i in 0..self.effs[e as usize].regs.len() {
            let r = self.effs[e as usize].regs[i];
            out.insert(self.find_reg(r));
        }
        for i in 0..self.effs[e as usize].children.len() {
            let c = self.effs[e as usize].children[i];
            self.eff_closure(c, out, seen);
        }
    }

    /// All (canonical) regions in the transitive closure of effect `e`.
    pub fn eff_regs(&mut self, e: Eff, out: &mut IdSet) {
        let mut seen = std::mem::take(&mut self.seen_eff);
        seen.clear();
        self.eff_closure(e, out, &mut seen);
        self.seen_eff = seen;
    }

    // ---------------------------------------------------------------- types

    fn mk(&mut self, node: RTy) -> TyId {
        let id = TyId(self.tys.len() as u32);
        self.tys.push(node);
        id
    }

    fn mk_kids(&mut self, kids: &[TyId]) -> Kids {
        let start = self.kids.len() as u32;
        self.kids.extend_from_slice(kids);
        Kids {
            start,
            len: kids.len() as u32,
        }
    }

    /// A fresh type variable.
    pub fn fresh_ty(&mut self) -> TyId {
        self.mk(RTy::Var)
    }

    /// The type of a real at `r`.
    pub fn real(&mut self, r: Reg) -> TyId {
        self.mk(RTy::Real(r))
    }

    /// The type of a string at `r`.
    pub fn string(&mut self, r: Reg) -> TyId {
        self.mk(RTy::Str(r))
    }

    /// The type of an exception value at `r`.
    pub fn exn(&mut self, r: Reg) -> TyId {
        self.mk(RTy::Exn(r))
    }

    /// The type of a tuple of `comps` at `r`.
    pub fn tuple(&mut self, comps: &[TyId], r: Reg) -> TyId {
        let kids = self.mk_kids(comps);
        self.mk(RTy::Tuple(kids, r))
    }

    /// A function type: `params`, latent effect, result, closure region.
    pub fn arrow(&mut self, params: &[TyId], eff: Eff, ret: TyId, r: Reg) -> TyId {
        let kids = self.mk_kids(params);
        self.mk(RTy::Arrow(kids, eff, ret, r))
    }

    /// A function type over parameter types already in the pool (shared
    /// with the arrow they were read from).
    pub fn arrow_at(&mut self, params: Kids, eff: Eff, ret: TyId, r: Reg) -> TyId {
        self.mk(RTy::Arrow(params, eff, ret, r))
    }

    /// A datatype applied to `targs`, its spine at `r`.
    pub fn con(&mut self, tycon: TyConId, targs: &[TyId], r: Reg) -> TyId {
        let kids = self.mk_kids(targs);
        self.mk(RTy::Con(tycon, kids, r))
    }

    /// A reference cell holding `inner` at `r`.
    pub fn reference(&mut self, inner: TyId, r: Reg) -> TyId {
        self.mk(RTy::Ref(inner, r))
    }

    /// An array of `inner` at `r`.
    pub fn array(&mut self, inner: TyId, r: Reg) -> TyId {
        self.mk(RTy::Array(inner, r))
    }

    /// The component types `kids` stands for.
    pub fn kids(&self, kids: Kids) -> &[TyId] {
        &self.kids[kids.range()]
    }

    /// Follows the links of bound variables.
    pub fn resolve(&self, mut ty: TyId) -> TyId {
        while let RTy::Link(next) = self.tys[ty.0 as usize] {
            ty = next;
        }
        ty
    }

    /// The node `ty` resolves to (never a [`RTy::Link`]).
    pub fn node(&self, ty: TyId) -> RTy {
        self.tys[self.resolve(ty).0 as usize]
    }

    /// Unifies two region-annotated types. `LambdaExp` is well-typed, so a
    /// constructor mismatch is an internal error.
    ///
    /// # Panics
    ///
    /// Panics on a type-constructor mismatch (compiler bug).
    pub fn unify(&mut self, a: TyId, b: TyId) {
        let a = self.resolve(a);
        let b = self.resolve(b);
        if a == b {
            return;
        }
        match (self.tys[a.0 as usize], self.tys[b.0 as usize]) {
            (RTy::Var, _) => self.tys[a.0 as usize] = RTy::Link(b),
            (_, RTy::Var) => self.tys[b.0 as usize] = RTy::Link(a),
            (RTy::Int, RTy::Int) | (RTy::Bool, RTy::Bool) | (RTy::Unit, RTy::Unit) => {}
            (RTy::Real(r1), RTy::Real(r2))
            | (RTy::Str(r1), RTy::Str(r2))
            | (RTy::Exn(r1), RTy::Exn(r2)) => self.union_reg(r1, r2),
            (RTy::Tuple(xs, r1), RTy::Tuple(ys, r2)) if xs.len == ys.len => {
                self.union_reg(r1, r2);
                self.unify_kids(xs, ys);
            }
            (RTy::Arrow(a1, e1, b1, r1), RTy::Arrow(a2, e2, b2, r2)) if a1.len == a2.len => {
                self.union_reg(r1, r2);
                self.union_eff(e1, e2);
                self.unify_kids(a1, a2);
                self.unify(b1, b2);
            }
            (RTy::Con(c1, xs, r1), RTy::Con(c2, ys, r2)) if c1 == c2 && xs.len == ys.len => {
                self.union_reg(r1, r2);
                self.unify_kids(xs, ys);
            }
            (RTy::Ref(x, r1), RTy::Ref(y, r2)) | (RTy::Array(x, r1), RTy::Array(y, r2)) => {
                self.union_reg(r1, r2);
                self.unify(x, y);
            }
            (x, y) => panic!("region unification mismatch: {x:?} vs {y:?}"),
        }
    }

    fn unify_kids(&mut self, xs: Kids, ys: Kids) {
        for (i, j) in xs.range().zip(ys.range()) {
            let (x, y) = (self.kids[i], self.kids[j]);
            self.unify(x, y);
        }
    }

    /// Adds the free (canonical) region variables of a type to `out`,
    /// including those in latent effects.
    pub fn frv(&mut self, ty: TyId, out: &mut IdSet) {
        self.frv_calls += 1;
        let mut seen = std::mem::take(&mut self.seen_eff);
        seen.clear();
        self.frv_walk(ty, out, Some(&mut seen));
        self.seen_eff = seen;
    }

    /// Adds the regions of the type *skeleton* to `out` in deterministic
    /// structural traversal order — like [`Stores::frv`] but without
    /// closing over latent-effect sets. Used for generalization: only
    /// skeleton regions are quantified (regions that appear solely in
    /// effects are local to some body and will be `letregion`-bound or
    /// become global); quantifying effect members would make
    /// region-polymorphic recursion diverge.
    pub fn frv_skel_ordered(&mut self, ty: TyId, out: &mut IdSet) {
        self.frv_walk(ty, out, None);
    }

    /// The walk behind both: the skeleton's regions in structural order,
    /// and, given the `seen` set of effect nodes, each arrow's effect
    /// closure after its component types.
    fn frv_walk(&mut self, ty: TyId, out: &mut IdSet, mut seen: Option<&mut IdSet>) {
        let node = self.node(ty);
        if let Some(r) = node.outer_region() {
            out.insert(self.find_reg(r));
        }
        match node {
            RTy::Tuple(ts, _) | RTy::Con(_, ts, _) => {
                for i in ts.range() {
                    self.frv_walk(self.kids[i], out, seen.as_deref_mut());
                }
            }
            RTy::Arrow(ps, e, b, _) => {
                for i in ps.range() {
                    self.frv_walk(self.kids[i], out, seen.as_deref_mut());
                }
                self.frv_walk(b, out, seen.as_deref_mut());
                if let Some(seen) = seen {
                    self.eff_closure(e, out, seen);
                }
            }
            RTy::Ref(t, _) | RTy::Array(t, _) => self.frv_walk(t, out, seen),
            _ => {}
        }
    }

    /// Adds the free effect variables of a type (canonical roots) to `out`.
    pub fn fev(&mut self, ty: TyId, out: &mut IdSet) {
        match self.node(ty) {
            RTy::Arrow(ps, e, b, _) => {
                out.insert(self.find_eff(e));
                for i in ps.range() {
                    self.fev(self.kids[i], out);
                }
                self.fev(b, out);
            }
            RTy::Tuple(ts, _) | RTy::Con(_, ts, _) => {
                for i in ts.range() {
                    self.fev(self.kids[i], out);
                }
            }
            RTy::Ref(t, _) | RTy::Array(t, _) => self.fev(t, out),
            _ => {}
        }
    }

    /// Adds the free type variables of a type to `out` (as arena indices).
    pub fn ftv(&self, ty: TyId, out: &mut IdSet) {
        let ty = self.resolve(ty);
        match self.tys[ty.0 as usize] {
            RTy::Var => {
                out.insert(ty.0);
            }
            RTy::Tuple(ts, _) | RTy::Con(_, ts, _) => {
                for i in ts.range() {
                    self.ftv(self.kids[i], out);
                }
            }
            RTy::Arrow(ps, _, b, _) => {
                for i in ps.range() {
                    self.ftv(self.kids[i], out);
                }
                self.ftv(b, out);
            }
            RTy::Ref(t, _) | RTy::Array(t, _) => self.ftv(t, out),
            _ => {}
        }
    }
}

/// A region type scheme: quantified type, region and effect variables.
#[derive(Debug, Clone)]
pub struct RScheme {
    /// Quantified type variables (arena indices of unbound variables).
    pub qtys: Vec<u32>,
    /// Quantified region variables (canonical at generalization time).
    pub qregs: Vec<Reg>,
    /// Quantified effect variables (canonical at generalization time).
    pub qeffs: Vec<Eff>,
    /// The body.
    pub ty: TyId,
}

/// The substitution of one instantiation. Schemes quantify a handful of
/// variables, so association lists beat hashing.
#[derive(Debug, Default)]
struct Subst {
    tys: Vec<(u32, TyId)>,
    regs: Vec<(Reg, Reg)>,
    effs: Vec<(Eff, Eff)>,
}

fn lookup<V: Copy>(map: &[(u32, V)], key: u32) -> Option<V> {
    map.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

impl Stores {
    /// Instantiates `s` with fresh region/effect/type variables; the
    /// regions substituted for its quantified ones are then
    /// [`Stores::reg_actuals`].
    pub fn instantiate(&mut self, s: &RScheme) -> TyId {
        let mut sub = std::mem::take(&mut self.sub);
        sub.tys.clear();
        sub.regs.clear();
        sub.effs.clear();
        if s.qtys.is_empty() && s.qregs.is_empty() && s.qeffs.is_empty() {
            self.sub = sub;
            return s.ty;
        }
        sub.tys.extend(s.qtys.iter().map(|&q| (q, self.fresh_ty())));
        sub.regs
            .extend(s.qregs.iter().map(|&q| (q, self.fresh_reg())));
        sub.effs
            .extend(s.qeffs.iter().map(|&q| (q, self.fresh_eff())));
        // Copy quantified effect sets under the substitution.
        for &(q, f) in &sub.effs {
            let root = self.find_eff(q);
            for i in 0..self.effs[root as usize].regs.len() {
                let r = self.effs[root as usize].regs[i];
                let cr = self.find_reg(r);
                let nr = lookup(&sub.regs, cr).unwrap_or(cr);
                insert_sorted(&mut self.effs[f as usize].regs, nr);
            }
            for i in 0..self.effs[root as usize].children.len() {
                let c = self.effs[root as usize].children[i];
                let cc = self.find_eff(c);
                let nc = lookup(&sub.effs, cc).unwrap_or(cc);
                if nc != f {
                    insert_sorted(&mut self.effs[f as usize].children, nc);
                }
            }
        }
        let ty = self.copy_ty(s.ty, &sub);
        self.sub = sub;
        ty
    }

    /// The regions the last [`Stores::instantiate`] substituted for the
    /// scheme's quantified regions, in `qregs` order.
    pub fn reg_actuals(&self) -> impl Iterator<Item = Reg> + '_ {
        self.sub.regs.iter().map(|&(_, f)| f)
    }

    /// `ty` under `sub`; subtrees the substitution leaves alone are shared.
    fn copy_ty(&mut self, ty: TyId, sub: &Subst) -> TyId {
        let ty = self.resolve(ty);
        match self.tys[ty.0 as usize] {
            RTy::Var => lookup(&sub.tys, ty.0).unwrap_or(ty),
            RTy::Link(_) => unreachable!("resolved above"),
            RTy::Int | RTy::Bool | RTy::Unit => ty,
            RTy::Real(r) => {
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Real(nr))
            }
            RTy::Str(r) => {
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Str(nr))
            }
            RTy::Exn(r) => {
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Exn(nr))
            }
            RTy::Tuple(ts, r) => {
                let nts = self.copy_kids(ts, sub);
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Tuple(nts, nr))
            }
            RTy::Arrow(ps, e, b, r) => {
                let nps = self.copy_kids(ps, sub);
                let nb = self.copy_ty(b, sub);
                let ce = self.find_eff(e);
                let ne = lookup(&sub.effs, ce).unwrap_or(ce);
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Arrow(nps, ne, nb, nr))
            }
            RTy::Con(c, ts, r) => {
                let nts = self.copy_kids(ts, sub);
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Con(c, nts, nr))
            }
            RTy::Ref(t, r) => {
                let nt = self.copy_ty(t, sub);
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Ref(nt, nr))
            }
            RTy::Array(t, r) => {
                let nt = self.copy_ty(t, sub);
                let nr = self.sub_reg(r, sub);
                self.rebuilt(ty, RTy::Array(nt, nr))
            }
        }
    }

    fn sub_reg(&mut self, r: Reg, sub: &Subst) -> Reg {
        let c = self.find_reg(r);
        lookup(&sub.regs, c).unwrap_or(c)
    }

    fn copy_kids(&mut self, kids: Kids, sub: &Subst) -> Kids {
        let base = self.copied.len();
        let mut same = true;
        for i in kids.range() {
            let kid = self.kids[i];
            let copy = self.copy_ty(kid, sub);
            same &= copy == kid;
            self.copied.push(copy);
        }
        let out = if same {
            kids
        } else {
            let start = self.kids.len() as u32;
            self.kids.extend_from_slice(&self.copied[base..]);
            Kids {
                start,
                len: kids.len,
            }
        };
        self.copied.truncate(base);
        out
    }

    /// `old` if `node` is what it already holds, else a new node.
    fn rebuilt(&mut self, old: TyId, node: RTy) -> TyId {
        if self.tys[old.0 as usize] == node {
            old
        } else {
            self.mk(node)
        }
    }

    /// Generalizes `ty` against the environment's free variables.
    ///
    /// Quantified regions are listed in **structural traversal order** of
    /// the type, not by variable id: two alpha-equivalent schemes then list
    /// corresponding regions at the same positions, which the
    /// region-polymorphic calling convention relies on (call sites record
    /// actuals positionally against one fixed-point round's scheme).
    ///
    /// `env_frv` and `env_fev` are canonicalized here (they may have been
    /// collected before later unifications); `scratch` is clobbered.
    pub fn generalize(
        &mut self,
        ty: TyId,
        env_frv: &[Reg],
        env_fev: &[Eff],
        env_ftv: &[u32],
        scratch: &mut [IdSet; 2],
    ) -> RScheme {
        let [env, own] = &mut *scratch;
        env.clear();
        for &r in env_frv {
            env.insert(self.find_reg(r));
        }
        own.clear();
        self.frv_skel_ordered(ty, own);
        let qregs = own.items().iter().copied().filter(|&r| !env.contains(r));
        let qregs: Vec<Reg> = qregs.collect();

        env.clear();
        for &e in env_fev {
            env.insert(self.find_eff(e));
        }
        own.clear();
        self.fev(ty, own);
        let qeffs = own.items().iter().copied().filter(|&e| !env.contains(e));
        let qeffs: Vec<Eff> = qeffs.collect();

        RScheme {
            qtys: self.quantifiable_tys(ty, env_ftv, scratch),
            qregs,
            qeffs,
            ty,
        }
    }

    /// The type variables of `ty` that are not among `env_ftv` (which is
    /// taken as collected: a variable bound since is not looked through).
    pub fn quantifiable_tys(
        &self,
        ty: TyId,
        env_ftv: &[u32],
        scratch: &mut [IdSet; 2],
    ) -> Vec<u32> {
        let [env, own] = scratch;
        env.clear();
        for &t in env_ftv {
            env.insert(t);
        }
        own.clear();
        self.ftv(ty, own);
        let free = own.items().iter().copied();
        free.filter(|&t| !env.contains(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs_of(st: &mut Stores, ty: TyId) -> IdSet {
        let mut out = IdSet::default();
        st.frv(ty, &mut out);
        out
    }

    #[test]
    fn region_union_find() {
        let mut st = Stores::new();
        let a = st.fresh_reg();
        let b = st.fresh_reg();
        let c = st.fresh_reg();
        st.union_reg(a, b);
        st.union_reg(b, c);
        assert_eq!(st.find_reg(a), st.find_reg(c));
    }

    #[test]
    fn unify_merges_regions() {
        let mut st = Stores::new();
        let r1 = st.fresh_reg();
        let r2 = st.fresh_reg();
        let (t1, t2) = (st.real(r1), st.real(r2));
        st.unify(t1, t2);
        assert_eq!(st.find_reg(r1), st.find_reg(r2));
    }

    #[test]
    fn unify_binds_variables_to_shared_nodes() {
        let mut st = Stores::new();
        let v = st.fresh_ty();
        let r = st.fresh_reg();
        let pair = st.tuple(&[Stores::INT, v], r);
        let w = st.fresh_ty();
        st.unify(w, pair);
        st.unify(v, Stores::BOOL);
        // `w` resolves to the very node `pair`, whose component is now bool.
        assert_eq!(st.resolve(w), pair);
        let RTy::Tuple(comps, _) = st.node(w) else {
            panic!()
        };
        assert_eq!(st.node(st.kids(comps)[1]), RTy::Bool);
    }

    #[test]
    fn effects_close_transitively() {
        let mut st = Stores::new();
        let r1 = st.fresh_reg();
        let r2 = st.fresh_reg();
        let e1 = st.fresh_eff();
        let e2 = st.fresh_eff();
        st.eff_add_reg(e2, r2);
        st.eff_add_child(e1, e2);
        st.eff_add_reg(e1, r1);
        let mut regs = IdSet::default();
        st.eff_regs(e1, &mut regs);
        assert!(regs.contains(st.find_reg(r1)));
        assert!(regs.contains(st.find_reg(r2)));
    }

    #[test]
    fn effect_union_merges_sets() {
        let mut st = Stores::new();
        let r = st.fresh_reg();
        let e1 = st.fresh_eff();
        let e2 = st.fresh_eff();
        st.eff_add_reg(e1, r);
        st.union_eff(e1, e2);
        let mut regs = IdSet::default();
        st.eff_regs(e2, &mut regs);
        assert!(regs.contains(st.find_reg(r)));
    }

    #[test]
    fn effect_cycles_terminate() {
        let mut st = Stores::new();
        let r = st.fresh_reg();
        let e1 = st.fresh_eff();
        let e2 = st.fresh_eff();
        st.eff_add_child(e1, e2);
        st.eff_add_child(e2, e1);
        st.eff_add_reg(e2, r);
        let mut regs = IdSet::default();
        st.eff_regs(e1, &mut regs);
        assert_eq!(regs.items(), [r]);
    }

    #[test]
    fn frv_includes_latent_effects() {
        let mut st = Stores::new();
        let rho = st.fresh_reg();
        let clos = st.fresh_reg();
        let e = st.fresh_eff();
        st.eff_add_reg(e, rho);
        let ty = st.arrow(&[Stores::INT], e, Stores::INT, clos);
        let out = regs_of(&mut st, ty);
        assert!(
            out.contains(st.find_reg(rho)),
            "latent effect region escapes"
        );
        assert!(out.contains(st.find_reg(clos)));
        assert_eq!(st.frv_calls, 1);
    }

    #[test]
    fn instantiation_freshens_quantified_regions() {
        let mut st = Stores::new();
        let rho = st.fresh_reg();
        let e = st.fresh_eff();
        st.eff_add_reg(e, rho);
        let clos = st.fresh_reg();
        let pair = st.tuple(&[Stores::INT, Stores::INT], rho);
        let ty = st.arrow(&[Stores::INT], e, pair, clos);
        let scheme = RScheme {
            qtys: vec![],
            qregs: vec![rho],
            qeffs: vec![e],
            ty,
        };
        let i1 = st.instantiate(&scheme);
        let a1: Vec<Reg> = st.reg_actuals().collect();
        st.instantiate(&scheme);
        let a2: Vec<Reg> = st.reg_actuals().collect();
        assert_eq!(a1.len(), 1);
        assert_ne!(
            st.find_reg(a1[0]),
            st.find_reg(a2[0]),
            "instances get distinct result regions"
        );
        // The instantiated effect must mention the instantiated region, not
        // the formal.
        let RTy::Arrow(ps, ne, _, _) = st.node(i1) else {
            panic!()
        };
        let mut regs = IdSet::default();
        st.eff_regs(ne, &mut regs);
        assert!(regs.contains(st.find_reg(a1[0])));
        // Subtrees without quantified variables are shared, not copied.
        let RTy::Arrow(ps0, ..) = st.node(ty) else {
            panic!()
        };
        assert_eq!(ps, ps0);
    }

    #[test]
    fn monomorphic_scheme_instantiates_to_itself() {
        let mut st = Stores::new();
        let r = st.fresh_reg();
        let ty = st.real(r);
        let scheme = RScheme {
            qtys: vec![],
            qregs: vec![],
            qeffs: vec![],
            ty,
        };
        assert_eq!(st.instantiate(&scheme), ty);
    }

    #[test]
    fn generalize_respects_env() {
        let mut st = Stores::new();
        let kept = st.fresh_reg();
        let gened = st.fresh_reg();
        let e = st.fresh_eff();
        let clos = st.fresh_reg();
        let (a, b) = (st.real(kept), st.real(gened));
        let ty = st.arrow(&[a], e, b, clos);
        let s = st.generalize(ty, &[kept], &[], &[], &mut Default::default());
        assert!(!s.qregs.contains(&st.find_reg(kept)));
        // Structural order: closure region first, then the result's.
        assert_eq!(s.qregs, [st.find_reg(clos), st.find_reg(gened)]);
        assert_eq!(s.qeffs, [e]);
    }
}
