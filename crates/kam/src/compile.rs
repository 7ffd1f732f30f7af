//! RegionExp → bytecode compilation.
//!
//! Responsibilities: frame layout (locals, finite-region slots), closure
//! conversion (closures capture free variables, free region handles, and
//! the shared closures of referenced `fix` groups), constructor
//! representation, region-polymorphic calling convention, tail calls
//! (only outside `letregion`/handler scopes — the ML Kit limitation noted
//! in §4.4 of the paper), and safe-point placement at function entries.

use crate::instr::{Disc, FunInfo, Instr, Program, RegSlot};
use kit_lambda::exp::VarId;
use kit_lambda::ty::{SchemeTy, TyConId};
use kit_region::{Mult, Place, RExp, RFixFun, RProgram, RegVar};
use kit_runtime::value::scalar;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Compiles a RegionExp program for the given tagging mode.
pub fn compile(prog: &RProgram, tagged: bool) -> Program {
    let mut cx = Cx {
        prog,
        tagged,
        code: Vec::new(),
        pc_of_label: Vec::new(),
        fun_of_label: Vec::new(),
        funs: Vec::new(),
        next_group: 0,
        finite_sizes: HashMap::new(),
    };
    cx.finite_sizes = finite_sizes(&cx);
    // Global regions: infinite ones are created by the VM at startup (their
    // region ids equal their position); finite ones live in the main frame.
    let mut global_regs: HashMap<RegVar, RegSlot> = HashMap::new();
    let mut global_infinite = Vec::new();
    let mut main_fin = FiniteArea::default();
    for (r, m) in &prog.globals {
        match m {
            Mult::Infinite => {
                global_regs.insert(*r, RegSlot::Global(global_infinite.len() as u32));
                global_infinite.push(r.0);
            }
            Mult::Finite => {
                let off = main_fin.alloc(cx.finite_sizes[r]);
                global_regs.insert(*r, RegSlot::Finite(off));
            }
        }
    }

    // Compile the main body as function 0.
    let entry = cx.new_label();
    cx.bind(entry);
    let mut fcx = FnCx::new(&global_regs, main_fin);
    cx.emit(Instr::GcCheck);
    cx.comp(&prog.body, &mut fcx, false);
    cx.emit(Instr::Halt);
    let main_info = FunInfo {
        entry: cx.pc_of_label[entry as usize],
        nlocals: fcx.nlocals,
        nfinite: fcx.fin.watermark,
        name: "<main>".to_string(),
    };
    let main_id = cx.funs.len() as u32;
    cx.funs.push(main_info);
    cx.fun_of_label[entry as usize] = main_id;

    resolve(&mut cx.code, &cx.pc_of_label, &cx.fun_of_label);
    Program {
        code: cx.code,
        pc_of_label: cx.pc_of_label,
        fun_of_label: cx.fun_of_label,
        funs: cx.funs,
        main: main_id,
        global_infinite,
        exn_names: (0..prog.exns.len())
            .map(|i| prog.exns.get(kit_lambda::ty::ExnId(i as u32)).name.clone())
            .collect(),
        result_ty: kit_lambda::ty::LTy::Unit, // filled by the driver
        data: prog.data.clone(),
    }
}

/// The last pass: binds every branch operand's label to its pc, and gives
/// a known call its callee's function id.
fn resolve(code: &mut [Instr], pc_of_label: &[u32], fun_of_label: &[u32]) {
    let n = code.len();
    let pc = |l: &mut u32| {
        let addr = pc_of_label[*l as usize];
        assert!((addr as usize) < n, "branch to unbound label {l}");
        *l = addr;
    };
    for ins in code {
        match ins {
            Instr::SwitchCon { arms, default, .. } | Instr::SwitchExn { arms, default } => {
                arms.iter_mut().for_each(|(_, l)| pc(l));
                pc(default);
            }
            Instr::SwitchInt { arms, default } => {
                arms.iter_mut().for_each(|(_, l)| pc(l));
                pc(default);
            }
            Instr::SwitchStr { arms, default } => {
                arms.iter_mut().for_each(|(_, l)| pc(l));
                pc(default);
            }
            Instr::Jump(l) | Instr::JumpIfFalse(l) | Instr::PushHandler { target: l } => pc(l),
            Instr::Call { fun, target, .. } => {
                *fun = fun_of_label[*target as usize];
                pc(target);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------- contexts

#[derive(Debug, Clone)]
enum VB {
    /// Local slot.
    Slot(u32),
    /// Field of the current environment (absolute field index).
    Env(u32),
    /// A `fix`-bound function.
    Fix(FixInfo),
}

#[derive(Debug, Clone)]
struct FixInfo {
    label: u32,
    stub: u32,
    nformals: u16,
    group: u32,
}

#[derive(Debug, Clone, Copy)]
enum SharedSrc {
    /// The shared closure is in a local slot.
    Slot(u32),
    /// The shared closure is a field of the current environment.
    Env(u32),
    /// The group captured nothing: its shared value is scalar 0.
    Scalar,
}

#[derive(Debug, Default, Clone)]
struct FiniteArea {
    next: u32,
    watermark: u32,
}

impl FiniteArea {
    fn alloc(&mut self, words: u32) -> u32 {
        let off = self.next;
        self.next += words;
        self.watermark = self.watermark.max(self.next);
        off
    }
}

struct FnCx<'g> {
    vars: HashMap<VarId, VB>,
    regs: HashMap<RegVar, RegSlot>,
    shareds: HashMap<u32, SharedSrc>,
    globals: &'g HashMap<RegVar, RegSlot>,
    nlocals: u32,
    fin: FiniteArea,
    /// Open letregion scopes (tail calls are disabled inside them — the ML
    /// Kit limitation).
    cleanup: u32,
    /// Open `letregion` scopes of *this* function (a subset of `cleanup`,
    /// which also counts handler scopes). While one is open, a binding
    /// going out of scope must clear its local slot: the collector's root
    /// set spans every local, and a stale slot may point into a region
    /// the function is about to end (or into a reused finite-region area).
    /// Regions bound by callers outlive the frame, so depth 0 needs no
    /// clearing.
    open_lr: u32,
    /// `letregion` scopes of this function compiled so far (never
    /// decremented): a handled expression opened one iff this moved.
    lr_seen: u32,
    /// Open infinite-region count (for Local slot indices).
    open_regions: u32,
}

impl<'g> FnCx<'g> {
    fn new(globals: &'g HashMap<RegVar, RegSlot>, fin: FiniteArea) -> Self {
        FnCx {
            vars: HashMap::new(),
            regs: HashMap::new(),
            shareds: HashMap::new(),
            globals,
            nlocals: 1, // slot 0 = environment
            fin,
            cleanup: 0,
            open_lr: 0,
            lr_seen: 0,
            open_regions: 0,
        }
    }

    fn slot(&mut self) -> u32 {
        let s = self.nlocals;
        self.nlocals += 1;
        s
    }

    fn regslot(&self, r: RegVar) -> RegSlot {
        if let Some(s) = self.regs.get(&r) {
            return *s;
        }
        *self
            .globals
            .get(&r)
            .unwrap_or_else(|| panic!("region r{} not in scope", r.0))
    }
}

struct Cx<'a> {
    prog: &'a RProgram,
    tagged: bool,
    code: Vec<Instr>,
    /// Label id → pc (`u32::MAX` until bound).
    pc_of_label: Vec<u32>,
    /// Label id → function id (`u32::MAX` unless an entry or a stub).
    fun_of_label: Vec<u32>,
    funs: Vec<FunInfo>,
    next_group: u32,
    /// Words of every finite region's one allocation ([`finite_sizes`]).
    finite_sizes: HashMap<RegVar, u32>,
}

impl Cx<'_> {
    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    fn new_label(&mut self) -> u32 {
        self.pc_of_label.push(u32::MAX);
        self.fun_of_label.push(u32::MAX);
        self.pc_of_label.len() as u32 - 1
    }

    fn bind(&mut self, l: u32) {
        self.pc_of_label[l as usize] = self.code.len() as u32;
    }

    // ------------------------------------------------- constructor layout

    /// `(discriminant scheme, per-ctor inline field count)`.
    fn con_rep(&self, tycon: TyConId) -> (Disc, Vec<u16>) {
        let dt = self.prog.data.get(tycon);
        let fields: Vec<u16> = dt
            .constructors
            .iter()
            .map(|c| match &c.arg {
                None => 0,
                Some(SchemeTy::Tuple(ts)) => ts.len() as u16,
                Some(_) => 1,
            })
            .collect();
        let boxed = dt.boxed_count();
        let disc = if boxed == 0 {
            Disc::Enum
        } else if self.tagged {
            Disc::Tag
        } else if boxed == 1 {
            let single = fields
                .iter()
                .position(|&n| n > 0)
                .expect("one boxed constructor") as u32;
            Disc::Single(single)
        } else {
            Disc::Field0
        };
        (disc, fields)
    }

    fn con_needs_disc(&self, tycon: TyConId) -> bool {
        !self.tagged && self.prog.data.get(tycon).boxed_count() > 1
    }

    // ----------------------------------------------------------- captures

    /// Ordered capture list for a set of function bodies: their free
    /// variables, a `fix`-bound one as its group's shared closure, and
    /// their free regions that are not global, each once.
    fn captures(
        &self,
        bodies: &[&RExp],
        bound: &BTreeSet<VarId>,
        bound_regs: &BTreeSet<RegVar>,
        fcx: &FnCx<'_>,
    ) -> Vec<Cap> {
        let mut caps: Vec<Cap> = Vec::new();
        let mut seen = HashSet::new();
        for b in bodies {
            collect_caps(b, &mut bound.clone(), &mut bound_regs.clone(), &mut |c| {
                let cap = match c {
                    Cap::Var(v) => match fcx.vars.get(&v) {
                        Some(VB::Fix(info)) => Cap::Shared(info.group),
                        _ => c,
                    },
                    // A global is addressed by its index from any frame;
                    // every other free region — `letregion`-bound or a
                    // formal of an enclosing function — reaches the
                    // closure as a captured handle.
                    Cap::Reg(r) if fcx.globals.contains_key(&r) => return,
                    _ => c,
                };
                if seen.insert(cap) {
                    caps.push(cap);
                }
            });
        }
        caps
    }

    /// Emits code pushing the value of `v` (resolved in `fcx`).
    fn push_var(&mut self, v: VarId, fcx: &FnCx<'_>) {
        match fcx.vars.get(&v) {
            Some(VB::Slot(s)) => self.emit(Instr::Load(*s)),
            Some(VB::Env(i)) => {
                self.emit(Instr::Load(0));
                self.emit(Instr::Select(*i as u16));
            }
            Some(VB::Fix(_)) => {
                panic!(
                    "fix-bound {} used as plain variable (should be FixVar)",
                    v.0
                )
            }
            None => panic!("unbound variable {} at codegen", v.0),
        }
    }

    /// Clears the slot of a binding that just went out of scope. The GC
    /// root set includes every local of every live frame, so a stale slot
    /// must not keep pointing into a region this function may end before
    /// it returns — after `EndRegions` such a pointer dangles and the
    /// collector would trace freed (possibly reused) pages. Only letregion
    /// scopes of the current function can end while the frame is live, so
    /// clearing is emitted only inside them.
    fn clear_dead_slot(&mut self, s: u32, fcx: &FnCx<'_>) {
        if fcx.open_lr > 0 {
            self.clear_slot(s);
        }
    }

    fn clear_slot(&mut self, s: u32) {
        let null = if self.tagged { scalar(0) } else { 0 };
        self.emit(Instr::PushConst(null));
        self.emit(Instr::Store(s));
    }

    fn push_shared(&mut self, g: u32, fcx: &FnCx<'_>) {
        match fcx.shareds.get(&g) {
            Some(SharedSrc::Slot(s)) => self.emit(Instr::Load(*s)),
            Some(SharedSrc::Env(i)) => {
                self.emit(Instr::Load(0));
                self.emit(Instr::Select(*i as u16));
            }
            Some(SharedSrc::Scalar) => self.emit(Instr::PushConst(scalar(0))),
            None => panic!("shared closure of group {g} not in scope"),
        }
    }

    fn push_caps(&mut self, caps: &[Cap], fcx: &FnCx<'_>) {
        for c in caps {
            match c {
                Cap::Var(v) => self.push_var(*v, fcx),
                Cap::Reg(r) => self.emit(Instr::RegHandle(fcx.regslot(*r))),
                Cap::Shared(g) => self.push_shared(*g, fcx),
            }
        }
    }

    /// Binds the capture list inside a fresh function context whose
    /// environment starts at field `base` (1 for `fn` closures, 0 for
    /// shared closures).
    fn bind_caps(caps: &[Cap], base: u32, inner: &mut FnCx<'_>) {
        for (i, c) in caps.iter().enumerate() {
            let idx = base + i as u32;
            match c {
                Cap::Var(v) => {
                    inner.vars.insert(*v, VB::Env(idx));
                }
                Cap::Reg(r) => {
                    inner.regs.insert(*r, RegSlot::EnvReg(idx));
                }
                Cap::Shared(g) => {
                    inner.shareds.insert(*g, SharedSrc::Env(idx));
                }
            }
        }
    }

    // ----------------------------------------------------------- compile

    fn comp(&mut self, e: &RExp, fcx: &mut FnCx<'_>, tail: bool) {
        match e {
            RExp::Var(v) => self.push_var(*v, fcx),
            RExp::Int(n) => {
                let w = if self.tagged { scalar(*n) } else { *n as u64 };
                self.emit(Instr::PushConst(w));
            }
            RExp::Bool(b) => {
                let w = if self.tagged {
                    scalar(*b as i64)
                } else {
                    *b as u64
                };
                self.emit(Instr::PushConst(w));
            }
            RExp::Unit => {
                let w = if self.tagged { scalar(0) } else { 0 };
                self.emit(Instr::PushConst(w));
            }
            RExp::Str(s) => {
                // Interned by the VM at load time via a pseudo-prim.
                self.emit(Instr::PushStr(s.clone()));
            }
            RExp::Real(x, p) => {
                let at = fcx.regslot(*p);
                self.emit(Instr::PushReal(*x, at));
            }
            RExp::Prim(p, args, at) => {
                for a in args {
                    self.comp(a, fcx, false);
                }
                let at = at.map(|r| fcx.regslot(r));
                self.emit(Instr::Prim { p: *p, at });
            }
            RExp::Record(es, p) => {
                for a in es {
                    self.comp(a, fcx, false);
                }
                let at = fcx.regslot(*p);
                self.emit(Instr::MkRecord {
                    n: es.len() as u16,
                    at,
                });
            }
            RExp::Select(i, e) => {
                self.comp(e, fcx, false);
                self.emit(Instr::Select(*i as u16));
            }
            RExp::Con {
                tycon,
                con,
                arg,
                at,
            } => {
                let (_, fields) = self.con_rep(*tycon);
                let k = fields[con.0 as usize];
                match arg {
                    None => {
                        // Nullary constructors are immediate scalars whether
                        // or not values are tagged.
                        self.emit(Instr::PushConst(scalar(con.0 as i64)));
                    }
                    Some(a) => {
                        // Inline a syntactic record argument directly.
                        let is_tuple_decl = matches!(
                            self.prog.data.get(*tycon).constructors[con.0 as usize].arg,
                            Some(SchemeTy::Tuple(_))
                        );
                        if is_tuple_decl {
                            if let RExp::Record(es, _) = a.as_ref() {
                                for f in es {
                                    self.comp(f, fcx, false);
                                }
                            } else {
                                self.comp(a, fcx, false);
                                self.emit(Instr::Spread { n: k });
                            }
                        } else {
                            self.comp(a, fcx, false);
                        }
                        let at = fcx.regslot(at.expect("carrying constructor without place"));
                        self.emit(Instr::MkCon {
                            ctor: con.0 as u16,
                            n: k,
                            disc: self.con_needs_disc(*tycon),
                            at,
                        });
                    }
                }
            }
            RExp::DeCon { tycon, con, scrut } => {
                self.comp(scrut, fcx, false);
                let is_tuple_decl = matches!(
                    self.prog.data.get(*tycon).constructors[con.0 as usize].arg,
                    Some(SchemeTy::Tuple(_))
                );
                if is_tuple_decl {
                    // Inlined tuple: the constructor block *is* the tuple
                    // (skipping the discriminant word in untagged mode).
                    if self.con_needs_disc(*tycon) {
                        self.emit(Instr::DeConAdj);
                    }
                } else {
                    // Single-field argument: read it out of the block.
                    let off = u16::from(self.con_needs_disc(*tycon));
                    self.emit(Instr::Select(off));
                }
            }
            RExp::SwitchCon {
                scrut,
                tycon,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let (disc, _) = self.con_rep(*tycon);
                let end = self.new_label();
                let dflt = self.new_label();
                let mut larm = Vec::new();
                for (c, _) in arms {
                    larm.push((c.0, self.new_label()));
                }
                self.emit(Instr::SwitchCon {
                    disc,
                    arms: larm.clone(),
                    default: dflt,
                });
                for ((_, a), (_, l)) in arms.iter().zip(&larm) {
                    self.bind(*l);
                    self.comp(a, fcx, tail);
                    self.emit(Instr::Jump(end));
                }
                self.bind(dflt);
                match default {
                    Some(d) => self.comp(d, fcx, tail),
                    None => self.emit(Instr::Unreachable),
                }
                self.bind(end);
            }
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let end = self.new_label();
                let dflt = self.new_label();
                let mut larm = Vec::new();
                for (k, _) in arms {
                    larm.push((*k, self.new_label()));
                }
                self.emit(Instr::SwitchInt {
                    arms: larm.clone(),
                    default: dflt,
                });
                for ((_, a), (_, l)) in arms.iter().zip(&larm) {
                    self.bind(*l);
                    self.comp(a, fcx, tail);
                    self.emit(Instr::Jump(end));
                }
                self.bind(dflt);
                self.comp(default, fcx, tail);
                self.bind(end);
            }
            RExp::SwitchStr {
                scrut,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let end = self.new_label();
                let dflt = self.new_label();
                let mut larm = Vec::new();
                for (k, _) in arms {
                    larm.push((k.clone(), self.new_label()));
                }
                self.emit(Instr::SwitchStr {
                    arms: larm.clone(),
                    default: dflt,
                });
                for ((_, a), (_, l)) in arms.iter().zip(&larm) {
                    self.bind(*l);
                    self.comp(a, fcx, tail);
                    self.emit(Instr::Jump(end));
                }
                self.bind(dflt);
                self.comp(default, fcx, tail);
                self.bind(end);
            }
            RExp::SwitchExn {
                scrut,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let end = self.new_label();
                let dflt = self.new_label();
                let mut larm = Vec::new();
                for (k, _) in arms {
                    larm.push((k.0, self.new_label()));
                }
                self.emit(Instr::SwitchExn {
                    arms: larm.clone(),
                    default: dflt,
                });
                for ((_, a), (_, l)) in arms.iter().zip(&larm) {
                    self.bind(*l);
                    self.comp(a, fcx, tail);
                    self.emit(Instr::Jump(end));
                }
                self.bind(dflt);
                self.comp(default, fcx, tail);
                self.bind(end);
            }
            RExp::If(c, t, f) => {
                self.comp(c, fcx, false);
                let lf = self.new_label();
                let end = self.new_label();
                self.emit(Instr::JumpIfFalse(lf));
                self.comp(t, fcx, tail);
                self.emit(Instr::Jump(end));
                self.bind(lf);
                self.comp(f, fcx, tail);
                self.bind(end);
            }
            RExp::Fn { params, body, at } => {
                let bound: BTreeSet<VarId> = params.iter().copied().collect();
                let caps = self.captures(&[body], &bound, &BTreeSet::new(), fcx);
                // Emit the function body out of line.
                let fix_binds: Vec<(VarId, VB)> = fcx
                    .vars
                    .iter()
                    .filter(|(_, b)| matches!(b, VB::Fix(_)))
                    .map(|(v, b)| (*v, b.clone()))
                    .collect();
                let entry = self.compile_function(params, body, &caps, fcx.globals, &fix_binds);
                // Closure record: [label, captures...].
                self.emit(Instr::PushConst(scalar(entry as i64)));
                self.push_caps(&caps, fcx);
                let at = fcx.regslot(*at);
                self.emit(Instr::MkRecord {
                    n: 1 + caps.len() as u16,
                    at,
                });
            }
            RExp::App {
                callee,
                rargs,
                args,
            } => {
                if let RExp::Var(v) = callee.as_ref() {
                    if let Some(VB::Fix(info)) = fcx.vars.get(v).cloned() {
                        // Known call: [shared, rhandles.., args..].
                        self.push_shared(info.group, fcx);
                        for r in rargs {
                            self.emit(Instr::RegHandle(fcx.regslot(*r)));
                        }
                        for a in args {
                            self.comp(a, fcx, false);
                        }
                        // `resolve` fills in the function id.
                        self.emit(Instr::Call {
                            fun: u32::MAX,
                            target: info.label,
                            nargs: args.len() as u16,
                            nformals: info.nformals,
                            tail: tail && fcx.cleanup == 0,
                        });
                        return;
                    }
                }
                self.comp(callee, fcx, false);
                for a in args {
                    self.comp(a, fcx, false);
                }
                self.emit(Instr::CallClos {
                    nargs: args.len() as u16,
                    tail: tail && fcx.cleanup == 0,
                });
            }
            RExp::FixVar { var, rargs, at } => {
                let Some(VB::Fix(info)) = fcx.vars.get(var).cloned() else {
                    panic!("FixVar of non-fix binding {}", var.0)
                };
                self.emit(Instr::PushConst(scalar(info.stub as i64)));
                self.push_shared(info.group, fcx);
                for r in rargs {
                    self.emit(Instr::RegHandle(fcx.regslot(*r)));
                }
                let at = fcx.regslot(*at);
                self.emit(Instr::MkRecord {
                    n: 2 + rargs.len() as u16,
                    at,
                });
            }
            RExp::Let { var, rhs, body } => {
                self.comp(rhs, fcx, false);
                let s = fcx.slot();
                self.emit(Instr::Store(s));
                fcx.vars.insert(*var, VB::Slot(s));
                self.comp(body, fcx, tail);
                self.clear_dead_slot(s, fcx);
            }
            RExp::Fix { funs, body, at } => self.comp_fix(funs, body, *at, fcx, tail),
            RExp::Letregion { regs, body } => {
                let inf: Vec<u32> = regs
                    .iter()
                    .filter(|(_, m)| *m == Mult::Infinite)
                    .map(|(r, _)| r.0)
                    .collect();
                let fin_save = fcx.fin.next;
                for (r, m) in regs {
                    match m {
                        Mult::Infinite => {
                            let idx = fcx.open_regions;
                            fcx.open_regions += 1;
                            fcx.regs.insert(*r, RegSlot::Local(idx));
                        }
                        Mult::Finite => {
                            let off = fcx.fin.alloc(self.finite_sizes[r]);
                            fcx.regs.insert(*r, RegSlot::Finite(off));
                        }
                    }
                }
                if !inf.is_empty() {
                    self.emit(Instr::LetRegion { names: inf.clone() });
                }
                fcx.cleanup += 1;
                fcx.open_lr += 1;
                fcx.lr_seen += 1;
                self.comp(body, fcx, false);
                fcx.open_lr -= 1;
                fcx.cleanup -= 1;
                if !inf.is_empty() {
                    self.emit(Instr::EndRegions(inf.len() as u16));
                    fcx.open_regions -= inf.len() as u32;
                }
                fcx.fin.next = fin_save;
            }
            RExp::Marker { .. } => panic!("marker reached code generation"),
            RExp::ExCon { exn, arg, at } => {
                let has_arg = arg.is_some();
                if let Some(a) = arg {
                    self.comp(a, fcx, false);
                }
                let at = at.map(|r| fcx.regslot(r));
                self.emit(Instr::MkExn {
                    exn: exn.0,
                    has_arg,
                    at,
                });
            }
            RExp::DeExn { scrut, .. } => {
                self.comp(scrut, fcx, false);
                self.emit(Instr::DeExn);
            }
            RExp::Raise(e) => {
                self.comp(e, fcx, false);
                self.emit(Instr::Raise);
            }
            RExp::Handle { body, var, handler } => {
                let lh = self.new_label();
                let end = self.new_label();
                self.emit(Instr::PushHandler { target: lh });
                fcx.cleanup += 1;
                let (lo, lr_before) = (fcx.nlocals, fcx.lr_seen);
                self.comp(body, fcx, false);
                let hi = fcx.nlocals;
                fcx.cleanup -= 1;
                self.emit(Instr::PopHandler);
                self.emit(Instr::Jump(end));
                self.bind(lh);
                // The raised value is on the operand stack.
                let s = fcx.slot();
                self.emit(Instr::Store(s));
                fcx.vars.insert(*var, VB::Slot(s));
                // A raise skips the scope-exit clears of every binding it
                // unwinds past, and `do_raise` pops this function's
                // letregions while the frame lives on. Slots are bump-
                // allocated, so the bindings of `body` are exactly
                // `lo..hi`, all dead here: clear them on the exception
                // path if any could point into a region this function
                // ends (one open around the handler, or one opened
                // inside `body` and already popped by the unwind).
                if fcx.open_lr > 0 || fcx.lr_seen > lr_before {
                    for dead in lo..hi {
                        self.clear_slot(dead);
                    }
                }
                self.comp(handler, fcx, tail);
                // The slot is only written on the exception path, so the
                // clear lives in the handler arm (the normal path jumps
                // straight to `end`).
                self.clear_dead_slot(s, fcx);
                self.bind(end);
            }
        }
    }

    /// Compiles an `fn` closure's body out of line; its environment is the
    /// closure `[label, caps..]`.
    fn compile_function(
        &mut self,
        params: &[VarId],
        body: &RExp,
        caps: &[Cap],
        globals: &HashMap<RegVar, RegSlot>,
        fix_binds: &[(VarId, VB)],
    ) -> u32 {
        let entry = self.new_label();
        // Compile out of line: jump over the body in the current stream.
        let skip = self.new_label();
        self.emit(Instr::Jump(skip));
        self.bind(entry);
        self.emit(Instr::GcCheck);
        let mut inner = FnCx::new(globals, FiniteArea::default());
        // Fix-function bindings (labels/arities) are context-independent;
        // their shared closures travel through captures.
        for (v, b) in fix_binds {
            inner.vars.insert(*v, b.clone());
        }
        for (i, p) in params.iter().enumerate() {
            inner.vars.insert(*p, VB::Slot(1 + i as u32));
        }
        inner.nlocals = 1 + params.len() as u32;
        Self::bind_caps(caps, 1, &mut inner);
        self.comp(body, &mut inner, true);
        self.emit(Instr::Ret);
        let id = self.funs.len() as u32;
        self.funs.push(FunInfo {
            entry: self.pc_of_label[entry as usize],
            nlocals: inner.nlocals,
            nfinite: inner.fin.watermark,
            name: "fn".to_string(),
        });
        self.fun_of_label[entry as usize] = id;
        self.bind(skip);
        entry
    }

    fn comp_fix(
        &mut self,
        funs: &[RFixFun],
        body: &RExp,
        at: Place,
        fcx: &mut FnCx<'_>,
        tail: bool,
    ) {
        let group = self.next_group;
        self.next_group += 1;
        // Capture analysis over all member bodies, excluding members,
        // their params, their formals.
        let mut bound: BTreeSet<VarId> = funs.iter().map(|f| f.var).collect();
        let mut bound_regs: BTreeSet<RegVar> = BTreeSet::new();
        for f in funs {
            bound.extend(f.params.iter().copied());
            bound_regs.extend(f.formals.iter().copied());
        }
        // Pre-assign labels so recursive references resolve.
        let infos: Vec<FixInfo> = funs
            .iter()
            .map(|f| FixInfo {
                label: self.new_label(),
                stub: self.new_label(),
                nformals: f.formals.len() as u16,
                group,
            })
            .collect();
        // Temporary context for capture analysis: members must be visible
        // as Fix bindings (so they become Shared captures, not Var).
        let mut probe = FnCx::new(fcx.globals, FiniteArea::default());
        probe.vars = fcx.vars.clone();
        probe.regs = fcx.regs.clone();
        probe.shareds = fcx.shareds.clone();
        for (f, info) in funs.iter().zip(&infos) {
            probe.vars.insert(f.var, VB::Fix(info.clone()));
        }
        probe.shareds.insert(group, SharedSrc::Scalar);
        let bodies: Vec<&RExp> = funs.iter().map(|f| &f.body).collect();
        let caps = self.captures(&bodies, &bound, &bound_regs, &probe);

        // Build the shared closure in the defining frame.
        let shared_src = if caps.is_empty() {
            SharedSrc::Scalar
        } else {
            self.push_caps(&caps, fcx);
            let at = fcx.regslot(at);
            self.emit(Instr::MkRecord {
                n: caps.len() as u16,
                at,
            });
            let s = fcx.slot();
            self.emit(Instr::Store(s));
            SharedSrc::Slot(s)
        };
        fcx.shareds.insert(group, shared_src);
        for (f, info) in funs.iter().zip(&infos) {
            fcx.vars.insert(f.var, VB::Fix(info.clone()));
        }

        // Compile member bodies.
        for (f, info) in funs.iter().zip(&infos) {
            let skip = self.new_label();
            self.emit(Instr::Jump(skip));
            self.bind(info.stub);
            let (nf, n) = (f.formals.len() as u32, f.params.len() as u32);
            self.emit(Instr::EnterViaPair {
                nformals: nf as u16,
                nargs: n as u16,
            });
            self.bind(info.label);
            self.emit(Instr::GcCheck);
            let mut inner = FnCx::new(fcx.globals, FiniteArea::default());
            for (v, b) in fcx.vars.iter().filter(|(_, b)| matches!(b, VB::Fix(_))) {
                inner.vars.insert(*v, b.clone());
            }
            // Frame: [shared][formals..][params..][locals..].
            for (i, r) in f.formals.iter().enumerate() {
                inner.regs.insert(*r, RegSlot::Formal(1 + i as u32));
            }
            for (i, p) in f.params.iter().enumerate() {
                inner.vars.insert(*p, VB::Slot(1 + nf + i as u32));
            }
            inner.nlocals = 1 + nf + n;
            Self::bind_caps(&caps, 0, &mut inner);
            // Members of the group are visible inside bodies; their shared
            // closure is this body's own environment (slot 0).
            for (g, i2) in funs.iter().zip(&infos) {
                inner.vars.insert(g.var, VB::Fix(i2.clone()));
            }
            inner.shareds.insert(group, SharedSrc::Slot(0));
            self.comp(&f.body, &mut inner, true);
            self.emit(Instr::Ret);
            debug_assert_eq!(inner.open_lr, 0);
            let id = self.funs.len() as u32;
            self.funs.push(FunInfo {
                entry: self.pc_of_label[info.label as usize],
                nlocals: inner.nlocals,
                nfinite: inner.fin.watermark,
                name: self.prog.vars.name(f.var).to_string(),
            });
            self.fun_of_label[info.label as usize] = id;
            self.fun_of_label[info.stub as usize] = id;
            self.bind(skip);
        }
        self.comp(body, fcx, tail);
        // The shared-closure slot dies with the fix scope.
        if let SharedSrc::Slot(s) = shared_src {
            self.clear_dead_slot(s, fcx);
        }
    }
}

// ------------------------------------------------------------ captures

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cap {
    Var(VarId),
    Reg(RegVar),
    Shared(u32),
}

/// Reports every free occurrence in `e`, in order: a variable as
/// [`Cap::Var`], a region as [`Cap::Reg`]. Names in `bound`/`bound_regs`
/// and those bound inside `e` are not free.
fn collect_caps(
    e: &RExp,
    bound: &mut BTreeSet<VarId>,
    bound_regs: &mut BTreeSet<RegVar>,
    out: &mut impl FnMut(Cap),
) {
    count_work(|| 1);
    for p in e.own_places() {
        if !bound_regs.contains(&p) {
            out(Cap::Reg(p));
        }
    }
    match e {
        RExp::Var(v) | RExp::FixVar { var: v, .. } => {
            if !bound.contains(v) {
                out(Cap::Var(*v));
            }
        }
        RExp::Let { var, rhs, body } => {
            collect_caps(rhs, bound, bound_regs, out);
            let fresh = bound.insert(*var);
            collect_caps(body, bound, bound_regs, out);
            if fresh {
                bound.remove(var);
            }
        }
        RExp::Fn { params, body, .. } => {
            let fresh: Vec<VarId> = params
                .iter()
                .copied()
                .filter(|p| bound.insert(*p))
                .collect();
            collect_caps(body, bound, bound_regs, out);
            for p in fresh {
                bound.remove(&p);
            }
        }
        RExp::Fix { funs, body, .. } => {
            let fresh: Vec<VarId> = funs
                .iter()
                .map(|f| f.var)
                .filter(|v| bound.insert(*v))
                .collect();
            for f in funs {
                let fp: Vec<VarId> = f
                    .params
                    .iter()
                    .copied()
                    .filter(|p| bound.insert(*p))
                    .collect();
                let fr: Vec<RegVar> = f
                    .formals
                    .iter()
                    .copied()
                    .filter(|r| bound_regs.insert(*r))
                    .collect();
                collect_caps(&f.body, bound, bound_regs, out);
                for p in fp {
                    bound.remove(&p);
                }
                for r in fr {
                    bound_regs.remove(&r);
                }
            }
            collect_caps(body, bound, bound_regs, out);
            for v in fresh {
                bound.remove(&v);
            }
        }
        RExp::Letregion { regs, body } => {
            let fresh: Vec<RegVar> = regs
                .iter()
                .map(|(r, _)| *r)
                .filter(|r| bound_regs.insert(*r))
                .collect();
            collect_caps(body, bound, bound_regs, out);
            for r in fresh {
                bound_regs.remove(&r);
            }
        }
        RExp::Handle { body, var, handler } => {
            collect_caps(body, bound, bound_regs, out);
            let fresh = bound.insert(*var);
            collect_caps(handler, bound, bound_regs, out);
            if fresh {
                bound.remove(var);
            }
        }
        _ => e.for_each_child(|c| collect_caps(c, bound, bound_regs, out)),
    }
}

// ------------------------------------------------------- finite sizing

/// Physical size in words of every finite region's single allocation (at
/// least 1), in one walk of the program. A closure's size is bounded by
/// the distinct names free in its body, its own parameters and global
/// regions included — never fewer than `captures` finds.
fn finite_sizes(cx: &Cx<'_>) -> HashMap<RegVar, u32> {
    let mut sizes: HashMap<RegVar, u32> = cx
        .prog
        .globals
        .iter()
        .filter(|(_, m)| *m == Mult::Finite)
        .map(|&(r, _)| (r, 1))
        .collect();
    size_sites(cx, &cx.prog.body, &mut sizes);
    sizes
}

/// Raises `sizes` to each allocation site's words in `e`; a `letregion`
/// adds its finite regions before its body is walked.
fn size_sites(cx: &Cx<'_>, e: &RExp, sizes: &mut HashMap<RegVar, u32>) {
    count_work(|| 1);
    let hdr = cx.tagged as u32;
    let (at, fields) = match e {
        RExp::Letregion { regs, .. } => {
            for (r, m) in regs {
                if *m == Mult::Finite {
                    sizes.insert(*r, 1);
                }
            }
            (None, 0)
        }
        RExp::Real(_, p) => (Some(*p), 1),
        RExp::Record(es, p) => (Some(*p), es.len() as u32),
        // Closure = [label, caps..].
        RExp::Fn { body, at, .. } if sizes.contains_key(at) => (Some(*at), 1 + distinct_free(body)),
        RExp::Fix { funs, at, .. } if sizes.contains_key(at) => {
            let n: u32 = funs.iter().map(|f| distinct_free(&f.body)).sum();
            (Some(*at), n.max(1))
        }
        RExp::FixVar { rargs, at, .. } => (Some(*at), 2 + rargs.len() as u32),
        RExp::Prim(_, _, Some(p)) => (Some(*p), 1),
        RExp::Con {
            tycon,
            con,
            at: Some(p),
            ..
        } => {
            let (_, fields) = cx.con_rep(*tycon);
            let disc = cx.con_needs_disc(*tycon) as u32;
            (Some(*p), fields[con.0 as usize] as u32 + disc)
        }
        RExp::ExCon { at: Some(p), .. } => (Some(*p), 1 + (!cx.tagged) as u32),
        _ => (None, 0),
    };
    if let Some(size) = at.and_then(|p| sizes.get_mut(&p)) {
        *size = (*size).max(fields + hdr);
    }
    e.for_each_child(|c| size_sites(cx, c, sizes));
}

/// The number of distinct variables and regions free in `body`.
fn distinct_free(body: &RExp) -> u32 {
    let mut seen = HashSet::new();
    collect_caps(body, &mut BTreeSet::new(), &mut BTreeSet::new(), &mut |c| {
        seen.insert(c);
    });
    seen.len() as u32
}

#[cfg(test)]
thread_local! {
    static WORK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Adds `n()` units of work to this thread's counter under `cfg(test)` and
/// does nothing otherwise: the linearity test's clock.
fn count_work(n: impl FnOnce() -> usize) {
    #[cfg(test)]
    WORK.with(|w| w.set(w.get() + n()));
    #[cfg(not(test))]
    let _ = n;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kit_bench::programs::{pair_let, wide_declarations};

    /// What code generation's walks over `src` cost by `count_work`: nodes
    /// visited sizing the finite regions and by `collect_caps`, for
    /// captures and for sizing closures in finite regions.
    fn codegen_work(src: String) -> usize {
        let run = move || {
            let mut lprog = kit_typing::compile_str(&src).expect("test program elaborates");
            kit_lambda::opt::optimize(&mut lprog, &Default::default());
            let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::with_gc());
            WORK.with(|w| w.set(0));
            compile(&rprog, true);
            WORK.with(|w| w.get())
        };
        // The declaration chain nests as deep as it is long.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(run)
            .expect("spawn")
            .join()
            .expect("code generation panicked")
    }

    /// A finite region's size costs one look at its allocation site, not
    /// a walk of the `letregion`'s scope.
    #[test]
    fn codegen_work_is_linear_in_declarations() {
        for (shape, small, large) in [
            (
                "wide declarations",
                wide_declarations(100),
                wide_declarations(400),
            ),
            ("pair let", pair_let(60), pair_let(240)),
        ] {
            let (small, large) = (codegen_work(small), codegen_work(large));
            assert!(
                10 * large <= 43 * small,
                "{shape}: 4x the declarations, {}x the work: {small} -> {large}",
                large as f64 / small as f64
            );
        }
    }
}
