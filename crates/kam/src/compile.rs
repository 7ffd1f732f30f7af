//! RegionExp → bytecode compilation.
//!
//! Responsibilities: frame layout (locals, finite-region slots), closure
//! conversion (closures capture free variables, free region handles, and
//! the shared closures of referenced `fix` groups), constructor
//! representation, region-polymorphic calling convention, tail calls
//! (only outside `letregion`/handler scopes — the ML Kit limitation noted
//! in §4.4 of the paper), safe-point placement at function entries, and
//! the frame map: local slots are taken in stack order and given back
//! when their scope exits, and each non-tail call records how many are in
//! scope — the roots of its frame while it is suspended.
//!
//! The output is the stream the engine runs: each instruction goes through
//! [`ThreadedCode::emit`] as an [`Op`] and its [`Args`], its
//! variable-sized payload into a side table. Branch operands hold label
//! ids until [`ThreadedCode::bind_labels`] rewrites them to pcs, last.
//!
//! Two walks. `Layout::of` reads every closure's captures and every
//! finite region's size off the program in one walk; the code walk then
//! resolves names through program-wide tables indexed by variable and
//! region (variables and regions are bound once), rebinding only what a
//! function it enters binds and restoring that when it leaves.

use crate::instr::{Disc, FunInfo, Program, RegSlot};
use crate::threaded::{Args, Op, SwitchRows, ThreadedCode};
use kit_lambda::exp::VarId;
use kit_lambda::ty::{SchemeTy, TyConId};
use kit_region::{ExpId, Mult, Place, RExp, RFixFun, RProgram, RegVar, Span};
use kit_runtime::value::scalar;

/// Compiles a RegionExp program for the given tagging mode.
pub fn compile(prog: &RProgram, tagged: bool) -> Program {
    let layout = Layout::of(prog, tagged);
    let mut cx = Cx {
        prog,
        tagged,
        code: ThreadedCode::default(),
        funs: Vec::new(),
        vars: vec![None; prog.vars.len()],
        fixes: vec![None; prog.vars.len()],
        shareds: vec![None; prog.vars.len()],
        regs: vec![None; prog.num_regvars as usize],
        globals: vec![None; prog.num_regvars as usize],
        shadowed: Vec::new(),
        saved: Vec::new(),
        layout,
    };
    // Global regions: infinite ones are created by the VM at startup (their
    // region ids equal their position); finite ones live in the main frame.
    let mut global_infinite = Vec::new();
    let mut main_fin = Area::default();
    for &(r, m) in &prog.globals {
        let slot = match m {
            Mult::Infinite => {
                global_infinite.push(r.0);
                RegSlot::Global(global_infinite.len() as u32 - 1)
            }
            Mult::Finite => RegSlot::Finite(main_fin.alloc(cx.layout.finite[r.0 as usize])),
        };
        cx.regs[r.0 as usize] = Some(slot);
        cx.globals[r.0 as usize] = Some(slot);
    }

    // Compile the main body as function 0.
    let entry = cx.new_label();
    cx.bind(entry);
    let mut fcx = FnCx::new(main_fin, 0);
    cx.op(Op::GcCheck);
    cx.comp(prog.body, &mut fcx, false);
    cx.op(Op::Halt);
    let main_id = cx.end_function(entry, &fcx, "<main>".to_string());

    cx.code.bind_labels();
    Program {
        code: cx.code,
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

// ---------------------------------------------------------------- contexts

/// Where a variable's value is in the function being compiled.
#[derive(Debug, Clone, Copy)]
enum VB {
    /// Local slot.
    Slot(u32),
    /// Field of the current environment (absolute field index).
    Env(u32),
}

/// A `fix`-bound function: the same in every function that names it.
#[derive(Debug, Clone, Copy)]
struct FixInfo {
    label: u32,
    stub: u32,
    nformals: u32,
    /// The group's first function, which names the group's shared closure.
    group: VarId,
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

/// A binding overwritten on entry to a function, put back on exit.
#[derive(Debug, Clone, Copy)]
enum Saved {
    Var(VarId, Option<VB>),
    Reg(RegVar, Option<RegSlot>),
    Shared(VarId, Option<SharedSrc>),
}

/// Frame words in stack order: a scope takes words at `next` and gives
/// them back when it exits; `watermark`, the most ever in use, is what
/// the frame reserves.
#[derive(Debug, Default, Clone)]
struct Area {
    next: u32,
    watermark: u32,
}

impl Area {
    fn alloc(&mut self, words: u32) -> u32 {
        let off = self.next;
        self.next += words;
        self.watermark = self.watermark.max(self.next);
        off
    }
}

/// The frame of the function being compiled.
struct FnCx {
    /// Local slots: the environment, the region formals and parameters,
    /// then one slot per binding in scope. A binding takes its slot at its
    /// `Store`, so the slots in scope are always the prefix
    /// `0..locals.next` — what a non-tail call records in the frame map.
    locals: Area,
    fin: Area,
    /// Open letregion scopes (tail calls are disabled inside them — the ML
    /// Kit limitation).
    cleanup: u32,
    /// Open infinite-region count (for Local slot indices).
    open_regions: u32,
}

impl FnCx {
    /// A frame whose first `1 + params` slots are the environment, the
    /// region formals and the parameters.
    fn new(fin: Area, params: u32) -> Self {
        FnCx {
            locals: Area {
                next: 1 + params,
                watermark: 1 + params,
            },
            fin,
            cleanup: 0,
            open_regions: 0,
        }
    }

    /// Takes the next slot for a binding whose `Store` comes next.
    fn slot(&mut self) -> u32 {
        self.locals.alloc(1)
    }
}

struct Cx<'a> {
    prog: &'a RProgram,
    tagged: bool,
    /// The stream, its label tables, entry pcs and frame map.
    code: ThreadedCode,
    funs: Vec<FunInfo>,
    /// By variable: where its value is in the current function.
    vars: Vec<Option<VB>>,
    /// By variable: the `fix`-bound function it names, program-wide.
    fixes: Vec<Option<FixInfo>>,
    /// By a group's first function: where the group's shared closure is in
    /// the current function.
    shareds: Vec<Option<SharedSrc>>,
    /// By region: how the current function reaches it.
    regs: Vec<Option<RegSlot>>,
    /// By region: how any function reaches it if it is global.
    globals: Vec<Option<RegSlot>>,
    /// Global regions the functions being compiled bind otherwise (in
    /// `gt` mode every formal is the global region), innermost last.
    shadowed: Vec<RegVar>,
    /// Bindings the functions being compiled overwrote, innermost last.
    saved: Vec<Saved>,
    layout: Layout,
}

impl Cx<'_> {
    fn emit(&mut self, op: Op, x: Args) {
        self.code.emit(op, x);
    }

    /// Emits an opcode that reads no operand.
    fn op(&mut self, op: Op) {
        self.code.emit(op, Args::ZERO);
    }

    fn pc(&self) -> u32 {
        count(self.code.len())
    }

    fn new_label(&mut self) -> u32 {
        self.code.pc_of_label.push(u32::MAX);
        self.code.fun_of_label.push(u32::MAX);
        count(self.code.pc_of_label.len() - 1)
    }

    fn bind(&mut self, l: u32) {
        self.code.pc_of_label[l as usize] = self.pc();
    }

    /// Records a function whose body is complete: its frame, and its entry
    /// label's pc as its entry pc. Returns its id.
    fn end_function(&mut self, entry: u32, inner: &FnCx, name: String) -> u32 {
        let id = count(self.funs.len());
        self.funs.push(FunInfo {
            nlocals: inner.locals.watermark,
            nfinite: inner.fin.watermark,
            name,
        });
        let pc = self.code.pc_of_label[entry as usize];
        self.code.entry_pc.push(pc);
        self.code.fun_of_label[entry as usize] = id;
        id
    }

    fn regslot(&self, r: RegVar) -> RegSlot {
        self.regs[r.0 as usize].unwrap_or_else(|| panic!("region r{} not in scope", r.0))
    }

    // ----------------------------------------------- entering a function

    fn rebind_var(&mut self, v: VarId, b: VB) {
        let old = self.vars[v.0 as usize].replace(b);
        self.saved.push(Saved::Var(v, old));
    }

    fn rebind_reg(&mut self, r: RegVar, s: RegSlot) {
        let old = self.regs[r.0 as usize].replace(s);
        self.saved.push(Saved::Reg(r, old));
        if self.shadows(r) {
            self.shadowed.push(r);
        }
    }

    /// Whether `r` is a global region bound otherwise right now.
    fn shadows(&self, r: RegVar) -> bool {
        let g = self.globals[r.0 as usize];
        g.is_some() && self.regs[r.0 as usize] != g
    }

    /// Starts a function: the global regions an enclosing function binds
    /// otherwise are global again inside it.
    fn enter(&mut self) -> usize {
        let mark = self.saved.len();
        for i in 0..self.shadowed.len() {
            let r = self.shadowed[i];
            if self.shadows(r) {
                let g = self.globals[r.0 as usize].expect("a global");
                self.rebind_reg(r, g);
            }
        }
        mark
    }

    fn rebind_shared(&mut self, g: VarId, s: SharedSrc) {
        let old = self.shareds[g.0 as usize].replace(s);
        self.saved.push(Saved::Shared(g, old));
    }

    /// Puts back the bindings saved since there were `mark` of them.
    fn restore(&mut self, mark: usize) {
        while self.saved.len() > mark {
            match self.saved.pop().expect("above mark") {
                Saved::Var(v, b) => self.vars[v.0 as usize] = b,
                Saved::Reg(r, s) => {
                    if self.shadows(r) {
                        self.shadowed.pop();
                    }
                    self.regs[r.0 as usize] = s;
                }
                Saved::Shared(g, s) => self.shareds[g.0 as usize] = s,
            }
        }
    }

    /// Binds the capture list `layout.caps[caps]` inside a function whose
    /// environment starts at field `base` (1 for `fn` closures, 0 for
    /// shared closures).
    fn bind_caps(&mut self, caps: (u32, u32), base: u32) {
        count_work(|| (caps.1 - caps.0) as usize);
        for (i, k) in (caps.0..caps.1).enumerate() {
            let idx = base + i as u32;
            match self.layout.caps[k as usize] {
                Cap::Var(v) => self.rebind_var(v, VB::Env(idx)),
                Cap::Reg(r) => self.rebind_reg(r, RegSlot::EnvReg(idx)),
                Cap::Shared(g) => self.rebind_shared(g, SharedSrc::Env(idx)),
            }
        }
    }

    // ----------------------------------------------------------- captures

    /// Emits code pushing the value of `v`.
    fn push_var(&mut self, v: VarId) {
        match self.vars[v.0 as usize] {
            Some(VB::Slot(s)) => self.load(s),
            Some(VB::Env(i)) => self.env_field(i),
            None if self.fixes[v.0 as usize].is_some() => {
                panic!(
                    "fix-bound {} used as plain variable (should be FixVar)",
                    v.0
                )
            }
            None => panic!("unbound variable {} at codegen", v.0),
        }
    }

    /// After a call: a non-tail one records its return pc and the slots in
    /// scope there, its frame's roots while it is suspended.
    fn map_return(&mut self, tail: bool, fcx: &FnCx) {
        if !tail {
            let entry = (self.pc(), fcx.locals.next);
            self.code.frame_map.push(entry);
        }
    }

    /// Pushes local slot `a`.
    fn load(&mut self, a: u32) {
        self.emit(Op::Load, Args { a, ..Args::ZERO });
    }

    /// Pops into local slot `a`.
    fn store(&mut self, a: u32) {
        self.emit(Op::Store, Args { a, ..Args::ZERO });
    }

    fn push_const(&mut self, k: u64) {
        self.emit(Op::PushConst, Args { k, ..Args::ZERO });
    }

    fn select(&mut self, n: u32) {
        self.emit(Op::Select, Args { n, ..Args::ZERO });
    }

    /// Pushes field `i` of the current environment.
    fn env_field(&mut self, i: u32) {
        self.load(0);
        self.select(i);
    }

    /// Emits `op` with branch target `t`, a label.
    fn jump(&mut self, op: Op, t: u32) {
        self.emit(op, Args { t, ..Args::ZERO });
    }

    fn reg_handle(&mut self, r: RegVar) {
        let at = Some(self.regslot(r));
        self.emit(Op::RegHandle, Args { at, ..Args::ZERO });
    }

    /// Allocates a record of the top `n` operands at `at`.
    fn mk_record(&mut self, n: u32, at: RegVar) {
        let at = Some(self.regslot(at));
        self.emit(
            Op::MkRecord,
            Args {
                n,
                at,
                ..Args::ZERO
            },
        );
    }

    fn push_shared(&mut self, g: VarId) {
        match self.shareds[g.0 as usize] {
            Some(SharedSrc::Slot(s)) => self.load(s),
            Some(SharedSrc::Env(i)) => self.env_field(i),
            Some(SharedSrc::Scalar) => self.push_const(scalar(0)),
            None => panic!("shared closure of group {} not in scope", g.0),
        }
    }

    fn push_caps(&mut self, caps: (u32, u32)) {
        for k in caps.0..caps.1 {
            match self.layout.caps[k as usize] {
                Cap::Var(v) => self.push_var(v),
                Cap::Reg(r) => self.reg_handle(r),
                Cap::Shared(g) => self.push_shared(g),
            }
        }
    }

    // ----------------------------------------------------------- compile

    fn comp(&mut self, id: ExpId, fcx: &mut FnCx, tail: bool) {
        let prog = self.prog;
        match prog.node(id) {
            RExp::Var(v) => self.push_var(v),
            RExp::Int(n) => {
                let w = if self.tagged { scalar(n) } else { n as u64 };
                self.push_const(w);
            }
            RExp::Bool(b) => {
                let w = if self.tagged {
                    scalar(b as i64)
                } else {
                    b as u64
                };
                self.push_const(w);
            }
            RExp::Unit => {
                let w = if self.tagged { scalar(0) } else { 0 };
                self.push_const(w);
            }
            RExp::Str(s) => {
                // Interned by the VM when it runs.
                let a = ThreadedCode::push_row(&mut self.code.strs, prog.str(s).to_string());
                self.emit(Op::PushStr, Args { a, ..Args::ZERO });
            }
            RExp::Real(x, p) => {
                let (k, at) = (x.to_bits(), Some(self.regslot(p)));
                self.emit(
                    Op::PushReal,
                    Args {
                        k,
                        at,
                        ..Args::ZERO
                    },
                );
            }
            RExp::Prim(p, args, at) => {
                for &a in prog.kids(args) {
                    self.comp(a, fcx, false);
                }
                let at = at.map(|r| self.regslot(r));
                self.emit(
                    Op::Prim,
                    Args {
                        p,
                        at,
                        ..Args::ZERO
                    },
                );
            }
            RExp::Record(es, p) => {
                for &a in prog.kids(es) {
                    self.comp(a, fcx, false);
                }
                self.mk_record(count(es.len()), p);
            }
            RExp::Select(i, e) => {
                self.comp(e, fcx, false);
                self.select(count(i));
            }
            RExp::Con {
                tycon,
                con,
                arg,
                at,
            } => {
                let (_, fields) = con_rep(prog, self.tagged, tycon);
                let k = fields[con.0 as usize];
                match arg {
                    None => {
                        // Nullary constructors are immediate scalars whether
                        // or not values are tagged.
                        self.push_const(scalar(con.0 as i64));
                    }
                    Some(a) => {
                        // Inline a syntactic record argument directly.
                        let is_tuple_decl = matches!(
                            prog.data.get(tycon).constructors[con.0 as usize].arg,
                            Some(SchemeTy::Tuple(_))
                        );
                        if is_tuple_decl {
                            if let RExp::Record(es, _) = prog.node(a) {
                                for &f in prog.kids(es) {
                                    self.comp(f, fcx, false);
                                }
                            } else {
                                self.comp(a, fcx, false);
                                self.emit(Op::Spread, Args { n: k, ..Args::ZERO });
                            }
                        } else {
                            self.comp(a, fcx, false);
                        }
                        let at = self.regslot(at.expect("carrying constructor without place"));
                        let x = Args {
                            a: con.0,
                            n: k,
                            flag: con_needs_disc(prog, self.tagged, tycon),
                            at: Some(at),
                            ..Args::ZERO
                        };
                        self.emit(Op::MkCon, x);
                    }
                }
            }
            RExp::DeCon { tycon, con, scrut } => {
                self.comp(scrut, fcx, false);
                let is_tuple_decl = matches!(
                    prog.data.get(tycon).constructors[con.0 as usize].arg,
                    Some(SchemeTy::Tuple(_))
                );
                if is_tuple_decl {
                    // Inlined tuple: the constructor block *is* the tuple
                    // (skipping the discriminant word in untagged mode).
                    if con_needs_disc(prog, self.tagged, tycon) {
                        self.op(Op::DeConAdj);
                    }
                } else {
                    // Single-field argument: read it out of the block.
                    self.select(u32::from(con_needs_disc(prog, self.tagged, tycon)));
                }
            }
            RExp::SwitchCon {
                scrut,
                tycon,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let (disc, _) = con_rep(prog, self.tagged, tycon);
                let (row, first, end) = self.switch_row(arms, |k| k as u32);
                let dflt = row.1;
                let a = ThreadedCode::push_row(&mut self.code.con_switches, (disc, row));
                self.emit(Op::SwitchCon, Args { a, ..Args::ZERO });
                self.comp_arms(arms, first, end, fcx, tail);
                self.bind(dflt);
                match default {
                    Some(d) => self.comp(d, fcx, tail),
                    None => self.op(Op::Unreachable),
                }
                self.bind(end);
            }
            RExp::SwitchInt {
                scrut,
                arms,
                default,
            } => {
                self.comp(scrut, fcx, false);
                let (row, first, end) = self.switch_row(arms, |k| k);
                let dflt = row.1;
                let a = ThreadedCode::push_row(&mut self.code.int_switches, row);
                self.emit(Op::SwitchInt, Args { a, ..Args::ZERO });
                self.comp_arms(arms, first, end, fcx, tail);
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
                let (row, first, end) =
                    self.switch_row(arms, |k| prog.str(kit_region::StrId(k as u32)).to_string());
                let dflt = row.1;
                let a = ThreadedCode::push_row(&mut self.code.str_switches, row);
                self.emit(Op::SwitchStr, Args { a, ..Args::ZERO });
                self.comp_arms(arms, first, end, fcx, tail);
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
                let (row, first, end) = self.switch_row(arms, |k| k as u32);
                let dflt = row.1;
                let a = ThreadedCode::push_row(&mut self.code.exn_switches, row);
                self.emit(Op::SwitchExn, Args { a, ..Args::ZERO });
                self.comp_arms(arms, first, end, fcx, tail);
                self.bind(dflt);
                self.comp(default, fcx, tail);
                self.bind(end);
            }
            RExp::If(c, t, f) => {
                self.comp(c, fcx, false);
                let lf = self.new_label();
                let end = self.new_label();
                self.jump(Op::JumpIfFalse, lf);
                self.comp(t, fcx, tail);
                self.jump(Op::Jump, end);
                self.bind(lf);
                self.comp(f, fcx, tail);
                self.bind(end);
            }
            RExp::Fn { params, body, at } => {
                let caps = self.layout.caps_of[id.0 as usize];
                // Emit the function body out of line.
                let entry = self.compile_function(params, body, caps);
                // Closure record: [label, captures...].
                self.push_const(scalar(entry as i64));
                self.push_caps(caps);
                self.mk_record(1 + caps.1 - caps.0, at);
            }
            RExp::App {
                callee,
                rargs,
                args,
            } => {
                let tail = tail && fcx.cleanup == 0;
                if let RExp::Var(v) = prog.node(callee) {
                    if let Some(info) = self.fixes[v.0 as usize] {
                        // Known call: [shared, rhandles.., args..].
                        self.push_shared(info.group);
                        for &r in prog.places(rargs) {
                            self.reg_handle(r);
                        }
                        for &a in prog.kids(args) {
                            self.comp(a, fcx, false);
                        }
                        // `bind_labels` fills in the function id.
                        let x = Args {
                            a: u32::MAX,
                            t: info.label,
                            n: count(args.len()),
                            m: info.nformals,
                            flag: tail,
                            ..Args::ZERO
                        };
                        self.emit(Op::Call, x);
                        self.map_return(tail, fcx);
                        return;
                    }
                }
                self.comp(callee, fcx, false);
                for &a in prog.kids(args) {
                    self.comp(a, fcx, false);
                }
                let (n, flag) = (count(args.len()), tail);
                self.emit(
                    Op::CallClos,
                    Args {
                        n,
                        flag,
                        ..Args::ZERO
                    },
                );
                self.map_return(tail, fcx);
            }
            RExp::FixVar { var, rargs, at } => {
                let Some(info) = self.fixes[var.0 as usize] else {
                    panic!("FixVar of non-fix binding {}", var.0)
                };
                self.push_const(scalar(info.stub as i64));
                self.push_shared(info.group);
                for &r in prog.places(rargs) {
                    self.reg_handle(r);
                }
                self.mk_record(2 + count(rargs.len()), at);
            }
            RExp::Let { var, rhs, body } => {
                self.comp(rhs, fcx, false);
                let s = fcx.slot();
                self.store(s);
                self.vars[var.0 as usize] = Some(VB::Slot(s));
                self.comp(body, fcx, tail);
                fcx.locals.next = s;
            }
            RExp::Fix { funs, body, at } => self.comp_fix(id, funs, body, at, fcx, tail),
            RExp::Letregion { regs, body } => {
                let regs = prog.regs(regs);
                let inf: Vec<u32> = regs
                    .iter()
                    .filter(|(_, m)| *m == Mult::Infinite)
                    .map(|(r, _)| r.0)
                    .collect();
                let fin_save = fcx.fin.next;
                for &(r, m) in regs {
                    let slot = match m {
                        Mult::Infinite => {
                            fcx.open_regions += 1;
                            RegSlot::Local(fcx.open_regions - 1)
                        }
                        Mult::Finite => {
                            RegSlot::Finite(fcx.fin.alloc(self.layout.finite[r.0 as usize]))
                        }
                    };
                    self.regs[r.0 as usize] = Some(slot);
                }
                let ninf = count(inf.len());
                if ninf > 0 {
                    let a = ThreadedCode::push_row(&mut self.code.names, inf.into());
                    self.emit(Op::LetRegion, Args { a, ..Args::ZERO });
                }
                fcx.cleanup += 1;
                self.comp(body, fcx, false);
                fcx.cleanup -= 1;
                if ninf > 0 {
                    self.emit(
                        Op::EndRegions,
                        Args {
                            n: ninf,
                            ..Args::ZERO
                        },
                    );
                    fcx.open_regions -= ninf;
                }
                fcx.fin.next = fin_save;
            }
            RExp::Marker { .. } => panic!("marker reached code generation"),
            RExp::ExCon { exn, arg, at } => {
                if let Some(a) = arg {
                    self.comp(a, fcx, false);
                }
                let at = at.map(|r| self.regslot(r));
                let (a, flag) = (exn.0, arg.is_some());
                self.emit(
                    Op::MkExn,
                    Args {
                        a,
                        flag,
                        at,
                        ..Args::ZERO
                    },
                );
            }
            RExp::DeExn { scrut, .. } => {
                self.comp(scrut, fcx, false);
                self.op(Op::DeExn);
            }
            RExp::Raise(e) => {
                self.comp(e, fcx, false);
                self.op(Op::Raise);
            }
            RExp::Handle { body, var, handler } => {
                let lh = self.new_label();
                let end = self.new_label();
                self.jump(Op::PushHandler, lh);
                fcx.cleanup += 1;
                self.comp(body, fcx, false);
                fcx.cleanup -= 1;
                self.op(Op::PopHandler);
                self.jump(Op::Jump, end);
                self.bind(lh);
                // The raised value is on the operand stack. `body` gave
                // its slots back, so the slots a raise unwinds past are
                // beyond the prefix here, whatever they still hold.
                let s = fcx.slot();
                self.store(s);
                self.vars[var.0 as usize] = Some(VB::Slot(s));
                self.comp(handler, fcx, tail);
                fcx.locals.next = s;
                self.bind(end);
            }
        }
    }

    /// A switch's side-table row, built once: a fresh label per arm, keyed
    /// by `key` of the arm's key, and the default's. Returns it with the
    /// first arm's label (arm `i` has label `first + i`) and the end's.
    fn switch_row<K>(
        &mut self,
        arms: Span<kit_region::Arm>,
        key: impl Fn(i64) -> K,
    ) -> (SwitchRows<K>, u32, u32) {
        let end = self.new_label();
        let dflt = self.new_label();
        let first = count(self.code.pc_of_label.len());
        let row = self
            .prog
            .arms(arms)
            .iter()
            .map(|a| (key(a.key), self.new_label()))
            .collect();
        ((row, dflt), first, end)
    }

    /// Each arm at its label (arm `i` at `first + i`), jumping to `end`.
    fn comp_arms(
        &mut self,
        arms: Span<kit_region::Arm>,
        first: u32,
        end: u32,
        fcx: &mut FnCx,
        tail: bool,
    ) {
        let prog = self.prog;
        for (l, a) in (first..).zip(prog.arms(arms)) {
            self.bind(l);
            self.comp(a.body, fcx, tail);
            self.jump(Op::Jump, end);
        }
    }

    /// Compiles an `fn` closure's body out of line; its environment is the
    /// closure `[label, caps..]`.
    fn compile_function(&mut self, params: Span<VarId>, body: ExpId, caps: (u32, u32)) -> u32 {
        let entry = self.new_label();
        // Compile out of line: jump over the body in the current stream.
        let skip = self.new_label();
        self.jump(Op::Jump, skip);
        self.bind(entry);
        self.op(Op::GcCheck);
        let params = self.prog.params(params);
        let mut inner = FnCx::new(Area::default(), count(params.len()));
        let mark = self.enter();
        count_work(|| params.len());
        for (i, &p) in params.iter().enumerate() {
            self.rebind_var(p, VB::Slot(1 + i as u32));
        }
        self.bind_caps(caps, 1);
        self.comp(body, &mut inner, true);
        self.restore(mark);
        self.op(Op::Ret);
        self.end_function(entry, &inner, "fn".to_string());
        self.bind(skip);
        entry
    }

    fn comp_fix(
        &mut self,
        id: ExpId,
        funs: Span<RFixFun>,
        body: ExpId,
        at: Place,
        fcx: &mut FnCx,
        tail: bool,
    ) {
        let prog = self.prog;
        let funs = prog.funs(funs);
        let group = funs[0].var;
        // Pre-assign labels so recursive references resolve.
        for f in funs {
            let info = FixInfo {
                label: self.new_label(),
                stub: self.new_label(),
                nformals: count(f.formals.len()),
                group,
            };
            self.fixes[f.var.0 as usize] = Some(info);
        }
        let caps = self.layout.caps_of[id.0 as usize];

        // Build the shared closure in the defining frame.
        let in_scope = fcx.locals.next;
        let shared_src = if caps.0 == caps.1 {
            SharedSrc::Scalar
        } else {
            self.push_caps(caps);
            self.mk_record(caps.1 - caps.0, at);
            let s = fcx.slot();
            self.store(s);
            SharedSrc::Slot(s)
        };
        self.shareds[group.0 as usize] = Some(shared_src);

        // Compile member bodies.
        for f in funs {
            let info = self.fixes[f.var.0 as usize].expect("assigned above");
            let skip = self.new_label();
            self.jump(Op::Jump, skip);
            self.bind(info.stub);
            let (nf, n) = (info.nformals, count(f.params.len()));
            self.emit(
                Op::EnterViaPair,
                Args {
                    n: nf,
                    m: n,
                    ..Args::ZERO
                },
            );
            self.bind(info.label);
            self.op(Op::GcCheck);
            let mut inner = FnCx::new(Area::default(), nf + n);
            let mark = self.enter();
            count_work(|| (nf + n) as usize);
            // Frame: [shared][formals..][params..][locals..].
            for (i, &r) in prog.places(f.formals).iter().enumerate() {
                self.rebind_reg(r, RegSlot::Formal(1 + i as u32));
            }
            for (i, &p) in prog.params(f.params).iter().enumerate() {
                self.rebind_var(p, VB::Slot(1 + nf + i as u32));
            }
            self.bind_caps(caps, 0);
            // The group's shared closure is this body's own environment
            // (slot 0).
            self.rebind_shared(group, SharedSrc::Slot(0));
            self.comp(f.body, &mut inner, true);
            self.restore(mark);
            self.op(Op::Ret);
            let id = self.end_function(info.label, &inner, prog.vars.name(f.var).to_string());
            self.code.fun_of_label[info.stub as usize] = id;
            self.bind(skip);
        }
        self.comp(body, fcx, tail);
        // The shared-closure slot dies with the fix scope.
        fcx.locals.next = in_scope;
    }
}

/// `(discriminant scheme, per-ctor inline field count)` of `tycon`.
fn con_rep(prog: &RProgram, tagged: bool, tycon: TyConId) -> (Disc, Vec<u32>) {
    let dt = prog.data.get(tycon);
    let fields: Vec<u32> = dt
        .constructors
        .iter()
        .map(|c| match &c.arg {
            None => 0,
            Some(SchemeTy::Tuple(ts)) => count(ts.len()),
            Some(_) => 1,
        })
        .collect();
    let boxed = dt.boxed_count();
    let disc = if boxed == 0 {
        Disc::Enum
    } else if tagged {
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

/// Whether a boxed value of `tycon` carries a discriminant word.
fn con_needs_disc(prog: &RProgram, tagged: bool, tycon: TyConId) -> bool {
    !tagged && prog.data.get(tycon).boxed_count() > 1
}

/// A count of what the program holds — fields, arguments, regions,
/// labels — as an operand. Every one is below `u32::MAX`: the region
/// program stores its runs with `u32` lengths.
fn count(n: usize) -> u32 {
    u32::try_from(n).expect("a count of program parts fits a u32")
}

// ------------------------------------------------------------ layout

/// One element of a closure's environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cap {
    Var(VarId),
    Reg(RegVar),
    /// The shared closure of the group whose first function this is.
    Shared(VarId),
}

/// Every closure's captures and every finite region's size.
struct Layout {
    /// Capture lists, one run per closure.
    caps: Vec<Cap>,
    /// By node: the run of `caps` of the `fn` or `fix` there.
    caps_of: Vec<(u32, u32)>,
    /// By region: words of its one allocation if it is finite (at least 1),
    /// else 0.
    finite: Vec<u32>,
}

/// A variable or a region, as one index: variables first.
type Name = u32;

/// Per name: where it is bound and what the walk knows of it.
#[derive(Debug, Clone, Copy, Default)]
struct NameState {
    /// Closure depth of its binder: free in the open closures deeper than
    /// this (0 for globals and unbound names: free in every closure).
    depth: u32,
    /// The newest open closure known to list it: it is free in, and
    /// listed by, exactly the open closures deeper than `depth` that were
    /// opened no later than this one (closures are numbered as opened).
    listed: u32,
    /// The `fn` or `fix` whose own binder it is (params, the group's
    /// functions, formals), numbered as the closures are.
    own: u32,
    /// The last capture list it entered (deduplication).
    in_caps: u32,
}

/// The walk behind [`Layout::of`]. A closure is an `fn` body or one
/// function body of a `fix`; it lists the names free in it in order of
/// first occurrence — its own parameters, formals and group included, which
/// is what sizing a closure in a finite region counts. An occurrence is
/// listed by each enclosing open closure it is free in, innermost first,
/// stopping at the first one that lists it already (every closure outside
/// that one does too), so the walk costs the program plus the lists.
struct LayoutWalk<'p> {
    prog: &'p RProgram,
    tagged: bool,
    nvars: u32,
    names: Vec<NameState>,
    /// `(name, state)` before a binder overwrote it, innermost last.
    shadowed: Vec<(Name, NameState)>,
    /// By variable: the group's first function if it is `fix`-bound.
    group_of: Vec<Option<VarId>>,
    global: Vec<bool>,
    /// The open closures' numbers, outermost first.
    open: Vec<u32>,
    /// Their lists, by depth (buffers are reused).
    lists: Vec<Vec<Name>>,
    /// The lists of the closed closures of every `fn` and `fix` still
    /// being walked, innermost last.
    closed: Vec<Name>,
    closures: u32,
    out: Layout,
}

impl Layout {
    fn of(prog: &RProgram, tagged: bool) -> Layout {
        let (nvars, nregs) = (prog.vars.len(), prog.num_regvars as usize);
        let mut w = LayoutWalk {
            prog,
            tagged,
            nvars: nvars as u32,
            names: vec![NameState::default(); nvars + nregs],
            shadowed: Vec::new(),
            group_of: vec![None; nvars],
            global: vec![false; nregs],
            open: Vec::new(),
            lists: Vec::new(),
            closed: Vec::new(),
            closures: 0,
            out: Layout {
                caps: Vec::new(),
                caps_of: vec![(0, 0); prog.num_nodes()],
                finite: vec![0; nregs],
            },
        };
        for &(r, m) in &prog.globals {
            w.global[r.0 as usize] = true;
            if m == Mult::Finite {
                w.out.finite[r.0 as usize] = 1;
            }
        }
        w.exp(prog.body);
        w.out
    }
}

impl LayoutWalk<'_> {
    fn reg(&self, r: RegVar) -> Name {
        self.nvars + r.0
    }

    /// An occurrence of `n` at the current depth.
    fn occur(&mut self, n: Name) {
        let st = self.names[n as usize];
        let depth = self.open.len() as u32;
        let mut listed = false;
        for k in (st.depth + 1..=depth).rev() {
            if self.open[k as usize - 1] <= st.listed {
                break;
            }
            self.lists[k as usize - 1].push(n);
            listed = true;
        }
        if listed {
            self.names[n as usize].listed = *self.open.last().expect("depth > 0");
        }
    }

    /// Binds `n` at the current depth; `own` is the `fn` or `fix` whose
    /// parameter, function or formal it is (0 for none).
    fn bind(&mut self, n: Name, own: u32) {
        let st = &mut self.names[n as usize];
        self.shadowed.push((n, *st));
        *st = NameState {
            depth: self.open.len() as u32,
            own,
            ..*st
        };
    }

    /// Unbinds everything bound since there were `mark` shadowed names.
    fn unbind(&mut self, mark: usize) {
        while self.shadowed.len() > mark {
            let (n, st) = self.shadowed.pop().expect("above mark");
            self.names[n as usize] = NameState {
                in_caps: self.names[n as usize].in_caps,
                ..st
            };
        }
    }

    fn open(&mut self) {
        self.closures += 1;
        self.open.push(self.closures);
        if self.lists.len() < self.open.len() {
            self.lists.push(Vec::new());
        }
    }

    /// Closes the innermost closure, a body of the `fn` or `fix` numbered
    /// `own`, moving the names it listed that are not that one's own
    /// binders onto `closed`; returns how many names it listed.
    fn close(&mut self, own: u32) -> u32 {
        let depth = self.open.len();
        self.open.pop();
        let names = &self.names;
        let list = &mut self.lists[depth - 1];
        let len = list.len() as u32;
        self.closed
            .extend(list.drain(..).filter(|&n| names[n as usize].own != own));
        len
    }

    /// Turns the names on `closed` from `from` on into the capture list of
    /// the `fn` or `fix` numbered `own` (which deduplicates it), and takes
    /// them off; returns the list's run of `caps`.
    fn captures(&mut self, from: usize, own: u32) -> (u32, u32) {
        let start = self.out.caps.len() as u32;
        for i in from..self.closed.len() {
            let n = self.closed[i];
            let (cap, key) = if n < self.nvars {
                match self.group_of[n as usize] {
                    Some(g) => (Cap::Shared(g), g.0),
                    None => (Cap::Var(VarId(n)), n),
                }
            } else {
                let r = RegVar(n - self.nvars);
                // A global is addressed by its index from any frame;
                // every other free region — `letregion`-bound or a formal
                // of an enclosing function — reaches the closure as a
                // captured handle.
                if self.global[r.0 as usize] {
                    continue;
                }
                (Cap::Reg(r), n)
            };
            if self.names[key as usize].in_caps != own {
                self.names[key as usize].in_caps = own;
                self.out.caps.push(cap);
            }
        }
        self.closed.truncate(from);
        (start, self.out.caps.len() as u32)
    }

    /// Raises the finite region `at`'s size to `words` (plus the tag).
    fn site(&mut self, at: RegVar, words: u32) {
        let size = &mut self.out.finite[at.0 as usize];
        if *size > 0 {
            *size = (*size).max(words + self.tagged as u32);
        }
    }

    fn exp(&mut self, id: ExpId) {
        count_work(|| 1);
        let prog = self.prog;
        let e = prog.node(id);
        prog.for_each_place(&e, |r| self.occur(self.nvars + r.0));
        let mark = self.shadowed.len();
        match e {
            RExp::Var(v) => self.occur(v.0),
            RExp::FixVar { var, rargs, at } => {
                self.occur(var.0);
                self.site(at, 2 + rargs.len() as u32);
            }
            RExp::Real(_, p) | RExp::Prim(_, _, Some(p)) => self.site(p, 1),
            RExp::Record(es, p) => self.site(p, es.len() as u32),
            RExp::Con {
                tycon,
                con,
                at: Some(p),
                ..
            } => {
                let (_, fields) = con_rep(prog, self.tagged, tycon);
                let disc = con_needs_disc(prog, self.tagged, tycon) as u32;
                self.site(p, fields[con.0 as usize] + disc);
            }
            RExp::ExCon { at: Some(p), .. } => self.site(p, 1 + (!self.tagged) as u32),
            _ => {}
        }
        match e {
            RExp::Let { var, rhs, body } => {
                self.exp(rhs);
                self.bind(var.0, 0);
                self.exp(body);
            }
            RExp::Handle { body, var, handler } => {
                self.exp(body);
                self.bind(var.0, 0);
                self.exp(handler);
            }
            RExp::Letregion { regs, body } => {
                for &(r, m) in prog.regs(regs) {
                    self.bind(self.reg(r), 0);
                    if m == Mult::Finite {
                        self.out.finite[r.0 as usize] = 1;
                    }
                }
                self.exp(body);
            }
            RExp::Fn { params, body, at } => {
                let (own, from) = (self.closures + 1, self.closed.len());
                for &p in prog.params(params) {
                    self.bind(p.0, own);
                }
                self.open();
                self.exp(body);
                let free = self.close(own);
                self.out.caps_of[id.0 as usize] = self.captures(from, own);
                // Closure = [label, caps..].
                self.site(at, 1 + free);
            }
            RExp::Fix { funs, body, at } => {
                let (own, from) = (self.closures + 1, self.closed.len());
                let funs = prog.funs(funs);
                for f in funs {
                    self.group_of[f.var.0 as usize] = Some(funs[0].var);
                    self.bind(f.var.0, own);
                }
                let mut free = 0;
                for f in funs {
                    let fmark = self.shadowed.len();
                    for &p in prog.params(f.params) {
                        self.bind(p.0, own);
                    }
                    for &r in prog.places(f.formals) {
                        self.bind(self.reg(r), own);
                    }
                    self.open();
                    self.exp(f.body);
                    free += self.close(own);
                    self.unbind(fmark);
                }
                self.out.caps_of[id.0 as usize] = self.captures(from, own);
                self.site(at, free.max(1));
                self.exp(body);
            }
            _ => prog.for_each_child(&e, |c| self.exp(c)),
        }
        self.unbind(mark);
    }
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

    /// What code generation costs on `src` by `count_work`: nodes visited
    /// by the layout walk, and bindings made on entry to each function.
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

    fn compile_src(src: &str) -> Program {
        let mut lprog = kit_typing::compile_str(src).expect("test program elaborates");
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        compile(
            &kit_region::infer(&lprog, kit_region::RegionOptions::with_gc()),
            true,
        )
    }

    /// Every non-tail call, and nothing else, has a frame-map entry at the
    /// pc after it, in pc order.
    #[test]
    fn the_frame_map_has_an_entry_for_every_non_tail_call() {
        for b in kit_bench::programs::all() {
            let prog = compile_src(&b.source_scaled(b.test_scale));
            let code = &prog.code;
            let returns: Vec<u32> = (code.ops.iter().zip(&code.args).enumerate())
                .filter(|(_, (op, x))| matches!(op, Op::Call | Op::CallClos) && !x.flag)
                .map(|(pc, _)| pc as u32 + 1)
                .collect();
            let pcs: Vec<u32> = code.frame_map.iter().map(|&(pc, _)| pc).collect();
            assert_eq!(pcs, returns, "{}", b.name);
        }
    }

    /// Sibling scopes share their slots, and a call sees only the slots
    /// in scope: `a` is stored before `f a` runs, `b` reuses its slot.
    #[test]
    fn sibling_scopes_share_a_slot_and_a_call_sees_only_its_scope() {
        let prog = compile_src(
            "fun f x = if x < 1 then 0 else f (x - 1)\n\
             val it = (let val a = f 1 in a + f a end) + (let val b = f 2 in b * f b end)",
        );
        let main = &prog.funs[prog.main as usize];
        assert_eq!(main.nlocals, 2, "the environment and one slot for a and b");
        let lives: Vec<u32> = prog.code.frame_map.iter().map(|&(_, live)| live).collect();
        assert_eq!(lives, [1, 2, 1, 2]);
    }

    /// `n` independent top-level recursive functions, used in one flat
    /// tuple: every function is compiled in a scope holding all the ones
    /// declared before it.
    fn independent_functions(n: usize) -> String {
        let mut src = String::new();
        for i in 0..n {
            src += &format!("fun f{i} x = if x < 1 then {i} else f{i} (x - 1)\n");
        }
        let uses: Vec<String> = (0..n).map(|i| format!("f{i} {i}")).collect();
        src + &format!("val it = ({})\n", uses.join(", "))
    }

    /// A finite region's size costs one look at its allocation site, not
    /// a walk of the `letregion`'s scope, and a function does not pay for
    /// the functions in scope around it.
    #[test]
    fn codegen_work_is_linear_in_declarations() {
        for (shape, small, large) in [
            (
                "wide declarations",
                wide_declarations(100),
                wide_declarations(400),
            ),
            ("pair let", pair_let(60), pair_let(240)),
            (
                "independent functions",
                independent_functions(100),
                independent_functions(400),
            ),
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
