//! The abstract machine.
//!
//! Frames live in the simulated runtime stack of [`kit_runtime::Rt`]:
//! `[env | region formals | args | locals… | finite regions | operands]`.
//! A frame is a window on the operand stack: the `[env][rhandles][args]`
//! block a call leaves on top of the stack already is the callee's first
//! slots. The garbage collector's roots are enumerated at the `GcCheck`
//! safe point executed on function entry (paper §4: collection happens at
//! the next function entry once the free-list drops below the threshold)
//! from the frame map: each suspended frame's slots in scope at its call
//! and its operands, and the whole of the entered frame. The finite area
//! between locals and operands is reached only through pointers.
//!
//! One engine runs every program: the loop below dispatches on the opcode
//! byte of the stream [`compile()`](crate::compile()) emitted, whose
//! branch operands are absolute pcs — as it is with [`Fusion::Off`], or
//! with hot opcode runs regrouped into superinstructions with
//! [`Fusion::Full`]. Unfused it runs base handlers only, which share no
//! code with any fused one: that is the differential oracle for fusion.
//! The reported instruction count is that of the unfused stream — a
//! superinstruction accounts for the instructions it replaces — so
//! counters are identical with fusion on or off.

use crate::instr::{Disc, Program, RegSlot};
use crate::threaded::{self, Fusion, FusionProfile, Op, ThreadedCode};
use kit_lambda::eval::{floor_div_mod, fmt_sml_int, fmt_sml_real, int_in_range, real_to_int};
use kit_lambda::exp::Prim;
use kit_lambda::ty::{EXN_DIV, EXN_OVERFLOW, EXN_SIZE, EXN_SUBSCRIPT};
use kit_runtime::config::Collector;
use kit_runtime::gc;
use kit_runtime::value::{is_ptr, ptr, ptr_addr, scalar, scalar_val, Tag, Word, STACK_BASE};
use kit_runtime::{RegionId, Rt, RtStats};
use std::fmt;

/// Errors terminating execution abnormally.
#[derive(Debug, Clone)]
pub enum VmError {
    /// An exception reached the top level.
    UncaughtException {
        /// The exception constructor's name.
        name: String,
        /// One-line call chain at the raise point (innermost first).
        /// Empty when unavailable (e.g. errors from the reference
        /// evaluator).
        backtrace: String,
    },
    /// The instruction budget was exhausted.
    OutOfFuel,
    /// The memory quota (`RtConfig::max_heap_pages`) was still exceeded
    /// after a forced collection at a `GcCheck` safe point.
    QuotaExceeded {
        /// Materialized footprint at the failing safe point, in pages.
        pages: usize,
        /// The configured page cap.
        cap: usize,
    },
    /// The wall-clock deadline (`RtConfig::deadline`) had passed at a
    /// `GcCheck` safe point — where the page quota is enforced too (fuel
    /// is charged per instruction) — so on a fixed clock outcome the breach
    /// lands at the identical safe point at either fusion level.
    DeadlineExceeded {
        /// Ordinal of the safe point (counting only those executed while a
        /// deadline was armed) whose clock read observed the breach. An
        /// already-expired deadline always breaches at safe point 1, so
        /// the fusion-invariant claim is directly testable.
        checks: u64,
    },
}

// The backtrace is diagnostic only: two errors are the same error if the
// same exception escaped (the reference evaluator has no call chain).
impl PartialEq for VmError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                VmError::UncaughtException { name: a, .. },
                VmError::UncaughtException { name: b, .. },
            ) => a == b,
            (VmError::OutOfFuel, VmError::OutOfFuel) => true,
            (
                VmError::QuotaExceeded { pages: a, cap: b },
                VmError::QuotaExceeded { pages: c, cap: d },
            ) => a == c && b == d,
            (VmError::DeadlineExceeded { checks: a }, VmError::DeadlineExceeded { checks: b }) => {
                a == b
            }
            _ => false,
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::UncaughtException { name, backtrace } => {
                write!(f, "uncaught exception {name}")?;
                if !backtrace.is_empty() {
                    write!(f, " (raised in {backtrace})")?;
                }
                Ok(())
            }
            VmError::OutOfFuel => write!(f, "instruction budget exhausted"),
            VmError::QuotaExceeded { pages, cap } => {
                write!(f, "memory quota exceeded ({pages} pages > cap of {cap})")
            }
            // Deliberately omits `checks`: under a mid-run wall-clock
            // breach the safe-point ordinal varies run to run, and the
            // serve-layer uniformity checks compare error text.
            VmError::DeadlineExceeded { .. } => write!(f, "wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for VmError {}

/// The dispatch engine: there is one, so this selects nothing. It is
/// still accepted by [`Executable::prepare`] and [`Vm::with_dispatch`],
/// and carried by the server's wire format, because the benchmark package
/// names it; it goes with the next wire version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Direct-threaded execution: the compiled stream
    /// ([`ThreadedCode`]), fused as asked, dispatched through a jump
    /// table over the opcode byte.
    #[default]
    Threaded,
}

/// A program's stream at one fusion level — the one-time half of
/// [`Vm::run`], split out so a compiled program can be prepared once and
/// executed many times (concurrently: the payload is plain immutable
/// data, `Send + Sync`, and is shared across VM instances via `Arc` by
/// the server).
#[derive(Debug)]
pub struct Executable(ThreadedCode);

impl Executable {
    /// `prog`'s stream at fusion level `fusion`: a copy of
    /// [`Program::code`], regrouped into superinstructions with
    /// [`Fusion::Full`].
    pub fn prepare(prog: &Program, _dispatch: DispatchMode, fusion: Fusion) -> Executable {
        let mut code = prog.code.clone();
        if fusion == Fusion::Full {
            code.fuse();
        }
        Executable(code)
    }

    /// The stream this executable runs.
    pub fn code(&self) -> &ThreadedCode {
        &self.0
    }
}

/// Result of a successful run.
#[derive(Debug)]
pub struct VmOutcome {
    /// The program result (render with [`crate::render::render_value`]).
    pub result: Word,
    /// Everything printed.
    pub output: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Runtime statistics (allocation, collections, peak memory).
    pub stats: RtStats,
    /// Dispatches per pc, if the fusion counting mode was on.
    pub fusion_profile: Option<FusionProfile>,
    /// The runtime (for rendering the result and inspecting regions).
    pub rt: Rt,
}

#[derive(Debug)]
struct Frame {
    /// Function id (for the uncaught-exception backtrace, and the finite
    /// area's size in [`Vm::roots`]).
    fun: u32,
    ret_pc: usize,
    /// Local slot 0 (the environment); region formals, arguments and the
    /// other locals follow.
    base: usize,
    /// Start of the finite-region area, after the locals; the operands
    /// start `nfinite` words further up.
    fin: usize,
    /// Region-stack depth at entry. Region ids are stack positions, so
    /// the frame's `i`-th open `letregion` region is `region_depth + i`.
    region_depth: usize,
}

#[derive(Debug)]
struct Handler {
    target: usize, // code address
    frame_idx: usize,
    stack_len: usize,
    region_depth: usize,
}

/// The bytecode interpreter.
#[derive(Debug)]
pub struct Vm<'p> {
    prog: &'p Program,
    rt: Rt,
    frames: Vec<Frame>,
    /// `Frame::base` of the innermost frame (0 when no frame is live),
    /// kept in sync by every call/return/unwind — `local`/`set_local`
    /// are on the dispatch fast path and must not re-derive it.
    cur_locals: usize,
    handlers: Vec<Handler>,
    output: String,
    fuel: Option<u64>,
    fusion: Fusion,
    /// Fusion counting mode: run the counting instance of
    /// [`Vm::exec_threaded`], which counts dispatches per pc.
    profile: bool,
    /// Error staged by a failing threaded handler before it returns
    /// [`Control::Fail`].
    pending: Option<VmError>,
    /// Result staged by the threaded `Halt` handler.
    halted: Option<Word>,
    /// Safe points executed while a wall-clock deadline was armed; drives
    /// the strided clock read in [`Vm::gc_safe_point`] and is reported in
    /// [`VmError::DeadlineExceeded`]. Counts `gc_safe_point` calls only,
    /// which run at the same source positions at either fusion level, so
    /// the stride schedule is fusion-invariant.
    safe_points: u64,
}

impl<'p> Vm<'p> {
    /// Creates a VM over a compiled program with a fresh runtime.
    pub fn new(prog: &'p Program, rt: Rt) -> Self {
        Vm {
            prog,
            rt,
            frames: Vec::new(),
            cur_locals: 0,
            handlers: Vec::new(),
            output: String::new(),
            fuel: None,
            fusion: Fusion::default(),
            profile: false,
            pending: None,
            halted: None,
            safe_points: 0,
        }
    }

    /// Limits the number of executed instructions (for tests).
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Turns superinstruction fusion of the stream on or off
    /// (`Off` is the differential-testing setting for the fusion pass).
    pub fn with_fusion(mut self, fusion: Fusion) -> Self {
        self.fusion = fusion;
        self
    }

    /// Accepts the one [`DispatchMode`] and changes nothing.
    pub fn with_dispatch(self, _dispatch: DispatchMode) -> Self {
        self
    }

    /// Enables the fusion counting mode: the dispatches of each pc of the
    /// stream run, at the fusion level it was prepared at, are returned in
    /// [`VmOutcome::fusion_profile`].
    pub fn with_fusion_profile(mut self) -> Self {
        self.profile = true;
        self
    }

    fn frame(&self) -> &Frame {
        self.frames.last().unwrap()
    }

    fn push(&mut self, v: Word) {
        self.rt.stack.push(v);
    }

    fn pop(&mut self) -> Word {
        self.rt.stack.pop().expect("operand stack underflow")
    }

    fn local(&self, i: u32) -> Word {
        self.rt.stack[self.cur_locals + i as usize]
    }

    fn set_local(&mut self, i: u32, v: Word) {
        self.rt.stack[self.cur_locals + i as usize] = v;
    }

    #[inline(always)]
    fn region_of(&self, slot: RegSlot) -> RegionId {
        let f = self.frame();
        match slot {
            RegSlot::Global(i) => RegionId(i),
            RegSlot::Local(i) => RegionId(f.region_depth as u32 + i),
            RegSlot::Formal(s) => RegionId(self.rt.untag_int(self.local(s)) as u32),
            RegSlot::EnvReg(i) => {
                let env = self.local(0);
                RegionId(self.rt.untag_int(self.rt.field(env, i as u64)) as u32)
            }
            RegSlot::Finite(_) => panic!("finite region used as a region handle"),
        }
    }

    /// Builds a box at a place out of the top `n` operand words and pushes
    /// the pointer to it: tag (tagged mode), the optional `lead` word (a
    /// constructor's discriminant), then the operands. An infinite region
    /// gets them moved straight into its page; a finite region is a slot
    /// of this frame, below the operand stack, so the move is within the
    /// stack and downwards.
    #[inline(always)]
    fn box_from_stack(&mut self, slot: RegSlot, tag: Tag, lead: Option<Word>, n: usize) {
        let v = match slot {
            RegSlot::Finite(off) => {
                let base = self.frame().fin + off as usize;
                let stack = &mut self.rt.stack;
                let start = stack.len() - n;
                let mut at = base;
                if self.rt.config.tagged {
                    stack[at] = tag.encode();
                    at += 1;
                }
                if let Some(w) = lead {
                    stack[at] = w;
                    at += 1;
                }
                for i in 0..n {
                    stack[at + i] = stack[start + i];
                }
                stack.truncate(start);
                ptr(STACK_BASE + base as u64)
            }
            _ => {
                let r = self.region_of(slot);
                self.rt.alloc_boxed_from_stack(r, tag, lead, n)
            }
        };
        self.push(v);
    }

    /// Words the box an `MkRecord` or `MkCon` instruction builds takes in
    /// a region, as [`Vm::box_from_stack`] lays it out: the tag in tagged
    /// mode, a constructor's discriminant word, the fields. `None` for any
    /// other instruction.
    pub fn box_words(op: Op, x: &threaded::Args, tagged: bool) -> Option<usize> {
        let lead = match op {
            Op::MkRecord => false,
            Op::MkCon => x.flag,
            _ => return None,
        };
        Some(usize::from(tagged) + usize::from(lead) + x.n as usize)
    }

    /// Makes the `[env][rhandles…][args…]` block of `blk` words on top of
    /// the operand stack the callee's first slots, at `base`. A non-tail
    /// call passes the block's own position, so nothing moves: the stack
    /// only grows to the callee's frame size. A tail call passes the base
    /// of the frame it replaces, further down, and the block slides down
    /// onto it once.
    ///
    /// Deliberately out of line: inlined into the call handlers it made
    /// the dispatch loop slower (DESIGN.md §6c).
    #[inline(never)]
    fn push_frame_from_stack(&mut self, fun: u32, blk: usize, ret_pc: usize, base: usize) {
        let info = &self.prog.funs[fun as usize];
        let fin = base + info.nlocals as usize;
        let size = fin + info.nfinite as usize;
        let stack = &mut self.rt.stack;
        let block = stack.len() - blk;
        if base < block {
            stack.copy_within(block.., base);
            stack.truncate(base + blk);
        }
        let fill = if self.rt.config.tagged { scalar(0) } else { 0 };
        stack.resize(size, fill);
        self.frames.push(Frame {
            fun,
            ret_pc,
            base,
            fin,
            region_depth: self.rt.region_depth(),
        });
        self.cur_locals = base;
        self.rt.observe_mem();
    }

    /// Pops the frame a tail call replaces; returns where the callee's
    /// frame goes and where it returns to.
    #[inline(always)]
    fn pop_frame_for_tail_call(&mut self) -> (usize, usize) {
        let f = self.frames.pop().expect("tail call without frame");
        debug_assert_eq!(
            self.rt.region_depth(),
            f.region_depth,
            "tail call with open regions"
        );
        (f.base, f.ret_pc)
    }

    /// `Ret`: pops the frame and leaves the result where its block was;
    /// returns the return address.
    #[inline(always)]
    fn ret(&mut self) -> usize {
        let result = self.pop();
        let f = self.frames.pop().expect("return without frame");
        debug_assert_eq!(
            self.rt.region_depth(),
            f.region_depth,
            "return with open regions"
        );
        self.cur_locals = self.frames.last().map_or(0, |c| c.base);
        self.rt.stack.truncate(f.base);
        self.push(result);
        f.ret_pc
    }

    /// `EnterViaPair`: the closure-call block carried no region handles,
    /// so the `n` arguments move up by `nf` and the pair's handles fill
    /// the formal slots under them; the pair's shared closure becomes the
    /// environment.
    fn enter_via_pair(&mut self, nf: usize, n: usize) {
        let pair = self.local(0);
        let shared = self.rt.field(pair, 1);
        self.set_local(0, shared);
        let b = self.cur_locals;
        self.rt.stack.copy_within(b + 1..b + 1 + n, b + 1 + nf);
        for i in 0..nf {
            let w = self.rt.field(pair, 2 + i as u64);
            self.rt.stack[b + 1 + i] = w;
        }
    }

    /// One-line call chain, innermost frame first, for diagnostics.
    fn backtrace(&self) -> String {
        const MAX: usize = 12;
        let mut names: Vec<&str> = self
            .frames
            .iter()
            .rev()
            .take(MAX)
            .map(|f| self.prog.funs[f.fun as usize].name.as_str())
            .collect();
        if self.frames.len() > MAX {
            names.push("…");
        }
        names.join(" < ")
    }

    fn uncaught(&self, exn: u32) -> VmError {
        VmError::UncaughtException {
            name: self.prog.exn_names[exn as usize].clone(),
            backtrace: self.backtrace(),
        }
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// [`VmError::UncaughtException`] if an exception escapes;
    /// [`VmError::OutOfFuel`] if the optional budget is exhausted;
    /// [`VmError::QuotaExceeded`] if the optional page cap is breached.
    pub fn run(self) -> Result<VmOutcome, VmError> {
        let exe = Executable::prepare(self.prog, DispatchMode::Threaded, self.fusion);
        self.run_prepared(&exe)
    }

    /// Runs a program prepared by [`Executable::prepare`] to completion.
    ///
    /// The executable decides the fusion level (it is already prepared
    /// for one); the VM's own `fusion` setting is not consulted. Sharing
    /// one `Executable` across many VMs — concurrently, via `Arc` — is
    /// the compile-once/run-many entry point the server is built on, and
    /// is observationally identical to [`Vm::run`] with the same
    /// configuration (the fusion differentials run through both).
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_prepared(mut self, exe: &Executable) -> Result<VmOutcome, VmError> {
        // Create the global regions (ids 0..n) and the main frame.
        self.rt.push_globals(&self.prog.global_infinite);
        let env0 = if self.rt.config.tagged { scalar(0) } else { 0 };
        self.push(env0);
        self.push_frame_from_stack(self.prog.main, 1, usize::MAX, 0);
        let main = self.prog.main as usize;
        let t = &exe.0;
        let pc = t.entry_pc[main] as usize;
        if self.profile {
            self.exec_threaded::<true>(t, pc)
        } else {
            self.exec_threaded::<false>(t, pc)
        }
    }

    /// Direct-threaded execution: the driver keeps `pc` and the
    /// instruction counter in registers and dispatches on the opcode
    /// byte; each handler does one opcode's work and reports how control
    /// continues. Costs come from [`Op::cost`] — the source
    /// instructions an opcode stands for — so fuel and instruction totals
    /// are bit-identical at either fusion level. `PROFILE` selects the
    /// fusion counting instance, which counts the dispatches of each pc;
    /// the production instance has no such branch.
    fn exec_threaded<const PROFILE: bool>(
        mut self,
        t: &ThreadedCode,
        entry: usize,
    ) -> Result<VmOutcome, VmError> {
        let fuel_limit = self.fuel.unwrap_or(u64::MAX);
        let mut icount: u64 = 0;
        let mut pc = entry;
        let mut counts = vec![0u64; if PROFILE { t.len() } else { 0 }];
        loop {
            let op = t.ops[pc];
            icount += op.cost();
            if icount > fuel_limit {
                return Err(VmError::OutOfFuel);
            }
            if PROFILE {
                counts[pc] += 1;
            }
            // Rust has no computed goto, so the "threading" here is the
            // dense-`u8` match below: it compiles to a single jump table
            // over the opcode byte, and every handler is
            // `#[inline(always)]` so its body lands inside its arm (an
            // opaque call through a table would block inlining and costs
            // ~10% on the recursive benchmarks; with two instances of
            // this loop, a handler without the attribute has two callers
            // and is left out of line). The match is exhaustive: it is
            // the opcode -> handler mapping.
            let ctl = match op {
                Op::PushConst => h_push_const(&mut self, t, pc as u32),
                Op::PushStr => h_push_str(&mut self, t, pc as u32),
                Op::Spread => h_spread(&mut self, t, pc as u32),
                Op::Unreachable => h_unreachable(&mut self, t, pc as u32),
                Op::PushReal => h_push_real(&mut self, t, pc as u32),
                Op::Load => h_load(&mut self, t, pc as u32),
                Op::Store => h_store(&mut self, t, pc as u32),
                Op::Pop => h_pop(&mut self, t, pc as u32),
                Op::MkRecord => h_mk_record(&mut self, t, pc as u32),
                Op::Select => h_select(&mut self, t, pc as u32),
                Op::MkCon => h_mk_con(&mut self, t, pc as u32),
                Op::DeConAdj => h_de_con_adj(&mut self, t, pc as u32),
                Op::SwitchCon => h_switch_con(&mut self, t, pc as u32),
                Op::SwitchInt => h_switch_int(&mut self, t, pc as u32),
                Op::SwitchStr => h_switch_str(&mut self, t, pc as u32),
                Op::SwitchExn => h_switch_exn(&mut self, t, pc as u32),
                Op::Jump => h_jump(&mut self, t, pc as u32),
                Op::JumpIfFalse => h_jump_if_false(&mut self, t, pc as u32),
                Op::Prim => h_prim(&mut self, t, pc as u32),
                Op::RegHandle => h_reg_handle(&mut self, t, pc as u32),
                Op::Call => h_call(&mut self, t, pc as u32),
                Op::CallClos => h_call_clos(&mut self, t, pc as u32),
                Op::EnterViaPair => h_enter_via_pair(&mut self, t, pc as u32),
                Op::Ret => h_ret(&mut self, t, pc as u32),
                Op::GcCheck => h_gc_check(&mut self, t, pc as u32),
                Op::LetRegion => h_let_region(&mut self, t, pc as u32),
                Op::EndRegions => h_end_regions(&mut self, t, pc as u32),
                Op::PushHandler => h_push_handler(&mut self, t, pc as u32),
                Op::PopHandler => h_pop_handler(&mut self, t, pc as u32),
                Op::MkExn => h_mk_exn(&mut self, t, pc as u32),
                Op::DeExn => h_de_exn(&mut self, t, pc as u32),
                Op::Raise => h_raise(&mut self, t, pc as u32),
                Op::Halt => h_halt(&mut self, t, pc as u32),
                Op::LoadSelectStore => h_load_select_store(&mut self, t, pc as u32),
                Op::LoadConstPrim => h_load_const_prim(&mut self, t, pc as u32),
                Op::LoadLoad => h_load_load(&mut self, t, pc as u32),
                Op::GcCheckLoadSwitchCon => h_gc_check_load_switch_con(&mut self, t, pc as u32),
                Op::LoadLoadPrimJump => h_load_load_prim_jump(&mut self, t, pc as u32),
                Op::LoadRegHandleRegHandle => h_load_reg_handle_reg_handle(&mut self, t, pc as u32),
                Op::LoadStore => h_load_store(&mut self, t, pc as u32),
                Op::LoadSelect => h_load_select(&mut self, t, pc as u32),
                Op::GcCheckLoadConstPrimJump => {
                    h_gc_check_load_const_prim_jump(&mut self, t, pc as u32)
                }
                Op::LoadLoadConstPrim => h_load_load_const_prim(&mut self, t, pc as u32),
                Op::LoadLoadPrim => h_load_load_prim(&mut self, t, pc as u32),
                Op::LoadCall => h_load_call(&mut self, t, pc as u32),
                Op::PushConstPrim => h_push_const_prim(&mut self, t, pc as u32),
                Op::LoadSelectLoadPrim => h_load_select_load_prim(&mut self, t, pc as u32),
                Op::RegHandleLoadLoad => h_reg_handle_load_load(&mut self, t, pc as u32),
                Op::LoadConstPrimJump => h_load_const_prim_jump(&mut self, t, pc as u32),
                Op::LoadJump => h_load_jump(&mut self, t, pc as u32),
                Op::LoadSwitchCon => h_load_switch_con(&mut self, t, pc as u32),
                Op::LoadSelectLoadConstPrim => {
                    h_load_select_load_const_prim(&mut self, t, pc as u32)
                }
                Op::LoadRegHandleLoad => h_load_reg_handle_load(&mut self, t, pc as u32),
            };
            match ctl {
                Control::Next => pc += 1,
                Control::Goto(target) => pc = target as usize,
                Control::Halt => {
                    let result = self.halted.take().expect("Halt without a result");
                    let mut stats = self.rt.stats.clone();
                    stats.observe_bytes(self.rt.mem_bytes());
                    return Ok(VmOutcome {
                        result,
                        output: self.output,
                        instructions: icount,
                        stats,
                        fusion_profile: PROFILE.then(|| FusionProfile {
                            ops: t.ops.clone(),
                            counts,
                        }),
                        rt: self.rt,
                    });
                }
                Control::Fail => {
                    return Err(self.pending.take().expect("Fail without an error"));
                }
            }
        }
    }

    /// Unwinds a built-in exception from a threaded handler: transfers to
    /// the innermost handler, or stages the uncaught-exception error.
    fn raise_or_fail(&mut self, exn: kit_lambda::ty::ExnId) -> Control {
        let v = scalar(exn.0 as i64);
        match self.do_raise(v) {
            Some(new_pc) => Control::Goto(new_pc as u32),
            None => {
                self.pending = Some(self.uncaught(exn.0));
                Control::Fail
            }
        }
    }

    fn exn_id(&self, v: Word) -> u32 {
        if !is_ptr(v) {
            scalar_val(v) as u32
        } else if self.rt.config.tagged {
            Tag::decode(self.rt.read_addr(ptr_addr(v))).info
        } else {
            scalar_val(self.rt.read_addr(ptr_addr(v))) as u32
        }
    }

    /// Unwinds to the innermost handler; returns its code address, or
    /// `None` if the exception is uncaught. The in-flight exception value
    /// is treated as a GC root if a collection happens later (it is pushed
    /// on the handler's operand stack immediately).
    fn do_raise(&mut self, exn_val: Word) -> Option<usize> {
        let h = self.handlers.pop()?;
        self.rt.pop_regions_to(h.region_depth);
        self.frames.truncate(h.frame_idx + 1);
        self.cur_locals = self.frames.last().map_or(0, |c| c.base);
        self.rt.stack.truncate(h.stack_len);
        self.push(exn_val);
        Some(h.target)
    }

    /// The roots: a frame suspended at a call, its slots in scope there
    /// (`live` of the call's entry in the frame map `map`; a missing entry
    /// is a codegen bug) and its operands. The top frame stands at a
    /// function entry's `GcCheck`, its slots past the arguments fresh
    /// fill: it is taken whole. The finite area is reached via pointers.
    fn roots(&self, map: &[(u32, u32)]) -> Vec<usize> {
        let mut roots = Vec::new();
        for (i, f) in self.frames.iter().enumerate() {
            let ops = f.fin + self.prog.funs[f.fun as usize].nfinite as usize;
            let (live, end) = match self.frames.get(i + 1) {
                Some(callee) => {
                    let at = map.binary_search_by_key(&callee.ret_pc, |e| e.0 as usize);
                    let live = map[at.expect("a suspended call has a frame-map entry")].1;
                    (f.base + live as usize, callee.base)
                }
                None => (f.fin, self.rt.stack.len()),
            };
            roots.extend(f.base..live);
            roots.extend(ops..end);
        }
        roots
    }

    /// Runs the runtime's collector on the roots [`Vm::roots`] reads off
    /// the frame map.
    fn collect(&mut self, map: &[(u32, u32)]) {
        let roots = self.roots(map);
        gc::collect(&mut self.rt, &roots, &mut []);
    }

    /// Collection policy at a `GcCheck` safe point, shared by every
    /// handler that contains one: enforce the optional wall-clock deadline, collect if the
    /// runtime says a collection is due, then enforce the optional
    /// page-cap quota. Returns the quota error if the cap is breached
    /// even after a forced collection. With neither a cap nor a deadline
    /// configured the extra checks are single `is_some` tests, so
    /// instruction totals and the GC schedule of unconstrained runs are
    /// untouched.
    #[inline(always)]
    fn gc_safe_point(&mut self, map: &[(u32, u32)]) -> Option<VmError> {
        if let Some(deadline) = self.rt.config.deadline {
            if let Some(e) = self.deadline_check(deadline) {
                return Some(e);
            }
        }
        if self.rt.gc_needed {
            self.collect(map);
        }
        if self.rt.config.max_heap_pages.is_some() {
            self.quota_check(map)
        } else {
            None
        }
    }

    /// The deadline slow path (only entered with a deadline armed): read
    /// the clock at the first safe point and every 16th after it — the
    /// first read catches an already-expired deadline at the earliest
    /// enforceable point (safe point 1, at either fusion level), and the
    /// stride keeps the clock read off the function-entry fast path. The
    /// counter advances only while a deadline is armed, so the stride
    /// schedule is identical across fusion levels and runs.
    #[cold]
    fn deadline_check(&mut self, deadline: std::time::Instant) -> Option<VmError> {
        const STRIDE_MASK: u64 = 15;
        self.safe_points += 1;
        if self.safe_points & STRIDE_MASK == 1 && std::time::Instant::now() >= deadline {
            return Some(VmError::DeadlineExceeded {
                checks: self.safe_points,
            });
        }
        None
    }

    /// The quota slow path: if the pages in use exceed the cap, force one
    /// collection and re-measure. A request that stays over the cap after
    /// that is holding too much live data and fails with a typed error.
    #[cold]
    fn quota_check(&mut self, map: &[(u32, u32)]) -> Option<VmError> {
        if !self.rt.over_quota() {
            return None;
        }
        if self.rt.config.collector != Collector::Off {
            self.collect(map);
        }
        if self.rt.over_quota() {
            Some(VmError::QuotaExceeded {
                pages: self.rt.quota_pages(),
                cap: self.rt.config.max_heap_pages.expect("cap checked above"),
            })
        } else {
            None
        }
    }

    // ------------------------------------------------------------- prims

    /// The slow path of every prim handler: the prims the handlers' fast
    /// path ([`fast_binop`], [`prim_on_stack`]) does not take, and the
    /// raise of one it declined. `+ − × div mod` and `asub`/`aupdate`
    /// reach here only when they raise (a debug build asserts that the
    /// fast path declined them); the int comparisons and `alength` never do.
    #[inline(never)]
    fn do_prim(&mut self, p: Prim, at: Option<RegSlot>) -> Result<(), kit_lambda::ty::ExnId> {
        use Prim::*;
        macro_rules! binop {
            () => {{
                let b = self.pop();
                let a = self.pop();
                (a, b)
            }};
        }
        macro_rules! int2 {
            () => {{
                let (a, b) = binop!();
                (self.rt.untag_int(a), self.rt.untag_int(b))
            }};
        }
        macro_rules! real2 {
            () => {{
                let (a, b) = binop!();
                (self.rt.real_val(a), self.rt.real_val(b))
            }};
        }
        macro_rules! push_int {
            ($v:expr) => {{
                let w = self.rt.tag_int($v);
                self.push(w);
            }};
        }
        macro_rules! push_bool {
            ($v:expr) => {
                push_int!($v as i64)
            };
        }
        macro_rules! push_real {
            ($v:expr) => {{
                let bits = ($v).to_bits();
                self.push(bits);
                self.box_from_stack(at.expect("real result needs a place"), Tag::real(), None, 1);
            }};
        }
        macro_rules! push_str {
            ($s:expr) => {{
                let slot = at.expect("string result needs a place");
                let r = self.region_of(slot);
                let w = self.rt.alloc_string(r, $s);
                self.push(w);
            }};
        }
        match p {
            IAdd | ISub | IMul | IDiv | IMod => {
                let (a, b) = int2!();
                debug_assert_eq!(fast_int(p, a, b), None, "{p:?} has a result");
                let div = b == 0 && matches!(p, IDiv | IMod);
                return Err(if div { EXN_DIV } else { EXN_OVERFLOW });
            }
            ILt | ILe | IGt | IGe | IEq | ArrLen => {
                unreachable!("{p:?} is served by the handlers' fast path")
            }
            INeg => {
                let w = self.pop();
                let v = -self.rt.untag_int(w);
                if !int_in_range(v) {
                    return Err(EXN_OVERFLOW);
                }
                push_int!(v);
            }
            IAbs => {
                let w = self.pop();
                let v = self.rt.untag_int(w).abs();
                if !int_in_range(v) {
                    return Err(EXN_OVERFLOW);
                }
                push_int!(v);
            }
            RAdd | RSub | RMul | RDiv => {
                let (a, b) = real2!();
                push_real!(match p {
                    RAdd => a + b,
                    RSub => a - b,
                    RMul => a * b,
                    _ => a / b,
                });
            }
            RNeg => {
                let w = self.pop();
                let v = self.rt.real_val(w);
                push_real!(-v);
            }
            RAbs => {
                let w = self.pop();
                let v = self.rt.real_val(w);
                push_real!(v.abs());
            }
            RLt | RLe | RGt | RGe | REq => {
                let (a, b) = real2!();
                push_bool!(match p {
                    RLt => a < b,
                    RLe => a <= b,
                    RGt => a > b,
                    RGe => a >= b,
                    _ => a == b,
                });
            }
            IntToReal => {
                let w = self.pop();
                let v = self.rt.untag_int(w) as f64;
                push_real!(v);
            }
            Floor | Trunc => {
                let w = self.pop();
                match real_to_int(p, self.rt.real_val(w)) {
                    Some(v) => push_int!(v),
                    None => return Err(EXN_OVERFLOW),
                }
            }
            Sqrt | Sin | Cos | Atan | Ln | Exp => {
                let w = self.pop();
                let v = self.rt.real_val(w);
                push_real!(match p {
                    Sqrt => v.sqrt(),
                    Sin => v.sin(),
                    Cos => v.cos(),
                    Atan => v.atan(),
                    Ln => v.ln(),
                    _ => v.exp(),
                });
            }
            StrEq | StrLt => {
                let (a, b) = binop!();
                let sa = self.rt.str_val(a);
                let sb = self.rt.str_val(b);
                let r = if p == StrEq { sa == sb } else { sa < sb };
                push_bool!(r);
            }
            StrConcat => {
                let (a, b) = binop!();
                let s = format!("{}{}", self.rt.str_val(a), self.rt.str_val(b));
                push_str!(s);
            }
            StrSize => {
                let v = self.pop();
                let n = self.rt.str_val(v).len() as i64;
                push_int!(n);
            }
            StrSub => {
                let (a, b) = binop!();
                let i = self.rt.untag_int(b);
                let bytes = self.rt.str_val(a).as_bytes();
                if i < 0 || i as usize >= bytes.len() {
                    return Err(EXN_SUBSCRIPT);
                }
                push_int!(bytes[i as usize] as i64);
            }
            ItoS => {
                let w0 = self.pop();
                let v = self.rt.untag_int(w0);
                push_str!(fmt_sml_int(v));
            }
            RtoS => {
                let w = self.pop();
                let v = self.rt.real_val(w);
                push_str!(fmt_sml_real(v));
            }
            Chr => {
                let w0 = self.pop();
                let v = self.rt.untag_int(w0);
                if !(0..=255).contains(&v) {
                    return Err(EXN_SUBSCRIPT);
                }
                push_str!(((v as u8) as char).to_string());
            }
            Print => {
                let v = self.pop();
                let s = self.rt.str_val(v).to_string();
                self.output.push_str(&s);
                push_int!(0); // unit
            }
            RefNew => {
                self.box_from_stack(at.expect("ref needs a place"), Tag::reference(), None, 1);
            }
            RefGet => {
                let r = self.pop();
                let v = self.rt.field(r, 0);
                self.push(v);
            }
            RefSet => {
                let (r, v) = binop!();
                let addr = ptr_addr(r) + self.rt.hdr_words();
                self.rt.update(addr, v);
                push_int!(0);
            }
            RefEq | ArrEq => {
                let (a, b) = binop!();
                push_bool!(a == b);
            }
            ArrNew => {
                let (n, init) = binop!();
                let n = self.rt.untag_int(n);
                if n < 0 {
                    return Err(EXN_SIZE);
                }
                let slot = at.expect("array needs a place");
                let r = self.region_of(slot);
                let w = self.rt.alloc_array(r, n as usize, init);
                self.push(w);
            }
            ArrSub | ArrUpd => {
                if p == ArrUpd {
                    self.pop();
                }
                let (a, i) = binop!();
                debug_assert_eq!(
                    self.rt.arr_get(a, self.rt.untag_int(i)),
                    None,
                    "{p:?} in bounds"
                );
                return Err(EXN_SUBSCRIPT);
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- threaded

/// What a threaded handler tells the dispatch loop to do next.
#[derive(Clone, Copy)]
enum Control {
    /// Fall through to `pc + 1`.
    Next,
    /// Transfer to an absolute pc (branches, calls, raises).
    Goto(u32),
    /// `Halt` executed; [`Vm::halted`] holds the result.
    Halt,
    /// Abnormal termination; [`Vm::pending`] holds the error.
    Fail,
}

#[inline]
fn args(t: &ThreadedCode, pc: u32) -> &threaded::Args {
    &t.args[pc as usize]
}

#[inline(always)]
fn h_push_const(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    vm.push(args(t, pc).k);
    Control::Next
}

#[inline(always)]
fn h_push_str(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let w = vm.rt.intern_const_str(&t.strs[args(t, pc).a as usize]);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_spread(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let n = args(t, pc).n;
    let v = vm.pop();
    for i in 0..n {
        let w = vm.rt.field(v, i as u64);
        vm.push(w);
    }
    Control::Next
}

#[inline(always)]
fn h_unreachable(_vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    unreachable!("exhaustive switch fell through")
}

#[inline(always)]
fn h_push_real(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    vm.push(x.k);
    vm.box_from_stack(
        x.at.expect("real literal needs a place"),
        Tag::real(),
        None,
        1,
    );
    Control::Next
}

#[inline(always)]
fn h_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.local(args(t, pc).a);
    vm.push(v);
    Control::Next
}

#[inline(always)]
fn h_store(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    vm.set_local(args(t, pc).a, v);
    Control::Next
}

#[inline(always)]
fn h_pop(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    vm.pop();
    Control::Next
}

#[inline(always)]
fn h_mk_record(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    vm.box_from_stack(
        x.at.expect("record needs a place"),
        Tag::record(x.n),
        None,
        x.n as usize,
    );
    Control::Next
}

#[inline(always)]
fn h_select(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    let w = vm.rt.field(v, args(t, pc).n as u64);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_mk_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let lead = x.flag.then(|| scalar(x.a as i64));
    let tag = Tag::con(x.a, x.n + x.flag as u32);
    vm.box_from_stack(
        x.at.expect("constructor needs a place"),
        tag,
        lead,
        x.n as usize,
    );
    Control::Next
}

#[inline(always)]
fn h_de_con_adj(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    let v = vm.pop();
    vm.push(ptr(ptr_addr(v) + 1));
    Control::Next
}

/// Branches on the constructor of `v` through constructor-switch table
/// `table` — the one decode the three `…SwitchCon` handlers share.
#[inline(always)]
fn switch_con(vm: &Vm<'_>, t: &ThreadedCode, v: Word, table: u32) -> Control {
    let (disc, (arms, default)) = &t.con_switches[table as usize];
    let ctor: u32 = if !is_ptr(v) {
        scalar_val(v) as u32
    } else {
        match *disc {
            Disc::Tag => Tag::decode(vm.rt.read_addr(ptr_addr(v))).info,
            Disc::Field0 => scalar_val(vm.rt.read_addr(ptr_addr(v))) as u32,
            Disc::Single(c) => c,
            Disc::Enum => unreachable!("boxed value in enum datatype"),
        }
    };
    let target = arms
        .iter()
        .find(|(c, _)| *c == ctor)
        .map(|(_, t)| *t)
        .unwrap_or(*default);
    Control::Goto(target)
}

#[inline(always)]
fn h_switch_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    switch_con(vm, t, v, args(t, pc).a)
}

#[inline(always)]
fn h_switch_int(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    let n = vm.rt.untag_int(v);
    let (arms, default) = &t.int_switches[args(t, pc).a as usize];
    let target = arms
        .iter()
        .find(|(k, _)| *k == n)
        .map(|(_, t)| *t)
        .unwrap_or(*default);
    Control::Goto(target)
}

#[inline(always)]
fn h_switch_str(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    let (arms, default) = &t.str_switches[args(t, pc).a as usize];
    let s = vm.rt.str_val(v);
    let target = arms
        .iter()
        .find(|(k, _)| k == s)
        .map(|(_, t)| *t)
        .unwrap_or(*default);
    Control::Goto(target)
}

#[inline(always)]
fn h_switch_exn(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    let id = vm.exn_id(v);
    let (arms, default) = &t.exn_switches[args(t, pc).a as usize];
    let target = arms
        .iter()
        .find(|(k, _)| *k == id)
        .map(|(_, t)| *t)
        .unwrap_or(*default);
    Control::Goto(target)
}

#[inline(always)]
fn h_jump(_vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    Control::Goto(args(t, pc).t)
}

#[inline(always)]
fn h_jump_if_false(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let v = vm.pop();
    if vm.rt.untag_int(v) == 0 {
        Control::Goto(args(t, pc).t)
    } else {
        Control::Next
    }
}

#[inline(always)]
fn h_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    // A prim's operand sits at least on its frame's environment, so the
    // stack holds two words even for a one-operand prim.
    let n = vm.rt.stack.len();
    let (a, b) = (vm.rt.stack[n - 2], vm.rt.stack[n - 1]);
    if let Some(w) = fast_binop(vm, x.p, a, b) {
        vm.rt.stack.truncate(n - 1);
        vm.rt.stack[n - 2] = w;
        return Control::Next;
    }
    prim_on_stack(vm, x.p, x.at)
}

#[inline(always)]
fn h_reg_handle(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let r = vm.region_of(args(t, pc).at.expect("region handle needs a slot"));
    let w = vm.rt.tag_int(r.0 as i64);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_call(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    call(vm, x.a, x, pc)
}

/// A known call of function `fun` whose `n`/`m`/`flag`/`t` operands `x`
/// holds, from the instruction at `pc`; a non-tail call returns to
/// `pc + 1`, the next group when a superinstruction ends in the call.
#[inline(always)]
fn call(vm: &mut Vm<'_>, fun: u32, x: &threaded::Args, pc: u32) -> Control {
    let n = x.n as usize;
    let nf = x.m as usize;
    let (base, ret) = if x.flag {
        vm.pop_frame_for_tail_call()
    } else {
        (vm.rt.stack.len() - n - nf - 1, pc as usize + 1)
    };
    vm.push_frame_from_stack(fun, 1 + nf + n, ret, base);
    Control::Goto(x.t)
}

#[inline(always)]
fn h_call_clos(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let n = x.n as usize;
    let sp = vm.rt.stack.len();
    // The closure doubles as the callee's environment.
    let clos = vm.rt.stack[sp - n - 1];
    let label = scalar_val(vm.rt.field(clos, 0)) as usize;
    let fun = t.fun_of_label[label];
    debug_assert_ne!(fun, u32::MAX, "closure label is not a function entry");
    let (base, ret) = if x.flag {
        vm.pop_frame_for_tail_call()
    } else {
        (sp - n - 1, pc as usize + 1)
    };
    vm.push_frame_from_stack(fun, 1 + n, ret, base);
    Control::Goto(t.pc_of_label[label])
}

#[inline(always)]
fn h_enter_via_pair(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    vm.enter_via_pair(x.n as usize, x.m as usize);
    Control::Next
}

#[inline(always)]
fn h_ret(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    Control::Goto(vm.ret() as u32)
}

#[inline(always)]
fn h_gc_check(vm: &mut Vm<'_>, t: &ThreadedCode, _pc: u32) -> Control {
    if let Some(e) = vm.gc_safe_point(&t.frame_map) {
        vm.pending = Some(e);
        return Control::Fail;
    }
    Control::Next
}

#[inline(always)]
fn h_let_region(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    for name in t.names[args(t, pc).a as usize].iter() {
        vm.rt.letregion(*name);
    }
    Control::Next
}

#[inline(always)]
fn h_end_regions(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    for _ in 0..args(t, pc).n {
        vm.rt.endregion();
    }
    Control::Next
}

#[inline(always)]
fn h_push_handler(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    vm.handlers.push(Handler {
        target: args(t, pc).t as usize,
        frame_idx: vm.frames.len() - 1,
        stack_len: vm.rt.stack.len(),
        region_depth: vm.rt.region_depth(),
    });
    Control::Next
}

#[inline(always)]
fn h_pop_handler(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    vm.handlers.pop().expect("handler stack underflow");
    Control::Next
}

#[inline(always)]
fn h_mk_exn(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    if !x.flag {
        vm.push(scalar(x.a as i64));
    } else {
        // Untagged, the id leads the block in place of a tag.
        let lead = (!vm.rt.config.tagged).then(|| scalar(x.a as i64));
        let at = x.at.expect("carrying exception needs a place");
        vm.box_from_stack(at, Tag::exn(x.a, 1), lead, 1);
    }
    Control::Next
}

#[inline(always)]
fn h_de_exn(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    let v = vm.pop();
    let off = if vm.rt.config.tagged { 0 } else { 1 };
    let w = vm.rt.field(v, off);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_raise(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    let v = vm.pop();
    match vm.do_raise(v) {
        Some(new_pc) => Control::Goto(new_pc as u32),
        None => {
            let id = vm.exn_id(v);
            vm.pending = Some(vm.uncaught(id));
            Control::Fail
        }
    }
}

#[inline(always)]
fn h_halt(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    let result = vm.pop();
    vm.halted = Some(result);
    Control::Halt
}

// -------------------------------------------- superinstruction handlers

/// The integer fast path of every prim handler: `< <= > >= =`,
/// `+ − ×`, and `div`/`mod` by a nonzero divisor, on untagged operands.
/// `None` for any other prim, or for a result that raises (out of the
/// int range, or a zero divisor): [`Vm::do_prim`] raises it.
#[inline(always)]
fn fast_int(p: Prim, x: i64, y: i64) -> Option<i64> {
    match p {
        Prim::ILt => Some((x < y) as i64),
        Prim::ILe => Some((x <= y) as i64),
        Prim::IGt => Some((x > y) as i64),
        Prim::IGe => Some((x >= y) as i64),
        Prim::IEq => Some((x == y) as i64),
        Prim::IAdd => x.checked_add(y).filter(|v| int_in_range(*v)),
        Prim::ISub => x.checked_sub(y).filter(|v| int_in_range(*v)),
        Prim::IMul => x.checked_mul(y).filter(|v| int_in_range(*v)),
        Prim::IDiv | Prim::IMod if y != 0 => floor_div_mod(p, x, y),
        _ => None,
    }
}

/// The fast path of a prim on its two top operands `a`, `b`, held in
/// registers: the integer ones through [`fast_int`], and `asub` by one
/// large-object lookup. Every prim handler, the compare-and-branch ones
/// too, tries it first. Returns the result word; `None` sends the caller
/// to [`prim_on_stack`] (or [`prim_branch`]) with the operands pushed.
#[inline(always)]
fn fast_binop(vm: &Vm<'_>, p: Prim, a: Word, b: Word) -> Option<Word> {
    let y = vm.rt.untag_int(b);
    match p {
        Prim::ArrSub => vm.rt.arr_get(a, y),
        _ => fast_int(p, vm.rt.untag_int(a), y).map(|v| vm.rt.tag_int(v)),
    }
}

/// A prim on operands on the stack that [`fast_binop`] did not take:
/// `aupdate` and `alength` inline, everything else — and every raise —
/// in [`Vm::do_prim`].
#[inline(always)]
fn prim_on_stack(vm: &mut Vm<'_>, p: Prim, at: Option<RegSlot>) -> Control {
    let n = vm.rt.stack.len();
    match p {
        Prim::ArrUpd => {
            let (a, i, v) = (vm.rt.stack[n - 3], vm.rt.stack[n - 2], vm.rt.stack[n - 1]);
            if vm.rt.arr_set(a, vm.rt.untag_int(i), v) {
                vm.rt.stack.truncate(n - 2);
                vm.rt.stack[n - 3] = vm.rt.tag_int(0);
                return Control::Next;
            }
        }
        Prim::ArrLen => {
            let len = vm.rt.arr_len(vm.rt.stack[n - 1]);
            vm.rt.stack[n - 1] = vm.rt.tag_int(len as i64);
            return Control::Next;
        }
        _ => {}
    }
    match vm.do_prim(p, at) {
        Ok(()) => Control::Next,
        Err(exn) => vm.raise_or_fail(exn),
    }
}

/// The `JumpIfFalse` of a fused compare-and-branch on the prim's result
/// `w`: on if it is true, else to `t`.
#[inline(always)]
fn branch(vm: &Vm<'_>, w: Word, t: u32) -> Control {
    if vm.rt.untag_int(w) != 0 {
        Control::Next
    } else {
        Control::Goto(t)
    }
}

/// A fused compare-and-branch whose prim [`fast_binop`] did not take, its
/// operands on the stack: [`prim_on_stack`], then the branch on its result.
#[inline(always)]
fn prim_branch(vm: &mut Vm<'_>, p: Prim, at: Option<RegSlot>, t: u32) -> Control {
    match prim_on_stack(vm, p, at) {
        Control::Next => {
            let w = vm.pop();
            branch(vm, w, t)
        }
        raised => raised,
    }
}

/// Pushes the handle of the region in `slot`.
#[inline(always)]
fn push_region(vm: &mut Vm<'_>, slot: Option<RegSlot>) {
    let r = vm.region_of(slot.expect("region handle needs a slot"));
    let w = vm.rt.tag_int(r.0 as i64);
    vm.push(w);
}

/// A prim on `a` and `b`, held in registers, its result pushed: the fast
/// path, else both pushed and [`prim_on_stack`].
#[inline(always)]
fn prim_on(vm: &mut Vm<'_>, p: Prim, at: Option<RegSlot>, a: Word, b: Word) -> Control {
    if let Some(w) = fast_binop(vm, p, a, b) {
        vm.push(w);
        return Control::Next;
    }
    vm.push(a);
    vm.push(b);
    prim_on_stack(vm, p, at)
}

/// A compare-and-branch on `a` and `b`, held in registers: the fast path,
/// else both pushed and [`prim_branch`].
#[inline(always)]
fn prim_jump_on(vm: &mut Vm<'_>, x: &threaded::Args, a: Word, b: Word) -> Control {
    if let Some(w) = fast_binop(vm, x.p, a, b) {
        return branch(vm, w, x.t);
    }
    vm.push(a);
    vm.push(b);
    prim_branch(vm, x.p, x.at, x.t)
}

#[inline(always)]
fn h_load_select_store(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    let w = vm.rt.field(v, x.n as u64);
    vm.set_local(x.b, w);
    Control::Next
}

#[inline(always)]
fn h_load_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    prim_on(vm, x.p, x.at, v, x.k)
}

#[inline(always)]
fn h_load_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    let vb = vm.local(x.b);
    vm.push(va);
    vm.push(vb);
    Control::Next
}

#[inline(always)]
fn h_gc_check_load_switch_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    match h_gc_check(vm, t, pc) {
        Control::Next => h_load_switch_con(vm, t, pc),
        failed => failed,
    }
}

#[inline(always)]
fn h_load_load_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    let vb = vm.local(x.b);
    prim_jump_on(vm, x, va, vb)
}

#[inline(always)]
fn h_load_reg_handle_reg_handle(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    vm.push(v);
    push_region(vm, x.at);
    push_region(vm, x.at2);
    Control::Next
}

#[inline(always)]
fn h_load_store(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    vm.set_local(x.b, v);
    Control::Next
}

#[inline(always)]
fn h_load_select(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    let w = vm.rt.field(v, x.n as u64);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_gc_check_load_const_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    match h_gc_check(vm, t, pc) {
        Control::Next => h_load_const_prim_jump(vm, t, pc),
        failed => failed,
    }
}

#[inline(always)]
fn h_load_load_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    vm.push(va);
    let vb = vm.local(x.b);
    prim_on(vm, x.p, x.at, vb, x.k)
}

#[inline(always)]
fn h_load_load_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    let vb = vm.local(x.b);
    prim_on(vm, x.p, x.at, va, vb)
}

#[inline(always)]
fn h_load_call(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    vm.push(v);
    call(vm, x.b, x, pc)
}

#[inline(always)]
fn h_push_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    // The other operand is already on the stack, under the constant.
    let n = vm.rt.stack.len();
    if let Some(w) = fast_binop(vm, x.p, vm.rt.stack[n - 1], x.k) {
        vm.rt.stack[n - 1] = w;
        return Control::Next;
    }
    vm.push(x.k);
    prim_on_stack(vm, x.p, x.at)
}

#[inline(always)]
fn h_load_select_load_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let w = vm.rt.field(vm.local(x.a), x.n as u64);
    let v = vm.local(x.b);
    prim_on(vm, x.p, x.at, w, v)
}

#[inline(always)]
fn h_reg_handle_load_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    push_region(vm, x.at);
    let va = vm.local(x.a);
    vm.push(va);
    let vb = vm.local(x.b);
    vm.push(vb);
    Control::Next
}

#[inline(always)]
fn h_load_const_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    prim_jump_on(vm, x, v, x.k)
}

#[inline(always)]
fn h_load_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    vm.push(v);
    Control::Goto(x.t)
}

#[inline(always)]
fn h_load_switch_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    switch_con(vm, t, vm.local(x.a), x.b)
}

#[inline(always)]
fn h_load_select_load_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let w = vm.rt.field(vm.local(x.a), x.n as u64);
    vm.push(w);
    let v = vm.local(x.b);
    prim_on(vm, x.p, x.at, v, x.k)
}

#[inline(always)]
fn h_load_reg_handle_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    vm.push(va);
    push_region(vm, x.at);
    let vb = vm.local(x.b);
    vm.push(vb);
    Control::Next
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib_program() -> Program {
        let src = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)\n\
                   val it = fib 10";
        let mut lprog = kit_typing::compile_str(src).unwrap();
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::with_gc());
        crate::compile(&rprog, true)
    }

    #[test]
    fn prepare_fuses_at_the_fusion_level_asked_for() {
        let prog = fib_program();
        let off = Executable::prepare(&prog, DispatchMode::default(), Fusion::Off);
        assert_eq!(off.code(), &prog.code);
        let full = Executable::prepare(&prog, DispatchMode::default(), Fusion::Full);
        assert!(full.0.ops.iter().any(|op| op.is_fused()));
        assert!(full.0.ops.len() < prog.code.len());
    }

    #[test]
    fn the_counting_instance_counts_the_dispatches_of_the_stream_it_runs() {
        let prog = fib_program();
        let vm = |fusion| Vm::new(&prog, Rt::new(kit_runtime::RtConfig::rgt())).with_fusion(fusion);
        let plain = vm(Fusion::Full).run().unwrap();
        assert!(plain.fusion_profile.is_none());
        let profiled = |fusion| {
            let out = vm(fusion).with_fusion_profile().run().unwrap();
            assert_eq!(
                (out.result, out.instructions),
                (plain.result, plain.instructions),
                "{fusion:?}"
            );
            out.fusion_profile
                .expect("the counting instance returns a profile")
        };
        // Unfused, a dispatch is an instruction.
        let off = profiled(Fusion::Off);
        assert_eq!(off.ops, prog.code.ops);
        assert_eq!(off.dispatches(), plain.instructions);
        // Fused, each dispatch is charged its cost.
        let full = profiled(Fusion::Full);
        let exe = Executable::prepare(&prog, DispatchMode::default(), Fusion::Full);
        assert_eq!(full.ops, exe.code().ops);
        let charged: u64 = (full.ops.iter().zip(&full.counts))
            .map(|(op, n)| op.cost() * n)
            .sum();
        assert_eq!(charged, plain.instructions);
        assert!(full.dispatches() < off.dispatches());
        assert_eq!(full.executions(Op::Halt), 1);
    }
}
