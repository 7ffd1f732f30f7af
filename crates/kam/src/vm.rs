//! The abstract machine.
//!
//! Frames live in the simulated runtime stack of [`kit_runtime::Rt`]:
//! `[env | region formals | args | locals… | finite regions | operands]`.
//! A frame is a window on the operand stack: the `[env][rhandles][args]`
//! block a call leaves on top of the stack already is the callee's first
//! slots. Locals and operand slots always hold well-formed values
//! (scalars odd, pointers even in tagged mode), so the garbage
//! collector's root set is exactly the locals and operand ranges of every
//! frame — the finite area between them is reached only through pointers
//! — enumerated at the `GcCheck` safe point executed on function entry
//! (paper §4: collection happens at the next function entry once the
//! free-list drops below the threshold).
//!
//! One engine runs every program: [`crate::threaded`] translates the
//! compiled [`Instr`](crate::instr::Instr) stream, whose branch operands
//! are already absolute pcs, and (with [`Fusion::Full`]) fuses hot opcode
//! runs; the loop below dispatches on the opcode byte. With
//! [`Fusion::Off`] it runs base handlers only, which share no code with
//! any fused one: that is the differential oracle for fusion. The reported
//! instruction count is that of the *source* stream — a superinstruction
//! accounts for the instructions it replaces — so counters are identical
//! with fusion on or off.

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
    /// Direct-threaded execution: the stream is translated to
    /// struct-of-arrays form ([`ThreadedCode`]), fused as asked, and
    /// dispatched through a jump table over the opcode byte.
    #[default]
    Threaded,
}

/// A program translated for one fusion level — the one-time half of
/// [`Vm::run`], split out so a compiled program can be prepared once and
/// executed many times (concurrently: the payload is plain immutable
/// data, `Send + Sync`, and is shared across VM instances via `Arc` by
/// the server).
#[derive(Debug)]
pub struct Executable(ThreadedCode);

impl Executable {
    /// Translates `prog` to threaded form at fusion level `fusion`.
    pub fn prepare(prog: &Program, _dispatch: DispatchMode, fusion: Fusion) -> Executable {
        Executable(threaded::translate(prog, fusion))
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
    /// Dynamic opcode-sequence counts, if the fusion counting mode was on.
    pub fusion_profile: Option<Box<FusionProfile>>,
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
    /// Fusion counting mode: dynamic pair/triple frequencies, recorded by
    /// the counting instance of [`Vm::exec_threaded`].
    profile: Option<Box<FusionProfile>>,
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
            profile: None,
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

    /// Turns superinstruction fusion in the threaded translation on or off
    /// (`Off` is the differential-testing setting for the fusion pass).
    pub fn with_fusion(mut self, fusion: Fusion) -> Self {
        self.fusion = fusion;
        self
    }

    /// Accepts the one [`DispatchMode`] and changes nothing.
    pub fn with_dispatch(self, _dispatch: DispatchMode) -> Self {
        self
    }

    /// Enables the fusion counting mode: dynamic opcode pair/triple
    /// frequencies of fallthrough-adjacent instructions are recorded and
    /// returned in [`VmOutcome::fusion_profile`]. Turns fusion off for
    /// [`Vm::run`], so base opcodes stay visible; under
    /// [`Vm::run_prepared`] the counts are of the stream prepared.
    pub fn with_fusion_profile(mut self) -> Self {
        self.profile = Some(Box::default());
        self.fusion = Fusion::Off;
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
    /// The executable decides the fusion level (it is already translated
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
        if self.profile.is_some() {
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
    /// fusion counting instance, which records every dispatch in
    /// [`Vm::profile`]; the production instance has no such branch.
    fn exec_threaded<const PROFILE: bool>(
        mut self,
        t: &ThreadedCode,
        entry: usize,
    ) -> Result<VmOutcome, VmError> {
        let fuel_limit = self.fuel.unwrap_or(u64::MAX);
        let mut icount: u64 = 0;
        let mut pc = entry;
        loop {
            let op = t.ops[pc];
            icount += op.cost();
            if icount > fuel_limit {
                return Err(VmError::OutOfFuel);
            }
            if PROFILE {
                if let Some(prof) = self.profile.as_deref_mut() {
                    prof.step(pc, op);
                }
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
                Op::LoadLoadPrim => h_load_load_prim(&mut self, t, pc as u32),
                Op::PushConstPrim => h_push_const_prim(&mut self, t, pc as u32),
                Op::LoadSelect => h_load_select(&mut self, t, pc as u32),
                Op::LoadConstPrim => h_load_const_prim(&mut self, t, pc as u32),
                Op::LoadSelectStore => h_load_select_store(&mut self, t, pc as u32),
                Op::LoadLoadPrimJump => h_load_load_prim_jump(&mut self, t, pc as u32),
                Op::LoadConstPrimJump => h_load_const_prim_jump(&mut self, t, pc as u32),
                Op::StoreLoadSelect => h_store_load_select(&mut self, t, pc as u32),
                Op::LoadPrimJump => h_load_prim_jump(&mut self, t, pc as u32),
                Op::StoreLoad => h_store_load(&mut self, t, pc as u32),
                Op::LoadLoad => h_load_load(&mut self, t, pc as u32),
                Op::PrimJump => h_prim_jump(&mut self, t, pc as u32),
                Op::LoadStore => h_load_store(&mut self, t, pc as u32),
                Op::LoadSwitchCon => h_load_switch_con(&mut self, t, pc as u32),
                Op::GcCheckLoad => h_gc_check_load(&mut self, t, pc as u32),
                Op::RegHandleRegHandle => h_reg_handle_reg_handle(&mut self, t, pc as u32),
                Op::SelectStoreLoad => h_select_store_load(&mut self, t, pc as u32),
                Op::GcCheckLoadSwitchCon => h_gc_check_load_switch_con(&mut self, t, pc as u32),
                Op::RegHandleRegHandleLoad => h_reg_handle_reg_handle_load(&mut self, t, pc as u32),
                Op::RegHandleLoadLoad => h_reg_handle_load_load(&mut self, t, pc as u32),
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
                        fusion_profile: self.profile.take(),
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

    /// Every frame's locals and operands: the finite area between them
    /// holds boxes the collector reaches through pointers, and stale
    /// words of boxes already dead.
    fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::new();
        for (i, f) in self.frames.iter().enumerate() {
            let ops = f.fin + self.prog.funs[f.fun as usize].nfinite as usize;
            let end = self
                .frames
                .get(i + 1)
                .map_or(self.rt.stack.len(), |g| g.base);
            roots.extend(f.base..f.fin);
            roots.extend(ops..end);
        }
        roots
    }

    /// Runs the runtime's collector with all frames' locals and operand
    /// ranges as roots.
    fn collect(&mut self) {
        let roots = self.roots();
        // Every root must point at a live object: the compiler clears
        // binding slots that go out of scope inside letregion scopes
        // (`clear_dead_slot`), so no local can dangle into an ended
        // region. A root landing on page slack means that invariant
        // broke — report it with frame context before the collector
        // trips over it.
        #[cfg(debug_assertions)]
        for &slot in &roots {
            let v = self.rt.stack[slot];
            if is_ptr(v)
                && matches!(
                    kit_runtime::value::space_of(ptr_addr(v)),
                    kit_runtime::value::Space::Heap
                )
            {
                let w = self.rt.read_addr(ptr_addr(v));
                if !is_ptr(w) && Tag::decode(w).kind == kit_runtime::value::Kind::Sentinel {
                    panic!(
                        "dangling GC root at stack slot {slot} (value {v:#x}) in {}",
                        self.backtrace()
                    );
                }
            }
        }
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
    fn gc_safe_point(&mut self) -> Option<VmError> {
        if let Some(deadline) = self.rt.config.deadline {
            if let Some(e) = self.deadline_check(deadline) {
                return Some(e);
            }
        }
        if self.rt.gc_needed {
            self.collect();
        }
        if self.rt.config.max_heap_pages.is_some() {
            self.quota_check()
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

    /// The quota slow path: if the materialized footprint exceeds the
    /// cap, force one collection, release the free arena tail, and
    /// re-measure. A request that stays over the cap after all that is
    /// genuinely holding too much live data and fails with a typed error.
    #[cold]
    fn quota_check(&mut self) -> Option<VmError> {
        if !self.rt.over_quota() {
            return None;
        }
        if self.rt.config.collector != Collector::Off {
            self.collect();
        }
        self.rt.quota_reclaim();
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
            IAdd | ISub | IMul => {
                let (a, b) = int2!();
                let v = match p {
                    IAdd => a.checked_add(b),
                    ISub => a.checked_sub(b),
                    _ => a.checked_mul(b),
                }
                .filter(|v| int_in_range(*v));
                match v {
                    Some(v) => push_int!(v),
                    None => return Err(EXN_OVERFLOW),
                }
            }
            IDiv | IMod => {
                let (a, b) = int2!();
                if b == 0 {
                    return Err(EXN_DIV);
                }
                match floor_div_mod(p, a, b) {
                    Some(v) => push_int!(v),
                    None => return Err(EXN_OVERFLOW),
                }
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
            ILt | ILe | IGt | IGe | IEq => {
                let (a, b) = int2!();
                push_bool!(match p {
                    ILt => a < b,
                    ILe => a <= b,
                    IGt => a > b,
                    IGe => a >= b,
                    _ => a == b,
                });
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
            ArrSub => {
                let (a, i) = binop!();
                let i = self.rt.untag_int(i);
                if i < 0 || i as usize >= self.rt.arr_len(a) {
                    return Err(EXN_SUBSCRIPT);
                }
                let v = self.rt.read_addr(self.rt.arr_elem_addr(a, i as usize));
                self.push(v);
            }
            ArrUpd => {
                let v = self.pop();
                let wi = self.pop();
                let i = self.rt.untag_int(wi);
                let a = self.pop();
                if i < 0 || i as usize >= self.rt.arr_len(a) {
                    return Err(EXN_SUBSCRIPT);
                }
                let addr = self.rt.arr_elem_addr(a, i as usize);
                self.rt.update(addr, v);
                push_int!(0);
            }
            ArrLen => {
                let a = self.pop();
                let n = self.rt.arr_len(a) as i64;
                push_int!(n);
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
        Tag::record(x.n as u32),
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
    let tag = Tag::con(x.a, x.n as u32 + x.flag as u32);
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
    if matches!(
        x.p,
        Prim::ILt | Prim::ILe | Prim::IGt | Prim::IGe | Prim::IEq
    ) {
        let b = vm.pop();
        let a = vm.pop();
        let res = fast_int_cmp(vm, x.p, a, b).expect("int comparison");
        let w = vm.rt.tag_int(res as i64);
        vm.push(w);
        return Control::Next;
    }
    match vm.do_prim(x.p, x.at) {
        Ok(()) => Control::Next,
        Err(exn) => vm.raise_or_fail(exn),
    }
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
    let n = x.n as usize;
    let nf = x.m as usize;
    let (base, ret) = if x.flag {
        vm.pop_frame_for_tail_call()
    } else {
        (vm.rt.stack.len() - n - nf - 1, pc as usize + 1)
    };
    vm.push_frame_from_stack(x.a, 1 + nf + n, ret, base);
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
fn h_gc_check(vm: &mut Vm<'_>, _t: &ThreadedCode, _pc: u32) -> Control {
    if let Some(e) = vm.gc_safe_point() {
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

/// Integer-comparison fast path for the fused compare-and-branch
/// superinstructions: computes exactly what [`Vm::do_prim`] would push
/// for the int comparisons (they cannot raise or allocate) without the
/// operand-stack round trip. `None` sends the caller down the generic
/// path.
#[inline(always)]
fn fast_int_cmp(vm: &Vm<'_>, p: Prim, a: Word, b: Word) -> Option<bool> {
    let (x, y) = (vm.rt.untag_int(a), vm.rt.untag_int(b));
    match p {
        Prim::ILt => Some(x < y),
        Prim::ILe => Some(x <= y),
        Prim::IGt => Some(x > y),
        Prim::IGe => Some(x >= y),
        Prim::IEq => Some(x == y),
        _ => None,
    }
}

/// Integer-arithmetic fast path for the fused prim superinstructions:
/// returns the tagged result word, or `None` (wrong prim, overflow, or
/// out of the implementation's int range) to send the caller down the
/// generic path — which recomputes and raises `Overflow` properly.
#[inline(always)]
fn fast_int_arith(vm: &Vm<'_>, p: Prim, a: Word, b: Word) -> Option<Word> {
    let (x, y) = (vm.rt.untag_int(a), vm.rt.untag_int(b));
    let v = match p {
        Prim::IAdd => x.checked_add(y),
        Prim::ISub => x.checked_sub(y),
        Prim::IMul => x.checked_mul(y),
        _ => None,
    }
    .filter(|v| int_in_range(*v))?;
    Some(vm.rt.tag_int(v))
}

#[inline(always)]
fn h_load_load_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    let vb = vm.local(x.b);
    if let Some(w) = fast_int_arith(vm, x.p, va, vb) {
        vm.push(w);
        return Control::Next;
    }
    vm.push(va);
    vm.push(vb);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => Control::Next,
        Err(exn) => vm.raise_or_fail(exn),
    }
}

#[inline(always)]
fn h_push_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    // The other operand is already on the stack, under the constant.
    if matches!(
        x.p,
        Prim::ILt | Prim::ILe | Prim::IGt | Prim::IGe | Prim::IEq
    ) {
        let a = vm.pop();
        let res = fast_int_cmp(vm, x.p, a, x.k).expect("int comparison");
        let w = vm.rt.tag_int(res as i64);
        vm.push(w);
        return Control::Next;
    }
    if matches!(x.p, Prim::IAdd | Prim::ISub | Prim::IMul) {
        let a = vm.pop();
        if let Some(w) = fast_int_arith(vm, x.p, a, x.k) {
            vm.push(w);
            return Control::Next;
        }
        vm.push(a);
    }
    vm.push(x.k);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => Control::Next,
        Err(exn) => vm.raise_or_fail(exn),
    }
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
fn h_load_const_prim(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    if let Some(w) = fast_int_arith(vm, x.p, v, x.k) {
        vm.push(w);
        return Control::Next;
    }
    if let Some(res) = fast_int_cmp(vm, x.p, v, x.k) {
        let w = vm.rt.tag_int(res as i64);
        vm.push(w);
        return Control::Next;
    }
    vm.push(v);
    vm.push(x.k);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => Control::Next,
        Err(exn) => vm.raise_or_fail(exn),
    }
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
fn h_load_load_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let va = vm.local(x.a);
    let vb = vm.local(x.b);
    if let Some(res) = fast_int_cmp(vm, x.p, va, vb) {
        return if res {
            Control::Next
        } else {
            Control::Goto(x.t)
        };
    }
    vm.push(va);
    vm.push(vb);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => {}
        Err(exn) => return vm.raise_or_fail(exn),
    }
    let v = vm.pop();
    if vm.rt.untag_int(v) == 0 {
        Control::Goto(x.t)
    } else {
        Control::Next
    }
}

#[inline(always)]
fn h_load_const_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    if let Some(res) = fast_int_cmp(vm, x.p, v, x.k) {
        return if res {
            Control::Next
        } else {
            Control::Goto(x.t)
        };
    }
    vm.push(v);
    vm.push(x.k);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => {}
        Err(exn) => return vm.raise_or_fail(exn),
    }
    let v = vm.pop();
    if vm.rt.untag_int(v) == 0 {
        Control::Goto(x.t)
    } else {
        Control::Next
    }
}

#[inline(always)]
fn h_store_load_select(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.pop();
    vm.set_local(x.a, v);
    let w = vm.rt.field(vm.local(x.b), x.n as u64);
    vm.push(w);
    Control::Next
}

#[inline(always)]
fn h_load_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    // The other operand is already on the stack (under the loaded one).
    if matches!(
        x.p,
        Prim::ILt | Prim::ILe | Prim::IGt | Prim::IGe | Prim::IEq
    ) {
        let a = vm.pop();
        let res = fast_int_cmp(vm, x.p, a, v).expect("int comparison");
        return if res {
            Control::Next
        } else {
            Control::Goto(x.t)
        };
    }
    vm.push(v);
    match vm.do_prim(x.p, x.at) {
        Ok(()) => {}
        Err(exn) => return vm.raise_or_fail(exn),
    }
    let v = vm.pop();
    if vm.rt.untag_int(v) == 0 {
        Control::Goto(x.t)
    } else {
        Control::Next
    }
}

#[inline(always)]
fn h_store_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.pop();
    vm.set_local(x.a, v);
    let w = vm.local(x.b);
    vm.push(w);
    Control::Next
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
fn h_prim_jump(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    if matches!(
        x.p,
        Prim::ILt | Prim::ILe | Prim::IGt | Prim::IGe | Prim::IEq
    ) {
        let b = vm.pop();
        let a = vm.pop();
        let res = fast_int_cmp(vm, x.p, a, b).expect("int comparison");
        return if res {
            Control::Next
        } else {
            Control::Goto(x.t)
        };
    }
    match vm.do_prim(x.p, x.at) {
        Ok(()) => {}
        Err(exn) => return vm.raise_or_fail(exn),
    }
    let v = vm.pop();
    if vm.rt.untag_int(v) == 0 {
        Control::Goto(x.t)
    } else {
        Control::Next
    }
}

#[inline(always)]
fn h_load_store(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.local(x.a);
    vm.set_local(x.b, v);
    Control::Next
}

#[inline(always)]
fn h_load_switch_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    switch_con(vm, t, vm.local(x.a), x.b)
}

#[inline(always)]
fn h_gc_check_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    if let Some(e) = vm.gc_safe_point() {
        vm.pending = Some(e);
        return Control::Fail;
    }
    let v = vm.local(args(t, pc).a);
    vm.push(v);
    Control::Next
}

#[inline(always)]
fn h_reg_handle_reg_handle(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let ra = vm.region_of(x.at.expect("region handle needs a slot"));
    let wa = vm.rt.tag_int(ra.0 as i64);
    vm.push(wa);
    let rb = vm.region_of(x.at2.expect("region handle needs a slot"));
    let wb = vm.rt.tag_int(rb.0 as i64);
    vm.push(wb);
    Control::Next
}

#[inline(always)]
fn h_select_store_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let v = vm.pop();
    let w = vm.rt.field(v, x.n as u64);
    vm.set_local(x.a, w);
    let u = vm.local(x.b);
    vm.push(u);
    Control::Next
}

#[inline(always)]
fn h_gc_check_load_switch_con(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    if let Some(e) = vm.gc_safe_point() {
        vm.pending = Some(e);
        return Control::Fail;
    }
    let x = args(t, pc);
    switch_con(vm, t, vm.local(x.a), x.b)
}

#[inline(always)]
fn h_reg_handle_reg_handle_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let ra = vm.region_of(x.at.expect("region handle needs a slot"));
    let wa = vm.rt.tag_int(ra.0 as i64);
    vm.push(wa);
    let rb = vm.region_of(x.at2.expect("region handle needs a slot"));
    let wb = vm.rt.tag_int(rb.0 as i64);
    vm.push(wb);
    let v = vm.local(x.a);
    vm.push(v);
    Control::Next
}

#[inline(always)]
fn h_reg_handle_load_load(vm: &mut Vm<'_>, t: &ThreadedCode, pc: u32) -> Control {
    let x = args(t, pc);
    let rr = vm.region_of(x.at.expect("region handle needs a slot"));
    let wr = vm.rt.tag_int(rr.0 as i64);
    vm.push(wr);
    let v = vm.local(x.a);
    vm.push(v);
    let w = vm.local(x.b);
    vm.push(w);
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
    fn prepare_translates_at_the_fusion_level_asked_for() {
        let prog = fib_program();
        let off = Executable::prepare(&prog, DispatchMode::default(), Fusion::Off);
        assert_eq!((off.0.fused, off.0.ops.len()), (0, prog.code.len()));
        let full = Executable::prepare(&prog, DispatchMode::default(), Fusion::Full);
        assert!(full.0.fused > 0);
        assert!(full.0.ops.len() < prog.code.len());
    }

    #[test]
    fn the_counting_instance_runs_unfused_and_counts_what_it_runs() {
        let prog = fib_program();
        let run = |vm: Vm<'_>| vm.run().unwrap();
        let plain = run(Vm::new(&prog, Rt::new(kit_runtime::RtConfig::rgt())));
        let counted =
            run(Vm::new(&prog, Rt::new(kit_runtime::RtConfig::rgt())).with_fusion_profile());
        assert!(plain.fusion_profile.is_none());
        assert_eq!(counted.result, plain.result);
        assert_eq!(counted.instructions, plain.instructions);
        let prof = counted
            .fusion_profile
            .expect("the counting instance returns a profile");
        let pairs = prof.hot_pairs();
        assert!(!pairs.is_empty());
        assert!(pairs
            .iter()
            .all(|(ops, _)| ops.iter().all(|op| !op.is_fused())));
    }
}
