//! Abstract-machine tests: calling conventions, tail calls, finite
//! regions, region-polymorphic calls, escaping `fix` functions (stubs),
//! and collection at safe points with deep frame stacks.

use kit_kam::instr::RegSlot;
use kit_kam::threaded::Op;
use kit_kam::{compile, Fusion, Vm};
use kit_lambda::ty::LTy;
use kit_region::RegionOptions;
use kit_runtime::{Rt, RtConfig};

fn run(src: &str, opts: RegionOptions, cfg: RtConfig) -> (String, kit_runtime::RtStats) {
    run_with(src, opts, cfg, true)
}

fn run_with(
    src: &str,
    opts: RegionOptions,
    cfg: RtConfig,
    optimise: bool,
) -> (String, kit_runtime::RtStats) {
    let mut lprog = kit_typing::compile_str(src).expect("front-end");
    if optimise {
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
    }
    let rprog = kit_region::infer(&lprog, opts);
    let mut prog = compile(&rprog, cfg.tagged);
    prog.result_ty = lprog.result_ty.clone();
    let out = Vm::new(&prog, Rt::new(cfg))
        .with_fuel(500_000_000)
        .run()
        .expect("vm run");
    let rendered = kit_kam::render::render_value(&out.rt, out.result, &prog.result_ty, &prog.data);
    (rendered, out.stats)
}

fn run_rgt(src: &str) -> (String, kit_runtime::RtStats) {
    run(src, RegionOptions::with_gc(), RtConfig::rgt())
}

#[test]
fn tail_calls_keep_memory_bounded() {
    // One million tail-recursive iterations must not grow the stack:
    // peak memory stays small even though each non-tail frame would be
    // dozens of words.
    let (res, stats) = run_rgt(
        "fun loop (0, acc) = acc | loop (n, acc) = loop (n - 1, acc + 1)
         val it = loop (1000000, 0)",
    );
    assert_eq!(res, "1000000");
    assert!(
        stats.peak_bytes < 4 * 1024 * 1024,
        "tail recursion must not accumulate frames: peak {} bytes",
        stats.peak_bytes
    );
}

#[test]
fn non_tail_recursion_grows_the_stack() {
    let (res, stats) = run_rgt(
        "fun sum 0 = 0 | sum n = n + sum (n - 1)
         val it = sum 20000",
    );
    assert_eq!(res, "200010000");
    assert!(
        stats.peak_bytes > 100 * 1024,
        "non-tail frames should be visible in peak memory: {}",
        stats.peak_bytes
    );
}

#[test]
fn letregion_blocks_tail_calls_like_the_ml_kit() {
    // §4.4: letregion around a tail position defeats tail-call
    // optimization in the ML Kit; we reproduce that. The loop below
    // allocates a pair per iteration in a local region, so frames pile up
    // — it must still run correctly (the stack is a Vec, not the Rust
    // stack).
    let (res, _) = run_rgt(
        "fun loop (0, acc) = acc
           | loop (n, acc) = loop (n - 1, acc + fst (n, n))
         val it = loop (30000, 0)",
    );
    assert_eq!(res, "450015000");
}

#[test]
fn escaping_fix_functions_enter_via_stub() {
    // `build` is region-polymorphic and escapes as a value (mapped over a
    // list), so calls go through the pair + stub entry.
    let (res, _) = run_rgt(
        "fun build 0 = nil | build n = n :: build (n - 1)
         val lists = map build [1, 2, 3, 4]
         val it = foldl (fn (l, a) => length l + a) 0 lists",
    );
    assert_eq!(res, "10");
}

#[test]
fn finite_regions_hold_values_on_the_stack() {
    // A single-use pair is a finite region: no region page allocation
    // should be needed for it. With only finite allocations the region
    // heap sees zero mutator page requests beyond the global regions.
    let (res, stats) = run(
        "val p = (21, 2) val it = fst p * snd p",
        RegionOptions::regions_only(),
        RtConfig::r(),
    );
    assert_eq!(res, "42");
    assert_eq!(stats.words_allocated, 0, "the pair must live in the frame");
}

#[test]
fn deep_frames_are_gc_roots() {
    // Collection triggered while thousands of frames are live: every
    // frame's locals must be scanned (non-tail recursion holding a list
    // alive at every level).
    let src = "
        fun down 0 = nil
          | down n = let val keep = [n, n, n]
                     in hd keep :: down (n - 1) end
        val it = length (down 3000)";
    let cfg = RtConfig {
        initial_pages: 8,
        page_words_log2: 6,
        ..RtConfig::rgt()
    };
    let (res, stats) = run(src, RegionOptions::with_gc(), cfg);
    assert_eq!(res, "3000");
    assert!(
        stats.gc_count > 0,
        "the heap was sized to force collections"
    );
}

#[test]
fn region_handles_pass_through_closures() {
    // A closure allocating into a region bound outside it must capture the
    // region handle (the ML Kit's region vectors).
    let (res, _) = run_rgt(
        "fun apply f = f ()
         fun outer n =
           let val g = fn () => (n, n + 1)
           in snd (apply g) end
         val it = outer 41",
    );
    assert_eq!(res, "42");
}

/// The bytecode of `src` in `r` mode, and its function table.
fn compile_r(src: &str) -> kit_kam::Program {
    let mut lprog = kit_typing::compile_str(src).expect("front-end");
    kit_lambda::opt::optimize(&mut lprog, &Default::default());
    compile(
        &kit_region::infer(&lprog, RegionOptions::regions_only()),
        false,
    )
}

#[test]
fn an_inner_fn_allocates_in_the_formal_region_it_captured() {
    // Not uncurriable (a `let` sits between the lambdas) and kept as a
    // function (it is recursive), so the pair is built by an inner `fn`
    // whose result region is a formal of `f`: the closure must carry the
    // caller's actual as a captured handle. It used to resolve the region
    // to a global of the same name that `letregion::place` listed and
    // nothing ever popped.
    let prog = compile_r(
        "fun f x = if x < 0 then f (x + 1) else let val k = x + 1 in fn y => (k, y) end
         val it = length (map (f 1) [1, 2, 3])",
    );
    let inner = prog
        .funs
        .iter()
        .position(|f| f.name == "fn")
        .expect("the fn");
    let entry = prog.code.entry_pc[inner] as usize;
    let body = (prog.code.ops[entry..].iter().zip(&prog.code.args[entry..]))
        .take_while(|(op, _)| **op != Op::Ret);
    let pairs: Vec<Option<RegSlot>> = body
        .filter(|(op, x)| **op == Op::MkRecord && x.n == 2)
        .map(|(_, x)| x.at)
        .collect();
    assert!(
        matches!(pairs[..], [Some(RegSlot::EnvReg(_))]),
        "the pair's place: {pairs:?}"
    );
}

#[test]
fn map_results_are_freed_with_their_region() {
    // 10 000 lists of 100 cells, each dead after its `length`: region
    // inference alone must reclaim them (16.4 MB before formals stopped
    // being global, when every `map` result outlived the program).
    let src = "fun f x = x + 1
         fun loop (n, acc) =
           if n < 1 then acc
           else let val k = length (map f (upto (1, 100)))
                in loop (n - 1, (acc + k) mod 1000) end
         val it = loop (10000, 0)";
    let (res, stats) = run(src, RegionOptions::regions_only(), RtConfig::r());
    assert_eq!(res, "0");
    assert!(
        stats.peak_bytes < 1 << 20,
        "peak {} bytes",
        stats.peak_bytes
    );
    // Unoptimised, `map f` still returns a closure, which finds the
    // result region among its captures (17.1 MB before).
    let (res, stats) = run_with(src, RegionOptions::regions_only(), RtConfig::r(), false);
    assert_eq!(res, "0");
    assert!(
        stats.peak_bytes < 2 << 20,
        "peak {} bytes",
        stats.peak_bytes
    );
}

#[test]
fn disassembler_round_trip_smoke() {
    let mut lprog = kit_typing::compile_str("fun f x = x + 1 val it = f 1").unwrap();
    kit_lambda::opt::optimize(&mut lprog, &Default::default());
    let rprog = kit_region::infer(&lprog, RegionOptions::with_gc());
    let prog = compile(&rprog, true);
    let asm = kit_kam::disasm::disassemble(&prog, Fusion::Off);
    assert!(asm.contains("GcCheck"), "{asm}");
    let _ = LTy::Int;
}

// ------------------------------------------------------------ frame push
//
// Hand-assembled programs. A frame is `[env][region formals][args]
// [locals…][finite area][operands]`, so the `[env][handles…][args…]` block
// a known call leaves on the stack already is the callee's first slots:
// the push only grows the stack to the callee's frame size. A tail call
// slides the block down onto the frame it replaces; a closure call
// through a stub leaves no handles in the block, and `EnterViaPair` moves
// the arguments up past the formal slots it fills from the pair.

mod frames {
    use kit_kam::instr::{FunInfo, RegSlot};
    use kit_kam::threaded::{Args, Op, ThreadedCode};
    use kit_kam::{Fusion, Program, Vm};
    use kit_lambda::exp::Prim;
    use kit_lambda::ty::{DataEnv, LTy};
    use kit_runtime::value::scalar;
    use kit_runtime::{Rt, RtConfig};

    /// A frame shape: `temps` locals after env, formals and arguments.
    #[derive(Clone, Copy, Debug)]
    struct Shape {
        nargs: u32,
        nf: u32,
        nfinite: u32,
        temps: u32,
    }

    impl Shape {
        fn nlocals(&self) -> u32 {
            1 + self.nf + self.nargs + self.temps
        }
    }

    /// How the callee is reached: a known `Call` whose block carries the
    /// handles, or a `CallClos` on a `[stub, shared, handles…]` pair.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Via {
        Known,
        Pair,
    }

    fn push_const(k: u64) -> (Op, Args) {
        (Op::PushConst, Args { k, ..Args::ZERO })
    }

    fn load(a: u32) -> (Op, Args) {
        (Op::Load, Args { a, ..Args::ZERO })
    }

    fn prim(p: Prim) -> (Op, Args) {
        (Op::Prim, Args { p, ..Args::ZERO })
    }

    fn reg_handle(slot: RegSlot) -> (Op, Args) {
        let at = Some(slot);
        (Op::RegHandle, Args { at, ..Args::ZERO })
    }

    fn mk_record(n: u32, slot: RegSlot) -> (Op, Args) {
        let at = Some(slot);
        (
            Op::MkRecord,
            Args {
                n,
                at,
                ..Args::ZERO
            },
        )
    }

    /// `f(a1..an)` = `(a1 - a2)` (or `a1`, or 7 with fewer arguments)
    /// `+ last local` (never written: must read as 0) `+ last formal`
    /// (region id 1; the others are 0) `+ second field of a finite pair`
    /// (if it has room).
    fn callee(code: &mut Vec<(Op, Args)>, s: &Shape, k: &dyn Fn(i64) -> u64) {
        let arg = 1 + s.nf;
        match s.nargs {
            0 => code.push(push_const(k(7))),
            1 => code.push(load(arg)),
            _ => code.extend([load(arg), load(arg + 1), prim(Prim::ISub)]),
        }
        code.extend([load(s.nlocals() - 1), prim(Prim::IAdd)]);
        if s.nf > 0 {
            let last = RegSlot::Formal(s.nf);
            code.extend([reg_handle(last), prim(Prim::IAdd)]);
        }
        if s.nfinite >= 3 {
            let at = RegSlot::Finite(s.nfinite - 3);
            code.extend([
                push_const(k(1000)),
                push_const(k(100)),
                mk_record(2, at),
                (Op::Select, Args { n: 1, ..Args::ZERO }),
                prim(Prim::IAdd),
            ]);
        }
        code.push((Op::Ret, Args::ZERO));
    }

    fn want(s: &Shape, args: &[i64]) -> i64 {
        let base = match args {
            [] => 7,
            [a] => *a,
            [a, b, ..] => a - b,
        };
        base + (s.nf > 0) as i64 + if s.nfinite >= 3 { 100 } else { 0 }
    }

    /// The region handles for `s`'s formals: region 0, the last one 1.
    fn handles(s: &Shape) -> impl Iterator<Item = (Op, Args)> {
        let nf = s.nf;
        (0..nf).map(move |i| reg_handle(RegSlot::Global((i + 1 == nf) as u32)))
    }

    /// Pushes the call block for `s` and calls `label` (its entry) or
    /// `stub` (its `EnterViaPair`). A known call names the label until
    /// `bind_labels` binds it.
    fn call(
        code: &mut Vec<(Op, Args)>,
        (label, stub): (u32, u32),
        s: &Shape,
        via: Via,
        args: &[i64],
        tail: bool,
        k: &dyn Fn(i64) -> u64,
    ) {
        let n = s.nargs;
        match via {
            Via::Known => {
                code.push(push_const(k(0)));
                code.extend(handles(s));
                code.extend(args.iter().map(|&a| push_const(k(a))));
                let x = Args {
                    t: label,
                    n,
                    m: s.nf,
                    flag: tail,
                    ..Args::ZERO
                };
                code.push((Op::Call, x));
            }
            Via::Pair => {
                code.extend([push_const(scalar(stub as i64)), push_const(k(0))]);
                code.extend(handles(s));
                code.push(mk_record(2 + s.nf, RegSlot::Global(0)));
                code.extend(args.iter().map(|&a| push_const(k(a))));
                let x = Args {
                    n,
                    flag: tail,
                    ..Args::ZERO
                };
                code.push((Op::CallClos, x));
            }
        }
    }

    /// The program `code` emits, its labels bound.
    fn program(
        code: &[(Op, Args)],
        mut c: ThreadedCode,
        funs: Vec<FunInfo>,
        globals: usize,
    ) -> Program {
        for &(op, x) in code {
            c.emit(op, x);
        }
        c.bind_labels();
        Program {
            code: c,
            funs,
            main: 0,
            global_infinite: vec![0; globals],
            exn_names: vec![],
            result_ty: LTy::Int,
            data: DataEnv::default(),
        }
    }

    fn frame(nlocals: u32, nfinite: u32, name: &str) -> FunInfo {
        FunInfo {
            nlocals,
            nfinite,
            name: name.into(),
        }
    }

    /// main calls `hop` (if any), which dirties its locals and tail-calls
    /// the callee; otherwise main calls the callee directly. Tagged and
    /// untagged, at both fusion levels.
    fn run(s: Shape, via: Via, hop: Option<Shape>, args: &[i64]) {
        assert_eq!(args.len(), s.nargs as usize);
        assert!(s.temps >= 1, "a local nobody writes");
        let ctx = format!("{s:?} via {via:?} hop {hop:?}");
        for (tagged, cfg) in [(true, RtConfig::rgt()), (false, RtConfig::r())] {
            let k = move |n: i64| {
                if tagged {
                    scalar(n)
                } else {
                    n as u64
                }
            };
            // Labels: 0 main, 1 callee, 2 callee's stub, 3 hop.
            let (callee_labels, hop_labels) = ((1, 2), (3, 3));
            let mut code = Vec::new();
            let mut c = ThreadedCode {
                pc_of_label: vec![0, 0, 0, u32::MAX],
                fun_of_label: vec![0, 1, 1, u32::MAX],
                ..ThreadedCode::default()
            };
            let mut funs = vec![frame(2, 0, "<main>")];
            // main: junk under the call block, so a slide that strays shows.
            code.push(push_const(k(55555)));
            match &hop {
                None => call(&mut code, callee_labels, &s, via, args, false, &k),
                Some(h) => call(&mut code, hop_labels, h, Via::Known, &[], false, &k),
            }
            // main waits at its call with its two slots in scope.
            c.frame_map = vec![(code.len() as u32, 2)];
            code.push((Op::Halt, Args::ZERO));
            c.pc_of_label[2] = code.len() as u32;
            let x = Args {
                n: s.nf,
                m: s.nargs,
                ..Args::ZERO
            };
            code.push((Op::EnterViaPair, x));
            c.pc_of_label[1] = code.len() as u32;
            callee(&mut code, &s, &k);
            funs.push(frame(s.nlocals(), s.nfinite, "callee"));
            if let Some(h) = &hop {
                (c.pc_of_label[3], c.fun_of_label[3]) = (code.len() as u32, 2);
                for i in 1..h.nlocals() {
                    code.extend([
                        push_const(k(77777)),
                        (Op::Store, Args { a: i, ..Args::ZERO }),
                    ]);
                }
                call(&mut code, callee_labels, &s, via, args, true, &k);
                funs.push(frame(h.nlocals(), h.nfinite, "hop"));
            }
            c.entry_pc = vec![0, c.pc_of_label[1]];
            if hop.is_some() {
                c.entry_pc.push(c.pc_of_label[3]);
            }
            let prog = program(&code, c, funs, 2);
            for fusion in [Fusion::Off, Fusion::Full] {
                let out = Vm::new(&prog, Rt::new(cfg.clone()))
                    .with_fusion(fusion)
                    .run()
                    .expect("vm run");
                let ctx = format!("{ctx} tagged={tagged} {fusion:?}");
                assert_eq!(out.rt.untag_int(out.result), want(&s, args), "{ctx}");
                // Only main's frame and the junk word are left.
                assert_eq!(out.rt.stack.len(), 3, "{ctx}");
            }
        }
    }

    fn shape(nargs: u32, nf: u32, nfinite: u32, temps: u32) -> Shape {
        Shape {
            nargs,
            nf,
            nfinite,
            temps,
        }
    }

    /// Every mix of region formals, finite words and arguments — none,
    /// fewer handles than finite words, more, as many — reached by a known
    /// call and through a stub.
    #[test]
    fn the_call_block_is_the_callees_first_slots() {
        let args = [50, 8, 1];
        for nargs in 0..=3 {
            for nf in [0, 1, 3] {
                for nfinite in [0, 1, 3, 6] {
                    for via in [Via::Known, Via::Pair] {
                        let s = shape(nargs, nf, nfinite, 1 + nfinite % 2);
                        run(s, via, None, &args[..nargs as usize]);
                    }
                }
            }
        }
    }

    /// A closure entered through `EnterViaPair` with two formals and two
    /// arguments: the arguments move up by two and the handles land under
    /// them, from a fresh frame and from a tail call.
    #[test]
    fn a_stub_entry_moves_two_arguments_past_two_formals() {
        let s = shape(2, 2, 3, 2);
        run(s, Via::Pair, None, &[50, 8]);
        run(s, Via::Pair, Some(shape(0, 0, 4, 6)), &[50, 8]);
        run(s, Via::Pair, Some(shape(0, 0, 0, 1)), &[50, 8]);
    }

    /// A tail call onto the frame it replaces, larger or smaller than the
    /// callee's: the block slides down once and no local of the replaced
    /// frame shows through.
    #[test]
    fn a_tail_call_slides_the_block_onto_the_frame_it_replaces() {
        let big = shape(0, 0, 4, 7);
        let small = shape(0, 0, 0, 1);
        for (s, args) in [
            (shape(2, 0, 0, 1), &[50, 8][..]),
            (shape(1, 2, 3, 1), &[6][..]),
            (shape(2, 1, 5, 5), &[50, 8][..]),
            (shape(3, 0, 0, 8), &[50, 8, 3][..]),
        ] {
            for hop in [big, small] {
                for via in [Via::Known, Via::Pair] {
                    run(s, via, Some(hop), args);
                }
            }
        }
    }

    /// The finite area sits between the locals and the operands and is no
    /// root: a dead finite box whose field is the only pointer to a heap
    /// record must not make a forced collection copy the record. Kept on
    /// the operand stack instead, the same box does (the control).
    #[test]
    fn a_dead_finite_box_roots_nothing() {
        const N: u32 = 8;
        let copied = |keep: bool| {
            let mut code: Vec<(Op, Args)> = (0..N).map(|i| push_const(scalar(i as i64))).collect();
            code.extend([
                mk_record(N, RegSlot::Global(0)),
                mk_record(1, RegSlot::Finite(0)),
            ]);
            if !keep {
                code.push((Op::Pop, Args::ZERO));
            }
            code.extend([
                (Op::GcCheck, Args::ZERO),
                push_const(scalar(1)),
                (Op::Halt, Args::ZERO),
            ]);
            let c = ThreadedCode {
                pc_of_label: vec![0],
                fun_of_label: vec![0],
                entry_pc: vec![0],
                ..ThreadedCode::default()
            };
            let prog = program(&code, c, vec![frame(2, 2, "<main>")], 1);
            [Fusion::Off, Fusion::Full].map(|fusion| {
                let mut rt = Rt::new(RtConfig::rgt());
                rt.gc_needed = true;
                let out = Vm::new(&prog, rt)
                    .with_fusion(fusion)
                    .run()
                    .expect("vm run");
                assert_eq!(out.stats.gc_count, 1, "keep={keep} {fusion:?}");
                out.stats.gc_copied_words
            })
        };
        assert_eq!(copied(false), [0, 0], "a finite-area word was a root");
        let [kept, _] = copied(true);
        assert!(kept > N as u64, "the control copied {kept} words");
    }
}
