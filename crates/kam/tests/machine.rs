//! Abstract-machine tests: calling conventions, tail calls, finite
//! regions, region-polymorphic calls, escaping `fix` functions (stubs),
//! and collection at safe points with deep frame stacks.

use kit_kam::instr::{Instr, RegSlot};
use kit_kam::{compile, Vm};
use kit_lambda::ty::LTy;
use kit_region::RegionOptions;
use kit_runtime::{Rt, RtConfig};

fn run(src: &str, opts: RegionOptions, cfg: RtConfig) -> (String, kit_runtime::RtStats) {
    run_with(src, opts, cfg, &Default::default())
}

fn run_with(
    src: &str,
    opts: RegionOptions,
    cfg: RtConfig,
    optimiser: &kit_lambda::opt::OptOptions,
) -> (String, kit_runtime::RtStats) {
    let mut lprog = kit_typing::compile_str(src).expect("front-end");
    kit_lambda::opt::optimize(&mut lprog, optimiser);
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
    let inner = prog.funs.iter().find(|f| f.name == "fn").expect("the fn");
    let entry = prog.label_addrs[inner.entry];
    let body: Vec<&Instr> = prog.code[entry..]
        .iter()
        .take_while(|i| !matches!(i, Instr::Ret))
        .collect();
    let pairs: Vec<RegSlot> = body
        .iter()
        .filter_map(|i| match i {
            Instr::MkRecord { n: 2, at } => Some(*at),
            _ => None,
        })
        .collect();
    assert!(
        matches!(pairs[..], [RegSlot::EnvReg(_)]),
        "the pair's place: {pairs:?} in {body:?}"
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
    let unoptimised = kit_lambda::opt::OptOptions {
        enabled: false,
        ..Default::default()
    };
    let (res, stats) = run_with(
        src,
        RegionOptions::regions_only(),
        RtConfig::r(),
        &unoptimised,
    );
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
    let asm = kit_kam::disasm::disassemble(&prog);
    assert!(asm.contains("GcCheck"), "{asm}");
    let _ = LTy::Int;
}

// ------------------------------------------------------------ frame push
//
// Hand-assembled programs: the frame push slides the arguments from the
// call block into the callee's local slots, up or down depending on how
// many finite-region words (`nfinite`) the callee puts below its locals
// versus how many region handles (`nf`) the caller pushed below the
// arguments, and a tail call does it onto the frame it replaces.

mod frames {
    use kit_kam::instr::{FunInfo, Instr, RegSlot};
    use kit_kam::{DispatchMode, Program, Vm};
    use kit_lambda::exp::Prim;
    use kit_lambda::ty::{DataEnv, LTy};
    use kit_runtime::{Rt, RtConfig};

    /// A callee frame shape: `nlocals` counts env + arguments + temps.
    struct Shape {
        nargs: u16,
        nf: u16,
        nfinite: u32,
        nlocals: u32,
    }

    fn prim(p: Prim) -> Instr {
        Instr::Prim { p, at: None }
    }

    /// `f(a1..an)` = `(a1 - a2)` (or `a1`, or 7 with fewer arguments)
    /// `+ last local` (never written: must read as 0) `+ last formal`
    /// (region id 1) `+ second field of a finite pair` (if it has room).
    fn callee(code: &mut Vec<Instr>, s: &Shape, k: &dyn Fn(i64) -> u64) {
        match s.nargs {
            0 => code.push(Instr::PushConst(k(7))),
            1 => code.push(Instr::Load(1)),
            _ => code.extend([Instr::Load(1), Instr::Load(2), prim(Prim::ISub)]),
        }
        code.extend([Instr::Load(s.nlocals - 1), prim(Prim::IAdd)]);
        if s.nf > 0 {
            let last = RegSlot::Formal(s.nf as u32 - 1);
            code.extend([Instr::RegHandle(last), prim(Prim::IAdd)]);
        }
        if s.nfinite >= 3 {
            let at = RegSlot::Finite(s.nfinite - 3);
            code.extend([
                Instr::PushConst(k(1000)),
                Instr::PushConst(k(100)),
                Instr::MkRecord { n: 2, at },
                Instr::Select(1),
                prim(Prim::IAdd),
            ]);
        }
        code.push(Instr::Ret);
    }

    fn want(s: &Shape, args: &[i64]) -> i64 {
        let base = match args {
            [] => 7,
            [a] => *a,
            [a, b, ..] => a - b,
        };
        base + (s.nf > 0) as i64 + if s.nfinite >= 3 { 100 } else { 0 }
    }

    /// Pushes `[env][handles…][args…]` and calls `label`.
    fn call(
        code: &mut Vec<Instr>,
        label: usize,
        s: &Shape,
        args: &[i64],
        tail: bool,
        k: &dyn Fn(i64) -> u64,
    ) {
        code.push(Instr::PushConst(k(0)));
        for _ in 0..s.nf {
            code.push(Instr::RegHandle(RegSlot::Global(1)));
        }
        code.extend(args.iter().map(|&a| Instr::PushConst(k(a))));
        code.push(Instr::Call {
            label,
            nargs: s.nargs,
            nformals: s.nf,
            tail,
        });
    }

    /// main calls `via` (if any), which dirties its locals and tail-calls
    /// the callee; otherwise main calls the callee directly.
    fn run(callee_shape: Shape, via: Option<Shape>, args: &[i64]) {
        assert_eq!(args.len(), callee_shape.nargs as usize);
        assert!(
            callee_shape.nlocals as usize >= args.len() + 2,
            "env, arguments and a local nobody writes"
        );
        for (tagged, cfg) in [(true, RtConfig::rgt()), (false, RtConfig::r())] {
            let k = move |n: i64| {
                if tagged {
                    kit_runtime::value::scalar(n)
                } else {
                    n as u64
                }
            };
            let mut code = Vec::new();
            let mut label_addrs = vec![0];
            let mut funs = vec![FunInfo {
                entry: 0,
                nlocals: 2,
                nfinite: 0,
                name: "<main>".into(),
            }];
            // main: junk under the call block, so a slide that strays shows.
            code.push(Instr::PushConst(k(55555)));
            match &via {
                None => call(&mut code, 1, &callee_shape, args, false, &k),
                Some(v) => call(&mut code, 2, v, &[], false, &k),
            }
            code.push(Instr::Halt);
            label_addrs.push(code.len());
            callee(&mut code, &callee_shape, &k);
            funs.push(FunInfo {
                entry: 1,
                nlocals: callee_shape.nlocals,
                nfinite: callee_shape.nfinite,
                name: "callee".into(),
            });
            if let Some(v) = &via {
                label_addrs.push(code.len());
                for i in 1..v.nlocals {
                    code.extend([Instr::PushConst(k(77777)), Instr::Store(i)]);
                }
                call(&mut code, 1, &callee_shape, args, true, &k);
                funs.push(FunInfo {
                    entry: 2,
                    nlocals: v.nlocals,
                    nfinite: v.nfinite,
                    name: "via".into(),
                });
            }
            let prog = Program {
                code,
                label_addrs,
                entry_of: (0..funs.len()).map(|i| (i, i as u32)).collect(),
                funs,
                main: 0,
                global_infinite: vec![0, 0],
                exn_names: vec![],
                result_ty: LTy::Int,
                data: DataEnv::default(),
            };
            for dispatch in DispatchMode::ALL {
                let out = Vm::new(&prog, Rt::new(cfg.clone()))
                    .with_dispatch(dispatch)
                    .run()
                    .expect("vm run");
                assert_eq!(
                    out.rt.untag_int(out.result),
                    want(&callee_shape, args),
                    "tagged={tagged} {dispatch:?}"
                );
                // Only main's frame and the junk word are left.
                assert_eq!(out.rt.stack.len(), 3, "tagged={tagged} {dispatch:?}");
            }
        }
    }

    #[test]
    fn arguments_slide_up_when_finite_slots_outnumber_handles() {
        run(
            Shape {
                nargs: 2,
                nf: 0,
                nfinite: 4,
                nlocals: 5,
            },
            None,
            &[50, 8],
        );
        run(
            Shape {
                nargs: 3,
                nf: 1,
                nfinite: 6,
                nlocals: 5,
            },
            None,
            &[50, 8, 1],
        );
    }

    #[test]
    fn overlapping_slide_up_copies_from_the_top() {
        // Three arguments move up by one slot.
        run(
            Shape {
                nargs: 3,
                nf: 0,
                nfinite: 1,
                nlocals: 5,
            },
            None,
            &[9, 4, 1],
        );
    }

    #[test]
    fn arguments_slide_down_when_handles_outnumber_finite_slots() {
        run(
            Shape {
                nargs: 2,
                nf: 3,
                nfinite: 0,
                nlocals: 6,
            },
            None,
            &[50, 8],
        );
        // Overlapping: three arguments move down by one.
        run(
            Shape {
                nargs: 3,
                nf: 1,
                nfinite: 0,
                nlocals: 5,
            },
            None,
            &[9, 4, 1],
        );
    }

    #[test]
    fn arguments_stay_put_when_the_two_cancel() {
        run(
            Shape {
                nargs: 2,
                nf: 3,
                nfinite: 3,
                nlocals: 4,
            },
            None,
            &[50, 8],
        );
    }

    #[test]
    fn a_call_without_arguments_builds_a_clean_frame() {
        run(
            Shape {
                nargs: 0,
                nf: 0,
                nfinite: 0,
                nlocals: 3,
            },
            None,
            &[],
        );
        run(
            Shape {
                nargs: 0,
                nf: 2,
                nfinite: 5,
                nlocals: 2,
            },
            None,
            &[],
        );
    }

    #[test]
    fn tail_call_onto_a_larger_frame_leaves_no_stale_locals() {
        let big = Shape {
            nargs: 0,
            nf: 0,
            nfinite: 4,
            nlocals: 8,
        };
        run(
            Shape {
                nargs: 2,
                nf: 0,
                nfinite: 0,
                nlocals: 4,
            },
            Some(big),
            &[50, 8],
        );
        let big = Shape {
            nargs: 0,
            nf: 0,
            nfinite: 4,
            nlocals: 8,
        };
        run(
            Shape {
                nargs: 1,
                nf: 2,
                nfinite: 3,
                nlocals: 3,
            },
            Some(big),
            &[6],
        );
    }

    #[test]
    fn tail_call_onto_a_smaller_frame_grows_a_clean_one() {
        let small = Shape {
            nargs: 0,
            nf: 0,
            nfinite: 0,
            nlocals: 2,
        };
        run(
            Shape {
                nargs: 2,
                nf: 1,
                nfinite: 5,
                nlocals: 9,
            },
            Some(small),
            &[50, 8],
        );
        let small = Shape {
            nargs: 0,
            nf: 0,
            nfinite: 0,
            nlocals: 2,
        };
        run(
            Shape {
                nargs: 3,
                nf: 0,
                nfinite: 0,
                nlocals: 12,
            },
            Some(small),
            &[50, 8, 3],
        );
    }
}
