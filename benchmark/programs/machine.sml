(* machine — a datatype-coded stack-machine interpreter: every opcode is
   a constructor, so the dispatch `case` is a SwitchCon whose arms all
   jump back to the loop head with (pc, sp) live across the edge — the
   shape straight-line register allocation wins nothing on. *)
val scale = 2500
datatype tok =
    Push of int | Add | Sub | Dup | Swap | Over | Drop
  | Jnz of int | Done
exception Crash
val code = array (16, Done)
(* sum 1..n: stack is (acc, i); body rotates with Swap/Over. *)
val _ = aupdate (code, 0, Push 0)    (* acc *)
val _ = aupdate (code, 1, Push 40)   (* i — patched per run *)
val _ = aupdate (code, 2, Dup)       (* loop: acc i i *)
val _ = aupdate (code, 3, Jnz 6)     (* body if i <> 0 *)
val _ = aupdate (code, 4, Drop)      (* acc *)
val _ = aupdate (code, 5, Done)
val _ = aupdate (code, 6, Swap)      (* i acc *)
val _ = aupdate (code, 7, Over)      (* i acc i *)
val _ = aupdate (code, 8, Add)       (* i acc+i *)
val _ = aupdate (code, 9, Swap)      (* acc+i i *)
val _ = aupdate (code, 10, Push 1)
val _ = aupdate (code, 11, Sub)      (* acc' i-1 *)
val _ = aupdate (code, 12, Push 1)
val _ = aupdate (code, 13, Jnz 2)    (* back-edge *)
val stksz = 16
val stk = array (stksz, 0)
fun push (sp, v) =
  if sp >= stksz then raise Crash else (aupdate (stk, sp, v); sp + 1)
fun peek sp = if sp < 1 then raise Crash else asub (stk, sp - 1)
fun step (pc, sp) =
  case asub (code, pc) of
    Push k => step (pc + 1, push (sp, k))
  | Add =>
      let val b = peek sp
          val a = peek (sp - 1)
          val _ = aupdate (stk, sp - 2, a + b)
      in step (pc + 1, sp - 1) end
  | Sub =>
      let val b = peek sp
          val a = peek (sp - 1)
          val _ = aupdate (stk, sp - 2, a - b)
      in step (pc + 1, sp - 1) end
  | Dup => step (pc + 1, push (sp, peek sp))
  | Swap =>
      let val b = peek sp
          val a = peek (sp - 1)
          val _ = aupdate (stk, sp - 2, b)
          val _ = aupdate (stk, sp - 1, a)
      in step (pc + 1, sp) end
  | Over => step (pc + 1, push (sp, peek (sp - 1)))
  | Drop => if sp < 1 then raise Crash else step (pc + 1, sp - 1)
  | Jnz t => if peek sp <> 0 then step (t, sp - 1) else step (pc + 1, sp - 1)
  | Done => peek sp
fun runs (0, acc) = acc
  | runs (n, acc) =
      let val _ = aupdate (code, 1, Push (20 + n mod 17))
          val r = step (0, 0) handle Crash => ~1
      in runs (n - 1, (acc + r) mod 1048573) end
val it = runs (scale, 0)
