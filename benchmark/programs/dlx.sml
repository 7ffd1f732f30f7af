(* dlx — a DLX-style RISC instruction-set simulator (paper: DLX): a
   fetch/decode/execute loop over an array-coded program with registers. *)
val scale = 12000
val ADD = 0 val ADDI = 1 val SUB = 2 val BEQZ = 3 val BNEZ = 4
val LW = 5 val SW = 6 val J = 7 val HALT = 8
(* Encoded program: computes sum of mem[0..31] into r2 in a loop. *)
val prog = array (32, (HALT, 0, 0, 0))
val mem = array (64, 0)
val regs = array (8, 0)
fun init i =
  if i >= 32 then ()
  else (aupdate (mem, i, i * 3 mod 17); init (i + 1))
val _ = init 0
(* r1 = index, r2 = acc, r3 = limit *)
val _ = aupdate (prog, 0, (ADDI, 1, 0, 0))   (* r1 := 0 *)
val _ = aupdate (prog, 1, (ADDI, 2, 0, 0))   (* r2 := 0 *)
val _ = aupdate (prog, 2, (ADDI, 3, 0, 32))  (* r3 := 32 *)
val _ = aupdate (prog, 3, (LW, 4, 1, 0))     (* r4 := mem[r1] *)
val _ = aupdate (prog, 4, (ADD, 2, 2, 4))    (* r2 += r4 *)
val _ = aupdate (prog, 5, (ADDI, 1, 1, 1))   (* r1 += 1 *)
val _ = aupdate (prog, 6, (SUB, 5, 1, 3))    (* r5 := r1 - r3 *)
val _ = aupdate (prog, 7, (BNEZ, 5, 0, 3))   (* if r5 <> 0 goto 3 *)
val _ = aupdate (prog, 8, (HALT, 0, 0, 0))
fun rd r = asub (regs, r)
fun wr (r, v) = if r = 0 then () else aupdate (regs, r, v)
fun exec pc =
  let val (op_, a, b, c) = asub (prog, pc)
  in
    if op_ = HALT then rd 2
    else if op_ = ADD then (wr (a, rd b + rd c); exec (pc + 1))
    else if op_ = ADDI then (wr (a, rd b + c); exec (pc + 1))
    else if op_ = SUB then (wr (a, rd b - rd c); exec (pc + 1))
    else if op_ = LW then (wr (a, asub (mem, rd b + c)); exec (pc + 1))
    else if op_ = SW then (aupdate (mem, rd b + c, rd a); exec (pc + 1))
    else if op_ = BEQZ then (if rd a = 0 then exec c else exec (pc + 1))
    else if op_ = BNEZ then (if rd a <> 0 then exec c else exec (pc + 1))
    else if op_ = J then exec c
    else 0
  end
fun runs (0, acc) = acc
  | runs (n, acc) = runs (n - 1, acc + exec 0)
val it = runs (scale, 0) mod 1000000
