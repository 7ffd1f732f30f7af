(* accum — a tight loop whose three accumulators are all live across the
   back-edge, with a conditional bounds guard (`raise` on one arm, unit on
   the other) joining back into the loop body: the carry pattern the
   cross-block register pass exists for. *)
val scale = 1500
exception Bound
fun go (i, a, b, c) =
  if i = 0 then a + b * 3 + c * 7
  else
    let val a2 = (a + i) mod 1048573
        val b2 = (b + a2) mod 65521
        val c2 = if b2 > c then b2 - c else c - b2
        val _ = if a2 < 0 then raise Bound else ()
    in go (i - 1, a2, b2, c2) end
fun runs (0, acc) = acc
  | runs (n, acc) =
      runs (n - 1, (acc + (go (2000, n, n * 2, 1) handle Bound => 0)) mod 999983)
val it = runs (scale, 0)
