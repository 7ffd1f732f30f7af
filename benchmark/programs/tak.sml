(* tak — the Takeuchi micro-benchmark (paper: tak).
   Uses only the runtime stack for allocation. *)
val scale = 7
fun tak (x, y, z) =
  if y >= x then z
  else tak (tak (x - 1, y, z), tak (y - 1, z, x), tak (z - 1, x, y))
val it = tak (scale + 11, scale + 5, scale)
