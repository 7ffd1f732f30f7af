(* fib — the Fibonacci micro-benchmark (paper: fib35, scaled).
   Uses only the runtime stack for allocation. *)
val scale = 24
fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
val it = fib scale
