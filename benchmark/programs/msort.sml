(* msort — merge sort of pseudo-random integers (paper: sorting 100,000
   integers; scaled). Region-friendly: intermediate lists die quickly. *)
val scale = 4000
fun split (nil, a, b) = (a, b)
  | split (x :: rest, a, b) = split (rest, x :: b, a)
fun merge (nil, ys) = ys
  | merge (xs, nil) = xs
  | merge (x :: xs, y :: ys) =
      if x <= y then x :: merge (xs, y :: ys) else y :: merge (x :: xs, ys)
fun msort nil = nil
  | msort [x] = [x]
  | msort xs = let val (a, b) = split (xs, nil, nil) in merge (msort a, msort b) end
fun mk (0, seed, acc) = acc
  | mk (n, seed, acc) =
      let val s = (seed * 1103515245 + 12345) mod 2147483648
      in mk (n - 1, s, s mod 100000 :: acc) end
val input = mk (scale, 42, nil)
val sorted = msort input
fun check (x :: y :: rest) = if x <= y then check (y :: rest) else 0
  | check _ = 1
val it = check sorted * length sorted
