(* lexgen — lexer-generator analog (paper: lexgen): NFA-to-DFA subset
   construction over a synthetic automaton, with state sets as sorted int
   lists and a worklist algorithm. *)
val scale = 130
fun insert (x : int, nil) = [x]
  | insert (x, y :: ys) =
      if x = y then y :: ys else if x < y then x :: y :: ys else y :: insert (x, ys)
fun union (nil, s) = s
  | union (x :: xs, s) = union (xs, insert (x, s))
fun seteq (nil : int list, nil : int list) = true
  | seteq (x :: xs, y :: ys) = x = y andalso seteq (xs, ys)
  | seteq (_, _) = false
(* Synthetic NFA: from state q on symbol a, go to {(q*2+a) mod N, (q+3) mod N}. *)
fun delta (n, q, a) = insert ((q * 2 + a) mod n, [(q + 3 + a) mod n])
fun move (n, nil, a) = nil
  | move (n, q :: qs, a) = union (delta (n, q, a), move (n, qs, a))
fun lookup (s, nil, i) = ~1
  | lookup (s, t :: ts, i) = if seteq (s, t) then i else lookup (s, ts, i + 1)
fun subset n =
  let
    fun go (nil, seen, edges) = (length seen, edges)
      | go (s :: work, seen, edges) =
          let
            val t0 = move (n, s, 0)
            val t1 = move (n, s, 1)
            fun add (t, (work, seen, extra)) =
                if lookup (t, seen, 0) >= 0 then (work, seen, extra)
                else (t :: work, seen @ [t], extra + 1)
            val (w1, s1, e1) = add (t0, (work, seen, 0))
            val (w2, s2, e2) = add (t1, (w1, s1, e1))
          in
            go (w2, s2, edges + 2)
          end
  in go ([[0]], [[0]], 0) end
fun iter (0, acc) = acc
  | iter (k, acc) =
      let val (states, edges) = subset (k mod 17 + 8)
      in iter (k - 1, acc + states + edges) end
val it = iter (scale, 0)
