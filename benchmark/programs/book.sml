(* book — order-book/state-machine churn. Two arrays of price levels,
   each level a ref holding a resting (id, qty) list; a deterministic
   LCG drives place/match/cancel actions. Every ref is reachable for the
   whole run, so region inference puts all the cons cells into one
   long-lived region — but matches pop orders off the front and cancels
   rebuild the level list, so most cells die almost immediately and only
   the collector can reclaim them. *)
val scale = 12000
val npx = 32
val bids = array (npx, ref nil)
val asks = array (npx, ref nil)
fun reinit i =
  if i < npx then
    let val _ = aupdate (bids, i, ref nil)
        val _ = aupdate (asks, i, ref nil)
    in reinit (i + 1) end
  else ()
val _ = reinit 0
fun rnd s = (s * 48271) mod 2147483647
fun place (tbl, px, id, q) =
  let val r = asub (tbl, px)
  in r := (id, q) :: !r end
fun cancel (tbl, px, id) =
  let val r = asub (tbl, px)
      fun del nil = nil
        | del ((i, q) :: t) = if i - id = 0 then t else (i, q) :: del t
  in r := del (!r) end
(* Consume up to q quantity off the front of lst; returns the remaining
   level and the notional filled. *)
fun fill (lst, q, acc) =
  case lst of
    nil => (lst, acc)
  | (i, oq) :: t =>
      if q <= 0 then (lst, acc)
      else if oq <= q then fill (t, q - oq, (acc + i * oq) mod 1000003)
      else ((i, oq - q) :: t, (acc + i * q) mod 1000003)
fun match (tbl, px, q) =
  let val r = asub (tbl, px)
      val (rest, got) = fill (!r, q, 0)
      val _ = r := rest
  in got end
fun qtys lst = foldl (fn ((_, q), a) => a + q) 0 lst
fun depthsum (tbl, i, acc) =
  if i < npx then depthsum (tbl, i + 1, (acc + qtys (!(asub (tbl, i)))) mod 1000003)
  else acc
fun run (i, s, acc) =
  if i < 1 then acc
  else
    let val s = rnd s
        val px = s mod npx
        val q = s mod 13 + 1
        val act = (s div 7) mod 5
        val acc =
          if act = 0 then (place (bids, px, i, q); acc)
          else if act = 1 then (place (asks, px, i, q); acc)
          else if act = 2 then (acc + match (asks, px, q)) mod 1000003
          else if act = 3 then (acc + match (bids, px, q)) mod 1000003
          else (cancel (bids, px, i - (s mod 50)); cancel (asks, px, i - (s mod 97)); acc)
        val acc =
          if i mod 64 = 0 then (acc + depthsum (bids, 0, 0) + depthsum (asks, 0, 0)) mod 1000003
          else acc
    in run (i - 1, s, acc) end
val it = run (scale, 20260808, 0)
