(* livechurn — owned by the benchmark, not one of the paper's programs.
   A list of `scale` * 500 nested pairs stays reachable through `live` for
   the whole run (and is rebuilt once on the way), while the loop keeps storing
   short lists of wide tuples into `scratch`. A value stored into a ref must
   live in the ref's region, so region inference cannot put the short lists
   into a local region: they land beside the long-lived cells, die one
   iteration later, and only the collector gets them back — by copying the
   whole live list every time. Small live objects make a copied word dear,
   wide garbage tuples make an allocated word cheap; at the default heap-to-
   live ratio that puts collector time at a third of the run in both `gt` and
   `rgt` (0.36 and 0.33 at scale 20; README, "First readings").

   The paper's programs cannot reach that share. They keep little alive — a
   collection copies 1–7 thousand words in `lexgen` and `book`, 20–45
   thousand in `msort` and `churn`, 90 thousand here — and they execute 5 to
   18 interpreter instructions per allocated word where this loop executes
   under 2, so the interpreter's own work dominates: collector time is 0.20
   to 0.24 of `churn.gt` and under 0.15 of every other cell. *)
val scale = 20
val cells = scale * 500
fun build_live (n, k, acc) =
  if n < 1 then acc else build_live (n - 1, k, ((n, k), (k, n)) :: acc)
fun build_scratch (n, k, acc) =
  if n < 1 then acc
  else build_scratch (n - 1, k,
                      (n, k, n, k, n, k, n, k, n, k, n, k)
                      :: (k, n, k, n, k, n, k, n, k, n, k, n) :: acc)
fun sum_live (nil, acc) = acc
  | sum_live (((a, b), (c, _)) :: t, acc) =
      sum_live (t, (acc + a + b + c) mod 1000003)
fun first ((a, b, _, _, _, _, _, _, _, _, _, _) :: _) = a + b
  | first _ = 0
val live = ref (build_live (cells, 1, nil))
val scratch = ref (build_scratch (1, 1, nil))
fun loop (i, acc) =
  if i < 1 then acc
  else
    let val _ = scratch := build_scratch (60, i, nil)
        val s = first (!scratch)
        val _ = if i mod (scale * 15) = 0
                then (live := nil; live := build_live (cells, i, nil)) else ()
    in loop (i - 1, (acc + s) mod 1000003) end
val it = (loop (scale * 25, 0) + sum_live (!live, 0)) mod 1000003
