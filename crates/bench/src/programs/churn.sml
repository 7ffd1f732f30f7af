(* churn — mutation-heavy heap pressure for the collector comparison:
   three tables of ref cells (with distinct element types, so region
   inference gives each its own spine/cell regions and a collection
   has several comparably-sized regions to copy) hold
   lists that stay live across the whole run, while the loop keeps
   overwriting slots through `:=`. Every collection therefore copies a
   large live set spread over many regions, and every update is a
   remembered-set entry under the generational baseline. The checksum
   reads old values before dropping them, so a barrier or evacuation
   bug changes the answer. *)
val scale = 600
val slots = 32
val live = 400
val nil2 = (0, 0) :: []
val nil3 = (0, 0, 0) :: []
val nil4 = ((0, 0), 0) :: []
val ta = array (slots, ref nil2)
val tb = array (slots, ref nil3)
val tc = array (slots, ref nil4)
fun inits i =
  if i < slots then
    (aupdate (ta, i, ref nil2); aupdate (tb, i, ref nil3);
     aupdate (tc, i, ref nil4); inits (i + 1))
  else ()
val _ = inits 0
fun build2 n acc = if n < 1 then acc else build2 (n - 1) ((n, n * 3) :: acc)
fun build3 n acc =
  if n < 1 then acc else build3 (n - 1) ((n, n * 3, n * 5) :: acc)
fun build4 n acc =
  if n < 1 then acc else build4 (n - 1) (((n, n * 2), n * 7) :: acc)
fun sum2 xs =
  let fun go ([], acc) = acc
        | go ((a, b) :: t, acc) = go (t, (acc + a + b) mod 1000003)
  in go (xs, 0) end
fun sum3 xs =
  let fun go ([], acc) = acc
        | go ((a, b, c) :: t, acc) = go (t, (acc + a + b + c) mod 1000003)
  in go (xs, 0) end
fun sum4 xs =
  let fun go ([], acc) = acc
        | go (((a, b), c) :: t, acc) = go (t, (acc + a + b + c) mod 1000003)
  in go (xs, 0) end
fun churn (k, seed, check) =
  if k < 1 then check
  else
    let val i = seed mod slots
        val which = (seed div 7) mod 3
        val old =
          if which = 0 then
            let val r = asub (ta, i)
                val s = sum2 (!r)
                val _ = r := build2 live nil2
            in s end
          else if which = 1 then
            let val r = asub (tb, i)
                val s = sum3 (!r)
                val _ = r := build3 live nil3
            in s end
          else
            let val r = asub (tc, i)
                val s = sum4 (!r)
                val _ = r := build4 live nil4
            in s end
        val seed2 = (seed * 48271 + 11) mod 2147483647
    in churn (k - 1, seed2, (check + old) mod 1000003) end
val it = churn (scale, 42, 0)
