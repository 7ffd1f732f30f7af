(* kitlife — the game of life on a list of live cells (paper: kitlife,
   region-optimised: each generation is built afresh and the old one dies). *)
val scale = 24
fun memb (x : int, y : int, nil) = false
  | memb (x, y, (a, b) :: rest) =
      (x = a andalso y = b) orelse memb (x, y, rest)
fun neighbours (x, y) =
  [(x-1, y-1), (x, y-1), (x+1, y-1),
   (x-1, y),             (x+1, y),
   (x-1, y+1), (x, y+1), (x+1, y+1)]
fun count (cell, board) =
  length (filter (fn (a, b) => memb (a, b, board)) (neighbours cell))
fun survivors (nil, board) = nil
  | survivors (c :: cs, board) =
      let val n = count (c, board)
      in if n = 2 orelse n = 3 then c :: survivors (cs, board)
         else survivors (cs, board)
      end
fun candidates (nil, acc) = acc
  | candidates (c :: cs, acc) = candidates (cs, neighbours c @ acc)
fun dedup (nil, acc) = acc
  | dedup ((x, y) :: rest, acc) =
      if memb (x, y, acc) then dedup (rest, acc) else dedup (rest, (x, y) :: acc)
fun births (board) =
  let
    val cand = dedup (candidates (board, nil), nil)
  in
    filter (fn (a, b) => not (memb (a, b, board)) andalso count ((a, b), board) = 3) cand
  end
fun step board = survivors (board, board) @ births board
fun run (0, board) = board
  | run (n, board) = run (n - 1, step board)
(* An R-pentomino-ish seed. *)
val seed = [(10, 10), (11, 10), (9, 11), (10, 11), (10, 12)]
val final = run (scale, seed)
val it = length final
