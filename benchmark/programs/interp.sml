(* interp — interpreter-in-interpreter: a small higher-order language
   (de Bruijn lambdas, a mutable store) evaluated by a SwitchCon-heavy
   eval loop. Every evaluation allocates closure and environment conses
   that die with the iteration, while the store keeps *closures* alive
   across iterations — their captured environments chain back into
   earlier iterations' regions, the lifetime shape pure region inference
   cannot reclaim (everything lands in one long-lived region and only
   the collector gets the garbage back). *)
val scale = 6000
datatype e =
    K of int
  | V of int
  | Add of e * e
  | Mul of e * e
  | Sub of e * e
  | Iff of e * e * e
  | Lam of e
  | App of e * e
  | LetE of e * e
  | Get of int
  | Put of int * e
datatype v = VI of int | VC of e * v list
exception Stuck
val store = array (8, VI 0)
fun num (VI n) = n
  | num _ = raise Stuck
fun lookup (x :: _, 0) = x
  | lookup (_ :: r, n) = lookup (r, n - 1)
  | lookup (nil, _) = raise Stuck
fun eval (K n, env) = VI n
  | eval (V i, env) = lookup (env, i)
  | eval (Add (a, b), env) =
      VI ((num (eval (a, env)) + num (eval (b, env))) mod 1000003)
  | eval (Mul (a, b), env) =
      VI ((num (eval (a, env)) * num (eval (b, env))) mod 1000003)
  | eval (Sub (a, b), env) = VI (num (eval (a, env)) - num (eval (b, env)))
  | eval (Iff (c, t, f), env) =
      if num (eval (c, env)) > 0 then eval (t, env) else eval (f, env)
  | eval (Lam b, env) = VC (b, env)
  | eval (App (f, a), env) =
      (case eval (f, env) of
         VC (b, cenv) => eval (b, eval (a, env) :: cenv)
       | _ => raise Stuck)
  | eval (LetE (a, b), env) = eval (b, eval (a, env) :: env)
  | eval (Get i, env) = asub (store, i)
  | eval (Put (i, a), env) =
      let val x = eval (a, env)
          val _ = aupdate (store, i, x)
      in x end
(* fn f => fn x => f (f x) *)
val twice = Lam (Lam (App (V 1, App (V 1, V 0))))
val p0 = App (App (twice, Lam (Add (V 0, K 7))), Get 0)
val p1 = LetE (Lam (Mul (V 0, K 3)), App (V 0, Add (Get 1, K 5)))
val p2 = App (App (twice, Lam (Put (2, Add (Get 2, V 0)))), K 1)
val p3 =
  Iff (Sub (Get 0, Get 1),
       App (Lam (Mul (V 0, V 0)), Get 1),
       Add (Get 0, K 11))
(* Store a closure whose environment captures this iteration's values;
   it is applied again several iterations later. *)
val p4 = LetE (Add (Get 0, K 13), Put (3, Lam (Add (V 0, V 1))))
val p5 = App (Get 3, Add (Get 1, K 9))
fun pick i =
  let val k = i mod 6
  in
    if k = 0 then p0
    else if k = 1 then p1
    else if k = 2 then p2
    else if k = 3 then p3
    else if k = 4 then p4
    else p5
  end
fun run (i, acc) =
  if i < 1 then acc
  else
    let val r = (num (eval (pick i, nil))) handle Stuck => ~1
        val _ = aupdate (store, 0, VI ((r + acc) mod 1000003))
        val _ = aupdate (store, 1, VI (i mod 97))
    in run (i - 1, (acc * 31 + r) mod 1000003) end
val it = run (scale, 1)
