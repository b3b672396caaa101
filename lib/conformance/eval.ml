open Tgd_logic
open Tgd_db

type env = Value.t Symbol.Map.t

(* The value a [Const] or [Check] argument requires under [env]. *)
let required env = function
  | Join_plan.Const c -> Value.Const c
  | Join_plan.Check v | Join_plan.Bind v -> Symbol.Map.find v env

(* Match a step's atom against a tuple under [env]; return the extended
   environment on success. *)
let match_tuple env (args : Join_plan.arg array) (t : Tuple.t) =
  let n = Array.length args in
  if Array.length t <> n then None
  else
    let rec loop env i =
      if i >= n then Some env
      else
        match args.(i) with
        | Join_plan.Bind v -> loop (Symbol.Map.add v t.(i) env) (i + 1)
        | arg -> if Value.equal t.(i) (required env arg) then loop env (i + 1) else None
    in
    loop env 0

let relation_size inst (a : Atom.t) =
  match Instance.relation inst a.Atom.pred with
  | None -> 0
  | Some rel -> Relation.cardinality rel

(* Candidate tuples for a step under [env]: an index lookup on the probe
   column if any, otherwise a full scan. The relation is fetched afresh at
   every node: the chase adds facts, and may create a relation, from inside
   the join callback. *)
let candidates inst env (s : Join_plan.step) =
  match Instance.relation inst s.Join_plan.atom.Atom.pred with
  | None -> []
  | Some rel -> (
    match s.Join_plan.probe with
    | None -> Relation.to_list rel
    | Some pos -> Relation.lookup rel ~pos (required env s.Join_plan.args.(pos)))

let bindings ?gov ?(init = Symbol.Map.empty) ?forced inst atoms k =
  let forced_index, forced_tuples =
    match forced with Some (i, ts) -> (i, ts) | None -> (-1, [])
  in
  let plan =
    Join_plan.make
      ~init:(fun v -> Symbol.Map.mem v init)
      ~forced:forced_index
      ~sizes:(Array.of_list (List.map (relation_size inst) atoms))
      atoms
  in
  let depth = Array.length plan in
  (* Join-search loop head: a governed evaluation stops emitting bindings
     once the governor trips (partial answers — the caller learns about the
     truncation from the governor, not from us). *)
  let live =
    match gov with
    | None -> fun () -> true
    | Some g ->
      let steps = Tgd_exec.Governor.meter g Tgd_exec.Budget.key_eval_steps in
      fun () ->
        Tgd_exec.Governor.tick steps;
        Tgd_exec.Governor.live g
  in
  let rec go env d =
    if not (live ()) then ()
    else if d = depth then k env
    else
      let s = plan.(d) in
      let tuples =
        if s.Join_plan.index = forced_index then forced_tuples else candidates inst env s
      in
      List.iter
        (fun t ->
          match match_tuple env s.Join_plan.args t with
          | None -> ()
          | Some env' -> go env' (d + 1))
        tuples
  in
  go init 0

let answer_tuple env answer =
  let value = function
    | Term.Const c -> Value.Const c
    | Term.Var v -> (
      match Symbol.Map.find_opt v env with
      | Some value -> value
      | None -> invalid_arg "Eval.answer_tuple: unbound answer variable")
  in
  Array.of_list (List.map value answer)

exception Found

let cq_exists ?gov inst q =
  try
    bindings ?gov inst q.Cq.body (fun _ -> raise Found);
    false
  with Found -> true

let ucq ?gov inst disjuncts =
  let acc = ref [] in
  List.iter
    (fun (q : Cq.t) -> bindings ?gov inst q.Cq.body (fun env -> acc := answer_tuple env q.Cq.answer :: !acc))
    disjuncts;
  List.sort_uniq Tuple.compare !acc

let cq ?gov inst q = ucq ?gov inst [ q ]
