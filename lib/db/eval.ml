open Tgd_logic

type env = Value.t Symbol.Map.t

(* Try to match an atom against a tuple under [env]; return the extended
   environment on success. *)
let match_tuple env (a : Atom.t) (t : Tuple.t) =
  let n = Array.length a.Atom.args in
  if Array.length t <> n then None
  else
    let rec loop env i =
      if i >= n then Some env
      else
        match a.Atom.args.(i) with
        | Term.Const c -> if Value.equal t.(i) (Value.Const c) then loop env (i + 1) else None
        | Term.Var v -> (
          match Symbol.Map.find_opt v env with
          | Some value -> if Value.equal t.(i) value then loop env (i + 1) else None
          | None -> loop (Symbol.Map.add v t.(i) env) (i + 1))
    in
    loop env 0

(* A bound position: one whose value is fixed by the environment. *)
let bound_value env (a : Atom.t) i =
  match a.Atom.args.(i) with
  | Term.Const c -> Some (Value.Const c)
  | Term.Var v -> Symbol.Map.find_opt v env

let count_bound env a =
  let n = Atom.arity a in
  let rec loop i acc = if i >= n then acc else loop (i + 1) (acc + if Option.is_some (bound_value env a i) then 1 else 0) in
  loop 0 0

let unbound_vars env (b : Atom.t) =
  Array.fold_left
    (fun acc t ->
      match t with
      | Term.Var v when not (Symbol.Map.mem v env) -> v :: acc
      | Term.Var _ | Term.Const _ -> acc)
    [] b.Atom.args

(* Does atom [i] share a variable, still unbound under the current
   environment, with another remaining atom? An atom with no such variable
   is isolated: choosing it early turns the join into a cross product that
   multiplies all later work by its cardinality, so the planner sinks
   isolated atoms below joinable ones. [unbound] is the per-step memo of
   every remaining atom's unbound variables — computed once per planning
   step, not once per candidate pair, which kept the old selection
   quadratic in the body size at every join level. *)
let joins_ahead unbound i =
  match List.assoc_opt i unbound with
  | None | Some [] -> false
  | Some mine ->
    List.exists
      (fun (j, theirs) ->
        j <> i
        && List.exists (fun v -> List.exists (fun w -> Symbol.compare v w = 0) theirs) mine)
      unbound

let relation_size inst (a : Atom.t) =
  match Instance.relation inst a.Atom.pred with
  | None -> 0
  | Some rel -> Relation.cardinality rel

(* Candidate tuples for an atom under [env]: an index lookup on the first
   bound position if any, otherwise a full scan. *)
let candidates inst env (a : Atom.t) =
  match Instance.relation inst a.Atom.pred with
  | None -> []
  | Some rel ->
    let n = Atom.arity a in
    let rec first_bound i =
      if i >= n then None
      else match bound_value env a i with Some v -> Some (i, v) | None -> first_bound (i + 1)
    in
    (match first_bound 0 with
    | Some (pos, v) -> Relation.lookup rel ~pos v
    | None -> Relation.to_list rel)

let bindings ?gov ?(init = Symbol.Map.empty) ?forced inst atoms k =
  (* Tag atoms with their position so the forced atom can be recognised
     after reordering, and with their relation's cardinality so the
     per-step selection does not re-query the instance. *)
  let tagged = List.mapi (fun i a -> (i, a, relation_size inst a)) atoms in
  let forced_index, forced_tuples =
    match forced with Some (i, ts) -> (i, ts) | None -> (-1, [])
  in
  (* Join-search loop head: a governed evaluation stops emitting bindings
     once the governor trips (partial answers — the caller learns about the
     truncation from the governor, not from us). *)
  let live =
    match gov with
    | None -> fun () -> true
    | Some g ->
      fun () ->
        Tgd_exec.Governor.charge g Tgd_exec.Budget.key_eval_steps;
        Tgd_exec.Governor.live g
  in
  let rec go env remaining =
    if not (live ()) then ()
    else
      match remaining with
      | [] -> k env
      | _ ->
      (* Adaptive greedy choice: forced atom first, then most bound
         positions, then atoms joined to the rest through a still-unbound
         shared variable (isolated atoms cross-product, so they go last),
         then smaller relation. *)
      let unbound = List.map (fun (i, a, _) -> (i, unbound_vars env a)) remaining in
      let score (i, a, size) =
        if i = forced_index then (max_int, 0, 0)
        else
          ( count_bound env a,
            (if joins_ahead unbound i then 1 else 0),
            -size )
      in
      let best =
        List.fold_left
          (fun acc x ->
            match acc with
            | None -> Some x
            | Some y -> if score x > score y then Some x else acc)
          None remaining
      in
      (match best with
      | None -> assert false
      | Some (i, a, _) ->
        let rest = List.filter (fun (j, _, _) -> j <> i) remaining in
        let tuples = if i = forced_index then forced_tuples else candidates inst env a in
        List.iter
          (fun t -> match match_tuple env a t with None -> () | Some env' -> go env' rest)
          tuples)
  in
  go init tagged

let answer_tuple env answer =
  let value = function
    | Term.Const c -> Value.Const c
    | Term.Var v -> (
      match Symbol.Map.find_opt v env with
      | Some value -> value
      | None -> invalid_arg "Eval.answer_tuple: unbound answer variable")
  in
  Array.of_list (List.map value answer)

let collect ?gov inst (q : Cq.t) acc =
  bindings ?gov inst q.Cq.body (fun env ->
      let t = answer_tuple env q.Cq.answer in
      if not (Tuple.Table.mem acc t) then Tuple.Table.add acc t ())

let cq ?gov inst q =
  let acc = Tuple.Table.create 64 in
  collect ?gov inst q acc;
  Tuple.Table.fold (fun t () l -> t :: l) acc [] |> List.sort Tuple.compare

exception Found

let cq_exists ?gov inst q =
  try
    bindings ?gov inst q.Cq.body (fun _ -> raise Found);
    false
  with Found -> true

let ucq ?gov inst disjuncts =
  let acc = Tuple.Table.create 64 in
  List.iter (fun q -> collect ?gov inst q acc) disjuncts;
  Tuple.Table.fold (fun t () l -> t :: l) acc [] |> List.sort Tuple.compare
