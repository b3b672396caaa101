open Tgd_logic
open Tgd_db

type t = {
  rule : Tgd.t;
  env : Eval.env;
}

let key tr =
  let frontier = Symbol.Set.elements (Tgd.frontier tr.rule) in
  let values =
    Array.of_list
      (List.map
         (fun v ->
           match Symbol.Map.find_opt v tr.env with
           | Some value -> value
           | None -> invalid_arg "Trigger.key: unbound frontier variable")
         frontier)
  in
  (tr.rule.Tgd.name, values)

let is_satisfied ?gov tr inst =
  let frontier = Tgd.frontier tr.rule in
  let init = Symbol.Map.filter (fun v _ -> Symbol.Set.mem v frontier) tr.env in
  let found = ref false in
  (try
     Eval.bindings ?gov ~init inst tr.rule.Tgd.head (fun _ ->
         found := true;
         raise Exit)
   with Exit -> ());
  !found

let head_facts tr gen =
  let ex_vars = Tgd.existential_head_vars tr.rule in
  let nulls =
    Symbol.Set.fold (fun v acc -> Symbol.Map.add v (Null_gen.next gen) acc) ex_vars Symbol.Map.empty
  in
  let value t =
    match t with
    | Term.Const c -> Value.Const c
    | Term.Var v -> (
      match Symbol.Map.find_opt v tr.env with
      | Some value -> value
      | None -> (
        match Symbol.Map.find_opt v nulls with
        | Some value -> value
        | None -> invalid_arg "Trigger.head_facts: unbound head variable"))
  in
  List.map (fun (a : Atom.t) -> (a.Atom.pred, Array.map value a.Atom.args)) tr.rule.Tgd.head

let bindings ?gov inst body ~delta k =
  match delta with
  | None -> Eval.bindings ?gov inst body k
  | Some delta ->
    List.iteri
      (fun i (a : Atom.t) ->
        match Symbol.Table.find_opt delta a.Atom.pred with
        | None | Some [] -> ()
        | Some tuples -> Eval.bindings ?gov ~forced:(i, tuples) inst body k)
      body

let find_new ?gov program inst ~delta =
  let triggers = ref [] in
  List.iter
    (fun (r : Tgd.t) ->
      bindings ?gov inst r.Tgd.body ~delta (fun env -> triggers := { rule = r; env } :: !triggers))
    (Program.tgds program);
  List.rev !triggers
