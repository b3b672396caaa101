open Tgd_logic
open Tgd_db

type t = {
  rule : Tgd.t;
  frontier : int array;
}

let frontier_vars r = Symbol.Set.elements (Tgd.frontier r)

let satisfied r =
  let head = Cq.make ~name:r.Tgd.name ~answer:[] ~body:r.Tgd.head and bound = frontier_vars r in
  fun ?gov inst frontier ->
    match Col_eval.iter ?gov ~bound:frontier (Col_eval.compile ~bound inst head) (fun _ -> raise Exit) with
    | () -> false
    | exception Exit -> true

let head_facts tr gen =
  let env =
    Symbol.Set.fold
      (fun v acc -> Symbol.Map.add v (Null_gen.next gen) acc)
      (Tgd.existential_head_vars tr.rule) Symbol.Map.empty
  in
  let env =
    List.fold_left2
      (fun env v code -> Symbol.Map.add v (Value.decode code) env)
      env (frontier_vars tr.rule) (Array.to_list tr.frontier)
  in
  let value = function Term.Const c -> Value.Const c | Term.Var v -> Symbol.Map.find v env in
  List.map (fun (a : Atom.t) -> (a.Atom.pred, Array.map value a.Atom.args)) tr.rule.Tgd.head

let bindings ?gov inst body ~answer ~delta k =
  let q = lazy (Cq.make ~name:"body" ~answer ~body) in
  match delta with
  | None -> Col_eval.iter ?gov (Col_eval.compile inst (Lazy.force q)) k
  | Some delta ->
    List.iteri
      (fun i (a : Atom.t) ->
        match Symbol.Table.find_opt delta a.Atom.pred with
        | None | Some [] -> ()
        | Some rows -> Col_eval.iter ?gov (Col_eval.compile ~forced:(i, rows) inst (Lazy.force q)) k)
      body
