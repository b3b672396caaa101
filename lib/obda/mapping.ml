open Tgd_logic
open Tgd_db

type t = {
  name : string;
  source : Atom.t list;
  target : Atom.t;
}

let counter = ref 0

let make ?name ~source ~target =
  if source = [] then invalid_arg "Mapping.make: empty source query";
  let source_vars =
    List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty source
  in
  if not (Symbol.Set.subset (Atom.vars target) source_vars) then
    invalid_arg "Mapping.make: unsafe mapping (target variable not in source)";
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "m%d" !counter
  in
  { name; source; target }

let target_pred m = m.target.Atom.pred

let for_pred mappings pred =
  List.filter (fun m -> Symbol.equal (target_pred m) pred) mappings

let materialize mappings source_db =
  let abox = Instance.create () in
  List.iter
    (fun m ->
      let q = Cq.make ~name:m.name ~answer:(Array.to_list m.target.Atom.args) ~body:m.source in
      Col_eval.iter (Col_eval.compile source_db q) (fun codes ->
          ignore (Instance.add_fact abox m.target.Atom.pred (Array.map Value.decode codes))))
    mappings;
  abox

let rename_apart m =
  let table = Symbol.Table.create 8 in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> (
      match Symbol.Table.find_opt table v with
      | Some v' -> Term.Var v'
      | None ->
        let v' = Symbol.fresh (Symbol.name v) in
        Symbol.Table.add table v v';
        Term.Var v')
  in
  { m with source = List.map (Atom.apply rename) m.source; target = Atom.apply rename m.target }

let pp ppf m =
  let atoms ppf l =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Atom.pp ppf l
  in
  Format.fprintf ppf "[%s] %a ~> %a" m.name atoms m.source Atom.pp m.target
