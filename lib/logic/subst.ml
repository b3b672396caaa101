type t = Term.t Symbol.Map.t

let empty = Symbol.Map.empty

let bind v t s =
  if Symbol.Map.mem v s then invalid_arg "Subst.bind: variable already bound";
  Symbol.Map.add v t s

let rec walk s t =
  match t with
  | Term.Const _ -> t
  | Term.Var v -> (
    match Symbol.Map.find_opt v s with
    | None -> t
    | Some t' -> walk s t')

let apply_atom s a = Atom.apply (walk s) a
let apply_atoms s atoms = List.map (apply_atom s) atoms
let apply_terms s terms = List.map (walk s) terms

let of_list l = List.fold_left (fun s (v, t) -> bind v t s) empty l
