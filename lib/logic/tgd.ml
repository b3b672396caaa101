type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
}

let counter = ref 0

let make ?name ~body ~head =
  if body = [] then invalid_arg "Tgd.make: empty body";
  if head = [] then invalid_arg "Tgd.make: empty head";
  let name =
    match name with
    | Some n -> n
    | None ->
      incr counter;
      Printf.sprintf "r%d" !counter
  in
  { name; body; head }

let vars_of_atoms atoms =
  List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty atoms

let body_vars r = vars_of_atoms r.body
let head_vars r = vars_of_atoms r.head
let frontier r = Symbol.Set.inter (body_vars r) (head_vars r)
let existential_head_vars r = Symbol.Set.diff (head_vars r) (body_vars r)
let existential_body_vars r = Symbol.Set.diff (body_vars r) (head_vars r)

let constants r =
  List.fold_left
    (fun acc a -> Symbol.Set.union acc (Atom.constants a))
    Symbol.Set.empty (r.body @ r.head)

let is_simple r =
  (match r.head with [ _ ] -> true | [] | _ :: _ :: _ -> false)
  && Symbol.Set.is_empty (constants r)
  && not (List.exists Atom.has_repeated_var (r.body @ r.head))

let rename_apart r =
  let mapping = Symbol.Table.create 8 in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> (
      match Symbol.Table.find_opt mapping v with
      | Some v' -> Term.Var v'
      | None ->
        let v' = Symbol.fresh (Symbol.name v) in
        Symbol.Table.add mapping v v';
        Term.Var v')
  in
  {
    r with
    body = List.map (Atom.apply rename) r.body;
    head = List.map (Atom.apply rename) r.head;
  }

let pool_var = Symbol.numbered "#v"

let rename_to_pool r =
  let mapping = Symbol.Table.create 8 in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> (
      match Symbol.Table.find_opt mapping v with
      | Some v' -> Term.Var v'
      | None ->
        let v' = pool_var (Symbol.Table.length mapping) in
        Symbol.Table.add mapping v v';
        Term.Var v')
  in
  let body = List.map (Atom.apply rename) r.body in
  { r with body; head = List.map (Atom.apply rename) r.head }

let single_head_normalize rules =
  let split r =
    match r.head with
    | [ _ ] -> [ r ]
    | head ->
      let aux = Symbol.fresh ("aux_" ^ r.name) in
      let hvars = Symbol.Set.elements (head_vars r) in
      let aux_atom = Atom.make aux (List.map (fun v -> Term.Var v) hvars) in
      let link = make ~name:(r.name ^ "_aux") ~body:r.body ~head:[ aux_atom ] in
      let projections =
        List.mapi
          (fun i h -> make ~name:(Printf.sprintf "%s_h%d" r.name (i + 1)) ~body:[ aux_atom ] ~head:[ h ])
          head
      in
      link :: projections
  in
  List.concat_map split rules

let pp_atoms ppf atoms =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    Atom.pp ppf atoms

let pp ppf r = Format.fprintf ppf "[%s] %a -> %a" r.name pp_atoms r.body pp_atoms r.head
let to_string r = Format.asprintf "%a" pp r
