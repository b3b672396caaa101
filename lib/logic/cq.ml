type t = {
  name : string;
  answer : Term.t list;
  body : Atom.t list;
}

type ucq = t list

let body_vars body =
  List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body

let make ?(name = "q") ~answer ~body =
  if body = [] then invalid_arg "Cq.make: empty body";
  let bvars = body_vars body in
  let safe =
    List.for_all
      (fun t -> match t with Term.Const _ -> true | Term.Var v -> Symbol.Set.mem v bvars)
      answer
  in
  if not safe then invalid_arg "Cq.make: unsafe query (answer variable not in body)";
  { name; answer; body }

let arity q = List.length q.answer
let is_boolean q = q.answer = []
let vars q = body_vars q.body

let answer_vars q =
  List.fold_left
    (fun acc t -> match t with Term.Var v -> Symbol.Set.add v acc | Term.Const _ -> acc)
    Symbol.Set.empty q.answer

let existential_vars q = Symbol.Set.diff (vars q) (answer_vars q)

let apply s q =
  {
    q with
    answer = Subst.apply_terms s q.answer;
    body = Subst.apply_atoms s q.body;
  }

let rename_with rename q =
  {
    q with
    answer = List.map rename q.answer;
    body = List.map (Atom.apply rename) q.body;
  }

(* The canonical variable names [V0, V1, ...], interned once and reused:
   canonicalization runs on every candidate the rewriting engine generates,
   so per-variable sprintf+intern is measurable there. *)
let canonical_var = Symbol.numbered "V"

let canonical q =
  let mapping = Symbol.Table.create 8 in
  let next = ref 0 in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> (
      match Symbol.Table.find_opt mapping v with
      | Some v' -> Term.Var v'
      | None ->
        let v' = canonical_var !next in
        incr next;
        Symbol.Table.add mapping v v';
        Term.Var v')
  in
  let q = rename_with rename q in
  { q with body = List.sort_uniq Atom.compare q.body }

let equal q1 q2 =
  List.length q1.answer = List.length q2.answer
  && List.length q1.body = List.length q2.body
  && List.for_all2 Term.equal q1.answer q2.answer
  && List.for_all2 Atom.equal q1.body q2.body

let compare q1 q2 =
  let c = List.compare Term.compare q1.answer q2.answer in
  if c <> 0 then c else List.compare Atom.compare q1.body q2.body

let pp ppf q =
  let pp_terms ppf ts =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Term.pp ppf ts
  in
  let pp_atoms ppf atoms =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Atom.pp ppf atoms
  in
  Format.fprintf ppf "%s(%a) :- %a" q.name pp_terms q.answer pp_atoms q.body

let to_string q = Format.asprintf "%a" pp q

let pp_ucq ppf ucq =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp ppf ucq
