open Tgd_logic

type t = { relations : Relation.t Symbol.Table.t }
type fact = Symbol.t * Tuple.t

let create () = { relations = Symbol.Table.create 32 }

(* [Symbol.Table.copy] keeps the bucket layout, so the copy iterates its
   relations in the original's order: how many copies an instance went
   through never shows in iteration order (EGD substitution walks it). *)
let copy inst =
  let relations = Symbol.Table.copy inst.relations in
  Symbol.Table.filter_map_inplace (fun _ rel -> Some (Relation.copy rel)) relations;
  { relations }

let relation inst pred = Symbol.Table.find_opt inst.relations pred

let relation_for inst pred ~arity =
  match Symbol.Table.find_opt inst.relations pred with
  | Some rel ->
    if Relation.arity rel <> arity then
      invalid_arg
        (Printf.sprintf "Instance: predicate %s used with arities %d and %d" (Symbol.name pred)
           (Relation.arity rel) arity);
    rel
  | None ->
    let rel = Relation.create ~arity in
    Symbol.Table.add inst.relations pred rel;
    rel

let add_fact inst pred t = Relation.insert (relation_for inst pred ~arity:(Array.length t)) t

let install_relation inst pred rel =
  (match Symbol.Table.find_opt inst.relations pred with
  | Some existing when Relation.arity existing <> Relation.arity rel ->
    invalid_arg
      (Printf.sprintf "Instance.install_relation: predicate %s used with arities %d and %d"
         (Symbol.name pred) (Relation.arity existing) (Relation.arity rel))
  | Some _ | None -> ());
  Symbol.Table.replace inst.relations pred rel

let add_ground_atom inst a =
  let t = Array.map Value.of_term a.Atom.args in
  add_fact inst a.Atom.pred t

let predicates inst =
  Symbol.Table.fold (fun pred rel acc -> (pred, Relation.arity rel) :: acc) inst.relations []
  |> List.sort (fun (p1, _) (p2, _) -> Symbol.compare p1 p2)

let cardinality inst =
  Symbol.Table.fold (fun _ rel acc -> acc + Relation.cardinality rel) inst.relations 0

let iter_facts f inst =
  Symbol.Table.iter (fun pred rel -> Relation.iter (fun t -> f (pred, t)) rel) inst.relations

let facts inst =
  let acc = ref [] in
  iter_facts (fun fact -> acc := fact :: !acc) inst;
  !acc

let to_atoms inst =
  let acc = ref [] in
  iter_facts
    (fun (pred, t) -> acc := Atom.make pred (Array.to_list (Array.map Value.to_term t)) :: !acc)
    inst;
  !acc

let of_atoms atoms =
  let inst = create () in
  List.iter (fun a -> ignore (add_ground_atom inst a)) atoms;
  inst

let substitute inst ~from_ ~to_ =
  let fresh = ref [] in
  Symbol.Table.iter
    (fun pred rel ->
      List.iter
        (fun t -> fresh := (pred, t) :: !fresh)
        (Relation.substitute rel ~from_ ~to_))
    inst.relations;
  !fresh

let max_null inst =
  let best = ref 0 in
  iter_facts
    (fun (_, t) ->
      Array.iter
        (fun v -> match v with Value.Null n -> if n > !best then best := n | _ -> ())
        t)
    inst;
  !best

let seal inst = Symbol.Table.iter (fun _ rel -> Relation.seal rel) inst.relations

let pp ppf inst =
  let pp_fact ppf (pred, t) = Format.fprintf ppf "%a%a" Symbol.pp pred Tuple.pp t in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fact)
    (List.sort compare (facts inst))
