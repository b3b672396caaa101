open Tgd_logic

type t = { relations : Relation.t Symbol.Table.t }
type fact = Symbol.t * Tuple.t

let create () = { relations = Symbol.Table.create 32 }

(* Copy-on-write at relation grain: the copy shares every relation with
   the original, and both sides treat them as frozen from now on — the
   first write into one ([own]) installs a private copy in the writer's
   table. [Symbol.Table.copy] keeps the bucket layout, and a replace keeps
   a key's place, so the copy iterates its relations in the original's
   order: how many copies an instance went through never shows in
   iteration order (EGD substitution walks it). *)
let copy inst =
  Symbol.Table.iter (fun _ rel -> Relation.share rel) inst.relations;
  { relations = Symbol.Table.copy inst.relations }

(* The relation under [pred], made private to [inst] first if shared. *)
let own inst pred rel =
  if Relation.shared rel then begin
    let rel = Relation.copy rel in
    Symbol.Table.replace inst.relations pred rel;
    rel
  end
  else rel

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

(* A fact already present is no write: a shared relation is copied only
   for a fact it lacks (a chase re-derives present facts often). *)
let add_fact inst pred t =
  let rel = relation_for inst pred ~arity:(Array.length t) in
  if Relation.shared rel then (not (Relation.mem rel t)) && Relation.insert (own inst pred rel) t
  else Relation.insert rel t

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
  (* Find the hit relations first, in iteration order: owning one replaces
     it in the table, which must not happen mid-iteration. *)
  let hits =
    Symbol.Table.fold
      (fun pred rel acc -> if Relation.mentions rel from_ then (pred, rel) :: acc else acc)
      inst.relations []
  in
  List.fold_left
    (fun fresh (pred, rel) ->
      List.fold_left
        (fun fresh t -> (pred, t) :: fresh)
        fresh
        (Relation.substitute (own inst pred rel) ~from_ ~to_))
    [] (List.rev hits)

let max_null inst =
  let best = ref 0 in
  iter_facts
    (fun (_, t) ->
      Array.iter
        (fun v -> match v with Value.Null n -> if n > !best then best := n | _ -> ())
        t)
    inst;
  !best

let seal inst =
  (* Only a relation with a pending tail is written; a shared one is owned
     first, outside the iteration. A sealed instance is only read. *)
  let pending =
    Symbol.Table.fold
      (fun pred rel acc ->
        if Relation.shared rel && Relation.pending rel > 0 then (pred, rel) :: acc else acc)
      inst.relations []
  in
  List.iter (fun (pred, rel) -> ignore (own inst pred rel)) pending;
  Symbol.Table.iter (fun _ rel -> Relation.seal rel) inst.relations

let pp ppf inst =
  let pp_fact ppf (pred, t) = Format.fprintf ppf "%a%a" Symbol.pp pred Tuple.pp t in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_fact)
    (List.sort compare (facts inst))
