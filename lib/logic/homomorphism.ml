type mapping = Term.t Symbol.Map.t

(* Keyed by [pos_key] below, which already mixes its parts: the key is its
   own hash. *)
module Pos_table = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

(* Besides the per-predicate buckets, atoms are indexed by every
   (predicate, position, term) triple, so a search step whose atom has a
   bound position (a constant, or a variable already mapped) scans only the
   matching bucket instead of the whole predicate. Targets are built once
   and reused across many searches (see Containment.pre). *)
type target = {
  by_pred : Atom.t list Symbol.Table.t;
  by_pred_n : int Symbol.Table.t;
  by_pos : Atom.t list ref Pos_table.t;
}

(* (pred, position, term) packed into one int key: no tuple allocation and a
   single-word hash per probe. The packing need not be injective — a rare
   collision merges two buckets, which only widens the candidate list that
   [match_atom] then filters exactly. *)
let pos_key pred i t =
  (((Symbol.hash pred * 31) + i) * 0x1000193) lxor Term.hash t

let target_of_atoms atoms =
  let by_pred = Symbol.Table.create 16 in
  let by_pred_n = Symbol.Table.create 16 in
  let by_pos = Pos_table.create 32 in
  let add a =
    let existing = Option.value ~default:[] (Symbol.Table.find_opt by_pred a.Atom.pred) in
    Symbol.Table.replace by_pred a.Atom.pred (a :: existing);
    let count = Option.value ~default:0 (Symbol.Table.find_opt by_pred_n a.Atom.pred) in
    Symbol.Table.replace by_pred_n a.Atom.pred (count + 1);
    Array.iteri
      (fun i t ->
        let key = pos_key a.Atom.pred i t in
        match Pos_table.find_opt by_pos key with
        | Some r -> r := a :: !r
        | None -> Pos_table.add by_pos key (ref [ a ]))
      a.Atom.args
  in
  List.iter add atoms;
  { by_pred; by_pred_n; by_pos }

(* A source body prepared once for {!Join_plan.order}, with the plans
   already made for it, keyed by the target predicate counts they were
   made under: a hot source (a kept disjunct checked against a stream of
   candidates) sees only a handful of distinct counts. *)
type source = {
  src_atoms : Atom.t array;
  prepared : Join_plan.prepared;
  memo : (int array * Atom.t array) list Atomic.t;
}

let source_of_atoms ~is_bound atoms =
  {
    src_atoms = Array.of_list atoms;
    prepared = Join_plan.prepare ~init:is_bound atoms;
    memo = Atomic.make [];
  }

(* Match one source atom against one target atom, extending [m]. *)
let match_atom m (src : Atom.t) (tgt : Atom.t) =
  let n = Atom.arity src in
  if Atom.arity tgt <> n then None
  else
    let rec loop m i =
      if i >= n then Some m
      else
        let ti = tgt.Atom.args.(i) in
        match src.Atom.args.(i) with
        | Term.Const _ as c -> if Term.equal c ti then loop m (i + 1) else None
        | Term.Var v -> (
          match Symbol.Map.find_opt v m with
          | Some t -> if Term.equal t ti then loop m (i + 1) else None
          | None -> loop (Symbol.Map.add v ti m) (i + 1))
    in
    loop m 0

exception Found

(* [a] and [b] are size vectors of one source body: equal lengths. *)
let rec same_sizes (a : int array) b i = i < 0 || (a.(i) = b.(i) && same_sizes a b (i - 1))

let rec lookup sizes = function
  | [] -> None
  | (w, order) :: rest ->
    if same_sizes w sizes (Array.length w - 1) then Some order else lookup sizes rest

(* The source atoms in search order: {!Join_plan.order} with each atom's
   size the number of target atoms of its predicate, memoized by the sizes'
   dense ranks, which choose the same order. *)
let order_atoms source target =
  if Array.length source.src_atoms <= 1 then source.src_atoms
  else begin
    let sizes =
      Join_plan.ranks
        (Array.map
           (fun (a : Atom.t) ->
             Option.value ~default:0 (Symbol.Table.find_opt target.by_pred_n a.Atom.pred))
           source.src_atoms)
    in
    let memo = Atomic.get source.memo in
    match lookup sizes memo with
    | Some order -> order
    | None ->
      let order = Join_plan.atoms source.prepared (Join_plan.order ~sizes source.prepared) in
      (* Domains share a source; losing this race only costs a later replan. *)
      ignore (Atomic.compare_and_set source.memo memo ((sizes, order) :: memo));
      order
  end

(* Candidate target atoms for [a] under mapping [m]: the smallest
   (pred, position, term) bucket over [a]'s bound positions, falling back to
   the predicate bucket when no position is bound. Every true match lies in
   all of these buckets, so restricting to one is complete. *)
let candidates_for target m (a : Atom.t) =
  let n = Array.length a.Atom.args in
  let best = ref None in
  let consider key =
    let l = match Pos_table.find_opt target.by_pos key with Some r -> !r | None -> [] in
    match !best with
    | Some b when List.compare_lengths b l <= 0 -> ()
    | Some _ | None -> best := Some l
  in
  for i = 0 to n - 1 do
    match a.Atom.args.(i) with
    | Term.Const _ as c -> consider (pos_key a.Atom.pred i c)
    | Term.Var v -> (
      match Symbol.Map.find_opt v m with
      | Some t -> consider (pos_key a.Atom.pred i t)
      | None -> ())
  done;
  match !best with
  | Some l -> l
  | None -> Option.value ~default:[] (Symbol.Table.find_opt target.by_pred a.Atom.pred)

let search ?source ~init ~on_found atoms target =
  let source =
    match source with
    | Some s -> s
    | None -> source_of_atoms ~is_bound:(fun v -> Symbol.Map.mem v init) atoms
  in
  let atoms = order_atoms source target in
  let n = Array.length atoms in
  let rec go m k =
    if k = n then on_found m
    else
      let a = atoms.(k) in
      List.iter
        (fun tgt -> match match_atom m a tgt with None -> () | Some m' -> go m' (k + 1))
        (candidates_for target m a)
  in
  go init 0

let exists ?source ?(init = Symbol.Map.empty) atoms target =
  match search ?source ~init ~on_found:(fun _ -> raise_notrace Found) atoms target with
  | () -> false
  | exception Found -> true

let all ?(init = Symbol.Map.empty) atoms target =
  let acc = ref [] in
  search ~init ~on_found:(fun m -> acc := m :: !acc) atoms target;
  List.rev !acc

let iter ?(init = Symbol.Map.empty) f atoms target = search ~init ~on_found:f atoms target
