type mapping = Term.t Symbol.Map.t

(* Besides the per-predicate buckets, atoms are indexed by every
   (predicate, position, term) triple, so a search step whose atom has a
   bound position (a constant, or a variable already mapped) scans only the
   matching bucket instead of the whole predicate. Targets are built once
   and reused across many searches (see Containment.pre). *)
type target = {
  by_pred : Atom.t list Symbol.Table.t;
  by_pred_n : int Symbol.Table.t;
  by_pos : (int, Atom.t list ref) Hashtbl.t;
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
  let by_pos = Hashtbl.create 32 in
  let add a =
    let existing = Option.value ~default:[] (Symbol.Table.find_opt by_pred a.Atom.pred) in
    Symbol.Table.replace by_pred a.Atom.pred (a :: existing);
    let count = Option.value ~default:0 (Symbol.Table.find_opt by_pred_n a.Atom.pred) in
    Symbol.Table.replace by_pred_n a.Atom.pred (count + 1);
    Array.iteri
      (fun i t ->
        let key = pos_key a.Atom.pred i t in
        match Hashtbl.find_opt by_pos key with
        | Some r -> r := a :: !r
        | None -> Hashtbl.add by_pos key (ref [ a ]))
      a.Atom.args
  in
  List.iter add atoms;
  { by_pred; by_pred_n; by_pos }

(* The target-independent half of the atom-ordering heuristic, computed once
   per source body and reused across searches: distinct unbound variables of
   each atom (numbered 0..nv-1), which atoms each variable occurs in, and the
   initial unbound count per atom. [is_bound] must hold exactly for the
   variables the search's [init] mapping will bind. *)
type source = {
  src_atoms : Atom.t array;
  var_ids : int list array;
  occurs : int list array;
  unbound0 : int array;
  nv : int;
  mutable order_memo : (int array * Atom.t list) list;
      (* orderings already computed for this source, keyed by the target
         weight signature they were computed under (see [order_atoms]) *)
}

let source_of_atoms ~is_bound atoms =
  let src_atoms = Array.of_list atoms in
  let n = Array.length src_atoms in
  let var_id = Symbol.Table.create 16 in
  let nv = ref 0 in
  let var_ids =
    Array.map
      (fun (a : Atom.t) ->
        let ids = ref [] in
        Array.iter
          (fun t ->
            match t with
            | Term.Const _ -> ()
            | Term.Var v ->
              if not (is_bound v) then begin
                let id =
                  match Symbol.Table.find_opt var_id v with
                  | Some id -> id
                  | None ->
                    let id = !nv in
                    incr nv;
                    Symbol.Table.add var_id v id;
                    id
                in
                if not (List.mem id !ids) then ids := id :: !ids
              end)
          a.Atom.args;
        !ids)
      src_atoms
  in
  let occurs = Array.make (max 1 !nv) [] in
  let unbound0 = Array.make n 0 in
  Array.iteri
    (fun i _ ->
      unbound0.(i) <- List.length var_ids.(i);
      List.iter (fun v -> occurs.(v) <- i :: occurs.(v)) var_ids.(i))
    src_atoms;
  { src_atoms; var_ids; occurs; unbound0; nv = !nv; order_memo = [] }

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

exception Found of mapping

(* Order atoms greedily into a connected, most-constrained-first sequence:
   repeatedly place the atom with the fewest still-unbound variables
   (variables bound by [init] or by already-placed atoms count as bound;
   constants always do), breaking ties towards fewer candidate target
   atoms. On chain- and tree-shaped bodies this turns the backtracking
   search into an almost linear index walk instead of a cross product. *)
let order_atoms source target =
  let n = Array.length source.src_atoms in
  if n <= 1 then Array.to_list source.src_atoms
  else begin
    let weight =
      Array.map
        (fun (a : Atom.t) ->
          Option.value ~default:0 (Symbol.Table.find_opt target.by_pred_n a.Atom.pred))
        source.src_atoms
    in
    (* The ordering is a pure function of the source data and [weight], so
       reuse it across targets with the same weight signature — a hot source
       (a kept disjunct checked against a stream of candidates) sees only a
       handful of distinct signatures. *)
    let rec lookup = function
      | [] -> None
      | (w, order) :: rest -> if w = weight then Some order else lookup rest
    in
    match lookup source.order_memo with
    | Some order -> order
    | None ->
    let unbound = Array.copy source.unbound0 in
    let placed = Array.make n false in
    let bound = Array.make (max 1 source.nv) false in
    let out = ref [] in
    for _ = 1 to n do
      let best = ref (-1) in
      for i = n - 1 downto 0 do
        if
          (not placed.(i))
          && (!best < 0
             || unbound.(i) < unbound.(!best)
             || (unbound.(i) = unbound.(!best) && weight.(i) <= weight.(!best)))
        then best := i
      done;
      let b = !best in
      placed.(b) <- true;
      List.iter
        (fun v ->
          if not bound.(v) then begin
            bound.(v) <- true;
            List.iter (fun j -> unbound.(j) <- unbound.(j) - 1) source.occurs.(v)
          end)
        source.var_ids.(b);
      out := source.src_atoms.(b) :: !out
    done;
    let order = List.rev !out in
    source.order_memo <- (weight, order) :: source.order_memo;
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
    let l = match Hashtbl.find_opt target.by_pos key with Some r -> !r | None -> [] in
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
  let rec go m = function
    | [] -> on_found m
    | a :: rest ->
      let try_candidate tgt =
        match match_atom m a tgt with
        | None -> ()
        | Some m' -> go m' rest
      in
      List.iter try_candidate (candidates_for target m a)
  in
  go init atoms

let find ?source ?(init = Symbol.Map.empty) atoms target =
  try
    search ?source ~init ~on_found:(fun m -> raise (Found m)) atoms target;
    None
  with Found m -> Some m

let exists ?source ?init atoms target = Option.is_some (find ?source ?init atoms target)

let all ?(init = Symbol.Map.empty) atoms target =
  let acc = ref [] in
  search ~init ~on_found:(fun m -> acc := m :: !acc) atoms target;
  List.rev !acc

let iter ?(init = Symbol.Map.empty) f atoms target = search ~init ~on_found:f atoms target

let apply m a =
  let subst t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> Option.value ~default:t (Symbol.Map.find_opt v m)
  in
  Atom.apply subst a
