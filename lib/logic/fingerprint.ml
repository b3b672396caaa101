(* Cheap sound pre-filters for CQ containment. A homomorphism from the body
   of [sub] into the (frozen) body of [sup] maps every atom to an atom with
   the same predicate and every constant to itself, so
     preds(sub) ⊆ preds(sup)  and  consts(sub) ⊆ consts(sup)
   are necessary conditions. Both sets are approximated by 63-bit Bloom
   words (one hash per symbol), and the predicate condition is additionally
   checked exactly on sorted distinct-predicate arrays. *)

type t = {
  pred_bits : int;
  const_bits : int;
  preds : (Symbol.t * int) array;  (* distinct predicates, sorted, with atom counts *)
}

let bit_of sym = 1 lsl (Symbol.hash sym land 0x3FFFFFFF mod 63)

let of_body body =
  let pred_bits = ref 0 and const_bits = ref 0 in
  let counts = Symbol.Table.create 8 in
  List.iter
    (fun (a : Atom.t) ->
      pred_bits := !pred_bits lor bit_of a.Atom.pred;
      let c = Option.value ~default:0 (Symbol.Table.find_opt counts a.Atom.pred) in
      Symbol.Table.replace counts a.Atom.pred (c + 1);
      Array.iter
        (fun t ->
          match t with
          | Term.Const c -> const_bits := !const_bits lor bit_of c
          | Term.Var _ -> ())
        a.Atom.args)
    body;
  let preds = Array.of_seq (Symbol.Table.to_seq counts) in
  Array.sort (fun (p1, _) (p2, _) -> Symbol.compare p1 p2) preds;
  { pred_bits = !pred_bits; const_bits = !const_bits; preds }

let pred_bits fp = fp.pred_bits

let subset_bits b1 b2 = b1 land lnot b2 = 0

(* Every distinct predicate of [sub] occurs in [sup]: merge walk. *)
let preds_subset sub sup =
  let n1 = Array.length sub.preds and n2 = Array.length sup.preds in
  let rec go i j =
    if i >= n1 then true
    else if j >= n2 then false
    else
      let c = Symbol.compare (fst sub.preds.(i)) (fst sup.preds.(j)) in
      if c = 0 then go (i + 1) (j + 1) else if c > 0 then go i (j + 1) else false
  in
  n1 <= n2 && go 0 0

let may_map ~sub ~sup =
  subset_bits sub.pred_bits sup.pred_bits
  && subset_bits sub.const_bits sup.const_bits
  && preds_subset sub sup
