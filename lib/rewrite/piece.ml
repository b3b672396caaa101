open Tgd_logic

type t = {
  rule : Tgd.t;
  piece : Atom.t list;
  remainder : Atom.t list;
  subst : Subst.t;
}

module Int_set = Set.Make (Int)

let head_atom (r : Tgd.t) =
  match r.Tgd.head with
  | [ a ] -> a
  | [] | _ :: _ :: _ -> invalid_arg "Piece.all: rule must be single-head"

(* Unify every atom of the piece (given by indexes into [body]) with the
   head atom, under one substitution. *)
let unify_piece body alpha piece_ixs =
  Int_set.fold
    (fun i acc ->
      match acc with
      | None -> None
      | Some s -> Unify.atoms s (List.nth body i) alpha)
    piece_ixs (Some Subst.empty)

let all_pooled (q : Cq.t) rule =
  let alpha = head_atom rule in
  let body = q.Cq.body in
  let answer_vars = Cq.answer_vars q in
  let frontier = Tgd.frontier rule in
  let ex_heads = Symbol.Set.elements (Tgd.existential_head_vars rule) in
  (* Atoms of the body containing a given variable. *)
  let atoms_with_var v =
    let acc = ref Int_set.empty in
    List.iteri (fun i a -> if Symbol.Set.mem v (Atom.vars a) then acc := Int_set.add i !acc) body;
    !acc
  in
  (* Grow a piece from a set of atom indexes; [None] when the piece unifier
     is impossible. *)
  let rec grow piece_ixs =
    match unify_piece body alpha piece_ixs with
    | None -> None
    | Some s ->
      let walk_var v = Subst.walk s (Term.Var v) in
      (* Validate every existential head variable's class; collect atoms
         that must join the piece. *)
      let rec check_ex to_add = function
        | [] -> Ok to_add
        | y :: rest ->
          let rep = walk_var y in
          (match rep with
          | Term.Const _ -> Error ()
          | Term.Var _ ->
            let bad_frontier = Symbol.Set.exists (fun f -> Term.equal (walk_var f) rep) frontier in
            let bad_answer = Symbol.Set.exists (fun a -> Term.equal (walk_var a) rep) answer_vars in
            let bad_ex =
              List.exists
                (fun y' -> (not (Symbol.equal y y')) && Term.equal (walk_var y') rep)
                ex_heads
            in
            if bad_frontier || bad_answer || bad_ex then Error ()
            else begin
              (* Query variables in the class of [y] must occur only inside
                 the piece. *)
              let qvars = Cq.vars q in
              let in_class = Symbol.Set.filter (fun v -> Term.equal (walk_var v) rep) qvars in
              let occurrences =
                Symbol.Set.fold (fun v acc -> Int_set.union acc (atoms_with_var v)) in_class
                  Int_set.empty
              in
              let outside = Int_set.diff occurrences piece_ixs in
              check_ex (Int_set.union to_add outside) rest
            end)
      in
      (match check_ex Int_set.empty ex_heads with
      | Error () -> None
      | Ok to_add ->
        if Int_set.is_empty to_add then Some (piece_ixs, s)
        else grow (Int_set.union piece_ixs to_add))
  in
  let starts =
    let acc = ref [] in
    List.iteri
      (fun i (a : Atom.t) -> if Symbol.equal a.Atom.pred alpha.Atom.pred then acc := i :: !acc)
      body;
    List.rev !acc
  in
  let seen = Hashtbl.create 8 in
  let results = ref [] in
  let consider start =
    match grow (Int_set.singleton start) with
    | None -> ()
    | Some (piece_ixs, s) ->
      let key = Int_set.elements piece_ixs in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let piece = List.filteri (fun i _ -> Int_set.mem i piece_ixs) body in
        let remainder = List.filteri (fun i _ -> not (Int_set.mem i piece_ixs)) body in
        results := { rule; piece; remainder; subst = s } :: !results
      end
  in
  List.iter consider starts;
  List.rev !results

let all q rule = all_pooled q (Tgd.rename_apart rule)

let apply (q : Cq.t) pu =
  let new_body = Subst.apply_atoms pu.subst (pu.remainder @ pu.rule.Tgd.body) in
  let new_answer = Subst.apply_terms pu.subst q.Cq.answer in
  Cq.make ~name:q.Cq.name ~answer:new_answer ~body:new_body
