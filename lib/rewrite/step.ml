open Tgd_logic

let factorizations (q : Cq.t) =
  let atoms = Array.of_list q.Cq.body in
  let n = Array.length atoms in
  let acc = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Symbol.equal atoms.(i).Atom.pred atoms.(j).Atom.pred then
        match Unify.mgu atoms.(i) atoms.(j) with
        | None -> ()
        | Some s ->
          (* [Cq.apply] may leave duplicate atoms in the merged body; the
             canonicalization every candidate goes through dedups them. *)
          acc := Cq.apply s q :: !acc
    done
  done;
  !acc

let rewrite_steps (view : Program.rewriting) (q : Cq.t) =
  let preds =
    List.fold_left (fun acc (a : Atom.t) -> Symbol.Set.add a.Atom.pred acc) Symbol.Set.empty q.Cq.body
  in
  Symbol.Set.fold
    (fun pred acc ->
      match Symbol.Map.find_opt pred view.Program.by_head with
      | None -> acc
      | Some rules ->
        List.fold_left
          (fun acc rule ->
            List.rev_append (List.map (fun pu -> Piece.apply q pu) (Piece.all_pooled q rule)) acc)
          acc rules)
    preds []
