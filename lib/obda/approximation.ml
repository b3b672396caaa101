open Tgd_logic
open Tgd_db

let is_wr ?max_nodes p = (Tgd_core.Wr.check ?max_nodes p).Tgd_core.Wr.wr

let wr_subset ?max_nodes p =
  if is_wr ?max_nodes p then (p, [])
  else
    let keep, removed =
      List.fold_left
        (fun (keep, removed) r ->
          let candidate = Program.make_exn ~name:p.Program.name (List.rev (r :: keep)) in
          if is_wr ?max_nodes candidate then (r :: keep, removed) else (keep, r :: removed))
        ([], []) (Program.tgds p)
    in
    (Program.make_exn ~name:(p.Program.name ^ "_wr") (List.rev keep), List.rev removed)

let datalog_relaxation p =
  let relax (r : Tgd.t) =
    let ex = Tgd.existential_head_vars r in
    let subst v =
      if Symbol.Set.mem v ex then
        Term.Const (Symbol.intern (Printf.sprintf "sk_%s_%s" r.Tgd.name (Symbol.name v)))
      else Term.Var v
    in
    let apply = Atom.apply (fun t -> match t with Term.Var v -> subst v | Term.Const _ -> t) in
    Tgd.make ~name:r.Tgd.name ~body:r.Tgd.body ~head:(List.map apply r.Tgd.head)
  in
  Program.make_exn ~name:(p.Program.name ^ "_relaxed") (List.map relax (Program.tgds p))

type interval = {
  lower : Tuple.t list;
  upper : Tuple.t list;
  exact : bool;
  removed_rules : string list;
}

let interval_answers ?max_nodes ?config p inst q =
  let subset, removed = wr_subset ?max_nodes p in
  (* Lower bound: exact certain answers under the sound subset. Even if the
     rewriting truncates (it should not on a WR subset, but the budget is a
     budget) the evaluated disjuncts are sound. *)
  let lower_rewriting = Tgd_rewrite.Rewrite.ucq ?config subset q in
  let lower = Target.answers ~workers:1 (Target.Ucq_rewriting lower_rewriting) inst in
  (* Upper bound: Datalog saturation of the constant-Skolemized program. *)
  let upper = Target.saturated_answers (datalog_relaxation p) inst q in
  let exact =
    List.length lower = List.length upper && List.for_all2 Tuple.equal lower upper
  in
  { lower; upper; exact; removed_rules = List.map (fun (r : Tgd.t) -> r.Tgd.name) removed }
