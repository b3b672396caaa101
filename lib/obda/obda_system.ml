open Tgd_logic
open Tgd_db

type t = {
  ontology : Program.t;
  mappings : Mapping.t list;
  constraints : Constraints.t list;
}

let make ~ontology ?(mappings = []) ?(constraints = []) () = { ontology; mappings; constraints }

type answer = {
  tuples : Tuple.t list;
  source_ucq : Cq.ucq;
  sql : string option;
  rewriting_complete : bool;
}

let null_free = List.filter (fun t -> not (Tuple.has_null t))

let unfold_if_mapped sys ucq =
  match sys.mappings with [] -> ucq | mappings -> Unfold.ucq mappings ucq

let answer ?config sys ~source q =
  let r = Tgd_rewrite.Rewrite.ucq ?config sys.ontology q in
  let source_ucq = unfold_if_mapped sys r.Tgd_rewrite.Rewrite.ucq in
  let tuples = null_free (Par_eval.ucq ~workers:1 source source_ucq) in
  let sql = match source_ucq with [] -> None | ucq -> Some (Sql.of_ucq ucq) in
  {
    tuples;
    source_ucq;
    sql;
    rewriting_complete =
      (match r.Tgd_rewrite.Rewrite.outcome with
      | Tgd_rewrite.Rewrite.Complete -> true
      | Tgd_rewrite.Rewrite.Truncated _ -> false);
  }

let answer_materialized ?max_rounds ?max_facts sys ~source q =
  let abox =
    match sys.mappings with
    | [] -> Instance.copy source
    | mappings -> Mapping.materialize mappings source
  in
  let stats = Tgd_chase.Chase.run ?max_rounds ?max_facts sys.ontology abox in
  let answers = null_free (Par_eval.ucq ~workers:1 abox [ q ]) in
  (answers, stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated)

let consistent ?config sys ~source =
  Constraints.check ?config ~unfold:(unfold_if_mapped sys) sys.ontology sys.constraints source
