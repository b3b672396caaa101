open Tgd_logic

type t = {
  classify : Program.t -> Tgd_core.Classifier.report;
  rewrite :
    config:Tgd_rewrite.Rewrite.config -> Program.t -> Cq.t -> Tgd_rewrite.Rewrite.result;
  rewrite_union :
    config:Tgd_rewrite.Rewrite.config -> Program.t -> Cq.ucq -> Tgd_rewrite.Rewrite.result;
  eval_ucq : Tgd_db.Instance.t -> Cq.ucq -> Tgd_db.Tuple.t list;
  eval_ucq_par :
    workers:int -> partitions:int -> Tgd_db.Instance.t -> Cq.ucq -> Tgd_db.Tuple.t list;
  certain_cq :
    max_rounds:int ->
    max_facts:int ->
    Program.t ->
    Tgd_db.Instance.t ->
    Cq.t ->
    Tgd_chase.Certain.result;
  chase_run :
    max_rounds:int -> max_facts:int -> Program.t -> Tgd_db.Instance.t -> Tgd_chase.Chase.stats;
  delta_apply :
    max_rounds:int ->
    max_facts:int ->
    Program.t ->
    Tgd_db.Instance.t ->
    Tgd_db.Instance.fact list ->
    Tgd_chase.Chase.stats;
  rewrite_datalog :
    config:Tgd_rewrite.Datalog_rw.config -> Program.t -> Cq.t -> Tgd_rewrite.Datalog_rw.result;
  datalog_answers : Tgd_rewrite.Datalog_rw.result -> Tgd_db.Instance.t -> Tgd_db.Tuple.t list;
  canon_key : Cq.t -> string;
  serve_handle :
    Tgd_serve.Server.t ->
    Tgd_serve.Protocol.request ->
    ((string * Tgd_serve.Json.t) list, string * string) result;
}

(* Round and fact caps alone do not bound chase WORK: a recursive rule with
   a self-join enumerates O(facts^2) trigger candidates per round, so a
   20k-fact instance can stall for minutes below its caps. The governed
   budgets put a ceiling on trigger applications and join-search steps; when
   one is hit, Certain reports [exact = false] and Chase reports [Truncated],
   which the invariants already treat as Skip / probe data. *)
let governed ~max_rounds ~max_facts =
  let budget =
    {
      Tgd_exec.Budget.unlimited with
      Tgd_exec.Budget.chase_rounds = Some max_rounds;
      chase_facts = Some max_facts;
      chase_triggers = Some 200_000;
      eval_steps = Some 2_000_000;
    }
  in
  Tgd_exec.Governor.create ~budget ()

let real =
  {
    classify = (fun p -> Tgd_core.Classifier.classify p);
    rewrite = (fun ~config p q -> Tgd_rewrite.Rewrite.ucq ~config p q);
    rewrite_union = (fun ~config p u -> Tgd_rewrite.Rewrite.ucq_of_union ~config p u);
    eval_ucq =
      (fun inst u ->
        Eval.ucq inst u |> List.filter (fun t -> not (Tgd_db.Tuple.has_null t)));
    eval_ucq_par =
      (fun ~workers ~partitions inst u ->
        (* min_tuples:1 forces the morsel machinery even on fuzz-scale
           instances, which would otherwise all run on the calling domain
           and test nothing. *)
        Tgd_db.Par_eval.ucq ~workers ~min_tuples:1 ~partitions inst u
        |> List.filter (fun t -> not (Tgd_db.Tuple.has_null t)));
    certain_cq =
      (fun ~max_rounds ~max_facts p inst q ->
        Tgd_chase.Certain.cq ~gov:(governed ~max_rounds ~max_facts) p inst q);
    chase_run =
      (fun ~max_rounds ~max_facts p inst ->
        Naive_chase.run ~gov:(governed ~max_rounds ~max_facts) p inst);
    delta_apply =
      (fun ~max_rounds ~max_facts p inst batch ->
        Tgd_chase.Chase.run ~gov:(governed ~max_rounds ~max_facts) ~batch p inst);
    rewrite_datalog = (fun ~config p q -> Tgd_rewrite.Datalog_rw.rewrite ~config p q);
    datalog_answers = (fun r inst -> Tgd_obda.Target.datalog_answers r inst);
    canon_key = (fun q -> (Tgd_serve.Canon.of_cq q).Tgd_serve.Canon.key);
    serve_handle = (fun server req -> Tgd_serve.Server.handle server req);
  }
