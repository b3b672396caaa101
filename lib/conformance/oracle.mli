(** The cross-layer oracle: every pipeline the conformance invariants
    exercise, bundled as a record of functions.

    Invariants call the stack only through an oracle value, so the mutant
    tests of the acceptance harness can inject a deliberate fault into
    exactly one pipeline (a classifier that lies, an evaluator that drops a
    tuple, a chase that invents answers, a serve path that corrupts its
    response) and assert that the corresponding invariant class catches
    it. {!real} wires every field to the production implementation. *)

open Tgd_logic

type t = {
  classify : Program.t -> Tgd_core.Classifier.report;
  rewrite :
    config:Tgd_rewrite.Rewrite.config -> Program.t -> Cq.t -> Tgd_rewrite.Rewrite.result;
  rewrite_union :
    config:Tgd_rewrite.Rewrite.config -> Program.t -> Cq.ucq -> Tgd_rewrite.Rewrite.result;
  eval_ucq : Tgd_db.Instance.t -> Cq.ucq -> Tgd_db.Tuple.t list;
      (** certain-answer semantics: null-free, deduplicated, sorted *)
  eval_ucq_par :
    workers:int -> partitions:int -> Tgd_db.Instance.t -> Cq.ucq -> Tgd_db.Tuple.t list;
      (** the morsel-parallel evaluator: seals the instance, then evaluates
          on [workers] domains merging into [partitions] answer partitions,
          with the small-scan single-domain shortcut disabled — must agree
          byte-for-byte with {!eval_ucq} *)
  certain_cq :
    max_rounds:int ->
    max_facts:int ->
    Program.t ->
    Tgd_db.Instance.t ->
    Cq.t ->
    Tgd_chase.Certain.result;
  chase_run :
    max_rounds:int -> max_facts:int -> Program.t -> Tgd_db.Instance.t -> Tgd_chase.Chase.stats;
      (** a from-scratch chase: {!real} runs the naive reference chase
          ({!Naive_chase}), not the production loop, so comparisons against
          {!delta_apply} pit two independent implementations *)
  delta_apply :
    max_rounds:int ->
    max_facts:int ->
    Program.t ->
    Tgd_db.Instance.t ->
    Tgd_db.Instance.fact list ->
    Tgd_chase.Chase.stats;
      (** the incremental chase: extend a previously chased [inst] {e in
          place} with an insert batch ({!Tgd_chase.Chase.run} [~batch]) *)
  rewrite_datalog :
    config:Tgd_rewrite.Datalog_rw.config -> Program.t -> Cq.t -> Tgd_rewrite.Datalog_rw.result;
      (** the shared-pattern Datalog rewriting backend *)
  datalog_answers : Tgd_rewrite.Datalog_rw.result -> Tgd_db.Instance.t -> Tgd_db.Tuple.t list;
      (** saturate a copy of the instance under the Datalog rewriting and
          read off the goal's null-free answers (certain-answer semantics,
          same contract as {!eval_ucq}) *)
  canon_key : Cq.t -> string;
      (** the prepared-cache canonical key: must be invariant under
          consistent variable renaming and body reordering *)
  serve_handle :
    Tgd_serve.Server.t ->
    Tgd_serve.Protocol.request ->
    ((string * Tgd_serve.Json.t) list, string * string) result;
}

val real : t
