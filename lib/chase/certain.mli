(** Certain answers by materialization: chase the data with the TGDs and
    evaluate the query, keeping only null-free answer tuples.

    This is the reference semantics [cert(q, P, D)] of Section 3 whenever
    the chase terminates; it cross-checks the rewriting engine in tests and
    benchmarks. *)

open Tgd_logic
open Tgd_db

type result = {
  answers : Tuple.t list;  (** null-free, deduplicated, sorted *)
  exact : bool;
      (** [true] iff the chase reached a fixpoint and the evaluation was not
          truncated by the governor *)
  chase : Chase.stats;
}

val cq :
  ?variant:Chase.variant ->
  ?max_rounds:int ->
  ?max_facts:int ->
  ?gov:Tgd_exec.Governor.t ->
  ?pool:Tgd_exec.Pool.t ->
  ?eval_workers:int ->
  Program.t ->
  Instance.t ->
  Cq.t ->
  result
(** The input instance is not modified (the chase runs on a copy). When
    [exact] is false the answers are a sound under-approximation of the
    certain answers. A supplied governor spans both phases — chase
    materialization and query evaluation — so one deadline covers the whole
    certain-answer computation.

    Evaluation runs on {!Tgd_db.Par_eval}'s compiled columnar engine
    (which seals the materialized instance) at any worker count;
    [eval_workers > 1] (or a [pool]) additionally splits the leading scans
    into that many workers' morsels. [eval_workers] defaults to the
    [pool]'s size when only a pool is given. *)
