(** Boxed conjunctive-query evaluation: the conformance oracle for the
    library's one evaluator, {!Tgd_db.Col_eval}. Production code never
    runs it; the invariants, the tests and the benchmarks' boxed baselines
    compare the compiled engine against it.

    It interprets the {!Tgd_logic.Join_plan} the compiled engine compiles,
    as an index-nested-loop join over boxed relations: a step's probe
    column is served from the per-column hash indexes of
    {!Tgd_db.Relation}, and its relation is fetched from the live instance
    at every node. A governed evaluation charges [eval.steps] per
    join-search node and stops emitting bindings once the governor trips,
    yielding the answers found so far. *)

open Tgd_logic
open Tgd_db

type env = Value.t Symbol.Map.t
(** A variable assignment. *)

val bindings :
  ?gov:Tgd_exec.Governor.t ->
  ?init:env ->
  ?forced:int * Tuple.t list ->
  Instance.t ->
  Atom.t list ->
  (env -> unit) ->
  unit
(** [bindings inst atoms k] calls [k] on every assignment of the variables of
    [atoms] that makes all atoms true in [inst]. [init] pre-binds variables
    (default empty). With [~forced:(i, tuples)], the [i]-th atom (0-based, in
    list order) ranges over [tuples] instead of its full relation — the hook
    used by semi-naive Datalog evaluation. *)

val cq : ?gov:Tgd_exec.Governor.t -> Instance.t -> Cq.t -> Tuple.t list
(** All answers, deduplicated and sorted. For a boolean query the answer is
    [[ [||] ]] (one empty tuple) if the body is satisfiable and [[]]
    otherwise. *)

val cq_exists : ?gov:Tgd_exec.Governor.t -> Instance.t -> Cq.t -> bool
(** Does the query have at least one answer? *)

val ucq : ?gov:Tgd_exec.Governor.t -> Instance.t -> Cq.ucq -> Tuple.t list
(** Union of the answers of the disjuncts, deduplicated and sorted. *)
