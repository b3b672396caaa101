(** Conjunctive-query evaluation over an instance.

    The evaluator performs an index-nested-loop join over boxed relations.
    Each call orders the body once with {!Join_plan.make} (the planner
    {!Col_eval} compiles too) and interprets that plan: a step's probe
    column is served from the per-column hash indexes of {!Relation}, its
    relation is fetched from the live instance at every node (the chase
    adds facts from inside the join callback), and every argument either
    matches a constant, binds a variable or checks a bound one.

    Every entry point takes an optional {!Tgd_exec.Governor}: a governed
    evaluation charges [eval.steps] per join-search node and stops emitting
    bindings as soon as the governor trips (deadline, budget, cancellation),
    yielding the answers found so far — the caller distinguishes a complete
    from a truncated answer set by asking the governor. Without a governor
    the code path is unchanged and pays no overhead. *)

open Tgd_logic

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
