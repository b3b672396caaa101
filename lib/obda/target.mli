(** Rewriting-target dispatch: UCQ vs Datalog, per ontology.

    The system carries two rewriting backends — the classic UCQ rewriter
    ({!Tgd_rewrite.Rewrite}) and the shared-pattern Datalog rewriter
    ({!Tgd_rewrite.Datalog_rw}). This module is the single place that picks
    between them: the [--target] knob of [obda rewrite|answer|serve] parses
    into {!t}, [Auto] checks whether the rules are plain Datalog
    ({!resolve}), and {!prepare}
    implements the fallback policy (an [Auto] preparation that truncates on
    its preferred backend retries the other). *)

open Tgd_logic
open Tgd_db
open Tgd_rewrite

type t =
  | Ucq  (** always rewrite into a union of conjunctive queries *)
  | Datalog  (** always rewrite into a Datalog program *)
  | Auto  (** classifier-dispatched, with truncation fallback *)

val of_string : string -> (t, string) result
(** Parses ["ucq"], ["datalog"], ["auto"]. *)

val to_string : t -> string

(** A prepared rewriting of either kind. *)
type artifact =
  | Ucq_rewriting of Rewrite.result
  | Datalog_rewriting of Datalog_rw.result

val artifact_kind : artifact -> string
(** ["ucq"] or ["datalog"] — the spelling used in serve responses. *)

val complete : artifact -> bool
(** Whether the rewriting reached its fixpoint (no truncation). *)

val resolve : t -> Program.t -> t
(** [resolve target program] is [target] unless it is [Auto]. [Auto]
    resolves to [Datalog] when the rules are existential-free
    ({!Tgd_classes.Datalog_class.check}): their UCQ rewriting unfolds
    recursion into an unbounded union. Every other program starts on
    [Ucq]. Never returns [Auto]. The check is one pass over the rules; it
    does not run the classifier. *)

val prepare :
  ?ucq_config:Rewrite.config ->
  ?datalog_config:Datalog_rw.config ->
  gov:(unit -> Tgd_exec.Governor.t) ->
  t ->
  Program.t ->
  Cq.t ->
  artifact
(** Rewrite the query for the given target. [gov] must produce a fresh
    governor per attempt (a tripped governor stays tripped); [Auto] runs
    the {!resolve}d backend first and falls back to the other when the
    first truncates, keeping the first (sound, truncated) artifact only if
    the fallback also truncates.

    Both backends read the program's rewriting view
    ({!Tgd_logic.Program.rewriting}), which the first prepare on a program
    value builds and every later one reuses. A prepare under a program it
    has seen interns no symbol. *)

val saturated_answers :
  ?gov:Tgd_exec.Governor.t -> Program.t -> Instance.t -> Cq.t -> Tuple.t list
(** [saturated_answers program inst goal]: saturate the existential-free
    [program] over a copy-on-write copy of [inst] ({!Tgd_chase.Chase.run}
    under [Datalog_keys] — the input instance is never mutated, and an
    ungoverned run is unbounded), evaluate [goal] on the result and drop
    tuples containing labeled nulls. Deduplicated and sorted; a governed
    run yields a sound subset. *)

val datalog_answers :
  ?gov:Tgd_exec.Governor.t -> Datalog_rw.result -> Instance.t -> Tuple.t list
(** Certain answers through a Datalog artifact: {!saturated_answers} of the
    rewritten program and its goal query. Every artifact names its
    intensional predicates [__dlr#1 ...] and [__dlr#goal]; every relation
    of [inst] spelled [__dlr#...] (loadable as CSV data) is left out of the
    saturation ({!Datalog_rw.intensional}), so data never seeds an
    intensional predicate, even one that heads no rule of a truncated
    artifact. *)

val answers :
  ?gov:Tgd_exec.Governor.t ->
  ?pool:Tgd_exec.Pool.t ->
  ?workers:int ->
  artifact ->
  Instance.t ->
  Tuple.t list
(** Certain answers through either artifact kind — the one
    artifact-to-answers dispatch of the CLI and the server. A
    [Ucq_rewriting] is evaluated by {!Tgd_db.Par_eval.ucq}, which seals
    [inst] and runs the compiled columnar engine ([pool] and [workers] are
    passed through with its defaults), and tuples containing labeled
    nulls are dropped; a
    [Datalog_rewriting] goes to {!datalog_answers}. *)
