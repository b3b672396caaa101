(** Chase triggers: a rule together with a match of its body in the current
    instance, kept as the match's coded frontier row. *)

open Tgd_logic
open Tgd_db

type t = {
  rule : Tgd.t;
  frontier : int array;  (** the frontier variables' codes, in {!frontier_vars} order *)
}

val frontier_vars : Tgd.t -> Symbol.t list
(** The body variables the head uses, sorted. *)

val satisfied : Tgd.t -> ?gov:Tgd_exec.Governor.t -> Instance.t -> int array -> bool
(** Restricted-chase activity test: [satisfied r inst frontier] iff the
    frontier row of a trigger of [r] extends to a homomorphism of the head
    into the instance as it is now; [satisfied r] does the per-rule work
    once. A tripped governor cuts the search short, reporting unsatisfied
    (erring on the side of firing is sound for the chase). *)

val head_facts : t -> Null_gen.t -> (Symbol.t * Tuple.t) list
(** Instantiate the head: frontier variables from the decoded frontier row,
    existential head variables by fresh nulls (one per variable, shared
    across the head atoms). *)

val bindings :
  ?gov:Tgd_exec.Governor.t ->
  Instance.t ->
  Atom.t list ->
  answer:Term.t list ->
  delta:Tuple.t list Symbol.Table.t option ->
  (int array -> unit) ->
  unit
(** [bindings inst body ~answer ~delta k] calls [k] on the coded [answer]
    terms of every match of [body] (a scratch buffer, as {!Col_eval.iter}'s);
    with [delta], only on matches that use a delta fact: one compiled join
    per body atom forced through its predicate's delta, so a match using
    several delta facts is reported once per such atom. The governor bounds
    the search ([eval.steps]): a recursive rule with a self-join can
    enumerate O(|inst|^2) candidates per round, work no round cap sees. *)
