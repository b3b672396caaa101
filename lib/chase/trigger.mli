(** Chase triggers: a rule together with a homomorphism from its body into
    the current instance. *)

open Tgd_logic
open Tgd_db

type t = {
  rule : Tgd.t;
  env : Eval.env;  (** assignment of the body variables *)
}

val key : t -> string * Tuple.t
(** A hashable identity for the trigger: the rule name and the frontier
    assignment in sorted-variable order. Two triggers with equal keys fire
    the same head instantiation (up to null naming), so the oblivious chase
    fires one of them. *)

val is_satisfied : ?gov:Tgd_exec.Governor.t -> t -> Instance.t -> bool
(** Restricted-chase activity test: [true] iff the head is already satisfied,
    i.e. the frontier assignment extends to a homomorphism of the head into
    the instance. A tripped governor cuts the search short (reporting
    unsatisfied, which errs on the side of firing — sound for the chase). *)

val head_facts : t -> Null_gen.t -> (Symbol.t * Tuple.t) list
(** Instantiate the head: frontier variables from the environment,
    existential head variables by fresh nulls (one per variable, shared
    across the head atoms). *)

val bindings :
  ?gov:Tgd_exec.Governor.t ->
  Instance.t ->
  Atom.t list ->
  delta:Tuple.t list Symbol.Table.t option ->
  (Eval.env -> unit) ->
  unit
(** [bindings inst body ~delta k] calls [k] on every match of [body]; with
    [delta], only on matches that use at least one delta fact (semi-naive
    seeding: one join per body atom forced through the delta tuples of its
    predicate, so a match using several delta facts is reported once per
    such atom). TGD bodies and EGD bodies are both searched this way. *)

val find_new :
  ?gov:Tgd_exec.Governor.t ->
  Program.t ->
  Instance.t ->
  delta:Tuple.t list Symbol.Table.t option ->
  t list
(** All triggers of the program on the instance; with [delta], only triggers
    whose body uses at least one delta fact (semi-naive discovery). The
    governor bounds the join search itself ([eval.steps]): a recursive rule
    with a self-join can enumerate O(|inst|^2) candidates per round, work no
    round/fact cap sees. *)
