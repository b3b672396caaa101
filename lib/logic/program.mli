(** A finite set of TGDs with a consistent relational signature.

    A program also carries its {e rewriting view} ({!rewriting}): the
    program-level work both rewriters need, done once per program value
    instead of once per query. *)

type slot
(** Where a program keeps its rewriting view once built. *)

type t = private {
  name : string;
  tgds : Tgd.t list;
  slot : slot;
}

val make : ?name:string -> Tgd.t list -> (t, string) result
(** Checks that every predicate is used with a single arity across all rules;
    returns a descriptive error otherwise. An empty rule list is allowed (it
    denotes the empty ontology). *)

val make_exn : ?name:string -> Tgd.t list -> t

val tgds : t -> Tgd.t list
val size : t -> int

val predicates : t -> (Symbol.t * int) list
(** The signature: every predicate with its arity, sorted by symbol. *)

val arity_of : t -> Symbol.t -> int option
val constants : t -> Symbol.Set.t
val max_arity : t -> int

val is_simple : t -> bool
(** Every TGD is simple (Section 5). *)

val rules_with_head_pred : t -> Symbol.t -> Tgd.t list
(** The rules whose head contains an atom with the given predicate. *)

val single_head_normalize : t -> t
(** The program with every multi-head rule split through a fresh auxiliary
    predicate ({!Tgd.single_head_normalize}). Each call interns new
    auxiliary predicates; the rewriters read {!rewriting} instead. *)

(** {2 Rewriting view} *)

type rewriting = private {
  rules : Tgd.t list;
      (** the single-head-normalized rules, each renamed once into the
          reserved variable pool ({!Tgd.rename_to_pool}) *)
  by_head : Tgd.t list Symbol.Map.t;
      (** [rules] indexed by head predicate, each list in reverse rule
          order: a rule is relevant only to a query that mentions its head
          predicate *)
  aux : Symbol.Set.t;
      (** the auxiliary predicates single-head normalization introduced;
          no database holds them *)
}

val rewriting : t -> rewriting
(** The program's rewriting view, built on the first call and shared by
    every later one, so rewriting a query under a program it has seen
    interns no symbol. Safe to call from several domains: racing builders
    each build a view, one is published, and all of them return that one.
    {!make} and {!single_head_normalize} give every program its own,
    unbuilt view. *)

val pp : Format.formatter -> t -> unit
