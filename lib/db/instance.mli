(** A database instance: one relation per predicate. *)

open Tgd_logic

type t

type fact = Symbol.t * Tuple.t

val create : unit -> t

val copy : t -> t
(** Copy-on-write copy at relation grain: the copy shares every
    {!Relation.t} with the original and marks them {!Relation.shared}, so
    neither side mutates them again. The first {!add_fact} into a
    relation, a {!substitute} that hits it, or a {!seal} that must write
    it gives the writing instance a private {!Relation.copy} (row set, indexes and
    pending tail duplicated, columnar block shared); the
    relations it never writes cost nothing. So mutating the copy —
    chasing it, appending a delta — never disturbs the original, and
    sealing the copy after an append extends the shared block instead of
    re-encoding it. The copy iterates its relations in the original's
    order. *)

val add_fact : t -> Symbol.t -> Tuple.t -> bool
(** [true] iff the fact is new. Creates the relation on first use; raises
    [Invalid_argument] if the predicate was already used with another
    arity. *)

val relation : t -> Symbol.t -> Relation.t option
(** [None] when the predicate has no facts yet. The relation is for
    reading: it may be shared with a copy ({!copy}), and the instance may
    replace it by a private copy on its next write. *)

val install_relation : t -> Symbol.t -> Relation.t -> unit
(** Adopt a whole relation under a predicate (snapshot recovery:
    {!Relation.of_columnar} blocks are installed without going through
    per-fact inserts). Replaces any existing relation for the predicate;
    raises [Invalid_argument] on an arity conflict. *)

val predicates : t -> (Symbol.t * int) list
(** Every predicate with its arity, sorted by name. *)

val cardinality : t -> int
(** Total fact count across all relations. *)

val iter_facts : (fact -> unit) -> t -> unit
val facts : t -> fact list

val to_atoms : t -> Atom.t list
(** Every fact as an atom; nulls become variables (frozen-instance view used
    by homomorphism checks). *)

val of_atoms : Atom.t list -> t

val substitute : t -> from_:Value.t -> to_:Value.t -> fact list
(** Rewrite every fact containing [from_] in place (see
    {!Relation.substitute}), replacing it with [to_]. Returns the rewritten
    facts that are new to the instance — the touched frontier an EGD delta
    replay feeds back into trigger discovery. *)

val max_null : t -> int
(** The largest labeled-null id occurring in the instance ([0] when
    null-free): the floor for a {!Tgd_chase.Null_gen} that must extend the
    null space monotonically. *)

val seal : t -> unit
(** {!Relation.seal} every relation: fold its pending tail into its
    columnar block. Afterwards every relation's tail is empty; a shared
    relation that needs a write is first replaced by a private copy. Sealing an instance with no insert since its last
    seal only reads it, so any number of domains may seal (and then
    evaluate on) a shared sealed instance concurrently. *)

val pp : Format.formatter -> t -> unit
