(** A finite set of TGDs with a consistent relational signature. *)

type t = private {
  name : string;
  tgds : Tgd.t list;
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

val pp : Format.formatter -> t -> unit
