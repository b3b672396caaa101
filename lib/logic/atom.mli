(** Relational atoms [p(t1, ..., tn)]. *)

type t = {
  pred : Symbol.t;
  args : Term.t array;
}

val make : Symbol.t -> Term.t list -> t

val of_strings : string -> Term.t list -> t
(** [of_strings p args] interns the predicate name [p]. *)

val arity : t -> int
val args : t -> Term.t list

val vars : t -> Symbol.Set.t
(** Variables occurring in the atom. *)

val var_list : t -> Symbol.t list
(** Variables in argument order, with duplicates. *)

val constants : t -> Symbol.Set.t

val has_repeated_var : t -> bool
(** [true] iff some variable occurs in two distinct argument positions. *)

val positions_of_var : Symbol.t -> t -> int list
(** 1-based positions at which the variable occurs. *)

val apply : (Term.t -> Term.t) -> t -> t
(** Map a function over the arguments. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
