(** Conjunctive queries and unions of conjunctive queries. *)

type t = private {
  name : string;
  answer : Term.t list;  (** the tuple of answer terms, usually variables *)
  body : Atom.t list;
}

type ucq = t list
(** A union of conjunctive queries of the same arity. *)

val make : ?name:string -> answer:Term.t list -> body:Atom.t list -> t
(** Raises [Invalid_argument] on an unsafe query (an answer variable that
    does not occur in the body) or an empty body. *)

val arity : t -> int
val is_boolean : t -> bool
val vars : t -> Symbol.Set.t
val answer_vars : t -> Symbol.Set.t

val existential_vars : t -> Symbol.Set.t
(** Body variables that are not answer variables. *)

val apply : Subst.t -> t -> t
(** Apply a substitution to answer terms and body. The result must still be
    safe (it is, for substitutions produced by unification of body atoms). *)

val canonical : t -> t
(** Rename variables to [V0, V1, ...] in first-occurrence order (answer terms
    first, then body in atom order) and sort the body atoms. Two queries that
    are equal up to consistent variable renaming and body reordering map to
    equal canonical forms whenever their first-occurrence orders agree; it is
    a cheap key for deduplication, not a full isomorphism test. *)

val canonical_var : int -> Symbol.t
(** [canonical_var i] is the variable [Vi] that {!canonical} gives the
    [i]-th variable of a query. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_ucq : Format.formatter -> ucq -> unit
