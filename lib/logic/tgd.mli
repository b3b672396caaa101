(** Tuple-generating dependencies (TGDs, a.k.a. existential rules).

    A TGD is an expression [b1, ..., bn -> h1, ..., hm] read as the
    first-order sentence [forall x. b1 /\ ... /\ bn -> exists y. h1 /\ ... /\ hm]
    where [x] are all body variables and [y] the variables occurring only in
    the head (Section 3 of the paper). *)

type t = private {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
}

val make : ?name:string -> body:Atom.t list -> head:Atom.t list -> t
(** Raises [Invalid_argument] if body or head is empty. *)

val body_vars : t -> Symbol.Set.t
val head_vars : t -> Symbol.Set.t

val frontier : t -> Symbol.Set.t
(** The distinguished variables: those occurring both in the head and in the
    body. *)

val existential_head_vars : t -> Symbol.Set.t
(** Variables occurring only in the head (the value-inventing positions). *)

val existential_body_vars : t -> Symbol.Set.t
(** Variables occurring only in the body. *)

val constants : t -> Symbol.Set.t

val is_simple : t -> bool
(** Simple TGDs (Section 5): no repeated variables inside an atom, no
    constants, and a single head atom. *)

val rename_apart : t -> t
(** Rename every variable to a globally fresh one. Used before unifying a
    rule with a query. *)

val pool_var : int -> Symbol.t
(** [pool_var i] is the [i]-th variable of the reserved rule pool, spelled
    [#v]{i i}. The lexer reads [#] as the start of a comment, so no parsed
    name is a pool variable, and {!Cq.canonical}'s [V0, V1, ...] are not
    either: a rule renamed into the pool shares no variable with a parsed or
    canonical query. *)

val rename_to_pool : t -> t
(** Rename the variables to [pool_var 0], [pool_var 1], ... in order of
    first occurrence (body, then head). Unlike {!rename_apart} it interns
    nothing beyond the pool's largest rule. *)

val single_head_normalize : t list -> t list
(** Split every TGD with an [n>1]-atom head into [n+1] single-head TGDs
    through a fresh auxiliary predicate collecting all head variables. The
    transformation preserves certain answers for queries over the original
    signature. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
