(** Database tuples: fixed-arity rows of {!Value.t}.

    A tuple is a bare value array — the representation is exposed so hot
    evaluation loops can index without a projection — but callers must
    treat tuples held by a {!Relation} as immutable: relations and their
    indexes share the arrays. *)

type t = Value.t array

val equal : t -> t -> bool
(** Pointwise {!Value.equal}; arrays of different lengths are unequal. *)

val compare : t -> t -> int
(** Lexicographic by {!Value.compare}, shorter tuples first — the total
    order used to sort answer sets deterministically. *)

val pp : Format.formatter -> t -> unit
(** Prints [(v1,v2,...)]; the empty (boolean) tuple prints [()]. *)

val has_null : t -> bool
(** True iff some component is a labelled null — such tuples are filtered
    out of certain-answer sets (a null is not a certain constant). *)

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by tuple value (not physical identity): a
    {!Relation}'s row set. *)
