(** Syntactic unification over function-free terms. *)

val atoms : Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Unify two atoms argument-wise (same predicate and arity required). *)

val mgu : Atom.t -> Atom.t -> Subst.t option
(** Most general unifier of two atoms, starting from the empty
    substitution. The two atoms are assumed to have disjoint variables when a
    standalone unifier is wanted; callers that share variables get the shared
    semantics. *)

val unifiable : Atom.t -> Atom.t -> bool
