(** Substitutions: finite maps from variables to terms.

    Substitutions are kept triangular (a binding's right-hand side may itself
    be a bound variable); [walk] resolves chains. Application functions walk
    bindings to a fixpoint, so applying a substitution built by unification is
    idempotent. *)

type t

val empty : t

val bind : Symbol.t -> Term.t -> t -> t
(** [bind v t s] adds the binding [v -> t]. Raises [Invalid_argument] if [v]
    is already bound. *)

val walk : t -> Term.t -> Term.t
(** Resolve a term through the substitution until it is a constant or an
    unbound variable. *)

val apply_atom : t -> Atom.t -> Atom.t
val apply_atoms : t -> Atom.t list -> Atom.t list
val apply_terms : t -> Term.t list -> Term.t list

val of_list : (Symbol.t * Term.t) list -> t
