(** Homomorphisms from a conjunction of atoms into a set of atoms.

    The target atoms are treated as {e frozen}: their variables behave like
    constants, and a source variable may be mapped to any target term. This
    is the standard device for CQ containment and for finding chase
    triggers. The mapping is a direct (non-triangular) map from source
    variables to target terms, so source and target variable names may
    overlap without capture. *)

type mapping = Term.t Symbol.Map.t

type target
(** Target atoms indexed by predicate. *)

val target_of_atoms : Atom.t list -> target

type source
(** The target-independent half of the search's atom-ordering heuristic,
    computed once per source body and reusable across searches against
    different targets (see {!source_of_atoms}). *)

val source_of_atoms : is_bound:(Symbol.t -> bool) -> Atom.t list -> source
(** Precompute ordering data for a source body. [is_bound] must hold exactly
    for the variables that the search's [init] mapping will bind; passing a
    [source] whose [is_bound] disagrees with [init] degrades the atom order
    but never affects soundness or completeness. *)

val find : ?source:source -> ?init:mapping -> Atom.t list -> target -> mapping option
(** First homomorphism extending [init], if any. Source atoms with constants
    must match target constants exactly. When [source] is given it must have
    been built from the same atom list. *)

val exists : ?source:source -> ?init:mapping -> Atom.t list -> target -> bool

val all : ?init:mapping -> Atom.t list -> target -> mapping list
(** All homomorphisms (distinct mappings of the source variables). *)

val iter : ?init:mapping -> (mapping -> unit) -> Atom.t list -> target -> unit

val apply : mapping -> Atom.t -> Atom.t
(** Replace each mapped variable by its image; unmapped variables are kept. *)

