(** Homomorphisms from a conjunction of atoms into a set of atoms.

    The target atoms are treated as {e frozen}: their variables behave like
    constants, and a source variable may be mapped to any target term. This
    is the standard device for CQ containment and for finding chase
    triggers. The mapping is a direct (non-triangular) map from source
    variables to target terms, so source and target variable names may
    overlap without capture.

    The search is backtracking over the source atoms in the order that
    {!Join_plan} gives them, the same planner the two evaluators of
    [Tgd_db] use, with each atom's size the number of target atoms of its
    predicate. *)

type mapping = Term.t Symbol.Map.t

type target
(** Target atoms indexed by predicate. *)

val target_of_atoms : Atom.t list -> target

type source
(** A source body prepared once for {!Join_plan.order} ({!Join_plan.prepare}),
    with the orders already made for it, keyed by the target's predicate
    counts; reusable across searches against different targets and safe to
    share between domains. *)

val source_of_atoms : is_bound:(Symbol.t -> bool) -> Atom.t list -> source
(** Prepare a source body. [is_bound] must hold exactly for the variables
    that the search's [init] mapping will bind; passing a [source] whose
    [is_bound] disagrees with [init] degrades the atom order but never
    affects soundness or completeness. *)

val exists : ?source:source -> ?init:mapping -> Atom.t list -> target -> bool
(** Whether some homomorphism extends [init]. Source atoms with constants
    must match target constants exactly. When [source] is given it must have
    been built from the same atom list. *)

val all : ?init:mapping -> Atom.t list -> target -> mapping list
(** All homomorphisms (distinct mappings of the source variables). *)

val iter : ?init:mapping -> (mapping -> unit) -> Atom.t list -> target -> unit

