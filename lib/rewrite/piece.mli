(** Piece unifiers: the sound unification of a subset of query atoms with the
    head of a (single-head) TGD.

    A piece unifier of a CQ [q] with a rule [R : body -> alpha] is a
    non-empty subset [Q'] of [body(q)] together with a most general unifier
    [u] of every atom of [Q'] with [alpha], such that for every existential
    head variable [y] of [R], the unification class of [y]:
    - contains no constant,
    - contains no answer variable of [q],
    - contains no frontier variable of [R],
    - contains no other existential head variable of [R], and
    - contains only query variables all of whose occurrences in [body(q)]
      are inside [Q'].

    The last condition is enforced constructively: starting from a single
    atom, the piece is grown with every outside atom that shares a variable
    with an existential class, until it stabilises or fails. The resulting
    unifiers are exactly the most general single-piece unifiers rooted at
    each body atom. *)

open Tgd_logic

type t = {
  rule : Tgd.t;  (** the rule, its variables apart from the query's *)
  piece : Atom.t list;  (** the unified query atoms [Q'] *)
  remainder : Atom.t list;  (** [body(q) \ Q'] *)
  subst : Subst.t;  (** the most general unifier *)
}

val all : Cq.t -> Tgd.t -> t list
(** Every most general piece unifier of the query with the rule, renamed
    apart from the query first ({!Tgd_logic.Tgd.rename_apart}, which interns
    fresh variables). The rule must be single-head; raises
    [Invalid_argument] otherwise. *)

val all_pooled : Cq.t -> Tgd.t -> t list
(** [all] without the renaming, for a rule already renamed into the
    reserved pool ({!Tgd_logic.Tgd.rename_to_pool}): it interns nothing.
    The precondition is that the rule uses pool variables only and the
    query uses none, so the two share no variable; a query and a rule that
    share one get wrong unifiers. The rewriters meet it by reading rules
    from {!Tgd_logic.Program.rewriting} and by canonicalizing every CQ they
    expand ({!Tgd_logic.Cq.canonical} names variables [V0, V1, ...]). *)

val apply : Cq.t -> t -> Cq.t
(** The one-step rewriting [q[Q' := body(R)]u]: replace the piece by the rule
    body and apply the unifier everywhere, including the answer tuple. *)
