(** One-step rewriting operations shared by the UCQ rewriter ({!Rewrite})
    and the Datalog rewriter ({!Datalog_rw}).

    Both rewriters explore the same step relation — piece-unifier rewriting
    steps plus factorizations — and differ only in what they do with each
    derived CQ: the UCQ rewriter keeps it as a disjunct, the Datalog
    rewriter decomposes it into shared intensional patterns. *)

open Tgd_logic

val factorizations : Cq.t -> Cq.t list
(** Factorizations of a CQ: for every unifiable pair of same-predicate body
    atoms, the specialisation that merges them. The merged body may contain
    duplicate atoms; callers canonicalize ({!Cq.canonical}) to dedup. *)

val rewrite_steps : Program.rewriting -> Cq.t -> Cq.t list
(** Every one-step piece rewriting of the query with a relevant rule of the
    program's rewriting view ({!Piece.all_pooled} / {!Piece.apply}). The query
    must use no pool variable, which holds for every canonical CQ
    ({!Cq.canonical}). *)
