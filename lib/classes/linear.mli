(** Linear TGDs: exactly one body atom (Calì, Gottlob, Lukasiewicz). An
    FO-rewritable class subsumed by SWR on simple TGDs (Section 5). *)

open Tgd_logic

val check : Program.t -> bool
(** [check p] holds when the body of every rule of [p] is a single atom. *)
