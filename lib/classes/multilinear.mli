(** Multi-linear TGDs (Calì, Gottlob, Pieris): every body atom is a guard,
    i.e. contains all the universally quantified (body) variables of the
    rule. FO-rewritable; subsumed by SWR on simple TGDs (Section 5). *)

open Tgd_logic

val check : Program.t -> bool
(** [check p] holds when every body atom of every rule of [p] contains all
    the body variables of its rule (each atom is a guard). *)
