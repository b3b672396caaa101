(** Domain-restricted TGDs (Baget, Leclère, Mugnier, Salvat): every head
    atom contains either all of the body variables or none of them. An
    FO-rewritable class incomparable with SWR, cited by the paper as one of
    the classes WR is meant to subsume. *)

open Tgd_logic

val check : Program.t -> bool
(** [check p] holds when each head atom of every rule of [p] contains
    either all the body variables of its rule or none of them. *)
