(** Guarded TGDs: some body atom (the guard) contains every body variable.
    Not FO-rewritable in general; included for the class landscape. *)

open Tgd_logic

val check : Program.t -> bool
(** [check p] holds when every rule of [p] has a body atom that contains
    every body variable of the rule. *)
