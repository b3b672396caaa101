(** Plain Datalog: TGDs without existential head variables. Trivially
    chase-terminating, but not FO-rewritable in general (recursion). *)

open Tgd_logic

val check : Program.t -> bool
(** [check p] holds when no rule of [p] has an existential head variable:
    every head variable also occurs in the body. *)
