(** DL-Lite_R (positive inclusions) and its standard translation to linear
    TGDs — the paper's motivating comparison point: DL-Lite is
    FO-rewritable, and every translated TBox lands in the linear fragment,
    hence in SWR (Section 5). *)

open Tgd_logic

type role =
  | Role of string
  | Inv of string  (** inverse role *)

type concept =
  | Atomic of string
  | Exists of role  (** unqualified existential restriction *)

type axiom =
  | Concept_incl of concept * concept
  | Role_incl of role * role

type tbox = axiom list

val to_tgds : tbox -> Tgd.t list
(** Concepts become unary predicates, roles binary predicates. Every
    produced TGD is linear and simple. *)

val to_program : ?name:string -> tbox -> Program.t

val random_tbox : Rng.t -> n_concepts:int -> n_roles:int -> n_axioms:int -> tbox

val functionality : ?name:string -> role -> Tgd_chase.Egd.t
(** DL-Lite_F's functionality axiom [funct R] as an EGD:
    [r(x,y), r(x,z) -> y = z] (keyed on the second position for inverse
    roles). Functionality axioms are separable in DL-Lite_F: they are used
    for consistency checking (the [consistent] flag of
    {!Tgd_chase.Chase.run} [~egds]), not during rewriting. *)

val pp_axiom : Format.formatter -> axiom -> unit
