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

val to_program : ?name:string -> tbox -> Program.t
(** Concepts become unary predicates, roles binary predicates. Every
    produced TGD is linear and simple. *)

val random_tbox : Rng.t -> n_concepts:int -> n_roles:int -> n_axioms:int -> tbox

val cold_tbox : unit -> tbox
(** The TBox of the served cold-query benchmark: [random_tbox] with seed 2,
    24 concepts ([a0 ... a23]), 8 roles ([s0 ... s7]) and 48 axioms. *)

val cold_queries : int -> Cq.t list
(** [cold_queries n] is [n] queries over {!cold_tbox}'s signature, pairwise
    distinct up to {!Tgd_logic.Cq.canonical}, in the shapes of the served
    cold-query stream: one concept or role atom, a role path ending in a
    concept, and two-role paths, with constants [d0 ... d19]. Each has the
    one answer variable [X]. The same [n] always gives the same list, and
    a longer list extends a shorter one. *)

val functionality : ?name:string -> role -> Tgd_chase.Egd.t
(** DL-Lite_F's functionality axiom [funct R] as an EGD:
    [r(x,y), r(x,z) -> y = z] (keyed on the second position for inverse
    roles). Functionality axioms are separable in DL-Lite_F: they are used
    for consistency checking (the [consistent] flag of
    {!Tgd_chase.Chase.run} [~egds]), not during rewriting. *)

val pp_axiom : Format.formatter -> axiom -> unit
