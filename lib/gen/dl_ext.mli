(** An extended description logic beyond DL-Lite — the paper's closing
    observation for Section 6: "the class of WR TGDs allows for the
    identification of new FO-rewritable Description Logic languages".

    On top of DL-Lite_R this logic adds, on either side of an inclusion:
    - {b conjunction} on the left-hand side ([A ⊓ B ⊑ C]), translated to a
      multi-atom TGD body — immediately outside DL-Lite and outside the
      linear TGD class;
    - {b qualified existential restrictions} ([∃R.A]), translated to a
      two-atom body ([r(x,y), a(y)]) on the left or a two-atom head
      ([r(x,z), a(z)]) on the right — outside simple TGDs (multi-atom
      heads);
    - {b disjointness} ([disj B C]), translated to a negative constraint
      body rather than a TGD.

    The translation of a TBox is in general {e not} linear, simple, sticky
    or DL-Lite-expressible, yet large fractions of random TBoxes (and the
    hand-written clinic exemplar) are WR — which is exactly the modeling
    value the paper claims for the class. Unrestricted qualified-existential
    recursion ([∃R.A ⊑ A]) is EL-style and not FO-rewritable; the classifier
    correctly rejects such TBoxes, see the tests. *)

open Tgd_logic

type role =
  | Role of string
  | Inv of string

type concept =
  | Atomic of string
  | Exists of role  (** unqualified: [∃R] *)
  | Exists_in of role * string  (** qualified: [∃R.A] *)

type axiom =
  | Incl of concept list * concept
      (** [Incl (lhs, rhs)]: the conjunction of [lhs] is included in [rhs];
          [lhs] must be non-empty. *)
  | Role_incl of role * role
  | Disjoint of concept * concept

type tbox = axiom list

val to_program : ?name:string -> tbox -> Program.t * Atom.t list list

val clinic : tbox
(** A hand-written exemplar: a clinical-trial TBox using conjunction and
    qualified existentials. Its translation is WR (tested) but neither
    simple, linear, sticky, sticky-join nor DL-Lite-expressible. *)

val random_tbox :
  Rng.t -> n_concepts:int -> n_roles:int -> n_axioms:int -> ?allow_recursion:bool -> unit -> tbox
(** Random extended TBoxes. With [allow_recursion] (default [false]) the
    generator may produce qualified-existential recursion, which typically
    breaks FO-rewritability — useful for exercising the negative side of the
    classifier. *)
