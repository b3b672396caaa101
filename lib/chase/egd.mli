(** Equality-generating dependencies (EGDs): [body -> x = y].

    EGDs complete the classical dependency picture (the paper frames TGDs as
    one half of "database dependencies"); in the DL-Lite family they appear
    as functionality axioms ([funct R] is the EGD
    [r(x,y), r(x,z) -> y = z]). The chase extended with EGDs merges the two
    equated values when at least one is a labeled null, and {e fails} when
    two distinct constants are equated (the data is inconsistent with the
    dependencies, under the paper's Unique Name Assumption).

    In DL-Lite query answering, functionality axioms are {e separable}: when
    the data is consistent they do not affect certain answers, so the
    FO-rewriting pipeline only needs EGDs for the consistency check: chase
    with them ({!Chase.run} [~egds]) and read the [consistent] flag. *)

open Tgd_logic

type t = private {
  name : string;
  body : Atom.t list;
  left : Symbol.t;  (** body variable *)
  right : Symbol.t;  (** body variable *)
}

val make : ?name:string -> body:Atom.t list -> left:Symbol.t -> right:Symbol.t -> t
(** Raises [Invalid_argument] if either side does not occur in the body. *)

val functional : ?name:string -> string -> arity:int -> key:int list -> determined:int -> t
(** The functional dependency [key -> determined] (1-based positions) on a
    predicate: two tuples agreeing on the key positions agree on the
    determined one. [functional "r" ~arity:2 ~key:[1] ~determined:2] is
    DL-Lite's [funct r]. *)
