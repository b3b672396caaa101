(** The join order of a conjunctive body: the one planner behind both
    evaluators ({!Eval} over boxed relations, {!Col_eval} over columnar
    blocks).

    Which variables are bound before a step depends only on the atoms
    placed before it, never on the values they matched, so the order is
    fixed once per evaluation. The greedy rule: the forced atom first, then
    the atom with the most bound positions, then atoms joined to the rest
    through a still-unbound shared variable before isolated atoms (an
    isolated atom placed early turns the join into a cross product that
    multiplies all later work by its cardinality), then the smaller
    relation. Ties go to body order. *)

open Tgd_logic

type arg =
  | Const of Symbol.t  (** the column must hold this constant *)
  | Bind of Symbol.t  (** first occurrence of the variable: the column binds it *)
  | Check of Symbol.t  (** the variable is already bound: the column must equal it *)

type step = {
  index : int;  (** the atom's position in the body (0-based) *)
  atom : Atom.t;
  probe : int option;
      (** the column whose index serves the step: the first position holding
          a constant or a variable bound before the step; [None] is a full
          scan *)
  args : arg array;  (** one per argument of [atom], left to right *)
}

val make :
  ?init:(Symbol.t -> bool) -> ?forced:int -> sizes:int array -> Atom.t list -> step array
(** [make ~sizes body] orders [body]; [sizes.(i)] is the cardinality of the
    [i]-th atom's relation. [init] tells which variables are bound before
    the first step (default: none). [forced] is the index of an atom that
    must go first (semi-naive evaluation ranges it over a delta). *)
