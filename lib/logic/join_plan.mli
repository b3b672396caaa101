(** The join order of a conjunctive body: the one planner behind all three
    backtracking searches over atoms: the compiled evaluator
    ([Tgd_db.Col_eval]), its boxed conformance oracle
    ([Tgd_conformance.Eval]) and the homomorphism search of CQ containment
    ({!Homomorphism}).

    Which variables are bound before a step depends only on the atoms
    placed before it, never on the values they matched, so the order is
    fixed once per evaluation. The greedy rule: the forced atom first, then
    an atom whose every position is bound (it only filters; an atom that
    binds before it multiplies the work of the check, which for a
    containment search can be exponential), then the atom with the most
    bound positions, then atoms joined to the rest through a still-unbound
    shared variable before isolated atoms (an isolated atom placed early
    turns the join into a cross product that multiplies all later work by
    its cardinality), then the smaller relation. Ties go to body order.

    A plan is made in two halves: {!prepare} does the work that depends on
    the body alone, once, and {!order} the greedy loop under given sizes,
    so a body searched against many targets is prepared once. *)

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

type prepared
(** A body with its variables numbered and each one's sharing between atoms
    known: everything {!order} needs except the sizes. *)

val prepare : ?init:(Symbol.t -> bool) -> Atom.t list -> prepared
(** [prepare body]; [init] tells which variables are bound before the
    first step (default: none). *)

type order
(** The greedy order of a prepared body. *)

val order : ?forced:int -> sizes:int array -> prepared -> order
(** [order ~sizes p] orders the prepared body; [sizes.(i)] is the
    cardinality of the [i]-th atom's relation. [forced] is the index of an
    atom that must go first (semi-naive evaluation ranges it over a
    delta). *)

val ranks : int array -> int array
(** Each size's dense rank (the number of distinct smaller sizes). {!order}
    reads sizes only through [<], so [order ~sizes:(ranks s)] is
    [order ~sizes:s]: a memo of orders keyed by ranks hits for every size
    vector of the same shape. *)

val atoms : prepared -> order -> Atom.t array
(** The atoms of an {!order}, in its order. *)

val make :
  ?init:(Symbol.t -> bool) -> ?forced:int -> sizes:int array -> Atom.t list -> step array
(** [make ?init ?forced ~sizes body] orders [prepare ?init body] with
    {!order} and reads off what each step probes, checks and binds. *)
