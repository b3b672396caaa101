(** P-atoms (Definition 6): atoms over the finite canonical vocabulary used
    by the P-node graph.

    Arguments are the tracked-existential marker [z], canonical variables
    [x1, x2, ...] (first-occurrence numbering within a P-node), or constants
    of the program. The pool of canonical variables is bounded by the sum of
    arities in a node, hence finite for a fixed program — this slightly
    relaxes Definition 6's bound (max arity) so that a node's context can
    name all its variables without conflation; the graph stays finite. *)

open Tgd_logic

type term =
  | Z  (** the tracked existential variable *)
  | X of int  (** canonical variable [x_i], [i >= 1] *)
  | C of Symbol.t  (** a constant of the program *)

type t = {
  pred : Symbol.t;
  args : term array;
}

val term_compare : term -> term -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val has_z : t -> bool
val x_vars : t -> int list
(** Canonical-variable indexes occurring, with duplicates, in argument
    order. *)
