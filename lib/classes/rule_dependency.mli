(** The graph of rule dependencies (GRD) of Baget, Leclère, Mugnier, Salvat.

    [R2] depends on [R1] when an application of [R1] can trigger a new
    application of [R2]; we decide this with the piece-unification test:
    some piece of [body(R2)], read as a boolean query, piece-unifies with
    the head of (a single-head fragment of) [R1]. This is the standard
    unifier-based criterion; it may over-approximate dependencies in corner
    cases, which only makes the acyclicity check conservative (it never
    wrongly declares a program acyclic). A program with an acyclic GRD is
    both chase-terminating and FO-rewritable. *)

open Tgd_logic

val depends : on:Tgd.t -> Tgd.t -> bool
(** [depends ~on:r1 r2]: can firing [r1] enable a new application of [r2]?
    Splitting a multi-head [r1] interns a fresh auxiliary predicate per
    call; {!acyclic} reads the program's rewriting view instead, so a
    repeat check of one program interns nothing. *)

val acyclic : Program.t -> bool
(** [acyclic p] holds when {!graph} has no cycle (conservatively, given
    that {!depends} may over-approximate): the chase terminates and the
    program is FO-rewritable. *)
