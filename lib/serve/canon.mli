(** Variable-renaming- and atom-order-invariant canonical forms for CQs —
    the prepared-query cache key.

    {!Cq.canonical} renames in first-occurrence order, so reordering the
    body atoms changes its output; a cache keyed on it would miss
    syntactically reshuffled resubmissions of the same query. This module
    computes a canonical presentation that is invariant under both
    consistent variable renaming and body reordering: answer variables are
    named in answer-tuple order (the tuple is significant, so this is
    forced), and the existential variables are named by an exhaustive
    search for the lexicographically least rendering of the sorted body.

    Soundness for caching is unconditional: the key is a faithful rendering
    of the renamed query, so equal keys imply the two queries are identical
    up to variable renaming — in particular homomorphically equivalent —
    and their UCQ rewritings coincide up to renaming. Completeness (no
    cache miss on a reshuffled query) holds whenever the exhaustive search
    runs, i.e. up to {!max_exact_existentials} existential variables;
    beyond that a deterministic greedy labeling is used ([exact = false])
    and a pathological symmetric query may map to several keys — costing a
    duplicate cache entry, never a wrong answer. *)

open Tgd_logic

type t = private {
  cq : Cq.t;  (** the canonical presentation: renamed variables, sorted body *)
  key : string;  (** unambiguous rendering of [cq]; the cache key *)
  hash : int;  (** [Hashtbl.hash] of [key] *)
  exact : bool;  (** whether the exhaustive labeling search completed *)
}

val max_exact_existentials : int
(** Exhaustive-search bound on the number of existential variables (8). *)

val of_cq : Cq.t -> t
