(** The registry of cross-layer conformance invariants.

    Nine invariant classes, each a metamorphic or differential statement
    the paper (or the serving architecture) promises:

    - {b subsumption}: the classifier lattice holds — linear ⊆ multilinear ⊆
      guarded, linear/multilinear ⊆ SWR on simple sets, sticky ⊆ sticky-join,
      datalog ⊆ weakly-acyclic, SWR ⊆ WR (when the WR graph completed), and a
      weakly-acyclic claim means the chase actually terminates;
    - {b differential}: on SWR-classified cases, rewrite∘evaluate equals
      chase-materialize-then-evaluate (Definition 1 made executable);
    - {b metamorphic}: answer-preserving transforms preserve answers —
      consistent variable renaming (also at the {!Tgd_serve.Canon} key level),
      body atom reordering, disjunct permutation of the rewriting, union with
      a subsumed CQ, fact duplication;
    - {b serve}: the serving path (registry + prepared cache + epochs) returns
      byte-identical JSON answers to direct rewrite∘evaluate, across cache
      misses, hits, and epoch bumps — and never serves a stale epoch;
    - {b eval-parallel}: morsel-parallel evaluation agrees byte-for-byte
      with sequential evaluation, at worker/partition counts derived from
      the case seed;
    - {b truncation}: budget-truncated runs are sound — the answers of a
      truncated rewriting and of a truncated chase are subsets of the
      complete ones;
    - {b update-sequence}: applying 1–8 fuzzed insert batches through the
      incremental chase ({!Tgd_chase.Chase.run} [~batch]) yields, after
      every batch, the same certain answers, the same null-free facts, and
      a model hom-equivalent in both directions to a from-scratch chase of
      the accumulated facts (the naive reference chase);
    - {b durability}: persisting through the WAL and/or a snapshot and
      recovering into a fresh server changes no observable — answers,
      epochs, null-free facts, materialization;
    - {b rewrite-target}: the UCQ and the shared-pattern Datalog rewriting
      backends ({!Tgd_rewrite.Rewrite} vs {!Tgd_rewrite.Datalog_rw})
      compute identical certain answers on every case where both report a
      complete artifact — no class gating, since a terminated piece
      fixpoint is complete regardless of the classifier's verdict.

    Every check consults the stack only through an {!Oracle.t}, so a fault
    injected into one oracle field must be caught by the corresponding
    invariant (the mutant acceptance tests in [test/test_conformance.ml]). *)

type outcome =
  | Pass
  | Fail of string  (** the invariant is violated; the message is the witness *)
  | Skip of string  (** the case does not qualify (budget hit, class mismatch) *)

type t = {
  name : string;
  describe : string;
  check : Oracle.t -> Case.t -> outcome;
}

val all : t list
(** The full registry, in reporting order. *)

val find : string -> t option

val outcome_to_string : outcome -> string
