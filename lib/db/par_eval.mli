(** Morsel-driven parallel evaluation of unions of conjunctive queries.

    The engine seals the instance ({!Instance.seal}) and runs compiled
    columnar plans ({!Col_eval}): each disjunct's leading scan is split
    into contiguous row-range morsels over the relation's {!Columnar}
    block, and answers are {e partition-owned} — every task hashes its
    coded answers into task-private flat partition buckets (one blit of
    [arity] ints per emitted match — duplicates included, bounded by the
    governor's [eval.steps] budget when one is given), a second parallel
    phase gives each of the P partitions to one worker for lock-free
    radix sorting ({!Col_eval.sort_rows}), deduplication and decoding, and
    the sequential tail is a k-way merge of disjoint sorted runs. With one
    worker there is one partition: answers go straight into one flat
    buffer per arity, sorted and compacted in place and decoded into the
    result, with no hash, copy or merge. No mutex is taken and no
    per-answer heap block is allocated on the answer path.

    Results are deduplicated and sorted by [Tuple.compare], byte-identical
    to {!Col_eval.cq}'s union over the disjuncts.

    Governance survives parallelism: all workers poll the one shared
    governor (the columnar engine charges [eval.steps] in batches, so the
    shared atomic counter is off the per-tuple path), [eval.morsels] is
    charged per dispatched task, the [eval.par.workers] peak gauge is
    recorded, and merge time accumulates in the [eval.par.merge] phase —
    all only when a governor is present; the ungoverned path takes no
    timestamps and touches no telemetry.

    Sealing writes only to a relation inserted into since its last seal
    (or never sealed); on an instance already sealed it only reads. So
    any number of domains may evaluate on a shared sealed instance — the
    registry seals every instance before it is shared — while an instance
    that is still being loaded must not be evaluated on concurrently. The
    instance must not be mutated during evaluation. *)

open Tgd_logic

val ucq :
  ?gov:Tgd_exec.Governor.t ->
  ?pool:Tgd_exec.Pool.t ->
  ?workers:int ->
  ?min_tuples:int ->
  ?partitions:int ->
  Instance.t ->
  Cq.ucq ->
  Tuple.t list
(** Union of the answers of the disjuncts, deduplicated and sorted. Seals
    [inst] first. Worker count is [workers] if
    given, else the [pool]'s size, else {!Tgd_exec.Pool.default_workers}.
    [partitions] is the answer-partition count P of the columnar merge
    (default [4 × workers], unused with one worker; raises
    [Invalid_argument] when [< 1]); more
    partitions balance skewed answer distributions, fewer amortize the
    per-partition setup. A disjunct whose leading scan has fewer than
    [min_tuples] rows (default 512) runs on the calling domain, still
    columnar. Morsels are dispatched through
    {!Tgd_exec.Pool.run_morsels} (the caller participates) on [pool] when
    given; otherwise a parallel call spawns a transient pool of
    [workers - 1] domains at its first batch and joins it before
    returning. *)
