(** Morsel-driven parallel evaluation of unions of conjunctive queries.

    The engine seals the instance ({!Instance.seal}) and runs compiled
    columnar plans ({!Col_eval}) in two phases, one path for any worker
    count. The scan splits each disjunct's leading scan into contiguous
    row-range morsels over the relation's {!Columnar} block, and every
    task pushes its coded answers onto its {e lane}'s flat bucket for
    their arity ({!Col_eval.bucket}: one blit of [arity] ints per emitted
    match — duplicates included, bounded by the governor's [eval.steps]
    budget when one is given). A lane is a task when several workers run
    and the calling domain when one does. The merge splits each arity's
    first answer column into ordered, disjoint code ranges; each range
    goes to one worker, which gathers its rows from every lane, radix
    sorts ({!Col_eval.sort_rows}), deduplicates and decodes them, and the
    ranges' lists are appended in order. With one worker and one range
    the bucket is sorted and compacted in place. No mutex is taken and
    no per-answer heap block is allocated on the answer path.

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
    [partitions] is the most first-column code ranges the merge splits
    each answer arity into (default [workers]; raises [Invalid_argument]
    when [< 1]). Ranges have equal code width, so a skewed first column
    leaves some ranges with more rows than others; each range reads every
    lane. A disjunct whose leading scan has fewer than
    [min_tuples] rows (default 512) is not split: it is one morsel. Morsels are dispatched through
    {!Tgd_exec.Pool.run_morsels} (the caller participates) on [pool] when
    given; otherwise a parallel call spawns a transient pool of
    [workers - 1] domains at its first batch of more than one item and
    joins it before returning. A one-worker call runs on the calling
    domain. *)
