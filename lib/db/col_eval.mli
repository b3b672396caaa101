(** Compiled conjunctive-query evaluation over {!Columnar} blocks.

    {!compile} turns a CQ body into a fixed array of join steps against the
    sealed relations' columnar blocks: variables become numbered slots in
    one mutable [int array] binding frame, constants become pre-computed
    {!Value.code}s, and each step either probes a CSR column index or scans
    a contiguous column. The interpreter allocates nothing per candidate
    tuple, which removes the [Symbol.Map]/boxed-tuple churn that made the
    boxed engine minor-heap-bound under multiple domains.

    Answers stay coded integers end to end: {!run} refills one scratch row
    per match, {!Par_eval} copies it into flat fixed-stride partition
    buckets, and because {!Value.code} is order-preserving the
    sort/dedup/merge pipeline ({!sort_rows}, {!uniq_rows},
    {!compare_rows}) works on those flat ints and decodes
    ({!decode_row}) only the final, already-sorted answer set — yielding
    byte-identical results to {!Eval.ucq}. *)

open Tgd_logic

type t

type compiled =
  | Compiled of t
  | Empty
      (** A body atom can never match (unknown predicate or arity
          mismatch): the disjunct has no answers. *)

val compile : Instance.t -> Cq.t -> compiled
(** Order one disjunct with {!Join_plan.make} (the plan {!Eval.bindings}
    interprets) and translate it into slots, codes and captured columns
    against a sealed instance. Raises [Invalid_argument] when a body
    relation has no current block — it was never sealed, or rows were
    inserted since its last seal ({!Instance.seal} first). *)

val out_arity : t -> int

val steps : t -> Join_plan.step array
(** The join plan this was compiled from. *)

val pp : Format.formatter -> t -> unit
(** One numbered line per step: its atom, its access path (index probe or
    scan) and its block's row count. *)

val lead_len : t -> int
(** Number of candidate rows of the leading step — the scan that
    {!Par_eval} splits into morsels. *)

val run :
  ?gov:Tgd_exec.Governor.t ->
  t ->
  lo:int ->
  hi:int ->
  emit:(int array -> unit) ->
  unit
(** Evaluate the compiled plan over the leading step's candidate rows
    [lo .. hi - 1] (a morsel; [0 .. lead_len] covers the disjunct),
    calling [emit] with the coded answer per match. The emitted array is a
    single scratch buffer refilled between matches — callers must copy
    what they keep (duplicates included: deduplication is the caller's
    partition-owned business). A governed run charges [eval.steps] per
    join node in batches and stops emitting once the governor trips, like
    {!Eval}. *)

val hash_codes : int array -> int
(** Hash of a coded answer — {!Par_eval}'s partition router. Equal
    answers hash alike, so every duplicate lands in the same partition
    and the per-partition sort puts it adjacent. *)

val compare_rows : int array -> int -> int array -> int -> stride:int -> int
(** [compare_rows a oa b ob ~stride] compares the [stride] codes at
    offset [oa] of [a] against those at [ob] of [b] lexicographically.
    Because {!Value.code} is order-preserving, on rows of one arity this
    equals [Tuple.compare] on the decoded tuples. *)

val sort_rows : int array -> stride:int -> rows:int -> unit
(** Sort the [rows] fixed-[stride] rows of a flat bucket in place — a
    direct-call quicksort; at n log n comparisons per answer partition
    [Array.sort]'s per-row boxing and closure indirection would be the
    sort. *)

val uniq_rows : int array -> stride:int -> rows:int -> int
(** Compact duplicate adjacent rows (i.e. all duplicates, post
    {!sort_rows}) to the front in place; returns the unique row count. *)

val decode_row : int array -> stride:int -> row:int -> Tuple.t
(** Decode one bucket row back to a boxed tuple, in {!Value.code}'s
    order-preserving inverse. *)
