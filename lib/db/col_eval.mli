(** Compiled conjunctive-query evaluation: the library's one CQ evaluator,
    run by UCQ answering ({!Par_eval}), the chase's searches, Datalog goals
    and mapping materialization.

    {!compile} turns a CQ body into a fixed array of join steps against
    each relation's coded rows — its {!Columnar} block, then its pending
    tail: variables become numbered slots in one [int array] binding
    frame, constants become {!Value.code}s, and each step probes a column
    index or scans. The interpreter allocates nothing per candidate.

    Answers stay coded integers end to end: {!run} refills one scratch row
    per match, {!Par_eval} copies it into flat fixed-stride buffers, and
    because {!Value.code} is order-preserving the radix sort, dedup and
    merge ({!sort_rows}, {!uniq_rows}, {!compare_rows}) work on those
    flat ints and decode ({!decode_rows}) only the final, already-sorted
    answer set. *)

open Tgd_logic

type t

val compile :
  ?bound:Symbol.t list -> ?forced:int * Tuple.t list -> Instance.t -> Cq.t -> t
(** Order one disjunct with {!Join_plan.make} and translate it into slots,
    codes and captured columns. Each step reads its relation's block, then
    its pending tail up to the length it has now: rows inserted later are
    not read by this plan. An atom whose predicate has no relation, or one
    of another arity, reads no rows. [bound] names variables bound before
    the search (the restricted check's frontier); {!iter} takes their
    codes in this order. With [~forced:(i, rows)] the [i]-th body atom
    (0-based) goes first and ranges over [rows] instead of its relation —
    the semi-naive delta. *)

val can_match : t -> bool
(** [false] when some step reads no rows: the plan has no answers. *)

val out_arity : t -> int

val steps : t -> Join_plan.step array
(** The join plan this was compiled from. *)

val pp : Format.formatter -> t -> unit
(** One numbered line per step: its atom, its access path (index probe or
    scan) and its row count. *)

val lead_len : t -> int
(** Number of candidate rows of the leading step — the scan that
    {!Par_eval} splits into morsels. *)

val run : ?gov:Tgd_exec.Governor.t -> t -> lo:int -> hi:int -> emit:(int array -> unit) -> unit
(** Evaluate the compiled plan over the leading step's candidate rows
    [lo .. hi - 1] (a morsel; [0 .. lead_len] covers the disjunct),
    calling [emit] with the coded answer per match, duplicates included,
    in one scratch buffer refilled between matches: copy what you keep. A
    governed run charges [eval.steps] per join node in batches (many
    domains share one governor) and stops emitting once it trips. *)

val iter : ?gov:Tgd_exec.Governor.t -> ?bound:int array -> t -> (int array -> unit) -> unit
(** Evaluate a whole plan on the calling domain, calling [emit] with the
    coded answer (a scratch buffer, as in {!run}) per match; [emit] may
    insert into the instance. A governed search charges [eval.steps]
    exactly, once at its root and once per join node, checking the
    governor at each: a node reached after it trips is counted but not
    searched below. *)

val cq : ?gov:Tgd_exec.Governor.t -> Instance.t -> Cq.t -> Tuple.t list
(** All answers of one CQ by {!iter}, decoded, deduplicated and sorted by
    [Tuple.compare]; a satisfiable boolean query answers [[ [||] ]]. *)

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
(** Sort the first [rows] fixed-[stride] rows of a flat buffer in place,
    into {!compare_rows} order, leaving the rest of the array untouched:
    a stable LSD radix sort, one 11-bit digit pass at a time from the
    last column to the first, each column taking only the passes its
    code range needs — linear in [rows] (an insertion sort for a handful
    of rows). *)

val uniq_rows : int array -> stride:int -> rows:int -> int
(** Compact duplicate adjacent rows (i.e. all duplicates, post
    {!sort_rows}) to the front in place; returns the unique row count. *)

val decode_row : int array -> stride:int -> row:int -> Tuple.t
(** Decode one bucket row back to a boxed tuple, in {!Value.code}'s
    order-preserving inverse. *)

val decode_rows : int array -> stride:int -> rows:int -> Tuple.t list -> Tuple.t list
(** [decode_rows a ~stride ~rows acc] is rows [0 .. rows - 1] of [a],
    decoded in order, in front of [acc]. *)
