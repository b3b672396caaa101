(** Columnar sealed storage for a relation.

    A block holds the relation's tuples as one flat [int array] per
    attribute, each entry the order-preserving {!Value.code} of the value,
    plus a CSR index per column mapping a code to a contiguous range of row
    ids. Blocks are immutable: {!Relation.seal} builds one, and after later
    inserts the next seal {!extend}s it. Morsel-driven evaluation
    ({!Par_eval}) scans row ranges of these contiguous arrays instead of
    boxed tuple lists, and the compiled join machinery ({!Col_eval}) probes
    the CSR indexes without allocating. *)

type t

val build : arity:int -> Tuple.t array -> t
(** Encode a tuple snapshot. Every value has a code ({!Value.code}, which
    raises [Invalid_argument] on one out of range). *)

val extend : t -> Tuple.t array -> t
(** [extend t appended] is a new block holding [t]'s rows followed by
    [appended], without re-encoding or re-hashing the sealed prefix: old
    columns are blitted, only the appended tuples are coded, and each CSR
    index grows by its group's new row ids. The input block is untouched
    (blocks stay immutable — in-flight readers of [t] are unaffected). *)

val arity : t -> int

val nrows : t -> int
(** Number of rows; row ids are [0 .. nrows - 1]. *)

val col : t -> int -> int array
(** The coded column for an attribute, of length [nrows]. Do not mutate. *)

val probe : t -> col:int -> int -> int array * int * int
(** [probe t ~col code] is [(rows, start, len)]: the row ids whose column
    [col] holds [code] are [rows.(start) .. rows.(start + len - 1)].
    [len = 0] when the code does not occur. Do not mutate [rows]. *)

val decode_row : t -> int -> Tuple.t
(** Rebuild the boxed tuple stored at a row id. *)

val iter_rows : (Tuple.t -> unit) -> t -> unit
(** Decode every row in row-id order (testing and round-trip checks). *)

(** {1 Serialization hooks}

    The durable store ({!Tgd_store.Snapshot}) persists blocks near-verbatim:
    the flat columns and the CSR index arrays are written as they are, so a
    snapshot load is a bulk read plus one symbol-remap pass — no value
    re-coding and no index re-hashing. *)

type parts = {
  p_arity : int;
  p_nrows : int;
  p_cols : int array array;  (** [arity] coded columns of [nrows] entries *)
  p_codes : int array array;
      (** per column: the value code of each group, indexed by group id *)
  p_starts : int array array;  (** per column: CSR group offsets *)
  p_rows : int array array;  (** per column: row ids grouped by code *)
}

val export : t -> parts
(** The block's arrays, shared (not copied) — treat them as read-only. *)

val import : parts -> (t, string) result
(** Rebuild a block from {!export}ed (possibly code-remapped) parts without
    re-encoding values or re-grouping rows: only the per-column code->group
    hashtables are refilled, one entry per distinct code. The arrays are
    adopted, not copied, after one linear pass checks their shape: column
    lengths, and per index group offsets that run from 0 to [nrows] without
    decreasing (one more than there are groups) and row ids in
    [[0, nrows)]. [Error] names the first broken rule.
    The column and index counts must already match [p_arity]. *)
