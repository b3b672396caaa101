(** Columnar sealed storage for a relation.

    A block holds the relation's tuples as one flat [int array] per
    attribute, each entry the order-preserving {!Value.code} of the value.
    Blocks are immutable: every {!Relation.seal} {!extend}s the last one
    by the coded rows inserted since. Morsel-driven evaluation
    ({!Par_eval}) scans row ranges of these contiguous arrays instead of
    boxed tuple lists.

    The columns are the whole of a block's data. The compiled join
    machinery ({!Col_eval}) reaches rows through a CSR index per column,
    mapping a code to a contiguous range of row ids; that index is an
    access path, built on the first {!probe} of its column and never
    serialized. A block that is only scanned or imaged never builds one. *)

type t

module Itbl : Hashtbl.S with type key = int
(** Tables keyed by value code. *)

val empty : arity:int -> t
(** The block of no rows: a relation's block before its first seal. *)

val of_columns : arity:int -> nrows:int -> int array array -> (t, string) result
(** Adopt already coded columns (a decoded snapshot's) as a block, without
    copying them: [Error] unless there are [arity] columns of [nrows]
    codes each. The codes must be valid {!Value.code}s; the caller checks
    them. No index is built. *)

val extend : t -> int array array -> len:int -> t
(** [extend t tail ~len] is a new block holding [t]'s rows followed by the
    first [len] coded rows of [tail] (one code column per attribute, each
    at least [len] long): old columns are blitted, nothing is re-coded.
    Each index [t] has already built grows by its group's new row ids; an
    unbuilt one stays unbuilt. The input block is untouched (blocks stay
    immutable — in-flight readers of [t] are unaffected). *)

val arity : t -> int

val nrows : t -> int
(** Number of rows; row ids are [0 .. nrows - 1]. *)

val col : t -> int -> int array
(** The coded column for an attribute, of length [nrows]. Do not mutate. *)

val probe : t -> col:int -> int -> int array * int * int
(** [probe t ~col code] is [(rows, start, len)]: the row ids whose column
    [col] holds [code] are [rows.(start) .. rows.(start + len - 1)], in
    ascending order. [len = 0] when the code does not occur. Do not mutate
    [rows]. The first probe of a column builds its index; several domains
    may probe one block at once (racing builders each build the same
    index, and one of them is kept). *)

val indexed : t -> col:int -> bool
(** Whether the column's index has been built (by a {!probe}, or carried
    forward by {!extend}). *)

val decode_row : t -> int -> Tuple.t
(** Rebuild the boxed tuple stored at a row id. *)

val room : int array -> int -> int array
(** [room a n] is [a] when [n] indexes it, else a copy of [a] at least
    [2n] long: the growth step of every append-only code array. *)

val iter_rows : (Tuple.t -> unit) -> t -> unit
(** Decode every row in row-id order (testing and round-trip checks). *)
