(** Columnar sealed storage for a relation.

    A block holds the relation's tuples as one flat [int array] per
    attribute, each entry the order-preserving {!Value.code} of the value.
    Blocks are immutable: every {!Relation.seal} {!extend}s the last one
    by the coded rows inserted since. The columns are the whole of a
    block's data. Access paths are built on first use and never
    serialized: a CSR index per column ({!probe}), mapping a code to a
    contiguous range of row ids, and a hash set of row ids ({!mem}). *)

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

val mem : t -> int array -> bool
(** Some row holds exactly these codes. The first call builds the row set
    (racing domains each build the same one, as for {!probe}); then a call
    takes expected O(1) time whatever the skew of any column, and
    allocates nothing. *)

val hash_codes : int array -> int
(** A non-negative hash of a coded row, mixing every code: the row sets'
    and the chase's trigger keys. *)

type rowset
(** A growable hash set of row ids, keyed by the codes the rows hold in
    columns the caller passes to every call. *)

val rowset_create : unit -> rowset

val rowset_mem : rowset -> int array array -> int array -> bool
(** [rowset_mem s cols codes]: some row id in [s] holds [codes] in [cols]. *)

val rowset_add : rowset -> int array array -> int -> unit
(** Add a row id whose codes are in no row of the set yet; [cols] must
    hold every row of the set. *)

val published : 'a option Atomic.t -> ('b -> 'c -> 'a) -> 'b -> 'c -> 'a
(** [published slot build a b]: the slot's value, [build a b] published
    with one atomic write by the first caller (racing domains each build
    the same value; one is kept). A read of a built slot allocates
    nothing. *)

val room : int array -> int -> int array
(** [room a n] is [a] when [n] indexes it, else a copy of [a] at least
    [2n] long: the growth step of every append-only code array. *)
