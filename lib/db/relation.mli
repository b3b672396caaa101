(** A mutable extensional relation: a set of tuples of a fixed arity, held
    once, as {!Value.code}s: a {!Columnar} block of the rows up to the last
    {!seal}, then pending tails of the rows since, which {!Col_eval} reads
    directly. Row order is the block's, then the tails' oldest first: the
    order of the inserts since creation or the last {!substitute}. *)

type t

val create : arity:int -> t
val arity : t -> int
val cardinality : t -> int

val copy : t -> t
(** A private, unshared duplicate; the original is {!share}d by it. The
    block and the tails, which can no longer grow, are shared with their
    row sets and indexes, and the copy inserts into a new tail: nothing
    proportional to the relation is copied (past a few tails, those are
    merged into one). {!Instance} calls it on the first write into a
    relation that an {!Instance.copy} made shared. *)

val share : t -> unit
(** Mark the relation as reachable from more than one instance. From then
    on it is frozen for good: {!insert}, and a {!seal} or {!substitute}
    that would change it, raise [Invalid_argument]; a writer {!copy}s it
    and writes the copy. Readers are unaffected. *)

val shared : t -> bool

val insert_codes : t -> int array -> bool
(** Insert a row of valid {!Value.code}s (the array is not kept): [true]
    iff it was not present. Raises [Invalid_argument] on an arity mismatch
    or a {!shared} relation. *)

val mem_codes : t -> int array -> bool
(** Through hash sets of row ids: the block's, built by the first probe
    (racing domains each build the same one), and each tail's, extended on
    insert. Expected O(1) whatever the skew of any column; no allocation. *)

val insert : t -> Tuple.t -> bool
(** {!insert_codes} of the coded tuple. Raises [Invalid_argument] as it
    does, or on a value with no code, and then leaves the relation
    unchanged. *)

val mem : t -> Tuple.t -> bool
(** [false] for a tuple of another arity or with a value with no code. *)

val iter_codes : (int array -> unit) -> t -> unit
(** Every row in row order, in one scratch buffer: copy what you keep. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Every row, decoded into a fresh tuple, in row order. *)

val to_list : t -> Tuple.t list

val lookup : t -> pos:int -> Value.t -> Tuple.t list
(** The rows whose 0-based column [pos] holds the value, in row order,
    through the {!segments}' probes: safe on a {!shared} relation read
    from several domains. *)

val seal : t -> unit
(** Fold the pending tails into the block ({!Columnar.extend}): nothing is
    re-coded, and only the indexes and row set some probe already built
    are grown. Sealing a relation with no pending row only reads it, even
    when it is {!shared}; raises [Invalid_argument] if it would write a
    shared one. *)

val block : t -> Columnar.t
(** The rows up to the last {!seal} (an empty block before the first). *)

val pending : t -> int
(** The number of rows inserted since the last {!seal}. *)

type segment = {
  cols : int array array;  (** one code column per attribute; do not mutate *)
  nrows : int;  (** the segment's rows are its columns' first [nrows] codes *)
  probe : col:int -> int -> int array * int * int;
      (** [(ids, start, n)]: the segment's rows whose column [col] holds
          the code are [ids.(start) .. ids.(start + n - 1)], ascending.
          The first probe of a column builds its index (racing domains
          each build the same one). Do not mutate [ids]. *)
}

val segments : t -> segment list
(** The rows now, in row order: the {!block}'s, then each pending tail's,
    oldest first, as a {!seal} folds them. A segment does not grow: rows
    inserted later are in none of its probes. *)

val block_segment : Columnar.t -> segment
(** A block's rows as a segment; {!segments} starts with its {!block}'s. *)

val of_columnar : Columnar.t -> t
(** Adopt a decoded snapshot block ({!Columnar.of_columns}) as the block,
    without re-coding it. *)

val mentions : t -> Value.t -> bool
(** Some row holds the value (through the per-column indexes). *)

val substitute : t -> from_:Value.t -> to_:Value.t -> int array list
(** Replace [from_] by [to_] in every row, in place, when some row holds
    [from_] ({!mentions}). The rows are re-coded into a new tail behind an
    empty block: the untouched ones in their order, then the rewritten
    ones that collide with no row, which are returned, coded. Raises
    [Invalid_argument] on a {!shared} relation that holds [from_], or when
    [to_] has no code. The chase's EGD merges use it to rewrite only the
    relations a merged value touches. *)
