(** A mutable extensional relation: a set of tuples of a fixed arity, held
    twice. The boxed side is a row set with per-column hash indexes (built
    lazily, maintained incrementally). The coded side, which compiled
    evaluation ({!Col_eval}) reads, is a {!Columnar} block of the rows up
    to the last {!seal}, then pending tails of the rows since. *)

type t

val create : arity:int -> t
val arity : t -> int
val cardinality : t -> int

val copy : t -> t
(** A private, unshared duplicate; the original is {!share}d by it. The
    row set and the built indexes are copied (the tuples themselves are
    shared — they are never mutated); the block and the original's tails,
    which can no longer grow, are shared (folded into a new block once
    there are more than a few). {!Instance} calls it on the first write
    into a relation that an {!Instance.copy} made shared. *)

val share : t -> unit
(** Mark the relation as reachable from more than one instance. From then
    on it is frozen for good: {!insert}, and a {!seal} or {!substitute}
    that would change it, raise [Invalid_argument]; a writer {!copy}s it
    and writes the copy. Readers are unaffected. *)

val shared : t -> bool

val insert : t -> Tuple.t -> bool
(** [true] iff the tuple was not already present. Raises [Invalid_argument]
    on an arity mismatch, a {!shared} relation, or a value with no code
    ({!Value.code}), and then leaves the relation unchanged. *)

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val to_list : t -> Tuple.t list

val lookup : t -> pos:int -> Value.t -> Tuple.t list
(** Tuples whose 0-based column [pos] holds the given value; backed by a
    hash index built on first use for that column. Safe on a {!shared}
    relation read from several domains at once: each lazy part (the index,
    and the row set of a snapshot-adopted relation) is built privately and
    then published whole, so racing readers at worst build it twice. *)

val seal : t -> unit
(** Fold the pending tails into the block ({!Columnar.extend}): nothing is
    re-coded, and only the indexes some probe already built are grown.
    Sealing a relation with no pending row only reads it, even when it is
    {!shared}. Raises [Invalid_argument] if it would write a shared one. *)

val block : t -> Columnar.t
(** The rows up to the last {!seal} (an empty block before the first). *)

type tail
(** Coded rows. An insert appends to its relation's last tail. *)

val tails : t -> tail list
(** {!block} and these hold exactly the current rows, in the order a
    {!seal} folds them. All but the last are shared with the relations
    this one was {!copy}'d from, and never grow. *)

val pending : t -> int
(** The number of rows in the tails. *)

val tail_len : tail -> int

val tail_col : tail -> int -> int array
(** An attribute's codes; the first {!tail_len} are rows. Do not mutate. *)

val tail_probe : tail -> col:int -> int -> int array * int
(** [(ids, n)]: the tail rows whose column [col] holds the code are
    [ids.(0) .. ids.(n - 1)], ascending. The first probe of a column
    builds its index (racing domains each build the same one), and later
    inserts extend it. Do not mutate [ids]. *)

val of_columnar : Columnar.t -> t
(** Rebuild a relation from a decoded snapshot block
    ({!Columnar.of_columns}): the block is adopted as the relation's block
    (no re-encode; the tail is empty; its indexes are built by the first
    probe of each column), and the boxed row set is populated by decoding
    each row once, on the first boxed read or insert. *)

val mentions : t -> Value.t -> bool
(** Some row holds the value (through the per-column indexes). *)

val substitute : t -> from_:Value.t -> to_:Value.t -> Tuple.t list
(** Rewrite, in place, every row containing [from_] (located through the
    per-column indexes) by replacing [from_] with [to_]. Returns the
    rewritten rows that are new to the relation (a rewrite may collide
    with an existing row). Every row is then re-coded into a new tail behind
    an empty block. Raises [Invalid_argument] on a {!shared} relation that holds [from_]. The
    chase's EGD merges ({!Tgd_chase.Chase.run}) use this to rewrite only
    the touched equivalence class. *)
