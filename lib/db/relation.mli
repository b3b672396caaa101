(** A mutable extensional relation: a set of tuples of a fixed arity with
    per-column hash indexes (built lazily, maintained incrementally) and,
    once sealed, a {!Columnar} block — the scan unit of compiled and
    morsel-parallel evaluation ({!Col_eval}, {!Par_eval}). *)

type t

val create : arity:int -> t
val arity : t -> int
val cardinality : t -> int

val copy : t -> t
(** A private, unshared duplicate: the row set and the built indexes are
    structurally copied (the tuples themselves are shared — they are never
    mutated), and the frozen seal artifacts (columnar block, pending
    append tail) are shared outright. Inserting into either side leaves
    the other unchanged. {!Instance} calls it on the first write into a
    relation that an {!Instance.copy} made shared. *)

val share : t -> unit
(** Mark the relation as reachable from more than one instance. From then
    on it is frozen for good: {!insert}, and a {!seal} or {!substitute}
    that would change it, raise [Invalid_argument]; a writer {!copy}s it
    and writes the copy. Readers are unaffected. *)

val shared : t -> bool

val insert : t -> Tuple.t -> bool
(** [true] iff the tuple was not already present. Raises [Invalid_argument]
    on an arity mismatch or a {!shared} relation. *)

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
(** Encode the {!Columnar} block, so that every sealed relation has one.
    Idempotent: sealing a relation with no insert since its last seal only
    reads it, even when it is {!shared}. The block survives inserts as a
    stale prefix plus a pending tail, and the next seal {e extends} it
    ({!Columnar.extend}) — only the appended tuples are coded, and only
    the indexes some probe already built are grown. Raises
    [Invalid_argument] if it would write a shared relation. *)

val columnar : t -> Columnar.t option
(** The columnar block built by the last {!seal}, if it still mirrors the
    rows exactly: [None] when the relation was never sealed, or has
    pending rows or a substitution since. *)

val sealed_parts : t -> Columnar.t option * Tuple.t list
(** The last sealed block (even when stale) and the pending tail inserted
    since it was built, in insertion order. [(None, rows)] when the
    relation holds no block, in the order a {!seal} would code them.
    Together the block and the tail always cover exactly the current rows,
    and the block's columns followed by the coded tail are the columns one
    seal would give — which is how the snapshot codec writes a relation
    without sealing it. *)

val of_columnar : Columnar.t -> t
(** Rebuild a relation from a decoded snapshot block
    ({!Columnar.of_columns}): the block is adopted as the sealed columnar
    representation (no re-encode; the relation is sealed as it stands; its
    indexes are built by the first probe of each column), and the boxed
    row set is populated by decoding each row once, on the first boxed
    read or insert. *)

val mentions : t -> Value.t -> bool
(** Some row holds the value (through the per-column indexes). *)

val substitute : t -> from_:Value.t -> to_:Value.t -> Tuple.t list
(** Rewrite, in place, every row containing [from_] (located through the
    per-column indexes) by replacing [from_] with [to_]. Returns the
    rewritten rows that are new to the relation (a rewrite may collide
    with an existing row). Discards every frozen seal artifact — rewriting
    sealed rows cannot be expressed as an append. Raises
    [Invalid_argument] on a {!shared} relation that holds [from_]. The
    chase's EGD merges ({!Tgd_chase.Chase.run}) use this to rewrite only
    the touched equivalence class. *)
