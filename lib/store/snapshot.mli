(** Binary snapshot codec for registry entries.

    A snapshot is the durable image of one registry entry at a quiescent
    point: its epochs, the ontology source text, the sealed instance, and
    the live chase materialization (if any). Sealed instances are written
    {e near-verbatim}: each relation's {!Tgd_db.Columnar} block — flat
    coded columns plus CSR indexes — is dumped as raw little-endian words
    together with the symbol intern table slice it references, so loading
    is a bulk read plus a single symbol-remap pass (intern ids are
    process-local), not a re-seal: values are never re-coded and row
    groupings never re-hashed. A relation whose block is stale (rows
    appended since its last seal, as a write leaves the materialized
    model) is written as the block a seal would give, built on the side
    ({!Tgd_db.Relation.current_block}), so the image does not depend on
    whether the instance was sealed. Relations without a block (never
    sealed, or rewritten by an EGD merge since) fall back to boxed row
    encoding.

    The file is framed [magic | version | u32 length | body | u32 CRC-32];
    {!decode} rejects any tampered or truncated image, which is how
    recovery skips a torn half-written snapshot generation (writers avoid
    that via tmp + rename, but recovery must not trust it). *)

type materialization = {
  model : Tgd_db.Instance.t;
  floor : int;  (** null floor for the next delta application *)
  complete : bool;
}

type t = {
  epoch : int;
  delta_epoch : int;
  program_src : string;
      (** the ontology in the repository's text format; re-parsed on load *)
  instance : Tgd_db.Instance.t;
  materialization : materialization option;
}

val encode : t -> string

val decode : string -> (t, string) result
(** Rebuilds the instances. Symbol ids found in coded columns are remapped
    through the embedded intern-table slice (fresh processes intern in a
    different order); null labels are preserved verbatim, so [floor] and
    the epochs survive exactly. *)
