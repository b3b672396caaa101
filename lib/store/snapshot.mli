(** Binary snapshot codec for registry entries.

    A snapshot is the durable image of one registry entry at a quiescent
    point: its epochs, the ontology source text, the instance, and the live
    chase materialization (if any). Each relation is written as its coded
    columns ({!Tgd_db.Value.code}) — predicate, arity and row count, then
    per column the codes a seal would give: the {!Tgd_db.Columnar} block's
    codes followed by the pending tail's ({!Tgd_db.Relation.tail}). Writing seals
    and extends nothing, and the image does not depend on whether the
    instance was sealed. Indexes are not written: a loaded block builds
    each column's index on its first probe. The image carries the symbol
    intern table slice its codes reference, so loading is a bulk read plus
    a single symbol-remap pass (intern ids are process-local) that adopts
    the columns as blocks ({!Tgd_db.Columnar.of_columns}).

    The file is framed [magic | version | u32 length | body | u32 CRC-32],
    with magic [TGDSNAP2] and version 2. {!decode} also reads version 1
    images ([TGDSNAP1], which carried every block's CSR index — skipped on
    load — and boxed rows for block-less relations). It rejects any
    tampered or truncated image, which is how recovery skips a torn
    half-written snapshot generation (writers avoid that via tmp + rename,
    but recovery must not trust it). *)

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
(** Raises [Invalid_argument] on a value with no code ({!Tgd_db.Value.code}). *)

val decode : string -> (t, string) result
(** Rebuilds the instances. Symbol ids found in coded columns are remapped
    through the embedded intern-table slice (fresh processes intern in a
    different order); null labels are preserved verbatim, so [floor] and
    the epochs survive exactly. *)
