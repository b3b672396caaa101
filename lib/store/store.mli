(** The durable instance store: one directory holding, per registry entry,
    a write-ahead log ([<name>.wal]) and numbered snapshot generations
    ([<name>.<gen>.snap]).

    Lifecycle: {!open_dir} creates the directory idempotently; {!recover}
    reads the latest valid snapshot generation and the WAL tail of every
    entry (truncating torn tails) and leaves the logs open for appending;
    {!log} appends one mutation record (fsync'd before returning when
    enabled — the server acks only after this); {!checkpoint} writes the
    next snapshot generation atomically (tmp file + rename + directory
    fsync), trims the log to empty and deletes older generations.

    Entry names are percent-encoded into filenames, so any registry name
    round-trips. All operations are serialized under an internal lock —
    the serving layer drives the store from its control thread, but tests
    and benches may not. *)

type t

type entry_status = {
  generation : int;  (** latest snapshot generation; [0] when none *)
  wal_records : int;  (** records in the WAL tail *)
  wal_bytes : int;
}

type recovered = {
  name : string;
  snapshot : Snapshot.t option;
  generation : int;
  skipped : (int * string) list;
      (** newer generations that did not decode, newest first, each with
          its decode error *)
  tail : Wal.record list;  (** mutations to replay on top of the snapshot *)
  torn_bytes : int;  (** bytes dropped from a torn WAL tail, [0] normally *)
}

val open_dir : ?fsync:bool -> string -> (t, string) result
(** Open (creating it, and any missing parents, if needed) a data
    directory. Idempotent; a permission or non-directory failure is a
    clear [Error], not an exception. [fsync] (default [true]) applies to
    every subsequent {!log} append and snapshot write. *)

val dir : t -> string
val fsync_enabled : t -> bool

val recover : t -> recovered list
(** Scan the directory: per entry, the newest snapshot generation that
    decodes cleanly (corrupt generations are skipped and listed in
    [skipped]) plus the valid WAL
    prefix. Torn WAL tails are truncated on disk. Sorted by name. *)

val log : t -> name:string -> Wal.record -> int
(** Append one record to the entry's WAL (creating it on first use);
    returns the framed byte size. On stable storage when fsync is
    enabled. *)

val checkpoint : t -> name:string -> Snapshot.t -> entry_status
(** Write snapshot generation [g+1] atomically, trim the entry's WAL to
    empty, delete generations [<= g]. The returned status reflects the new
    state ([wal_records = 0]). *)

val status : t -> name:string -> entry_status option
(** [None] for a name the store has never seen. *)

val close : t -> unit
