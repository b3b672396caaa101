(** Per-entry write-ahead log.

    One log file per registry entry, holding the mutating operations
    applied since the entry's last snapshot, in order. Records are framed
    [u32 length | u32 CRC-32 | payload] and appended with an optional
    [fsync] before the server acknowledges the operation, so every acked
    mutation survives a crash. A torn tail (partial last record after a
    crash, or any corrupted frame) is detected by the length/CRC check:
    {!scan} returns the longest valid prefix and {!open_append} truncates
    the file to it before appending again — an acked record is never lost,
    an unacked one never replayed. *)

type record =
  | Register of { source : string }
      (** resolved ontology text (rules + facts) as submitted *)
  | Load_csv of { csv : string }  (** resolved CSV payload *)
  | Add_facts of { csv : string }  (** resolved CSV payload *)
  | Materialize  (** replay rebuilds the chase materialization *)

val record_tag : record -> string
(** ["register"], ["load-csv"], ["add-facts"] or ["materialize"]. *)

val scan : string -> record list * int
(** [scan path] is [(records, valid_bytes)]: the longest valid record
    prefix of the file and its byte length. A missing file scans as
    [([], 0)]. Never raises on corrupt data — the first bad frame ends the
    prefix. *)

type t

val open_append : ?fsync:bool -> string -> t
(** Open (creating if missing) a log for appending. Any torn tail beyond
    the valid prefix is truncated away first. [fsync] (default [true])
    makes every {!append} flush to stable storage before returning. *)

val append : t -> record -> int
(** Append one record; returns the framed byte size. With [fsync] enabled
    the record is on stable storage when this returns. *)

val records : t -> int
(** Valid records currently in the log (tail length). *)

val bytes : t -> int
(** Valid bytes currently in the log. *)

val reset : t -> unit
(** Truncate the log to empty — the post-checkpoint trim: the snapshot now
    covers everything the log held. *)

val close : t -> unit
