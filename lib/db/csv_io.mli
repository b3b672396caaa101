(** Loading and saving instances as CSV — the pragmatic bridge to real
    relational sources. One record per fact: the predicate name followed by
    the argument values, comma-separated. Values may be double-quoted (with
    [""] escaping a quote, and literal newlines allowed inside quotes);
    unquoted values are trimmed, quoted ones kept verbatim. Records that are
    empty or start with [#] are skipped. {!save_string} quotes exactly the
    fields that would not read back as themselves (separators, quotes,
    newlines, leading/trailing whitespace, a leading [#]), so
    write-then-read is the identity on constant-valued instances.

    {v
      takes_course,sam,db101
      emp_record,"O'Hara, Ada",cs,prof
    v} *)

val load_string : string -> (Instance.t, string) result
(** Errors mention the offending 1-based line. *)

val load_file : string -> (Instance.t, string) result

val save_string : Instance.t -> string
(** Deterministic order (sorted facts); nulls are written as [_nK] and
    round-trip as ordinary constants — exporting a chased instance is lossy
    by design. *)
