(** Generator of fresh labeled nulls, one per chase run, so that chase
    results are reproducible independently of other runs in the process. *)

type t

val create : ?start:int -> unit -> t
(** A generator whose first null is [Null (start + 1)]. The default
    [start = 0] yields [Null 1, Null 2, ...]; {!Chase.run} passes the
    highest null id already present in the instance so extension stays
    monotone and collision-free. *)

val next : t -> Tgd_db.Value.t
(** Raises [Invalid_argument] rather than hand out a negative label or
    one of at least {!Tgd_db.Value.null_base}, which {!Tgd_db.Value.code}
    could not code. *)

val count : t -> int
(** Nulls handed out by this generator (excludes the [start] offset). *)
