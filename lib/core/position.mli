(** Positions (Definition 2): [r[ ]] refers generically to an atom with
    predicate [r]; [r[i]] refers to the [i]-th argument position (1-based). *)

open Tgd_logic

type t =
  | Whole of Symbol.t  (** [r[ ]] *)
  | At of Symbol.t * int  (** [r[i]] *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
