(** Database values: constants and labeled nulls.

    Labeled nulls are the fresh witnesses invented by the chase for
    existential head variables; they never compare equal to any constant. *)

type t =
  | Const of Tgd_logic.Symbol.t
  | Null of int

val const : string -> t
val is_null : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** The same spelling {!pp} prints ([Const c] as its name, [Null n] as
    ["_n<n>"]) without the [Format] machinery — the serving layer calls
    this once per answer cell, where formatter allocation is measurable. *)

val null_base : int
(** First null code: constants code below it, nulls at or above it. *)

val code : t -> int
(** Order-preserving integer code, the unit of columnar storage
    ({!Columnar}): constants code to their symbol intern index, nulls to
    [null_base + label]. The integer order of codes coincides with
    {!compare} and the coding is injective, so coded tuples can be hashed,
    deduplicated and sorted without decoding. Every value the system makes
    has a code: symbol ids are dense intern indices, and null generators
    and the snapshot decoder refuse labels outside [[0, null_base)].
    Raises [Invalid_argument] on a value outside that range (a negative
    null label, or a symbol index or null label [>= null_base]). *)

val decode : int -> t
(** Inverse of {!code}. Raises [Invalid_argument] on an integer no value
    codes to. *)

val of_term : Tgd_logic.Term.t -> t
(** Converts a constant; raises [Invalid_argument] on a variable. *)

val to_term : t -> Tgd_logic.Term.t
(** Constants map back to constants; nulls map to variables named ["_nK"]
    (used to re-express an instance as atoms). *)
