(** First-order terms.

    The logic of the paper is function-free: a term is either a variable or a
    constant. By convention (enforced by the parser, not by this module),
    variable spellings start with an uppercase letter and constants with a
    lowercase letter or a quote. *)

type t =
  | Var of Symbol.t
  | Const of Symbol.t

val var : string -> t
(** [var s] is [Var (Symbol.intern s)]. *)

val const : string -> t
(** [const s] is [Const (Symbol.intern s)]. *)

val is_var : t -> bool
val is_const : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
