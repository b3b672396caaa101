(** Interned identifiers.

    All predicate, variable and constant names are interned into integers so
    that comparisons and hashing along the hot paths (unification, joins,
    graph construction) are O(1). Interning is global to the process and
    thread-safe: {!intern} and {!fresh} take a process-wide mutex, so worker
    domains (the serving layer's request pool, parallel minimization) may
    parse and rewrite concurrently. *)

type t = private int

val intern : string -> t
(** [intern s] returns the unique symbol for the spelling [s]. *)

val name : t -> string
(** [name sym] is the spelling that was interned. *)

val of_int : int -> t
(** The symbol whose intern index is the given integer — the inverse of the
    [(sym :> int)] coercion, used to decode columnar value codes
    ({!Tgd_db.Value.decode}). Raises [Invalid_argument] if no symbol with
    that index has been interned. *)

val fresh : string -> t
(** [fresh base] interns a new symbol spelled [base^"#"^n] for a process-wide
    counter [n]; the result is distinct from every previously interned
    symbol. Nothing ever frees it, so [fresh] belongs off the request path:
    once a program's rewriting view is built, rewriting under it interns
    only {!numbered} families, whose size is bounded by the largest program
    or query seen. *)

val numbered : string -> int -> t
(** [numbered prefix] is a family of symbols: [numbered prefix i] is
    [intern (prefix ^ string_of_int i)], cached so that a repeated lookup is
    an array read. Apply [numbered] once and keep the function; each
    application carries its own cache. Safe to call from several domains. *)

val count : unit -> int
(** The number of symbols interned so far in this process. It never
    decreases; a steady-state workload that keeps it flat interns
    nothing. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
