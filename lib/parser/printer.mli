(** Pretty-printer producing text the parser reads back (round-tripping). *)

open Tgd_logic

val query : Format.formatter -> Cq.t -> unit
val document : Format.formatter -> Parser.document -> unit
val program_to_string : Program.t -> string
