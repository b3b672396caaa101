(** Pretty-printer producing text the parser reads back (round-tripping). *)

open Tgd_logic

val rule : Format.formatter -> Tgd.t -> unit
val fact : Format.formatter -> Atom.t -> unit
val query : Format.formatter -> Cq.t -> unit
val document : Format.formatter -> Parser.document -> unit
val program : Format.formatter -> Program.t -> unit
val program_to_string : Program.t -> string
