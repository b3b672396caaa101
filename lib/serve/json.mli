(** A minimal JSON codec for the serving protocol.

    The repository deliberately carries no third-party JSON dependency; the
    wire format is small (flat request/response objects, string and number
    fields, one level of arrays), so a ~150-line recursive-descent parser
    is the whole cost. Numbers without [.], [e] or [E] parse as [Int];
    everything else numeric as [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Errors carry a 0-based byte offset. Trailing whitespace is allowed,
    trailing garbage is not, and neither are arrays and objects nested
    more than 64 deep. *)

val to_string : t -> string
(** Compact rendering (no added whitespace), suitable for JSONL: the output
    never contains a raw newline. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val string_field : string -> t -> string option
val int_field : string -> t -> int option
val obj_field : string -> t -> t option
