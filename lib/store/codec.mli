(** Binary encoding primitives shared by the WAL and snapshot codecs.

    Everything is little-endian and length-prefixed; integers are written
    as full 8-byte words (value codes reach [2^44], see
    {!Tgd_db.Value.code}, and snapshots favor bulk-blittable fixed-width
    layouts over varint compactness). Integrity is CRC-32 (IEEE),
    table-driven, over the framed payload. *)

val crc32 : string -> pos:int -> len:int -> int32
(** CRC-32 (IEEE 802.3, reflected, init/xorout [0xFFFFFFFF]) of a
    substring. *)

(** {1 Writing} *)

val w_u8 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit
(** Raises [Invalid_argument] outside [0, 2^32). *)

val w_int : Buffer.t -> int -> unit
(** A full OCaml [int], sign-extended through 8 bytes. *)

val w_string : Buffer.t -> string -> unit
(** [u32] byte length, then the bytes. *)

(** {1 Reading} *)

exception Corrupt of string
(** Raised by every reader on malformed input (short reads, out-of-range
    lengths). Snapshot/WAL loaders catch it and treat the region as
    invalid. *)

type reader

val reader : ?pos:int -> string -> reader
val pos : reader -> int
val remaining : reader -> int
val r_u8 : reader -> int
val r_u32 : reader -> int
val r_int : reader -> int
val r_string : reader -> string
val r_int_array : reader -> int array

val skip : reader -> int -> unit
(** Move past [n] bytes without reading them. *)
