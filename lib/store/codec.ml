(* Binary primitives for the durable store: little-endian, fixed-width,
   length-prefixed, CRC-32 framed. Fixed 8-byte integers keep columnar
   snapshot loads a bulk read (value codes reach 2^44); the payloads are
   dominated by fact data, so varint savings would be marginal anyway. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                   *)

(* Slicing-by-8 in plain int arithmetic: the state fits in 32 bits, so
   boxed Int32 ops (an allocation per byte) are avoided, and eight table
   lookups per 8-byte word beat the byte-at-a-time loop ~4x — snapshot
   bodies run to tens of megabytes and the checksum must not dominate
   recovery. *)
let crc_tables =
  lazy
    (let t0 =
       Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
           done;
           !c)
     in
     let tabs = Array.make 8 t0 in
     for k = 1 to 7 do
       tabs.(k) <- Array.map (fun c -> t0.(c land 0xFF) lxor (c lsr 8)) tabs.(k - 1)
     done;
     tabs)

let crc32 s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32: substring out of bounds";
  let tabs = Lazy.force crc_tables in
  let t0 = tabs.(0) and t1 = tabs.(1) and t2 = tabs.(2) and t3 = tabs.(3) in
  let t4 = tabs.(4) and t5 = tabs.(5) and t6 = tabs.(6) and t7 = tabs.(7) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let v = String.get_int64_le s !i in
    let lo = !c lxor Int64.to_int (Int64.logand v 0xFFFF_FFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical v 32) in
    c :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get t0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)

let w_u8 buf v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.w_u8";
  Buffer.add_char buf (Char.chr v)

let w_u32 buf v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.w_u32: out of range";
  Buffer.add_int32_le buf (Int32.of_int v)

let w_int buf v = Buffer.add_int64_le buf (Int64.of_int v)

let w_string buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

exception Corrupt of string

type reader = {
  src : string;
  mutable p : int;
}

let reader ?(pos = 0) src =
  if pos < 0 || pos > String.length src then raise (Corrupt "reader: bad start position");
  { src; p = pos }

let pos r = r.p
let remaining r = String.length r.src - r.p

let need r n what = if remaining r < n then raise (Corrupt ("truncated " ^ what))

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.src.[r.p] in
  r.p <- r.p + 1;
  v

let r_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (String.get_int32_le r.src r.p) land 0xFFFFFFFF in
  r.p <- r.p + 4;
  v

let r_int r =
  need r 8 "int";
  let v64 = String.get_int64_le r.src r.p in
  let v = Int64.to_int v64 in
  if Int64.of_int v <> v64 then raise (Corrupt "int overflows the host word");
  r.p <- r.p + 8;
  v

let r_string r =
  let len = r_u32 r in
  need r len "string";
  let s = String.sub r.src r.p len in
  r.p <- r.p + len;
  s

let skip r n =
  if n < 0 || n > remaining r then raise (Corrupt "truncated section");
  r.p <- r.p + n

let r_int_array r =
  let len = r_u32 r in
  (* Each element is 8 bytes: reject lengths the buffer cannot hold before
     allocating, then read with one bounds check for the whole array — these
     carry the bulk of every columnar snapshot. *)
  if len * 8 > remaining r then raise (Corrupt "truncated int array");
  let src = r.src and base = r.p in
  let a = Array.make len 0 in
  for i = 0 to len - 1 do
    let v64 = String.get_int64_le src (base + (i lsl 3)) in
    let v = Int64.to_int v64 in
    if Int64.of_int v <> v64 then raise (Corrupt "int overflows the host word");
    Array.unsafe_set a i v
  done;
  r.p <- base + (len lsl 3);
  a
