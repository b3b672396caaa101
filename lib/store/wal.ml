(* Length-prefixed, CRC-framed append-only log. The frame is
   [u32 payload_len | u32 crc32(payload) | payload]; the payload is a tag
   byte plus the operation's resolved text. Validity is prefix-closed: the
   first frame that is short, overlong or fails its CRC ends the log, which
   is exactly the torn-tail semantics recovery needs. *)

type record =
  | Register of { source : string }
  | Load_csv of { csv : string }
  | Add_facts of { csv : string }
  | Materialize

let record_tag = function
  | Register _ -> "register"
  | Load_csv _ -> "load-csv"
  | Add_facts _ -> "add-facts"
  | Materialize -> "materialize"

let encode_payload record =
  let buf = Buffer.create 256 in
  (match record with
  | Register { source } ->
    Codec.w_u8 buf 1;
    Codec.w_string buf source
  | Load_csv { csv } ->
    Codec.w_u8 buf 2;
    Codec.w_string buf csv
  | Add_facts { csv } ->
    Codec.w_u8 buf 3;
    Codec.w_string buf csv
  | Materialize -> Codec.w_u8 buf 4);
  Buffer.contents buf

let decode_payload s =
  let r = Codec.reader s in
  let record =
    match Codec.r_u8 r with
    | 1 -> Register { source = Codec.r_string r }
    | 2 -> Load_csv { csv = Codec.r_string r }
    | 3 -> Add_facts { csv = Codec.r_string r }
    | 4 -> Materialize
    | n -> raise (Codec.Corrupt (Printf.sprintf "unknown WAL record tag %d" n))
  in
  if Codec.remaining r <> 0 then raise (Codec.Corrupt "trailing bytes in WAL record");
  record

let frame record =
  let payload = encode_payload record in
  let buf = Buffer.create (String.length payload + 8) in
  Codec.w_u32 buf (String.length payload);
  Buffer.add_int32_le buf (Codec.crc32 payload ~pos:0 ~len:(String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

(* The longest valid record prefix of raw log contents. *)
let scan_string s =
  let n = String.length s in
  let records = ref [] in
  let p = ref 0 in
  let stop = ref false in
  while not !stop do
    if n - !p < 8 then stop := true
    else begin
      let len = Int32.to_int (String.get_int32_le s !p) land 0xFFFFFFFF in
      let crc = String.get_int32_le s (!p + 4) in
      if len > n - !p - 8 then stop := true
      else if Codec.crc32 s ~pos:(!p + 8) ~len <> crc then stop := true
      else begin
        match decode_payload (String.sub s (!p + 8) len) with
        | record ->
          records := record :: !records;
          p := !p + 8 + len
        | exception Codec.Corrupt _ -> stop := true
      end
    end
  done;
  (List.rev !records, !p)

let scan path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0)
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    scan_string s

type t = {
  fd : Unix.file_descr;
  fsync : bool;
  mutable records : int;
  mutable bytes : int;
}

let open_append ?(fsync = true) path =
  let valid_records, valid_bytes = scan path in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  if size > valid_bytes then begin
    (* Torn tail: drop the partial/corrupt frame so the next append starts
       on a clean boundary. *)
    Unix.ftruncate fd valid_bytes;
    if fsync then Unix.fsync fd
  end;
  ignore (Unix.lseek fd valid_bytes Unix.SEEK_SET);
  { fd; fsync; records = List.length valid_records; bytes = valid_bytes }

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let append t record =
  let framed = frame record in
  write_all t.fd framed;
  if t.fsync then Unix.fsync t.fd;
  t.records <- t.records + 1;
  t.bytes <- t.bytes + String.length framed;
  String.length framed

let records t = t.records
let bytes t = t.bytes

let reset t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  if t.fsync then Unix.fsync t.fd;
  t.records <- 0;
  t.bytes <- 0

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
