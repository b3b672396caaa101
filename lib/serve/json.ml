type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* Arrays and objects nest at most this deep. The parser recurses once per
   level, and so does rendering a reply that echoes a request's id: an
   unbounded line could keep the event loop busy for minutes. *)
let max_depth = 64

let parse_exn src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub src !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match src.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail !pos "unterminated escape"
           else
             match src.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 >= n then fail !pos "truncated \\u escape";
               let hex = String.sub src (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex) with _ -> fail !pos "bad \\u escape"
               in
               (* UTF-8 encode the code point (surrogate pairs unsupported:
                  the protocol is ASCII-heavy; lone surrogates encode as-is). *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end;
               pos := !pos + 4
             | c -> fail !pos (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub src start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail start ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail start ("bad number " ^ s)
  in
  let open_container depth =
    if depth >= max_depth then fail !pos (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      open_container depth;
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      open_container depth;
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let parse_field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ parse_field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := parse_field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage";
  v

let parse src =
  match parse_exn src with
  | v -> Ok v
  | exception Parse_error (pos, msg) -> Error (Printf.sprintf "at offset %d: %s" pos msg)

let escape = Tgd_exec.Telemetry.json_string

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
    (* %.17g round-trips doubles; strip to something compact but exact. *)
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s else s ^ ".0"
  | String s -> escape s
  | List items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> escape k ^ ":" ^ to_string v) fields)
    ^ "}"

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_field key j = match member key j with Some (String s) -> Some s | _ -> None
let int_field key j = match member key j with Some (Int i) -> Some i | _ -> None
let obj_field key j = member key j
