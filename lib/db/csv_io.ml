open Tgd_logic

(* Split one CSV record into fields, honouring double quotes. Each field
   carries whether it was quoted: quoted fields are taken verbatim, only
   unquoted ones are trimmed by the caller. *)
let split_fields line =
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let quoted_field = ref false in
  let n = String.length line in
  let flush_field () =
    fields := (Buffer.contents buf, !quoted_field) :: !fields;
    Buffer.clear buf;
    quoted_field := false
  in
  let rec unquoted i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | ',' ->
        flush_field ();
        unquoted (i + 1)
      | '"' when Buffer.length buf = 0 ->
        quoted_field := true;
        quoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        unquoted (i + 1)
  and quoted i =
    if i >= n then failwith "unterminated quote"
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
        Buffer.add_char buf '"';
        quoted (i + 2)
      | '"' -> after_quote (i + 1)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  and after_quote i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | ',' ->
        flush_field ();
        unquoted (i + 1)
      | c ->
        Buffer.add_char buf c;
        after_quote (i + 1)
  in
  unquoted 0;
  List.rev !fields

let parse_record line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then None
  else
    match split_fields trimmed with
    | [] -> None
    | (pred, pred_quoted) :: args ->
      let field (s, quoted) = if quoted then s else String.trim s in
      let values = List.map (fun f -> Value.const (field f)) args in
      Some
        ( Symbol.intern (if pred_quoted then pred else String.trim pred),
          Array.of_list values )

(* Split a source into records at newlines that fall outside double quotes,
   so quoted fields may contain literal newlines. Escaped quotes ([""])
   toggle the state twice and cancel out. Yields each record with the
   1-based line number it starts on. *)
let split_records src =
  let records = ref [] in
  let buf = Buffer.create 64 in
  let in_quotes = ref false in
  let line = ref 1 in
  let record_start = ref 1 in
  let flush () =
    records := (!record_start, Buffer.contents buf) :: !records;
    Buffer.clear buf;
    record_start := !line
  in
  String.iter
    (fun c ->
      match c with
      | '"' ->
        in_quotes := not !in_quotes;
        Buffer.add_char buf c
      | '\n' ->
        incr line;
        if !in_quotes then Buffer.add_char buf c else flush ()
      | c -> Buffer.add_char buf c)
    src;
  flush ();
  (* An unterminated quote swallows every following newline; report it at
     its own record, not as one giant final record. *)
  List.rev !records

let load_string src =
  let inst = Instance.create () in
  let rec go = function
    | [] -> Ok inst
    | (lineno, record) :: rest -> (
      match parse_record record with
      | exception Failure msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | None -> go rest
      | Some (pred, t) -> (
        match Instance.add_fact inst pred t with
        | _ -> go rest
        | exception Invalid_argument msg -> Error (Printf.sprintf "line %d: %s" lineno msg)))
  in
  go (split_records src)

let load_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  load_string src

(* A field must be quoted when its raw spelling would not read back as
   itself: separators and quotes, newlines (record separators), leading or
   trailing whitespace (unquoted fields are trimmed on load), or a leading
   '#' (comment marker when it lands at the start of a record). *)
let needs_quotes s =
  s <> ""
  && (String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
     || s.[0] = '#' || s.[0] = ' ' || s.[0] = '\t'
     || s.[String.length s - 1] = ' '
     || s.[String.length s - 1] = '\t')

let field_to_string s =
  if needs_quotes s then "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\"" else s

let save_string inst =
  let buf = Buffer.create 1024 in
  let rows =
    Instance.facts inst
    |> List.map (fun (pred, t) ->
           String.concat ","
             (field_to_string (Symbol.name pred)
             :: Array.to_list
                  (Array.map (fun v -> field_to_string (Format.asprintf "%a" Value.pp v)) t)))
    |> List.sort String.compare
  in
  List.iter
    (fun row ->
      Buffer.add_string buf row;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
