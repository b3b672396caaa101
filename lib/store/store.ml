(* Directory layout and crash discipline of the durable store.

   Per entry NAME (percent-encoded as ESC):
     ESC.wal          the write-ahead tail since the last checkpoint
     ESC.GGGGGGGG.snap  snapshot generation G (8-digit, monotone)

   Checkpoint protocol: write ESC.(G+1).snap.tmp, fsync it, rename into
   place, fsync the directory (so the rename itself is durable), truncate
   the WAL, then unlink generations <= G. A crash at any point leaves
   either the old state (tmp ignored at recovery) or the new one (older
   generations are garbage-collected lazily); recovery always picks the
   newest generation whose CRC validates and falls back to older ones. *)

type entry_status = {
  generation : int;
  wal_records : int;
  wal_bytes : int;
}

type recovered = {
  name : string;
  snapshot : Snapshot.t option;
  generation : int;
  skipped : (int * string) list;
  tail : Wal.record list;
  torn_bytes : int;
}

type entry = {
  mutable wal : Wal.t option;  (* opened lazily on first log/recover *)
  mutable gen : int;
}

type t = {
  dir : string;
  fsync : bool;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;  (* keyed by registry name *)
}

(* ------------------------------------------------------------------ *)
(* Name (un)escaping: filenames must not collide or contain separators. *)

let escape name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf

let unescape esc =
  let buf = Buffer.create (String.length esc) in
  let n = String.length esc in
  let i = ref 0 in
  (try
     while !i < n do
       (match esc.[!i] with
       | '%' when !i + 2 < n ->
         Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ String.sub esc (!i + 1) 2)));
         i := !i + 2
       | c -> Buffer.add_char buf c);
       incr i
     done;
     Some (Buffer.contents buf)
   with Failure _ | Invalid_argument _ -> None)

let wal_path t name = Filename.concat t.dir (escape name ^ ".wal")

let snap_path t name gen =
  Filename.concat t.dir (Printf.sprintf "%s.%08d.snap" (escape name) gen)

(* ------------------------------------------------------------------ *)

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ?(fsync = true) dir =
  match
    mkdir_p dir;
    Unix.stat dir
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot create data directory %s: %s" dir (Unix.error_message err))
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    (* Probe writability up front so `obda serve --data-dir` fails at
       startup with a clear message, not on the first mutation. *)
    let probe = Filename.concat dir ".probe" in
    (match
       let fd = Unix.openfile probe [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
       Unix.close fd;
       Unix.unlink probe
     with
    | () -> Ok { dir; fsync; lock = Mutex.create (); entries = Hashtbl.create 8 }
    | exception Unix.Unix_error (err, _, _) ->
      Error
        (Printf.sprintf "data directory %s is not writable: %s" dir (Unix.error_message err)))
  | _ -> Error (Printf.sprintf "data directory %s exists and is not a directory" dir)

let dir t = t.dir
let fsync_enabled t = t.fsync

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
    let e = { wal = None; gen = 0 } in
    Hashtbl.replace t.entries name e;
    e

let wal_of t name =
  let e = entry t name in
  match e.wal with
  | Some w -> w
  | None ->
    let w = Wal.open_append ~fsync:t.fsync (wal_path t name) in
    e.wal <- Some w;
    w

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Directory listing -> per-name snapshot generations. *)
let scan_dir t =
  let files = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let names = Hashtbl.create 8 in
  let snaps = Hashtbl.create 8 in
  let note_name esc =
    match unescape esc with
    | Some name -> Hashtbl.replace names name ()
    | None -> ()
  in
  Array.iter
    (fun file ->
      if Filename.check_suffix file ".wal" then note_name (Filename.chop_suffix file ".wal")
      else if Filename.check_suffix file ".snap" then begin
        let stem = Filename.chop_suffix file ".snap" in
        match String.rindex_opt stem '.' with
        | None -> ()
        | Some dot -> (
          let esc = String.sub stem 0 dot in
          match int_of_string_opt (String.sub stem (dot + 1) (String.length stem - dot - 1)) with
          | None -> ()
          | Some gen -> (
            match unescape esc with
            | None -> ()
            | Some name ->
              Hashtbl.replace names name ();
              let gens = Option.value ~default:[] (Hashtbl.find_opt snaps name) in
              Hashtbl.replace snaps name (gen :: gens)))
      end)
    files;
  ( Hashtbl.fold (fun name () acc -> name :: acc) names [] |> List.sort compare,
    fun name ->
      Option.value ~default:[] (Hashtbl.find_opt snaps name)
      |> List.sort (fun a b -> compare b a) )

let recover t =
  Mutex.protect t.lock (fun () ->
      let names, gens_of = scan_dir t in
      List.map
        (fun name ->
          (* Newest decodable snapshot generation wins; corrupt or torn
             generations (e.g. a crash mid-write on a filesystem that
             reordered the rename) are skipped, not fatal. *)
          let snapshot, generation, skipped =
            let rec pick skipped = function
              | [] -> (None, 0, List.rev skipped)
              | gen :: older -> (
                match Snapshot.decode (read_file (snap_path t name gen)) with
                | Ok snap -> (Some snap, gen, List.rev skipped)
                | Error msg | (exception Sys_error msg) -> pick ((gen, msg) :: skipped) older)
            in
            pick [] (gens_of name)
          in
          let path = wal_path t name in
          let tail, valid_bytes = Wal.scan path in
          let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
          let e = entry t name in
          e.gen <- generation;
          (* Re-open for appending: truncates the torn tail on disk. *)
          (match e.wal with Some w -> Wal.close w | None -> ());
          e.wal <- Some (Wal.open_append ~fsync:t.fsync path);
          { name; snapshot; generation; skipped; tail; torn_bytes = max 0 (size - valid_bytes) })
        names)

(* ------------------------------------------------------------------ *)
(* Appends and checkpoints                                             *)

let log t ~name record = Mutex.protect t.lock (fun () -> Wal.append (wal_of t name) record)

let fsync_file path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () ->
      Unix.fsync fd)

let checkpoint t ~name snap =
  Mutex.protect t.lock (fun () ->
      let e = entry t name in
      let gen = e.gen + 1 in
      let final = snap_path t name gen in
      let tmp = final ^ ".tmp" in
      let encoded = Snapshot.encode snap in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () ->
          let b = Bytes.unsafe_of_string encoded in
          let n = Bytes.length b in
          let written = ref 0 in
          while !written < n do
            written := !written + Unix.write fd b !written (n - !written)
          done;
          if t.fsync then Unix.fsync fd);
      Unix.rename tmp final;
      if t.fsync then (try fsync_file t.dir with Unix.Unix_error _ -> ());
      e.gen <- gen;
      (* The snapshot covers everything the log held: trim it. *)
      Wal.reset (wal_of t name);
      (* Garbage-collect older generations (best-effort). *)
      let _, gens_of = scan_dir t in
      List.iter
        (fun g -> if g < gen then try Sys.remove (snap_path t name g) with Sys_error _ -> ())
        (gens_of name);
      { generation = gen; wal_records = 0; wal_bytes = 0 })

let status t ~name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.entries name with
      | None -> None
      | Some e ->
        let wal_records, wal_bytes =
          match e.wal with Some w -> (Wal.records w, Wal.bytes w) | None -> (0, 0)
        in
        Some { generation = e.gen; wal_records; wal_bytes })

let close t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter (fun _ e -> match e.wal with Some w -> Wal.close w | None -> ()) t.entries;
      Hashtbl.reset t.entries)
