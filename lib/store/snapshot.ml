(* Snapshot codec: a sealed instance is written as its coded columns.

   Each relation is written as the columns one seal would give it: the
   block's codes followed by the pending tail's. Nothing is sealed or
   extended to write it, and
   no index is written — an index is an access path, rebuilt by the first
   probe after a load (Columnar.probe). What cannot be verbatim is the
   symbol space: Value.code maps constants to process-local intern ids, so
   the snapshot embeds a sparse (id, name) table of exactly the ids it
   references and the loader remaps every constant code through
   [intern name] in one linear pass, which also range-checks every code:
   an undeclared symbol id or a null code past the codable range is refused
   here, not met later by [Value.code]. Null codes are
   position-independent and survive untouched, which is what keeps
   materialization floors exact across recovery.

   Version 1 images (TGDSNAP1) stay readable: they carried each block's
   CSR index, which the reader skips, and wrote block-less relations as
   boxed rows. *)

open Tgd_logic
module Db = Tgd_db

let magic = "TGDSNAP2"
let magic_v1 = "TGDSNAP1"
let version = 2

type materialization = {
  model : Db.Instance.t;
  floor : int;
  complete : bool;
}

type t = {
  epoch : int;
  delta_epoch : int;
  program_src : string;
  instance : Db.Instance.t;
  materialization : materialization option;
}

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

(* A relation's columns as one seal would give them: per column, the
   block's codes and the tails' codes, written back to back. *)
type coded = {
  pred : Symbol.t;
  nrows : int;
  cols : int array list array;
}

let coded_relation pred rel =
  let block = Db.Relation.block rel and tails = Db.Relation.tails rel in
  {
    pred;
    nrows = Db.Relation.cardinality rel;
    cols =
      Array.init (Db.Relation.arity rel) (fun j ->
          Db.Columnar.col block j
          :: List.map (fun t -> Array.sub (Db.Relation.tail_col t j) 0 (Db.Relation.tail_len t)) tails);
  }

let coded_instance inst =
  List.map
    (fun (pred, _arity) ->
      match Db.Instance.relation inst pred with
      | Some rel -> coded_relation pred rel
      | None -> assert false)
    (Db.Instance.predicates inst)

let w_relation buf c =
  Codec.w_int buf (Symbol.hash c.pred);
  Codec.w_u32 buf (Array.length c.cols);
  Codec.w_u32 buf c.nrows;
  Array.iter
    (fun segs ->
      Codec.w_u32 buf c.nrows;
      List.iter (Array.iter (Codec.w_int buf)) segs)
    c.cols

let w_instance buf coded =
  Codec.w_u32 buf (List.length coded);
  List.iter (w_relation buf) coded

(* The symbol-table slice: a sparse (id, name) table of exactly the intern
   ids the image references — the process may have interned millions of
   unrelated symbols, and a dense prefix would drag them all in. Codes
   below null_base are symbol ids. *)
let used_symbols coded used =
  let see_id i = if not (Hashtbl.mem used i) then Hashtbl.replace used i () in
  let see_codes = Array.iter (fun c -> if c < Db.Value.null_base then see_id c) in
  List.iter
    (fun c ->
      see_id (Symbol.hash c.pred);
      Array.iter (List.iter see_codes) c.cols)
    coded;
  used

let encode t =
  let body = Buffer.create 4096 in
  Codec.w_u32 body t.epoch;
  Codec.w_u32 body t.delta_epoch;
  Codec.w_string body t.program_src;
  let instance = coded_instance t.instance in
  let model = Option.map (fun mat -> (mat, coded_instance mat.model)) t.materialization in
  let used =
    let u = used_symbols instance (Hashtbl.create 256) in
    match model with Some (_, m) -> used_symbols m u | None -> u
  in
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) used [] |> List.sort compare in
  Codec.w_u32 body (List.length ids);
  List.iter
    (fun id ->
      Codec.w_int body id;
      Codec.w_string body (Symbol.name (Symbol.of_int id)))
    ids;
  w_instance body instance;
  (match model with
  | None -> Codec.w_u8 body 0
  | Some (mat, model) ->
    Codec.w_u8 body 1;
    Codec.w_int body mat.floor;
    Codec.w_u8 body (if mat.complete then 1 else 0);
    w_instance body model);
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 24) in
  Buffer.add_string out magic;
  Codec.w_u32 out version;
  Codec.w_u32 out (String.length body);
  Buffer.add_string out body;
  Buffer.add_int32_le out (Codec.crc32 body ~pos:0 ~len:(String.length body));
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* [remap] maps old id -> fresh intern id, with -1 marking ids the
   snapshot never declared. Null codes pass through, if in range. *)
let remap_code remap c =
  if c >= Db.Value.null_base then
    if c < 2 * Db.Value.null_base then c
    else raise (Codec.Corrupt (Printf.sprintf "null code %d out of range" c))
  else if c >= 0 && c < Array.length remap && remap.(c) >= 0 then remap.(c)
  else raise (Codec.Corrupt (Printf.sprintf "symbol code %d outside the intern slice" c))

let r_boxed_value r remap =
  match Codec.r_u8 r with
  | 0 -> Db.Value.decode (remap_code remap (Codec.r_int r))
  | 1 ->
    let label = Codec.r_int r in
    if label < 0 || label >= Db.Value.null_base then
      raise (Codec.Corrupt (Printf.sprintf "null label %d out of range" label));
    Db.Value.Null label
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown value tag %d" n))

let r_boxed_rows r remap ~arity =
  let count = Codec.r_u32 r in
  List.init count (fun _ -> Array.init arity (fun _ -> r_boxed_value r remap))

(* The v1 writer's relation kinds: a block (its CSR index and a boxed
   tail follow the columns) or boxed rows only. *)
let v1_columnar = 0
let v1_boxed = 1

let r_columns r remap ~ncols =
  (* Each column takes at least its 4-byte count: refuse a column count
     the image cannot hold before allocating for it. *)
  if ncols * 4 > Codec.remaining r then raise (Codec.Corrupt "truncated columns");
  let cols = Array.init ncols (fun _ -> Codec.r_int_array r) in
  (* Remap and check every code in place: the arrays are snapshot-private. *)
  Array.iter
    (fun col ->
      for i = 0 to Array.length col - 1 do
        col.(i) <- remap_code remap col.(i)
      done)
    cols;
  cols

(* v1's per-column CSR index: (code, group id) pairs of 12 bytes, then the
   group offsets and the grouped row ids, each a counted int array. *)
let skip_v1_index r ~arity =
  if Codec.r_u32 r <> arity then raise (Codec.Corrupt "index count does not match arity");
  for _ = 1 to arity do
    Codec.skip r (Codec.r_u32 r * 12);
    Codec.skip r (Codec.r_u32 r * 8);
    Codec.skip r (Codec.r_u32 r * 8)
  done

let r_relation ~version r remap =
  let pred_id = remap_code remap (Codec.r_int r) in
  let pred =
    match Symbol.of_int pred_id with
    | s -> s
    | exception Invalid_argument _ ->
      raise (Codec.Corrupt (Printf.sprintf "predicate id %d is not interned" pred_id))
  in
  let arity = Codec.r_u32 r in
  let kind = if version = 1 then Codec.r_u8 r else v1_columnar in
  if kind = v1_columnar then begin
    let nrows = Codec.r_u32 r in
    let cols =
      if version = 2 then r_columns r remap ~ncols:arity
      else begin
        (* v1 gave an arity-0 block one column of zeros. *)
        if Codec.r_u32 r <> max arity 1 then
          raise (Codec.Corrupt "column count does not match arity");
        let cols = r_columns r remap ~ncols:(max arity 1) in
        skip_v1_index r ~arity;
        Array.sub cols 0 arity
      end
    in
    let rel =
      match Db.Columnar.of_columns ~arity ~nrows cols with
      | Ok block -> Db.Relation.of_columnar block
      | Error msg -> raise (Codec.Corrupt msg)
    in
    if version = 1 then
      List.iter (fun tup -> ignore (Db.Relation.insert rel tup)) (r_boxed_rows r remap ~arity);
    (pred, rel)
  end
  else if kind = v1_boxed then begin
    let rel = Db.Relation.create ~arity in
    List.iter (fun tup -> ignore (Db.Relation.insert rel tup)) (r_boxed_rows r remap ~arity);
    (pred, rel)
  end
  else raise (Codec.Corrupt (Printf.sprintf "unknown relation kind %d" kind))

let r_instance ~version r remap =
  let n = Codec.r_u32 r in
  let inst = Db.Instance.create () in
  for _ = 1 to n do
    let pred, rel = r_relation ~version r remap in
    Db.Instance.install_relation inst pred rel
  done;
  inst

let decode s =
  try
    if String.length s < String.length magic + 12 then Error "snapshot too short"
    else if not (List.mem (String.sub s 0 (String.length magic)) [ magic; magic_v1 ]) then
      Error "bad snapshot magic"
    else begin
      let r = Codec.reader ~pos:(String.length magic) s in
      let v = Codec.r_u32 r in
      let expected = if String.starts_with ~prefix:magic_v1 s then 1 else version in
      if v <> expected then Error (Printf.sprintf "unsupported snapshot version %d" v)
      else begin
        let body_len = Codec.r_u32 r in
        let body_pos = Codec.pos r in
        if Codec.remaining r < body_len + 4 then Error "truncated snapshot body"
        else begin
          let stored_crc = String.get_int32_le s (body_pos + body_len) in
          if Codec.crc32 s ~pos:body_pos ~len:body_len <> stored_crc then
            Error "snapshot CRC mismatch"
          else begin
            let epoch = Codec.r_u32 r in
            let delta_epoch = Codec.r_u32 r in
            let program_src = Codec.r_string r in
            let nsyms = Codec.r_u32 r in
            let pairs =
              Array.init nsyms (fun _ ->
                  let id = Codec.r_int r in
                  if id < 0 || id >= Db.Value.null_base then
                    raise (Codec.Corrupt (Printf.sprintf "symbol id %d out of range" id));
                  (id, Symbol.hash (Symbol.intern (Codec.r_string r))))
            in
            let remap =
              let max_id = Array.fold_left (fun m (id, _) -> max m id) (-1) pairs in
              let map = Array.make (max_id + 1) (-1) in
              Array.iter (fun (id, fresh) -> map.(id) <- fresh) pairs;
              map
            in
            let instance = r_instance ~version:v r remap in
            let materialization =
              match Codec.r_u8 r with
              | 0 -> None
              | 1 ->
                let floor = Codec.r_int r in
                let complete = Codec.r_u8 r = 1 in
                let model = r_instance ~version:v r remap in
                Some { model; floor; complete }
              | n -> raise (Codec.Corrupt (Printf.sprintf "bad materialization tag %d" n))
            in
            if Codec.pos r <> body_pos + body_len then Error "snapshot body length mismatch"
            else Ok { epoch; delta_epoch; program_src; instance; materialization }
          end
        end
      end
    end
  with Codec.Corrupt msg -> Error ("corrupt snapshot: " ^ msg)
