(* Snapshot codec: near-verbatim serialization of sealed instances.

   Columnar blocks are dumped as their raw arrays (Columnar.export /
   import), so the expensive parts of sealing — coding every value and
   grouping rows into CSR indexes — are never redone on load. What cannot
   be verbatim is the symbol space: Value.code maps constants to process-
   local intern ids, so the snapshot embeds a sparse (id, name) table of
   exactly the ids it references and the loader remaps every constant code
   through [intern name] in one linear pass, which also range-checks every
   code: an undeclared symbol id or a null code past the codable range is
   refused here, not met later by [Value.code].
   Null codes are position-independent and survive untouched, which is what
   keeps materialization floors exact across recovery. *)

open Tgd_logic
module Db = Tgd_db

let magic = "TGDSNAP1"
let version = 1

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

let kind_columnar = 0
let kind_boxed = 1

let w_boxed_value buf = function
  | Db.Value.Const c ->
    Codec.w_u8 buf 0;
    Codec.w_int buf (Symbol.hash c)
  | Db.Value.Null n ->
    Codec.w_u8 buf 1;
    Codec.w_int buf n

let w_boxed_rows buf rows =
  Codec.w_u32 buf (List.length rows);
  List.iter (fun tup -> Array.iter (w_boxed_value buf) tup) rows

(* One relation: its current block verbatim, or all rows boxed when it
   has no block. A stale block with a pending tail (a model a write left
   unsealed) is written as the block one seal would give, so the image is
   the same as if the model had been sealed; the boxed tail the format
   allows after a block is therefore always empty. *)
let w_relation buf pred rel =
  Codec.w_int buf (Symbol.hash pred);
  Codec.w_u32 buf (Db.Relation.arity rel);
  match Db.Relation.current_block rel with
  | Some block ->
    Codec.w_u8 buf kind_columnar;
    let p = Db.Columnar.export block in
    Codec.w_u32 buf p.Db.Columnar.p_nrows;
    Codec.w_u32 buf (Array.length p.Db.Columnar.p_cols);
    Array.iter (fun col -> Codec.w_int_array buf col) p.Db.Columnar.p_cols;
    Codec.w_u32 buf (Array.length p.Db.Columnar.p_codes);
    Array.iteri
      (fun j codes ->
        Codec.w_u32 buf (Array.length codes);
        Array.iteri
          (fun g code ->
            Codec.w_int buf code;
            Codec.w_u32 buf g)
          codes;
        Codec.w_int_array buf p.Db.Columnar.p_starts.(j);
        Codec.w_int_array buf p.Db.Columnar.p_rows.(j))
      p.Db.Columnar.p_codes;
    w_boxed_rows buf []
  | None ->
    Codec.w_u8 buf kind_boxed;
    w_boxed_rows buf (Db.Relation.to_list rel)

let w_instance buf inst =
  let preds = Db.Instance.predicates inst in
  Codec.w_u32 buf (List.length preds);
  List.iter
    (fun (pred, _arity) ->
      match Db.Instance.relation inst pred with
      | Some rel -> w_relation buf pred rel
      | None -> assert false)
    preds

(* The symbol-table slice: a sparse (id, name) table of exactly the intern
   ids the image references — the process may have interned millions of
   unrelated symbols, and a dense prefix would drag them all in. Columns
   are scanned without decoding (codes below null_base are symbol ids). *)
let used_symbols_of_instance inst used =
  let see_id i = if not (Hashtbl.mem used i) then Hashtbl.replace used i () in
  let see_value = function
    | Db.Value.Const c -> see_id (Symbol.hash c)
    | Db.Value.Null _ -> ()
  in
  List.iter
    (fun (pred, _) ->
      see_id (Symbol.hash pred);
      match Db.Instance.relation inst pred with
      | None -> ()
      | Some rel -> (
        match Db.Relation.sealed_parts rel with
        | Some block, pending ->
          let p = Db.Columnar.export block in
          Array.iter
            (fun col ->
              Array.iter (fun c -> if c < Db.Value.null_base then see_id c) col)
            p.Db.Columnar.p_cols;
          List.iter (fun tup -> Array.iter see_value tup) pending
        | None, rows -> List.iter (fun tup -> Array.iter see_value tup) rows))
    (Db.Instance.predicates inst);
  used

let encode t =
  let body = Buffer.create 4096 in
  Codec.w_u32 body t.epoch;
  Codec.w_u32 body t.delta_epoch;
  Codec.w_string body t.program_src;
  let used =
    let u = used_symbols_of_instance t.instance (Hashtbl.create 256) in
    match t.materialization with
    | Some mat -> used_symbols_of_instance mat.model u
    | None -> u
  in
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) used [] |> List.sort compare in
  Codec.w_u32 body (List.length ids);
  List.iter
    (fun id ->
      Codec.w_int body id;
      Codec.w_string body (Symbol.name (Symbol.of_int id)))
    ids;
  w_instance body t.instance;
  (match t.materialization with
  | None -> Codec.w_u8 body 0
  | Some mat ->
    Codec.w_u8 body 1;
    Codec.w_int body mat.floor;
    Codec.w_u8 body (if mat.complete then 1 else 0);
    w_instance body mat.model);
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

let r_relation r remap =
  let pred_id = remap_code remap (Codec.r_int r) in
  let pred =
    match Symbol.of_int pred_id with
    | s -> s
    | exception Invalid_argument _ ->
      raise (Codec.Corrupt (Printf.sprintf "predicate id %d is not interned" pred_id))
  in
  let arity = Codec.r_u32 r in
  match Codec.r_u8 r with
  | k when k = kind_columnar ->
    let nrows = Codec.r_u32 r in
    let ncols = Codec.r_u32 r in
    if ncols <> max arity 1 then raise (Codec.Corrupt "column count does not match arity");
    let cols = Array.init ncols (fun _ -> Codec.r_int_array r) in
    (* Remap and check every code in place: the arrays are
       snapshot-private. *)
    Array.iter
      (fun col ->
        for i = 0 to Array.length col - 1 do
          col.(i) <- remap_code remap col.(i)
        done)
      cols;
    let nidx = Codec.r_u32 r in
    if nidx <> arity then raise (Codec.Corrupt "index count does not match arity");
    let codes = Array.make nidx [||] in
    let starts = Array.make nidx [||] in
    let rows = Array.make nidx [||] in
    for j = 0 to nidx - 1 do
      let npairs = Codec.r_u32 r in
      (* (code, group id) pairs, 12 bytes each, written in group-id order:
         the id is the position, so the codes load as one flat array. *)
      if npairs * 12 > Codec.remaining r then raise (Codec.Corrupt "truncated group codes");
      let c = Array.make npairs 0 in
      for g = 0 to npairs - 1 do
        c.(g) <- remap_code remap (Codec.r_int r);
        if Codec.r_u32 r <> g then raise (Codec.Corrupt "group ids out of order")
      done;
      codes.(j) <- c;
      starts.(j) <- Codec.r_int_array r;
      rows.(j) <- Codec.r_int_array r
    done;
    let block =
      match
        Db.Columnar.import
          {
            Db.Columnar.p_arity = arity;
            p_nrows = nrows;
            p_cols = cols;
            p_codes = codes;
            p_starts = starts;
            p_rows = rows;
          }
      with
      | Ok block -> block
      | Error msg -> raise (Codec.Corrupt msg)
    in
    let rel = Db.Relation.of_columnar block in
    let pending = r_boxed_rows r remap ~arity in
    List.iter (fun tup -> ignore (Db.Relation.insert rel tup)) pending;
    (pred, rel)
  | k when k = kind_boxed ->
    let rel = Db.Relation.create ~arity in
    List.iter
      (fun tup -> ignore (Db.Relation.insert rel tup))
      (r_boxed_rows r remap ~arity);
    (pred, rel)
  | k -> raise (Codec.Corrupt (Printf.sprintf "unknown relation kind %d" k))

let r_instance r remap =
  let n = Codec.r_u32 r in
  let inst = Db.Instance.create () in
  for _ = 1 to n do
    let pred, rel = r_relation r remap in
    Db.Instance.install_relation inst pred rel
  done;
  inst

let decode s =
  try
    if String.length s < String.length magic + 12 then Error "snapshot too short"
    else if not (String.equal (String.sub s 0 (String.length magic)) magic) then
      Error "bad snapshot magic"
    else begin
      let r = Codec.reader ~pos:(String.length magic) s in
      let v = Codec.r_u32 r in
      if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
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
            let instance = r_instance r remap in
            let materialization =
              match Codec.r_u8 r with
              | 0 -> None
              | 1 ->
                let floor = Codec.r_int r in
                let complete = Codec.r_u8 r = 1 in
                let model = r_instance r remap in
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
