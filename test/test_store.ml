(* Tests of the durable store (lib/store): codec framing, WAL torn-tail
   robustness (a fuzzed cut or byte flip never loses an acked record and
   never resurrects an unacked one), snapshot round-trips including labeled
   nulls and post-seal pending tails, the checkpoint/recover protocol, and
   a cross-process recovery through the real obda binary — the one path
   where symbol intern orders genuinely differ and the decoder's remap pass
   must do real work. *)

open Tgd_store

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let with_tmp_file f =
  let path = Filename.temp_file "tgd_store" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let with_tmp_dir f =
  let dir = Filename.temp_dir "tgd_store" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Generators *)

(* Payload strings exercise the full byte range: CSV with commas and
   newlines, NUL bytes, high bytes. *)
let gen_payload = QCheck.Gen.(string_size (int_bound 60) ~gen:(map Char.chr (int_bound 255)))

let gen_record =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun source -> Wal.Register { source }) gen_payload);
        (3, map (fun csv -> Wal.Load_csv { csv }) gen_payload);
        (3, map (fun csv -> Wal.Add_facts { csv }) gen_payload);
        (1, return Wal.Materialize);
      ])

let show_record r =
  match r with
  | Wal.Register { source } -> Printf.sprintf "Register %S" source
  | Wal.Load_csv { csv } -> Printf.sprintf "Load_csv %S" csv
  | Wal.Add_facts { csv } -> Printf.sprintf "Add_facts %S" csv
  | Wal.Materialize -> "Materialize"

let show_records rs = String.concat "; " (List.map show_record rs)

(* Instances over a small fixed signature; [nulls] admits labeled nulls
   (the chase's fresh witnesses) alongside constants. *)
let signature = [ ("sp", 2); ("sq", 1); ("sr", 3) ]

let gen_value ~nulls =
  QCheck.Gen.(
    frequency
      ([ (4, map (fun i -> Tgd_db.Value.const (Printf.sprintf "c%d" i)) (int_bound 20)) ]
      @ if nulls then [ (1, map (fun i -> Tgd_db.Value.Null i) (int_bound 30)) ] else []))

let gen_fact ~nulls =
  QCheck.Gen.(
    oneofl signature >>= fun (name, arity) ->
    array_repeat arity (gen_value ~nulls) >>= fun tup ->
    return (Tgd_logic.Symbol.intern name, tup))

(* [base] facts are inserted before the seal (they land in the columnar
   block); [tail] facts after it (they land in the pending list) — both
   snapshot paths get exercised. *)
let instance_of ~base ~tail =
  let inst = Tgd_db.Instance.create () in
  List.iter (fun (p, t) -> ignore (Tgd_db.Instance.add_fact inst p t)) base;
  Tgd_db.Instance.seal inst;
  List.iter (fun (p, t) -> ignore (Tgd_db.Instance.add_fact inst p t)) tail;
  inst

let gen_instance ~nulls =
  QCheck.Gen.(
    list_size (int_bound 30) (gen_fact ~nulls) >>= fun base ->
    list_size (int_bound 10) (gen_fact ~nulls) >>= fun tail ->
    return (instance_of ~base ~tail))

let gen_snapshot =
  QCheck.Gen.(
    int_bound 1000 >>= fun epoch ->
    int_bound 1000 >>= fun delta_epoch ->
    gen_payload >>= fun program_src ->
    gen_instance ~nulls:false >>= fun instance ->
    bool >>= fun with_model ->
    (if not with_model then return None
     else
       gen_instance ~nulls:true >>= fun model ->
       int_bound 5 >>= fun slack ->
       bool >>= fun complete ->
       return
         (Some
            {
              Snapshot.model;
              floor = Tgd_db.Instance.max_null model + slack;
              complete;
            }))
    >>= fun materialization ->
    return { Snapshot.epoch; delta_epoch; program_src; instance; materialization })

let fact_compare (p1, t1) (p2, t2) =
  let c = Tgd_logic.Symbol.compare p1 p2 in
  if c <> 0 then c else Tgd_db.Tuple.compare t1 t2

let norm_facts inst = List.sort fact_compare (Tgd_db.Instance.facts inst)

let facts_equal i1 i2 =
  let f1 = norm_facts i1 and f2 = norm_facts i2 in
  List.length f1 = List.length f2
  && List.for_all2 (fun a b -> fact_compare a b = 0) f1 f2

let show_snapshot (s : Snapshot.t) =
  Printf.sprintf "epoch=%d delta=%d src=%S facts=%d mat=%s" s.Snapshot.epoch s.Snapshot.delta_epoch
    s.Snapshot.program_src
    (Tgd_db.Instance.cardinality s.Snapshot.instance)
    (match s.Snapshot.materialization with
    | None -> "none"
    | Some m ->
      Printf.sprintf "{facts=%d; floor=%d; complete=%b}"
        (Tgd_db.Instance.cardinality m.Snapshot.model)
        m.Snapshot.floor m.Snapshot.complete)

(* ------------------------------------------------------------------ *)
(* Snapshot codec properties *)

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:200 ~name:"snapshot decode∘encode is the identity"
    (QCheck.make ~print:show_snapshot gen_snapshot)
    (fun s ->
      match Snapshot.decode (Snapshot.encode s) with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok s' ->
        s'.Snapshot.epoch = s.Snapshot.epoch
        && s'.Snapshot.delta_epoch = s.Snapshot.delta_epoch
        && String.equal s'.Snapshot.program_src s.Snapshot.program_src
        && facts_equal s'.Snapshot.instance s.Snapshot.instance
        && Tgd_db.Instance.max_null s'.Snapshot.instance
           = Tgd_db.Instance.max_null s.Snapshot.instance
        &&
        (match (s.Snapshot.materialization, s'.Snapshot.materialization) with
        | None, None -> true
        | Some m, Some m' ->
          m'.Snapshot.floor = m.Snapshot.floor
          && m'.Snapshot.complete = m.Snapshot.complete
          && facts_equal m'.Snapshot.model m.Snapshot.model
        | _ -> false))

let prop_snapshot_rejects_corruption =
  QCheck.Test.make ~count:300 ~name:"snapshot decode rejects any byte flip or truncation"
    (QCheck.make
       ~print:(fun (s, pos, delta) -> Printf.sprintf "%s / pos=%d delta=%d" (show_snapshot s) pos delta)
       QCheck.Gen.(triple gen_snapshot (int_bound 10_000) (int_range 1 255)))
    (fun (s, pos, delta) ->
      let encoded = Snapshot.encode s in
      let n = String.length encoded in
      (* A strict prefix must be rejected (torn write)... *)
      let truncated = String.sub encoded 0 (pos mod n) in
      (match Snapshot.decode truncated with
      | Ok _ -> QCheck.Test.fail_report "a truncated snapshot decoded"
      | Error _ -> ());
      (* ... and so must any single corrupted byte (CRC). *)
      let b = Bytes.of_string encoded in
      let i = pos mod n in
      Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + delta) land 0xFF));
      match Snapshot.decode (Bytes.to_string b) with
      | Ok _ -> QCheck.Test.fail_reportf "a snapshot with byte %d flipped decoded" i
      | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* WAL properties *)

(* Append all records, then cut the file at an arbitrary byte: exactly the
   records whose frames fit inside the cut survive a scan — an acked-then-
   synced record is never lost, a torn one never replayed. *)
let prop_wal_torn_tail =
  QCheck.Test.make ~count:300 ~name:"wal scan after a cut keeps exactly the complete frames"
    (QCheck.make
       ~print:(fun (rs, cut) -> Printf.sprintf "[%s] cut=%d" (show_records rs) cut)
       QCheck.Gen.(pair (list_size (int_bound 12) gen_record) (int_bound 10_000)))
    (fun (records, cut_seed) ->
      with_tmp_file (fun path ->
          Sys.remove path;
          let w = Wal.open_append ~fsync:false path in
          let sizes = List.map (Wal.append w) records in
          Wal.close w;
          let ends =
            List.rev (snd (List.fold_left (fun (off, acc) s -> (off + s, (off + s) :: acc)) (0, []) sizes))
          in
          let data = read_file path in
          let cut = cut_seed mod (String.length data + 1) in
          write_file path (String.sub data 0 cut);
          let scanned, valid = Wal.scan path in
          let expected = List.filteri (fun i _ -> List.nth ends i <= cut) records in
          let expected_bytes = List.fold_left (fun acc e -> if e <= cut then max acc e else acc) 0 ends in
          if scanned <> expected then
            QCheck.Test.fail_reportf "scan kept [%s], wanted [%s]" (show_records scanned)
              (show_records expected)
          else if valid <> expected_bytes then
            QCheck.Test.fail_reportf "valid bytes %d, wanted %d" valid expected_bytes
          else begin
            (* Re-opening truncates the torn tail and appends cleanly. *)
            let w = Wal.open_append ~fsync:false path in
            let fresh = Wal.Add_facts { csv = "fresh,1" } in
            ignore (Wal.append w fresh);
            Wal.close w;
            let rescanned, _ = Wal.scan path in
            rescanned = expected @ [ fresh ]
          end))

let prop_wal_corrupt_byte =
  QCheck.Test.make ~count:300 ~name:"wal scan after a byte flip yields a prefix of the log"
    (QCheck.make
       ~print:(fun (rs, pos, delta) ->
         Printf.sprintf "[%s] pos=%d delta=%d" (show_records rs) pos delta)
       QCheck.Gen.(
         triple (list_size (int_range 1 12) gen_record) (int_bound 10_000) (int_range 1 255)))
    (fun (records, pos_seed, delta) ->
      with_tmp_file (fun path ->
          Sys.remove path;
          let w = Wal.open_append ~fsync:false path in
          let sizes = List.map (Wal.append w) records in
          Wal.close w;
          let ends =
            List.rev (snd (List.fold_left (fun (off, acc) s -> (off + s, (off + s) :: acc)) (0, []) sizes))
          in
          let data = read_file path in
          let pos = pos_seed mod String.length data in
          let b = Bytes.of_string data in
          Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xFF));
          write_file path (Bytes.to_string b);
          let scanned, _ = Wal.scan path in
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
            | _ :: _, [] -> false
          in
          let untouched = List.length (List.filter (fun e -> e <= pos) ends) in
          if not (is_prefix scanned records) then
            QCheck.Test.fail_reportf "scan is not a prefix: [%s]" (show_records scanned)
          else if List.length scanned < untouched then
            QCheck.Test.fail_reportf
              "flip at byte %d lost %d record(s) whose frames precede it" pos
              (untouched - List.length scanned)
          else true))

(* ------------------------------------------------------------------ *)
(* Store lifecycle *)

let test_open_dir_idempotent () =
  with_tmp_dir (fun dir ->
      let nested = Filename.concat (Filename.concat dir "a") "b" in
      (match Store.open_dir ~fsync:false nested with
      | Error msg -> Alcotest.failf "first open failed: %s" msg
      | Ok s -> Store.close s);
      (match Store.open_dir ~fsync:false nested with
      | Error msg -> Alcotest.failf "second open failed: %s" msg
      | Ok s -> Store.close s);
      Alcotest.(check bool) "directory exists" true (Sys.is_directory nested);
      rm_rf nested;
      rm_rf (Filename.concat dir "a"))

let test_open_dir_clear_error () =
  with_tmp_file (fun file ->
      (* A path under a regular file can never become a directory: the
         error must be a clear [Error], not an exception. *)
      match Store.open_dir ~fsync:false (Filename.concat file "sub") with
      | Ok _ -> Alcotest.fail "open_dir under a regular file succeeded"
      | Error msg -> Alcotest.(check bool) "message mentions the path" true (msg <> ""))

let sample_snapshot ?(epoch = 3) () =
  let inst = instance_of ~base:[ (Tgd_logic.Symbol.intern "sp", [| Tgd_db.Value.const "a"; Tgd_db.Value.const "b" |]) ] ~tail:[] in
  { Snapshot.epoch; delta_epoch = epoch + 1; program_src = "sp(X,Y) -> sq(X)."; instance = inst; materialization = None }

let test_checkpoint_and_recover () =
  with_tmp_dir (fun dir ->
      let name = "a b/c%20" in
      (* odd characters: the escaping must round-trip the name *)
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      ignore (Store.log store ~name (Wal.Register { source = "r1" }));
      ignore (Store.log store ~name (Wal.Load_csv { csv = "c1" }));
      let st = Store.checkpoint store ~name (sample_snapshot ()) in
      Alcotest.(check int) "generation 1" 1 st.Store.generation;
      Alcotest.(check int) "wal trimmed" 0 st.Store.wal_records;
      ignore (Store.log store ~name (Wal.Add_facts { csv = "c2" }));
      Store.close store;
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      (match Store.recover store with
      | [ r ] ->
        Alcotest.(check string) "name round-trips" name r.Store.name;
        Alcotest.(check int) "generation" 1 r.Store.generation;
        Alcotest.(check int) "torn bytes" 0 r.Store.torn_bytes;
        Alcotest.(check bool) "snapshot present" true (r.Store.snapshot <> None);
        (match r.Store.snapshot with
        | Some s -> Alcotest.(check int) "epoch" 3 s.Snapshot.epoch
        | None -> ());
        Alcotest.(check bool) "tail is the post-checkpoint record" true
          (r.Store.tail = [ Wal.Add_facts { csv = "c2" } ])
      | rs -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length rs));
      (* A second checkpoint bumps the generation and GCs the old one. *)
      let st2 = Store.checkpoint store ~name (sample_snapshot ~epoch:4 ()) in
      Alcotest.(check int) "generation 2" 2 st2.Store.generation;
      let snaps =
        Array.to_list (Sys.readdir dir) |> List.filter (fun f -> Filename.check_suffix f ".snap")
      in
      Alcotest.(check int) "one generation on disk" 1 (List.length snaps);
      Store.close store)

(* Run [f] with file descriptor 2 sent to a file; return what it wrote. *)
let capture_stderr f =
  with_tmp_file (fun path ->
      flush stderr;
      let saved = Unix.dup Unix.stderr in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let v =
        Fun.protect
          ~finally:(fun () ->
            flush stderr;
            Unix.dup2 saved Unix.stderr;
            Unix.close saved)
          f
      in
      (v, read_file path))

let test_recover_skips_corrupt_generation () =
  with_tmp_dir (fun dir ->
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      ignore (Store.checkpoint store ~name:"e" (sample_snapshot ()));
      Store.close store;
      (* Fake two newer generations that do not decode — a torn one and one
         of a version this build does not know: recovery must fall back to
         gen 1 and say which it skipped, and why. *)
      write_file (Filename.concat dir "e.00000002.snap") "garbage, not a snapshot";
      let unknown_version =
        let image = read_file (Filename.concat dir "e.00000001.snap") in
        let b = Bytes.of_string image in
        Bytes.set_int32_le b 8 9l;
        Bytes.to_string b
      in
      write_file (Filename.concat dir "e.00000003.snap") unknown_version;
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      (match Store.recover store with
      | [ r ] ->
        Alcotest.(check int) "fell back to generation 1" 1 r.Store.generation;
        Alcotest.(check bool) "snapshot decoded" true (r.Store.snapshot <> None);
        Alcotest.(check (list (pair int string)))
          "skipped generations, newest first"
          [ (3, "unsupported snapshot version 9"); (2, "bad snapshot magic") ]
          r.Store.skipped
      | rs -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length rs));
      Store.close store;
      (* The server counts each skipped generation and says so once on
         stderr. *)
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      let server, err = capture_stderr (fun () -> Tgd_serve.Server.create ~store ()) in
      Alcotest.(check int) "serve.store.snapshot_errors" 2
        (Tgd_exec.Telemetry.get (Tgd_serve.Server.telemetry server) "serve.store.snapshot_errors");
      Alcotest.(check (list string))
        "one stderr line per skipped generation"
        [
          {|obda serve: snapshot generation 3 of "e" skipped: unsupported snapshot version 9|};
          {|obda serve: snapshot generation 2 of "e" skipped: bad snapshot magic|};
        ]
        (List.filter (fun l -> l <> "") (String.split_on_char '\n' err));
      Tgd_serve.Server.shutdown server;
      Store.close store)

(* A CRC-valid version 1 image (TGDSNAP1) around a hand-written instance
   section: [relations] writes the relation count and the relations. *)
let v1_image ~symbols relations =
  let sym s = Tgd_logic.Symbol.hash (Tgd_logic.Symbol.intern s) in
  let body = Buffer.create 128 in
  Codec.w_u32 body 1 (* epoch *);
  Codec.w_u32 body 1 (* delta epoch *);
  Codec.w_string body "";
  Codec.w_u32 body (List.length symbols);
  List.iter
    (fun s ->
      Codec.w_int body (sym s);
      Codec.w_string body s)
    symbols;
  relations body;
  Codec.w_u8 body 0 (* no materialization *);
  let body = Buffer.contents body in
  let out = Buffer.create 256 in
  Buffer.add_string out "TGDSNAP1";
  Codec.w_u32 out 1;
  Codec.w_u32 out (String.length body);
  Buffer.add_string out body;
  Buffer.add_int32_le out (Codec.crc32 body ~pos:0 ~len:(String.length body));
  Buffer.contents out

(* A counted int array, as {!Codec.r_int_array} reads it. *)
let w_int_array body a =
  Codec.w_u32 body (Array.length a);
  Array.iter (Codec.w_int body) a

(* A version 1 image of one unary relation [p(a)] as a block, whose CSR
   index section is written by hand. *)
let image_with_index ?count ?col ~pairs ~starts ~rows () =
  let sym s = Tgd_logic.Symbol.hash (Tgd_logic.Symbol.intern s) in
  let col = Option.value col ~default:[| sym "a" |] in
  v1_image ~symbols:[ "p"; "a" ] (fun body ->
      Codec.w_u32 body 1 (* relations *);
      Codec.w_int body (sym "p");
      Codec.w_u32 body 1 (* arity *);
      Codec.w_u8 body 0 (* columnar *);
      Codec.w_u32 body 1 (* rows *);
      Codec.w_u32 body 1 (* columns *);
      w_int_array body col;
      Codec.w_u32 body 1 (* indexes *);
      Codec.w_u32 body (Option.value ~default:(Array.length pairs) count);
      Array.iter
        (fun (code, g) ->
          Codec.w_int body code;
          Codec.w_u32 body g)
        pairs;
      w_int_array body starts;
      w_int_array body rows;
      Codec.w_u32 body 0 (* pending rows *))

let expect_corrupt what image =
  match Snapshot.decode image with
  | Ok _ -> Alcotest.failf "%s: decoded Ok" what
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s" what e)
      true
      (String.starts_with ~prefix:"corrupt snapshot: " e)

(* A null label the columnar code cannot hold: no generator makes one, an
   instance refuses to hold one (so no image can), and a version 1 image
   that carries one as a boxed value is corrupt. *)
let test_snapshot_rejects_uncodable_null () =
  let inst = Tgd_db.Instance.create () in
  (match
     Tgd_db.Instance.add_fact inst (Tgd_logic.Symbol.intern "r")
       [| Tgd_db.Value.Null Tgd_db.Value.null_base |]
   with
  | _ -> Alcotest.fail "held an uncodable null"
  | exception Invalid_argument _ -> ());
  expect_corrupt "boxed null label out of range"
    (v1_image ~symbols:[ "r" ] (fun body ->
         Codec.w_u32 body 1 (* relations *);
         Codec.w_int body (Tgd_logic.Symbol.hash (Tgd_logic.Symbol.intern "r"));
         Codec.w_u32 body 1 (* arity *);
         Codec.w_u8 body 1 (* boxed *);
         Codec.w_u32 body 1 (* rows *);
         Codec.w_u8 body 1 (* null *);
         Codec.w_int body Tgd_db.Value.null_base))

(* Columnar codes are range-checked too, through the same remap every
   decode runs: a null code past the codable range, and a constant code
   the image never declared, even one that names a symbol this process
   has interned. *)
let test_snapshot_rejects_uncodable_column () =
  let bad = (2 * Tgd_db.Value.null_base) + 5 in
  let block = Result.get_ok (Tgd_db.Columnar.of_columns ~arity:1 ~nrows:1 [| [| bad |] |]) in
  let inst = Tgd_db.Instance.create () in
  Tgd_db.Instance.install_relation inst (Tgd_logic.Symbol.intern "r")
    (Tgd_db.Relation.of_columnar block);
  let snap =
    { Snapshot.epoch = 1; delta_epoch = 1; program_src = ""; instance = inst; materialization = None }
  in
  expect_corrupt "null code out of range" (Snapshot.encode snap);
  let undeclared = Tgd_logic.Symbol.hash (Tgd_logic.Symbol.intern "undeclared_b") in
  expect_corrupt "undeclared constant code"
    (image_with_index ~col:[| undeclared |] ~pairs:[| (undeclared, 0) |] ~starts:[| 0; 1 |]
       ~rows:[| 0 |] ())

(* A version 1 image carries each block's CSR index. The reader skips it
   rather than trusting it, so an index of any shape decodes, and a probe
   goes through the index the block builds itself. Only an index section
   that runs past the image is corrupt. *)
let test_snapshot_rejects_bad_index () =
  let a = Tgd_logic.Symbol.hash (Tgd_logic.Symbol.intern "a") in
  let probes_a what image =
    match Snapshot.decode image with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok snap ->
      let rel =
        Option.get (Tgd_db.Instance.relation snap.Snapshot.instance (Tgd_logic.Symbol.intern "p"))
      in
      let block = Tgd_db.Relation.block rel in
      let rows, start, len = Tgd_db.Columnar.probe block ~col:0 a in
      Alcotest.(check (list int)) (what ^ ": probe finds row 0") [ 0 ] (Array.to_list (Array.sub rows start len));
      let _, _, none = Tgd_db.Columnar.probe block ~col:0 (a + 1) in
      Alcotest.(check int) (what ^ ": and nothing else") 0 none
  in
  probes_a "well-formed" (image_with_index ~pairs:[| (a, 0) |] ~starts:[| 0; 1 |] ~rows:[| 0 |] ());
  List.iter
    (fun (what, pairs, starts, rows) -> probes_a what (image_with_index ~pairs ~starts ~rows ()))
    [
      ("row id out of range", [| (a, 0) |], [| 0; 1 |], [| 5 |]);
      ("negative row id", [| (a, 0) |], [| 0; 1 |], [| -1 |]);
      ("group id out of range", [| (a, 3) |], [| 0; 1 |], [| 0 |]);
      ("group ids out of order", [| (a, 1); (a + 1, 0) |], [| 0; 1; 1 |], [| 0 |]);
      ("offsets end past the rows", [| (a, 0) |], [| 0; 2 |], [| 0 |]);
      ("offsets do not start at 0", [| (a, 0) |], [| 1; 1 |], [| 0 |]);
      ("decreasing offsets", [| (a, 0); (a + 1, 1) |], [| 0; 2; 1 |], [| 0 |]);
      ("offset count", [| (a, 0) |], [| 0; 0; 1 |], [| 0 |]);
      ("row list length", [| (a, 0) |], [| 0; 1 |], [| 0; 0 |]);
    ];
  expect_corrupt "pair count past the image"
    (image_with_index ~count:0xFFFF_FFFF ~pairs:[| (a, 0) |] ~starts:[| 0; 1 |] ~rows:[| 0 |] ())

(* A version 1 image written by an earlier build's `obda serve`: an entry
   registered with four facts, materialized, then grown by one add-facts
   batch, so its model holds labelled nulls, blocks with pending tails and
   a relation with no block. It recovers to the same entry the same three
   requests build here, and answers as that build did. *)
let v1_source =
  "[r1] professor(X) -> person(X). [r2] teaches(X,Y) -> professor(X). [r3] professor(X) -> \
   advises(X,Y). [r4] student(X) -> person(X). [r5] advises(X,Y) -> mentor(X). professor(ada). \
   teaches(turing,logic). teaches(hopper,compilers). course(logic)."

let v1_fixture =
  List.find_opt Sys.file_exists
    [ "snapshots/v1_materialized.image"; "test/snapshots/v1_materialized.image" ]
  |> Option.value ~default:"snapshots/v1_materialized.image"

let test_v1_image_recovers () =
  let module P = Tgd_serve.Protocol in
  let module S = Tgd_serve.Server in
  let ok srv req =
    match S.handle srv req with
    | Ok fields -> fields
    | Error (kind, msg) -> Alcotest.failf "%s: %s" kind msg
  in
  let live = S.create () in
  List.iter
    (fun req -> ignore (ok live req))
    [
      P.Register_ontology { name = "v1"; source = P.Inline v1_source };
      P.Materialize { name = "v1" };
      P.Add_facts { name = "v1"; source = P.Inline "teaches,liskov,types\nstudent,bob\ncourse,types" };
    ];
  with_tmp_dir (fun dir ->
      write_file (Filename.concat dir "v1.00000001.snap") (read_file v1_fixture);
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      let recovered = S.create ~store () in
      let entry srv = Option.get (Tgd_serve.Registry.find (S.registry srv) "v1") in
      let model srv = (Option.get (entry srv).Tgd_serve.Registry.materialization).Tgd_serve.Registry.model in
      Alcotest.(check bool) "instance facts" true
        (facts_equal (entry live).Tgd_serve.Registry.instance (entry recovered).Tgd_serve.Registry.instance);
      (* The image's model was chased with the boxed evaluator, which
         found triggers in hash-table order; the compiled chase finds
         them in row order, so the two models label their nulls
         differently. They are one model up to that renaming: equally
         large, homomorphically equivalent, with the same null-free facts. *)
      let m_live = model live and m_rec = model recovered in
      let maps_into i1 i2 =
        Tgd_logic.Homomorphism.exists (Tgd_db.Instance.to_atoms i1)
          (Tgd_logic.Homomorphism.target_of_atoms (Tgd_db.Instance.to_atoms i2))
      in
      let null_free i = List.filter (fun (_, t) -> not (Tgd_db.Tuple.has_null t)) (norm_facts i) in
      Alcotest.(check int) "model size" (Tgd_db.Instance.cardinality m_live)
        (Tgd_db.Instance.cardinality m_rec);
      Alcotest.(check bool) "models homomorphically equivalent" true
        (maps_into m_live m_rec && maps_into m_rec m_live);
      Alcotest.(check bool) "model null-free facts" true
        (List.equal (fun a b -> fact_compare a b = 0) (null_free m_live) (null_free m_rec));
      Alcotest.(check bool) "the model holds nulls" true
        (List.exists (fun (_, t) -> Tgd_db.Tuple.has_null t) (Tgd_db.Instance.facts (model recovered)));
      List.iter
        (fun (query, expected) ->
          List.iter
            (fun srv ->
              let fields = ok srv (P.Execute { ontology = "v1"; query; budget = None; target = None }) in
              Alcotest.(check string) query expected
                (Tgd_serve.Json.to_string (Option.get (List.assoc_opt "answers" fields))))
            [ recovered; live ])
        [
          ("q(X) :- person(X).", {|[["ada"],["turing"],["hopper"],["liskov"],["bob"]]|});
          ("q(X,Y) :- teaches(X,Y), course(Y).", {|[["turing","logic"],["liskov","types"]]|});
          ("q(X) :- advises(X,Y).", {|[["ada"],["turing"],["hopper"],["liskov"]]|});
        ];
      S.shutdown recovered;
      Store.close store);
  S.shutdown live

(* ------------------------------------------------------------------ *)
(* Cross-process recovery through the real binary: the serve subprocess
   interns symbols in its own order, so decoding its snapshot here forces
   the codec's non-identity remap path. *)

let obda =
  let candidates = [ "../bin/obda.exe"; "_build/default/bin/obda.exe"; "bin/obda.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> "../bin/obda.exe"

let test_cross_process_recovery () =
  with_tmp_dir (fun dir ->
      let script = Filename.temp_file "tgd_store" ".jsonl" in
      write_file script
        (String.concat "\n"
           [
             {|{"op":"register-ontology","id":1,"name":"remap","source":"rmp(X) -> rmq(X). rmp(remap_a). rmp(remap_b)."}|};
             {|{"op":"snapshot","id":2,"name":"remap"}|};
             {|{"op":"add-facts","id":3,"name":"remap","source":"rmp,remap_c"}|};
             {|{"op":"shutdown","id":4}|};
           ]);
      let code =
        Sys.command
          (Printf.sprintf "%s serve --workers 1 --data-dir %s < %s > /dev/null 2>&1" obda
             (Filename.quote dir) (Filename.quote script))
      in
      Sys.remove script;
      Alcotest.(check int) "serve exited cleanly" 0 code;
      (* Shift this process's intern table so the subprocess's symbol ids
         cannot line up with ours — the decode below must really remap. *)
      for i = 0 to 499 do
        ignore (Tgd_logic.Symbol.intern (Printf.sprintf "shift_%d" i))
      done;
      let store = Result.get_ok (Store.open_dir ~fsync:false dir) in
      (match Store.recover store with
      | [ r ] -> (
        Alcotest.(check string) "name" "remap" r.Store.name;
        Alcotest.(check bool) "tail holds the post-snapshot add-facts" true
          (match r.Store.tail with [ Wal.Add_facts _ ] -> true | _ -> false);
        match r.Store.snapshot with
        | None -> Alcotest.fail "no decodable snapshot"
        | Some s ->
          let shown =
            norm_facts s.Snapshot.instance
            |> List.map (fun (p, t) ->
                   Printf.sprintf "%s(%s)" (Tgd_logic.Symbol.name p)
                     (String.concat ","
                        (Array.to_list
                           (Array.map (fun v -> Format.asprintf "%a" Tgd_db.Value.pp v) t))))
          in
          Alcotest.(check (list string)) "facts survive the intern remap"
            [ "rmp(remap_a)"; "rmp(remap_b)" ] shown)
      | rs -> Alcotest.failf "expected 1 recovered entry, got %d" (List.length rs));
      Store.close store)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ( "snapshot",
        [
          qc prop_snapshot_roundtrip;
          qc prop_snapshot_rejects_corruption;
          Alcotest.test_case "decode rejects a CSR index out of shape" `Quick
            test_snapshot_rejects_bad_index;
          Alcotest.test_case "decode rejects an uncodable columnar code" `Quick
            test_snapshot_rejects_uncodable_column;
          Alcotest.test_case "decode rejects an uncodable null label" `Quick
            test_snapshot_rejects_uncodable_null;
          Alcotest.test_case "a version 1 image recovers and answers as before" `Quick
            test_v1_image_recovers;
        ] );
      ("wal", [ qc prop_wal_torn_tail; qc prop_wal_corrupt_byte ]);
      ( "store",
        [
          Alcotest.test_case "open_dir is idempotent and creates parents" `Quick
            test_open_dir_idempotent;
          Alcotest.test_case "open_dir fails clearly on an impossible path" `Quick
            test_open_dir_clear_error;
          Alcotest.test_case "checkpoint/recover round-trip with WAL tail" `Quick
            test_checkpoint_and_recover;
          Alcotest.test_case "recovery falls back past a corrupt generation" `Quick
            test_recover_skips_corrupt_generation;
        ] );
      ( "cross-process",
        [ Alcotest.test_case "recover a snapshot written by obda serve" `Quick
            test_cross_process_recovery ] );
    ]
