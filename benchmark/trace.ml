(* The traced pass: the workload's seeded request list replayed in-process
   on two stacks built from the same inputs.

   - The decomposed stack answers each request by calling the layers'
     public entry points one by one from here, timing each call: protocol
     parse, query parse, canonical key, the lookup in a local prepared
     cache, [Target.prepare] on a miss, [Par_eval.ucq] or
     [Target.datalog_answers], JSON encoding; for writes
     [Registry.load_csv_string], [Store.log] and a snapshot op every
     [checkpoint_every] records; for restarts [Store.recover] and
     [Server.create ~store].
   - The reference stack runs the same request through [Server.handle]
     (plus the protocol parse and reply encoding a served request pays),
     timed whole: that is [handle.ms].

   Both must give identical answers, and the decomposed spans of an op
   must add up to its reference time: [trace.coverage] is the median
   over the workload's primary ops of their summed spans, divided by
   [handle.ms]. Medians, not sums, because both stacks share one heap: a
   major GC slice that lands on one side of a rare 0.5 s [dl-cold]
   rewriting would otherwise swing the ratio. Nothing inside lib/ is instrumented; the spans sit at
   the boundaries this file calls. *)

open Tgd_logic
module Server = Tgd_serve.Server
module Registry = Tgd_serve.Registry
module P = Tgd_serve.Protocol
module Json = Tgd_serve.Json
module Canon = Tgd_serve.Canon
module Store = Tgd_store.Store
module Target = Tgd_obda.Target
module Governor = Tgd_exec.Governor
module Telemetry = Tgd_exec.Telemetry
module W = Workload

let now = Unix.gettimeofday

type layer = {
  mutable seconds : float;
  mutable calls : int;
}

type t = {
  layers : (string, layer) Hashtbl.t;
  mutable spans : float;  (** running sum of every span *)
  (* rewriting *)
  mutable ucq_misses : int;
  mutable generated : int;
  mutable kept : int;
  mutable checks : int;
  mutable homs : int;
  mutable datalog_misses : int;
  mutable datalog_rules : int;
  (* evaluation *)
  mutable eval_steps : int;
  mutable ucq_answers : int;
  (* writes and recovery *)
  mutable facts_logged : int;
  mutable wal_bytes : int;
  mutable checkpoints : int;
  mutable replayed : int;
  mutable restarts : int;
  (* whole ops on the reference stack *)
  mutable op_times : float list;  (** the workload's primary op *)
  mutable op_spans : float list;  (** per primary op, the sum of its decomposed spans *)
  mutable ops : int;
  mutable side_ops : int;  (** of [ops], the side reads of uni-write *)
  mutable minor_words : float;
  mutable major_collections : int;
  mutable reply_bytes : int;
  mutable replies : int;
}

let create () =
  {
    layers = Hashtbl.create 32;
    spans = 0.0;
    ucq_misses = 0;
    generated = 0;
    kept = 0;
    checks = 0;
    homs = 0;
    datalog_misses = 0;
    datalog_rules = 0;
    eval_steps = 0;
    ucq_answers = 0;
    facts_logged = 0;
    wal_bytes = 0;
    checkpoints = 0;
    replayed = 0;
    restarts = 0;
    op_times = [];
    op_spans = [];
    ops = 0;
    side_ops = 0;
    minor_words = 0.0;
    major_collections = 0;
    reply_bytes = 0;
    replies = 0;
  }

let add t name dt =
  let l =
    match Hashtbl.find_opt t.layers name with
    | Some l -> l
    | None ->
      let l = { seconds = 0.0; calls = 0 } in
      Hashtbl.add t.layers name l;
      l
  in
  l.seconds <- l.seconds +. dt;
  l.calls <- l.calls + 1;
  t.spans <- t.spans +. dt

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let span t name f =
  let r, dt = timed f in
  add t name dt;
  r

(* Mean seconds per call of a layer. *)
let mean_s t name =
  match Hashtbl.find_opt t.layers name with
  | Some l when l.calls > 0 -> l.seconds /. float_of_int l.calls
  | Some _ | None -> 0.0

(* ------------------------------------------------------------------ *)
(* The two stacks                                                      *)

(* The served defaults: an 8 s deadline and 200k rewriting CQs per
   request; data mutations additionally cap the chase. *)
let budget =
  { Tgd_exec.Budget.unlimited with Tgd_exec.Budget.deadline_s = Some 8.0; rewrite_cqs = Some 200_000 }

let mutation_budget =
  { budget with Tgd_exec.Budget.chase_rounds = Some 1000; chase_facts = Some 1_000_000 }

let ucq_config = { Tgd_rewrite.Rewrite.default_config with Tgd_rewrite.Rewrite.domains = Some 1 }

let open_store dir =
  match Store.open_dir ~fsync:true dir with
  | Ok s -> s
  | Error e -> failwith ("open data dir: " ^ e)

(* Two of these, built alike. Each op gives one the decomposed role and
   the other the reference role, and the roles swap every other op, so
   neither stack's heap placement is always on one side of the ratio. *)
type stack = {
  srv : Server.t;
  store : Store.t;  (** the decomposed role logs here itself *)
  dir : string;
  cache : (string, Target.artifact) Hashtbl.t;  (** the decomposed role's prepared cache *)
}

let handle_exn srv what request =
  match Server.handle srv request with
  | Ok fields -> fields
  | Error (kind, msg) -> failwith (Printf.sprintf "in-process %s: %s: %s" what kind msg)

let facts_in csv = List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' csv))

let json_tuple tup =
  Json.List (Array.to_list (Array.map (fun v -> Json.String (Tgd_db.Value.to_string v)) tup))

(* Decomposed execute: returns the rendered answers and exactness. *)
let decomposed_read t st line =
  let env = span t "protocol.parse" (fun () -> P.parse line) in
  match env with
  | Ok { P.id; request = P.Execute { ontology; query; target; _ }; _ } -> (
    let parsed = span t "parser.query" (fun () -> Tgd_parser.Parser.parse_string ~filename:"query" query) in
    match parsed with
    | Ok { Tgd_parser.Parser.queries = [ q ]; _ } ->
      let canon = span t "canon.key" (fun () -> Canon.of_cq q) in
      (* The request bookkeeping Server.handle does around the cache: find
         the entry, resolve the target, arm the governor, look up the key.
         As there, one governor counting into a per-request telemetry spans
         the rewriting and the evaluation. *)
      let entry, target, key, tele, gov, found =
        span t "prepared.lookup" (fun () ->
            let entry = Option.get (Registry.find (Server.registry st.srv) ontology) in
            let target =
              match Option.map Target.of_string target with
              | None -> Target.Ucq
              | Some (Ok tg) -> tg
              | Some (Error e) -> failwith e
            in
            let key = Target.to_string target ^ "|" ^ canon.Canon.key in
            let tele = Telemetry.create () in
            let gov = Governor.create ~budget ~telemetry:tele () in
            (entry, target, key, tele, gov, Hashtbl.find_opt st.cache key))
      in
      let artifact, cached =
        match found with
        | Some a -> (a, true)
        | None ->
          let a =
            span t "rewrite.prepare" (fun () ->
                Target.prepare ~ucq_config ~gov:(fun () -> gov) target entry.Registry.program
                  canon.Canon.cq)
          in
          (match a with
          | Target.Ucq_rewriting r ->
            let s = r.Tgd_rewrite.Rewrite.stats in
            t.ucq_misses <- t.ucq_misses + 1;
            t.generated <- t.generated + s.Tgd_rewrite.Rewrite.generated;
            t.kept <- t.kept + s.Tgd_rewrite.Rewrite.kept;
            t.checks <- t.checks + s.Tgd_rewrite.Rewrite.containment_checks;
            t.homs <- t.homs + s.Tgd_rewrite.Rewrite.hom_searches
          | Target.Datalog_rewriting r ->
            t.datalog_misses <- t.datalog_misses + 1;
            t.datalog_rules <- t.datalog_rules + r.Tgd_rewrite.Datalog_rw.stats.Tgd_rewrite.Datalog_rw.rules);
          (* Bounded like the server's 1024-entry cache, so dl-cold's
             never-repeated keys do not grow the heap the reference stack
             shares; the uni-* workloads use 56 keys and never reach it. *)
          if Hashtbl.length st.cache >= 1024 then Hashtbl.reset st.cache;
          if Target.complete a then Hashtbl.replace st.cache key a;
          (a, false)
      in
      (* One evaluation layer for both targets: each workload uses one
         target, so the workload says which engine the span timed. *)
      let answers =
        span t "eval.answers" (fun () ->
            match artifact with
            | Target.Ucq_rewriting r ->
              Tgd_db.Par_eval.ucq ~gov ~workers:1 entry.Registry.instance r.Tgd_rewrite.Rewrite.ucq
              |> List.filter (fun tup -> not (Tgd_db.Tuple.has_null tup))
            | Target.Datalog_rewriting r -> Target.datalog_answers ~gov r entry.Registry.instance)
      in
      (match artifact with
      | Target.Ucq_rewriting _ ->
        t.eval_steps <- t.eval_steps + Telemetry.get tele Tgd_exec.Budget.key_eval_steps;
        t.ucq_answers <- t.ucq_answers + List.length answers
      | Target.Datalog_rewriting _ -> ());
      let exact = Target.complete artifact && Governor.stopped gov = None in
      (* The reply carries the same fields as a served one. *)
      let rendered =
        span t "json.encode" (fun () ->
            let a = Json.List (List.map json_tuple answers) in
            let artifact_fields =
              match artifact with
              | Target.Ucq_rewriting r -> [ ("disjuncts", Json.Int (List.length r.Tgd_rewrite.Rewrite.ucq)) ]
              | Target.Datalog_rewriting r ->
                let s = r.Tgd_rewrite.Datalog_rw.stats in
                [
                  ("patterns", Json.Int s.Tgd_rewrite.Datalog_rw.patterns);
                  ("rules", Json.Int s.Tgd_rewrite.Datalog_rw.rules);
                  ("nonrecursive", Json.Bool r.Tgd_rewrite.Datalog_rw.nonrecursive);
                ]
            in
            ignore
              (P.response_ok ~id
                 ([
                    ("ontology", Json.String entry.Registry.name);
                    ("epoch", Json.Int entry.Registry.epoch);
                    ("cached", Json.Bool cached);
                    ("artifact", Json.String (Target.artifact_kind artifact));
                    ("complete", Json.Bool (Target.complete artifact));
                  ]
                 @ artifact_fields
                 @ [
                     ("canonical", Json.String (Cq.to_string canon.Canon.cq));
                     ("answers", a);
                     ("exact", Json.Bool exact);
                     ("wall_s", Json.Float 0.0);
                   ]));
            a)
      in
      (Json.to_string rendered, exact)
    | Ok _ | Error _ -> failwith ("decomposed path cannot parse query " ^ query))
  | Ok _ | Error _ -> failwith "decomposed path expected an execute request"

let checkpoint t st ~name =
  ignore (span t "store.checkpoint" (fun () -> handle_exn st.srv "snapshot" (P.Snapshot { name = Some name })));
  t.checkpoints <- t.checkpoints + 1

(* Decomposed data mutation, as the server's mutation path runs it: apply
   to the registry, append the WAL record, checkpoint on the cadence. *)
let decomposed_load t st ~checkpoint_every ~name record =
  let csv =
    match record with
    | Tgd_store.Wal.Load_csv { csv } | Tgd_store.Wal.Add_facts { csv } -> csv
    | _ -> invalid_arg "decomposed_load"
  in
  let gov = Governor.create ~budget:mutation_budget () in
  let m = span t "registry.load" (fun () -> Registry.load_csv_string ~gov (Server.registry st.srv) ~name csv) in
  let facts = facts_in csv in
  let bytes = span t "store.log" (fun () -> Store.log st.store ~name record) in
  t.wal_bytes <- t.wal_bytes + bytes;
  t.facts_logged <- t.facts_logged + facts;
  (match Store.status st.store ~name with
  | Some s when checkpoint_every > 0 && s.Store.wal_records >= checkpoint_every -> checkpoint t st ~name
  | Some _ | None -> ());
  match m with Ok m -> m.Registry.added | Error e -> failwith ("registry load: " ^ e)

let decomposed_write t st ~checkpoint_every line =
  match span t "protocol.parse" (fun () -> P.parse line) with
  | Ok { P.id; request = P.Add_facts { name; source = P.Inline csv }; _ } ->
    let added =
      decomposed_load t st ~checkpoint_every ~name (Tgd_store.Wal.Add_facts { csv })
    in
    ignore (span t "json.encode" (fun () -> P.response_ok ~id [ ("added", Json.Int added) ]));
    added
  | Ok _ | Error _ -> failwith "decomposed path expected an add-facts request"

(* The reference: parse, [Server.handle], encode — what a served request
   costs minus the socket. GC work is charged to this side only. *)
let reference t srv line =
  let mw0 = Gc.minor_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let reply, fields =
    match P.parse line with
    | Error (id, msg) -> (P.response_error ~id ~kind:"bad_request" msg, [])
    | Ok { P.id; request; _ } -> (
      match Server.handle srv request with
      | Ok fields -> (P.response_ok ~id fields, fields)
      | Error (kind, msg) -> (P.response_error ~id ~kind msg, []))
  in
  let dt = now () -. t0 in
  t.minor_words <- t.minor_words +. (Gc.minor_words () -. mw0);
  t.major_collections <- t.major_collections + ((Gc.quick_stat ()).Gc.major_collections - maj0);
  t.reply_bytes <- t.reply_bytes + String.length reply;
  t.replies <- t.replies + 1;
  (dt, fields)

(* One timed op on both stacks. The order flips every op, so neither
   role always runs on caches the other warmed, and the roles swap every
   other op. Primary and side ops cycle separately: uni-write interleaves
   them one to one, so a shared count would give every write the same
   order. *)
let both t (a, b) ~primary ~decomposed ~reference:run_reference =
  let k = if primary then t.ops - t.side_ops else t.side_ops in
  let dec, rf = if k / 2 mod 2 = 0 then (a, b) else (b, a) in
  let d () =
    let s0 = t.spans in
    let r = decomposed dec in
    (r, t.spans -. s0)
  in
  let (dr, dspans), (dt, fields) =
    if k mod 2 = 0 then
      let x = d () in
      (x, run_reference rf)
    else
      let y = run_reference rf in
      (d (), y)
  in
  t.ops <- t.ops + 1;
  if not primary then t.side_ops <- t.side_ops + 1;
  if primary then begin
    t.op_times <- dt :: t.op_times;
    t.op_spans <- dspans :: t.op_spans
  end;
  (dr, fields)

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)

let stack ~checkpoint_every dir =
  let store = open_store dir in
  { srv = Server.create ~store ~checkpoint_every (); store; dir; cache = Hashtbl.create 64 }

let setup t (w : W.t) ~decomposed ~reference =
  let name = w.W.entry in
  let ce = w.W.checkpoint_every in
  let register = P.Register_ontology { name; source = P.Inline w.W.ontology } in
  ignore (handle_exn decomposed.srv "register" register);
  ignore (decomposed_load t decomposed ~checkpoint_every:ce ~name (Tgd_store.Wal.Load_csv { csv = w.W.csv }));
  if w.W.materialize then ignore (handle_exn decomposed.srv "materialize" (P.Materialize { name }));
  checkpoint t decomposed ~name;
  List.iter
    (fun csv ->
      ignore (decomposed_load t decomposed ~checkpoint_every:ce ~name (Tgd_store.Wal.Add_facts { csv })))
    w.W.tail;
  List.iter
    (fun r -> ignore (handle_exn reference.srv "setup" r))
    ([ register; P.Load_csv { name; source = P.Inline w.W.csv } ]
    @ (if w.W.materialize then [ P.Materialize { name } ] else [])
    @ [ P.Snapshot { name = Some name } ]
    @ List.map (fun csv -> P.Add_facts { name; source = P.Inline csv }) w.W.tail)

let answers_of fields =
  match List.assoc_opt "answers" fields, List.assoc_opt "exact" fields with
  | Some a, Some (Json.Bool exact) -> Some (Json.to_string a, exact)
  | _ -> None

type outcome = {
  trace : t;
  mismatches : string list;
  delta_facts : int;  (** the reference server's [serve.delta.*] counters *)
  delta_triggers : int;
  delta_derived : int;
  snapshot_bytes : int;  (** the reference data directory's snapshot files *)
  stored_facts : int;
}

let snapshot_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".snap" then acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let run (w : W.t) ~oracle ~work ~seconds =
  let t = create () in
  let mismatches = ref [] in
  let mismatch fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  let ce = w.W.checkpoint_every in
  let a = stack ~checkpoint_every:ce (Filename.concat work "trace-a") in
  let b = stack ~checkpoint_every:ce (Filename.concat work "trace-b") in
  setup t w ~decomposed:a ~reference:b;
  let read ~primary (r : W.read) =
    let line = W.execute_line ~id:1 r in
    let (got, exact), fields =
      both t (a, b) ~primary
        ~decomposed:(fun st -> decomposed_read t st line)
        ~reference:(fun st -> reference t st.srv line)
    in
    match answers_of fields with
    | Some (expected, true) when exact && got = expected -> ()
    | _ -> mismatch "decomposed and Server.handle answers differ for %s" r.W.query
  in
  let write line =
    let added, fields =
      both t (a, b) ~primary:true
        ~decomposed:(fun st -> decomposed_write t st ~checkpoint_every:ce line)
        ~reference:(fun st -> reference t st.srv line)
    in
    if List.assoc_opt "added" fields <> Some (Json.Int added) then
      mismatch "decomposed and Server.handle add-facts disagree"
  in
  (* A restart on [dir]: Store.recover alone, then Server.create ~store
     (which recovers again and replays); the difference is the replay.
     An untimed recover first puts both timed ones on a warm page cache,
     so neither pays the first read of the files. *)
  let restart ~op (r : W.read) =
    let recover () =
      let st = open_store b.dir in
      let rs = timed (fun () -> Store.recover st) in
      Store.close st;
      rs
    in
    ignore (recover ());
    let recovered, recover_dt = recover () in
    t.replayed <- t.replayed + List.fold_left (fun n x -> n + List.length x.Store.tail) 0 recovered;
    t.restarts <- t.restarts + 1;
    let s0 = t.spans in
    add t "store.recover" recover_dt;
    let srv, create_dt = timed (fun () -> Server.create ~store:(open_store b.dir) ~checkpoint_every:ce ()) in
    add t "recovery.replay" (create_dt -. recover_dt);
    let line = W.execute_line ~id:1 r in
    let got, exact = decomposed_read t { a with srv; cache = Hashtbl.create 4 } line in
    let dt, fields = reference t srv line in
    Server.shutdown srv;
    (match answers_of fields with
    | Some (expected, true) when exact && got = expected && expected = Oracle.answers oracle r -> ()
    | _ -> mismatch "answers after an in-process restart differ for %s" r.W.query);
    if op then begin
      t.ops <- t.ops + 1;
      t.op_spans <- (t.spans -. s0) :: t.op_spans;
      t.op_times <- (create_dt +. dt) :: t.op_times
    end
  in
  let t0 = ref (now ()) in
  let window_over n = n mod w.W.round = 0 && now () -. !t0 >= seconds in
  let probe =
    match w.W.restart_read with
    | Some r -> r
    | None -> if w.W.pool <> [||] then w.W.pool.(0) else (match w.W.stream () () with W.Read r -> r | _ -> assert false)
  in
  (* Every read of the pool, once in each role on each stack, so the
     window starts with both stacks' caches as warm as the served ones. *)
  Array.iter
    (fun (r : W.read) ->
      let line = W.execute_line ~id:1 r in
      List.iter (fun st -> ignore (decomposed_read t st line); ignore (reference t st.srv line)) [ a; b ])
    w.W.pool;
  (match w.W.shape with
  | W.Read_mix ->
    let next = w.W.stream () in
    let op () = match next () with W.Read r -> read ~primary:true r | W.Write _ | W.Restart -> assert false in
    for _ = 1 to w.W.warmup do op () done;
    (* Warm-up ops are not part of the window's op accounting. *)
    t.ops <- 0; t.side_ops <- 0; t.op_spans <- []; t.op_times <- [];
    t0 := now ();
    let n = ref 0 in
    while not (window_over !n) do
      op ();
      incr n
    done
  | W.Write_mix ->
    let writes = w.W.stream () and reads = (Option.get w.W.side) () in
    let write_op () = match writes () with W.Write csv -> write (W.write_line ~id:1 ~entry:w.W.entry csv) | _ -> assert false in
    let read_op () = match reads () with W.Read r -> read ~primary:false r | _ -> assert false in
    for _ = 1 to w.W.warmup do write_op () done;
    (* Empty WALs put every inline checkpoint on a round boundary. *)
    checkpoint t a ~name:w.W.entry;
    checkpoint t b ~name:w.W.entry;
    t.ops <- 0; t.side_ops <- 0; t.op_spans <- []; t.op_times <- [];
    t0 := now ();
    let n = ref 0 in
    while not (window_over !n) do
      write_op ();
      read_op ();
      incr n
    done
  | W.Restarts -> ());
  let tele = Server.telemetry b.srv in
  let stored_facts =
    List.fold_left (fun n (_, _, _, _, facts) -> n + facts) 0 (Registry.list (Server.registry b.srv))
  in
  Server.shutdown a.srv;
  Server.shutdown b.srv;
  (match w.W.shape with
  | W.Restarts ->
    for _ = 1 to w.W.warmup do restart ~op:false probe done;
    t0 := now ();
    let n = ref 0 in
    while not (window_over !n) do
      restart ~op:true probe;
      incr n
    done
  | W.Read_mix | W.Write_mix ->
    for _ = 1 to 3 do restart ~op:false probe done);
  {
    trace = t;
    mismatches = List.rev !mismatches;
    delta_facts = Telemetry.get tele "serve.delta.facts";
    delta_triggers = Telemetry.get tele "serve.delta.triggers";
    delta_derived = Telemetry.get tele "serve.delta.derived";
    snapshot_bytes = snapshot_bytes b.dir;
    stored_facts;
  }
