open Tgd_logic

type t = {
  registry : Registry.t;
  cache : Prepared.t;
  telemetry : Tgd_exec.Telemetry.t;
  base_budget : Tgd_exec.Budget.t;
  config : Tgd_rewrite.Rewrite.config;
  target : Tgd_obda.Target.t;  (* default rewriting backend; per-request override *)
  eval_workers : int;
  eval_pool : Tgd_exec.Pool.t option;
  store : Tgd_store.Store.t option;
  checkpoint_every : int;  (* 0 = checkpoint only on explicit snapshot ops *)
}

let default_budget =
  {
    Tgd_exec.Budget.unlimited with
    Tgd_exec.Budget.deadline_s = Some 8.0;
    rewrite_cqs = Some 200_000;
  }

(* The state constructor; the public [create] additionally runs durable-
   store recovery (defined below the request handlers it reuses). *)
let make ?(cache_capacity = 1024) ?(base_budget = default_budget)
    ?(config = Tgd_rewrite.Rewrite.default_config) ?(target = Tgd_obda.Target.Ucq)
    ?(eval_workers = 1) ?store ?(checkpoint_every = 0) () =
  if eval_workers <= 0 then invalid_arg "Server.create: eval_workers must be positive";
  if checkpoint_every < 0 then invalid_arg "Server.create: checkpoint_every must be >= 0";
  let telemetry = Tgd_exec.Telemetry.create () in
  {
    registry = Registry.create ();
    cache = Prepared.create ~capacity:cache_capacity ~telemetry ();
    telemetry;
    base_budget;
    (* Workers must not spawn nested domain pools for UCQ minimization. *)
    config = { config with Tgd_rewrite.Rewrite.domains = Some 1 };
    target;
    eval_workers;
    eval_pool =
      (if eval_workers > 1 then Some (Tgd_exec.Pool.create ~workers:eval_workers ()) else None);
    store;
    checkpoint_every;
  }

let shutdown t =
  Option.iter Tgd_exec.Pool.shutdown t.eval_pool;
  Option.iter Tgd_store.Store.close t.store

let telemetry t = t.telemetry
let registry t = t.registry
let cache t = t.cache

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let read_source = function
  | Protocol.Inline s -> Ok s
  | Protocol.File path -> (
    match open_in_bin path with
    | exception Sys_error msg -> Error msg
    | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Ok s)

let parse_ontology ~name src =
  match Tgd_parser.Parser.parse_string ~filename:name src with
  | Error e -> Error (Format.asprintf "%a" Tgd_parser.Parser.pp_error e)
  | Ok doc -> (
    match Tgd_parser.Parser.program_of_document ~name doc with
    | Error msg -> Error msg
    | Ok program -> Ok (program, Tgd_db.Instance.of_atoms doc.Tgd_parser.Parser.facts))

(* A query request is a one-query document: "q(X) :- person(X)." *)
let parse_query src =
  match Tgd_parser.Parser.parse_string ~filename:"query" src with
  | Error e -> Error (Format.asprintf "%a" Tgd_parser.Parser.pp_error e)
  | Ok doc -> (
    match doc.Tgd_parser.Parser.queries, doc.Tgd_parser.Parser.rules with
    | [ q ], [] -> Ok q
    | [], _ -> Error "no query in request (expected: q(X) :- p(X).)"
    | _ :: _ :: _, _ -> Error "more than one query in request"
    | _, _ :: _ -> Error "rules are not allowed in a query request")

let budget_of t spec =
  match spec with
  | None -> Ok t.base_budget
  | Some spec -> Tgd_exec.Budget.of_string ~base:t.base_budget spec

(* A cached artifact satisfies the request when the target accepts its
   kind: [auto] takes whatever is stored (both kinds are sound and, when
   complete, exact), a pinned target only its own. A kind mismatch is
   handled as a miss — the fresh artifact then replaces the stored one
   under the same key. *)
let hit_serves target (prepared : Prepared.entry) =
  match target, prepared.Prepared.artifact with
  | Tgd_obda.Target.Auto, _ -> true
  | Tgd_obda.Target.Ucq, Tgd_obda.Target.Ucq_rewriting _ -> true
  | Tgd_obda.Target.Datalog, Tgd_obda.Target.Datalog_rewriting _ -> true
  | (Tgd_obda.Target.Ucq | Tgd_obda.Target.Datalog), _ -> false

(* Prepare = cache lookup, or rewrite + insert. Returns the entry
   and whether it came from the cache. Charges the per-request governor on
   the miss path only: a warm hit never touches the rewriter. *)
let prepare_entry t (entry : Registry.entry) canon target gov_of =
  let miss =
    match
      Prepared.find t.cache ~ontology:entry.Registry.name ~epoch:entry.Registry.epoch ~canon
    with
    | Some prepared when hit_serves target prepared -> Ok (prepared, true)
    | Some _ ->
      ignore (Tgd_exec.Telemetry.add t.telemetry "serve.cache.kind_misses" 1);
      Error ()
    | None -> Error ()
  in
  match miss with
  | Ok hit -> hit
  | Error () ->
    let t0 = Unix.gettimeofday () in
    let artifact =
      Tgd_obda.Target.prepare ~ucq_config:t.config ~gov:gov_of target entry.Registry.program
        canon.Canon.cq
    in
    let prepared =
      {
        Prepared.ontology = entry.Registry.name;
        epoch = entry.Registry.epoch;
        canon;
        artifact;
        prepare_s = Unix.gettimeofday () -. t0;
      }
    in
    (* Only complete rewritings are cached: an incomplete one is sound but
       budget-dependent, and a later request with a larger budget would hit
       the truncated entry under the same key. Incomplete preparations are
       recomputed per request instead. *)
    if Tgd_obda.Target.complete artifact then Prepared.add t.cache prepared;
    (prepared, false)

let json_tuple tup =
  Json.List (Array.to_list (Array.map (fun v -> Json.String (Tgd_db.Value.to_string v)) tup))

let with_entry t name f =
  match Registry.find t.registry name with
  | None -> Error ("unknown_ontology", Printf.sprintf "unknown ontology %S" name)
  | Some entry -> f entry

let handle_query t ~ontology ~query ~budget ~target ~eval =
  with_entry t ontology (fun entry ->
      match parse_query query with
      | Error msg -> Error ("bad_request", msg)
      | Ok q -> (
        match budget_of t budget with
        | Error msg -> Error ("bad_request", "bad budget: " ^ msg)
        | Ok budget -> (
          match
            match target with
            | None -> Ok t.target
            | Some s -> Tgd_obda.Target.of_string s
          with
          | Error msg -> Error ("bad_request", "bad target: " ^ msg)
          | Ok target ->
            let t_req = Unix.gettimeofday () in
            let canon = Canon.of_cq q in
            let request_tele = Tgd_exec.Telemetry.create () in
            let fresh () = Tgd_exec.Governor.create ~budget ~telemetry:request_tele () in
            (* One governor spans rewrite + eval on the common single-attempt
               path; only an [auto] fallback re-arms a fresh one (the first
               attempt's stop is latched), which then also governs eval. *)
            let gov = ref (fresh ()) in
            let first = ref true in
            let gov_of () =
              if !first then begin
                first := false;
                !gov
              end
              else begin
                let g = fresh () in
                gov := g;
                g
              end
            in
            let prepared, cached = prepare_entry t entry canon target gov_of in
            let gov = !gov in
            let artifact = prepared.Prepared.artifact in
            let complete = Tgd_obda.Target.complete artifact in
            let artifact_fields =
              match artifact with
              | Tgd_obda.Target.Ucq_rewriting r ->
                [ ("disjuncts", Json.Int (List.length r.Tgd_rewrite.Rewrite.ucq)) ]
              | Tgd_obda.Target.Datalog_rewriting r ->
                [
                  ("patterns", Json.Int r.Tgd_rewrite.Datalog_rw.stats.Tgd_rewrite.Datalog_rw.patterns);
                  ("rules", Json.Int r.Tgd_rewrite.Datalog_rw.stats.Tgd_rewrite.Datalog_rw.rules);
                  ("nonrecursive", Json.Bool r.Tgd_rewrite.Datalog_rw.nonrecursive);
                ]
            in
            let fields =
              [
                ("ontology", Json.String entry.Registry.name);
                ("epoch", Json.Int entry.Registry.epoch);
                ("cached", Json.Bool cached);
                ("artifact", Json.String (Tgd_obda.Target.artifact_kind artifact));
                ("complete", Json.Bool complete);
              ]
              @ artifact_fields
              @ [ ("canonical", Json.String (Cq.to_string canon.Canon.cq)) ]
            in
            let fields =
              if eval then begin
                (* Registry instances are sealed on install, so a UCQ runs
                   the compiled columnar engine at any worker count; a
                   Datalog program saturates a copy-on-write clone and
                   leaves the registry's sealed columns untouched. *)
                let answers =
                  Tgd_obda.Target.answers ~gov ?pool:t.eval_pool ~workers:t.eval_workers artifact
                    entry.Registry.instance
                in
                let exact = complete && Tgd_exec.Governor.stopped gov = None in
                fields
                @ [
                    ("answers", Json.List (List.map json_tuple answers));
                    ("exact", Json.Bool exact);
                  ]
              end
              else fields
            in
            let fields =
              match Tgd_exec.Governor.stopped gov with
              | None -> fields
              | Some reason ->
                fields
                @ [ ("truncated", Json.String (Tgd_exec.Governor.stop_reason_to_string reason)) ]
            in
            let fields =
              fields @ [ ("wall_s", Json.Float (Unix.gettimeofday () -. t_req)) ]
            in
            Tgd_exec.Telemetry.merge_into ~into:t.telemetry request_tele;
            ignore (Tgd_exec.Telemetry.add t.telemetry "serve.requests" 1);
            Ok fields)))

let registered_fields (entry : Registry.entry) =
  [
    ("name", Json.String entry.Registry.name);
    ("epoch", Json.Int entry.Registry.epoch);
    ("delta_epoch", Json.Int entry.Registry.delta_epoch);
    ("rules", Json.Int (Program.size entry.Registry.program));
    ("facts", Json.Int (Tgd_db.Instance.cardinality entry.Registry.instance));
  ]

(* A data-only mutation answered: count it under the serve.delta.* keys and
   surface the incremental-apply statistics when a materialization was
   maintained. *)
let delta_fields t (m : Registry.mutation) =
  ignore (Tgd_exec.Telemetry.add t.telemetry "serve.delta.batches" 1);
  ignore (Tgd_exec.Telemetry.add t.telemetry "serve.delta.facts" m.Registry.added);
  let fields = registered_fields m.Registry.entry @ [ ("added", Json.Int m.Registry.added) ] in
  match m.Registry.delta with
  | None -> fields
  | Some stats ->
    ignore
      (Tgd_exec.Telemetry.add t.telemetry "serve.delta.triggers"
         stats.Tgd_chase.Chase.triggers_fired);
    ignore
      (Tgd_exec.Telemetry.add t.telemetry "serve.delta.derived"
         stats.Tgd_chase.Chase.derived);
    fields
    @ [
        ("materialized", Json.Bool true);
        ("derived", Json.Int stats.Tgd_chase.Chase.derived);
        ( "delta_complete",
          Json.Bool (stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated) );
      ]

(* Data mutations and materialization run under the server's default
   budget too (chase.delta.* keys bound the per-batch incremental chase),
   topped with the chase engines' own safety caps when the budget leaves
   them open — an explicit governor disables the engine defaults, and a
   divergent ontology must not chase unbounded on a data path. *)
let mutation_governor ?(request_tele = Tgd_exec.Telemetry.create ()) t =
  let fill v ~default =
    match v with
    | None -> Some default
    | some -> some
  in
  let budget =
    {
      t.base_budget with
      Tgd_exec.Budget.chase_rounds =
        fill t.base_budget.Tgd_exec.Budget.chase_rounds ~default:1000;
      chase_facts = fill t.base_budget.Tgd_exec.Budget.chase_facts ~default:1_000_000;
    }
  in
  (Tgd_exec.Governor.create ~budget ~telemetry:request_tele (), request_tele)

(* ------------------------------------------------------------------ *)
(* Durable store plumbing                                              *)

let snapshot_of_entry (entry : Registry.entry) =
  {
    Tgd_store.Snapshot.epoch = entry.Registry.epoch;
    delta_epoch = entry.Registry.delta_epoch;
    program_src = Tgd_parser.Printer.program_to_string entry.Registry.program;
    instance = entry.Registry.instance;
    materialization = entry.Registry.materialization;
  }

let checkpoint_entry t store (entry : Registry.entry) =
  let status =
    Tgd_store.Store.checkpoint store ~name:entry.Registry.name (snapshot_of_entry entry)
  in
  ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.snapshots" 1);
  status

(* Redo-only logging: a record is appended only after the in-memory apply
   succeeded, and (with fsync) reaches stable storage before the op is
   acknowledged — an acked mutation survives a crash, a failed one leaves
   no trace to replay. *)
let log_record t ~name record =
  match t.store with
  | None -> ()
  | Some store -> (
    let bytes = Tgd_store.Store.log store ~name record in
    ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.wal_records" 1);
    ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.wal_bytes" bytes);
    if Tgd_store.Store.fsync_enabled store then
      ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.fsyncs" 1);
    if t.checkpoint_every > 0 then
      match Tgd_store.Store.status store ~name with
      | Some s when s.Tgd_store.Store.wal_records >= t.checkpoint_every -> (
        match Registry.find t.registry name with
        | Some entry -> ignore (checkpoint_entry t store entry)
        | None -> ())
      | Some _ | None -> ())

(* load-csv and add-facts share this path: both append facts copy-on-write
   under a delta epoch bump — the prepared cache stays warm (the full
   epoch, its key component, does not move). *)
let handle_data_mutation t ~name ~source ~record =
  let t0 = Unix.gettimeofday () in
  (* Resolve a file source up front so the WAL record is self-contained:
     replay must not depend on the path still existing. *)
  match read_source source with
  | Error msg -> Error ("bad_request", msg)
  | Ok csv -> (
    let gov, request_tele = mutation_governor t in
    match Registry.load_csv_string ~gov t.registry ~name csv with
    | Error msg ->
      if Registry.find t.registry name = None then Error ("unknown_ontology", msg)
      else Error ("bad_request", msg)
    | Ok m ->
      Tgd_exec.Telemetry.merge_into ~into:t.telemetry request_tele;
      Tgd_exec.Telemetry.add_span t.telemetry "serve.delta.apply" (Unix.gettimeofday () -. t0);
      log_record t ~name (record csv);
      Ok (delta_fields t m))

let handle t (request : Protocol.request) =
  match request with
  | Protocol.Register_ontology { name; source } -> (
    match read_source source with
    | Error msg -> Error ("bad_request", msg)
    | Ok src -> (
      match parse_ontology ~name src with
      | Error msg -> Error ("parse_error", msg)
      | Ok (program, facts) ->
        let entry = Registry.register t.registry ~name ~facts program in
        let purged = Prepared.purge t.cache ~ontology:name ~keep_epoch:entry.Registry.epoch in
        log_record t ~name (Tgd_store.Wal.Register { source = src });
        Ok (registered_fields entry @ [ ("purged", Json.Int purged) ])))
  | Protocol.Load_csv { name; source } ->
    handle_data_mutation t ~name ~source ~record:(fun csv -> Tgd_store.Wal.Load_csv { csv })
  | Protocol.Add_facts { name; source } ->
    handle_data_mutation t ~name ~source ~record:(fun csv -> Tgd_store.Wal.Add_facts { csv })
  | Protocol.Materialize { name } -> (
    let t0 = Unix.gettimeofday () in
    let gov, request_tele = mutation_governor t in
    match Registry.materialize ~gov t.registry ~name with
    | Error msg -> Error ("unknown_ontology", msg)
    | Ok (entry, stats) ->
      Tgd_exec.Telemetry.merge_into ~into:t.telemetry request_tele;
      Tgd_exec.Telemetry.add_span t.telemetry "serve.materialize" (Unix.gettimeofday () -. t0);
      log_record t ~name Tgd_store.Wal.Materialize;
      let model_facts =
        match entry.Registry.materialization with
        | Some m -> Tgd_db.Instance.cardinality m.Registry.model
        | None -> 0
      in
      Ok
        (registered_fields entry
        @ [
            ("model_facts", Json.Int model_facts);
            ( "chase_complete",
              Json.Bool (stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated) );
          ]))
  | Protocol.Snapshot { name } -> (
    match t.store with
    | None ->
      Error ("bad_request", "no durable store attached (start the server with --data-dir)")
    | Some store ->
      let checkpoint_one name =
        match Registry.find t.registry name with
        | None -> Error ("unknown_ontology", Printf.sprintf "unknown ontology %S" name)
        | Some entry ->
          let status = checkpoint_entry t store entry in
          Ok
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("generation", Json.Int status.Tgd_store.Store.generation);
               ])
      in
      let names =
        match name with
        | Some n -> [ n ]
        | None -> List.map (fun (n, _, _, _, _) -> n) (Registry.list t.registry)
      in
      let rec go acc = function
        | [] -> Ok [ ("snapshots", Json.List (List.rev acc)) ]
        | n :: rest -> (
          match checkpoint_one n with
          | Ok j -> go (j :: acc) rest
          | Error e -> Error e)
      in
      go [] names)
  | Protocol.Prepare { ontology; query; target } ->
    handle_query t ~ontology ~query ~budget:None ~target ~eval:false
  | Protocol.Execute { ontology; query; budget; target } ->
    handle_query t ~ontology ~query ~budget ~target ~eval:true
  | Protocol.Stats ->
    let counters =
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Tgd_exec.Telemetry.counters t.telemetry))
    in
    let peaks =
      Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Tgd_exec.Telemetry.peaks t.telemetry))
    in
    let ontologies =
      Json.List
        (List.map
           (fun (name, epoch, delta_epoch, rules, facts) ->
             let base =
               [
                 ("name", Json.String name);
                 ("epoch", Json.Int epoch);
                 ("delta_epoch", Json.Int delta_epoch);
                 ("rules", Json.Int rules);
                 ("facts", Json.Int facts);
               ]
             in
             let store_fields =
               match t.store with
               | None -> []
               | Some store -> (
                 match Tgd_store.Store.status store ~name with
                 | None -> []
                 | Some s ->
                   [
                     ( "store",
                       Json.Obj
                         [
                           ("generation", Json.Int s.Tgd_store.Store.generation);
                           ("wal_records", Json.Int s.Tgd_store.Store.wal_records);
                           ("wal_bytes", Json.Int s.Tgd_store.Store.wal_bytes);
                         ] );
                   ])
             in
             Json.Obj (base @ store_fields))
           (Registry.list t.registry))
    in
    let phases =
      Json.Obj
        (List.map (fun (k, v) -> (k, Json.Float v)) (Tgd_exec.Telemetry.phases t.telemetry))
    in
    Ok
      [
        ("counters", counters);
        ("peaks", peaks);
        ("phases", phases);
        ("ontologies", ontologies);
        ( "cache",
          Json.Obj
            [
              ("size", Json.Int (Prepared.length t.cache));
              ("capacity", Json.Int (Prepared.capacity t.cache));
            ] );
        ("symbols", Json.Int (Symbol.count ()));
        ( "store",
          match t.store with
          | None -> Json.Null
          | Some store ->
            Json.Obj
              [
                ("data_dir", Json.String (Tgd_store.Store.dir store));
                ("fsync", Json.Bool (Tgd_store.Store.fsync_enabled store));
              ] );
      ]
  | Protocol.Ping -> Ok [ ("pong", Json.Bool true) ]
  | Protocol.Shutdown -> Ok []

(* ------------------------------------------------------------------ *)
(* Construction + recovery                                             *)

(* WAL replay goes through the ordinary registry paths (no logging: the
   records are already durable). Epoch counters advance exactly as they did
   pre-crash — the snapshot restored them and replay repeats the same
   mutation sequence — so recovered entries end on their original epochs.
   Each record gets its own mutation governor and is counted on its own. *)
let count_replayed t ~name record request_tele result =
  Tgd_exec.Telemetry.merge_into ~into:t.telemetry request_tele;
  match result with
  | Ok () -> ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.replayed_records" 1)
  | Error msg ->
    ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.replay_errors" 1);
    Printf.eprintf "obda serve: WAL replay of %s for %S failed: %s\n%!"
      (Tgd_store.Wal.record_tag record) name msg

let replay_record t ~name record apply =
  let gov, request_tele = mutation_governor t in
  count_replayed t ~name record request_tele (apply gov)

(* A maximal run of data records is one {!Registry.add_batches} call: one
   batch per record, so one copy and one seal for the whole run. Nobody
   reads the states in between — recovery finishes before serving. A
   record whose CSV does not parse fails alone and stays out of the run.
   Each record's governor is made when its batch starts, so its deadline
   does not also pay for parsing the run or for the batches before it. *)
let replay_tail t ~name tail =
  let run = ref [] in
  let flush () =
    let records = List.rev !run in
    run := [];
    if records <> [] then
      List.iter2
        (fun (record, request_tele, _) result ->
          count_replayed t ~name record request_tele (Result.map ignore result))
        records
        (Registry.add_batches t.registry ~name (List.map (fun (_, _, batch) -> batch) records))
  in
  List.iter
    (fun record ->
      match record with
      | Tgd_store.Wal.Load_csv { csv } | Tgd_store.Wal.Add_facts { csv } -> (
        let request_tele = Tgd_exec.Telemetry.create () in
        match Tgd_db.Csv_io.load_string csv with
        | Ok extra ->
          let gov () = Some (fst (mutation_governor ~request_tele t)) in
          run := (record, request_tele, (gov, Tgd_db.Instance.facts extra)) :: !run
        | Error msg -> count_replayed t ~name record request_tele (Error msg))
      | Tgd_store.Wal.Register { source } ->
        flush ();
        replay_record t ~name record (fun _gov ->
            match parse_ontology ~name source with
            | Error msg -> Error msg
            | Ok (program, facts) ->
              ignore (Registry.register t.registry ~name ~facts program);
              Ok ())
      | Tgd_store.Wal.Materialize ->
        flush ();
        replay_record t ~name record (fun gov ->
            Result.map ignore (Registry.materialize ~gov t.registry ~name)))
    tail;
  flush ()

let recover_store t store =
  let t0 = Unix.gettimeofday () in
  let recovered = Tgd_store.Store.recover store in
  Tgd_exec.Telemetry.add_span t.telemetry "serve.store.restore" (Unix.gettimeofday () -. t0);
  List.iter
    (fun (r : Tgd_store.Store.recovered) ->
      let name = r.Tgd_store.Store.name in
      List.iter
        (fun (gen, msg) ->
          ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.snapshot_errors" 1);
          Printf.eprintf "obda serve: snapshot generation %d of %S skipped: %s\n%!" gen name msg)
        r.Tgd_store.Store.skipped;
      let t0 = Unix.gettimeofday () in
      (match r.Tgd_store.Store.snapshot with
      | None -> ()
      | Some snap -> (
        match parse_ontology ~name snap.Tgd_store.Snapshot.program_src with
        | Error msg ->
          ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.recovery_errors" 1);
          Printf.eprintf "obda serve: snapshot of %S unparseable, replaying WAL only: %s\n%!"
            name msg
        | Ok (program, _no_facts) ->
          (* The snapshot instance carries the data; its program text holds
             rules only, so the parse yields no facts to merge. *)
          ignore
            (Registry.restore t.registry ~name ~epoch:snap.Tgd_store.Snapshot.epoch
               ~delta_epoch:snap.Tgd_store.Snapshot.delta_epoch
               ?materialization:snap.Tgd_store.Snapshot.materialization program
               snap.Tgd_store.Snapshot.instance)));
      let t1 = Unix.gettimeofday () in
      Tgd_exec.Telemetry.add_span t.telemetry "serve.store.restore" (t1 -. t0);
      replay_tail t ~name r.Tgd_store.Store.tail;
      Tgd_exec.Telemetry.add_span t.telemetry "serve.store.replay" (Unix.gettimeofday () -. t1);
      if r.Tgd_store.Store.torn_bytes > 0 then
        ignore
          (Tgd_exec.Telemetry.add t.telemetry "serve.store.torn_bytes"
             r.Tgd_store.Store.torn_bytes);
      if Registry.find t.registry name <> None then
        ignore (Tgd_exec.Telemetry.add t.telemetry "serve.store.recovered_entries" 1))
    recovered

let create ?cache_capacity ?base_budget ?config ?target ?eval_workers ?store ?checkpoint_every
    () =
  let t = make ?cache_capacity ?base_budget ?config ?target ?eval_workers ?store ?checkpoint_every () in
  Option.iter (recover_store t) t.store;
  t
