(* obda — command-line front end: classify ontologies, export the paper's
   graphs, rewrite queries, and compute certain answers. *)

open Tgd_logic
open Cmdliner

let load_document path =
  match Tgd_parser.Parser.parse_file path with
  | Ok doc -> doc
  | Error e ->
    Format.eprintf "parse error: %a@." Tgd_parser.Parser.pp_error e;
    exit 2

let load_program path =
  let doc = load_document path in
  match Tgd_parser.Parser.program_of_document ~name:(Filename.basename path) doc with
  | Ok p -> (p, doc)
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 2

let instance_of_document (doc : Tgd_parser.Parser.document) =
  Tgd_db.Instance.of_atoms doc.Tgd_parser.Parser.facts

(* Facts from the ontology file, optionally merged with CSV data files. *)
let load_instance doc data_files =
  let inst = instance_of_document doc in
  List.iter
    (fun path ->
      match Tgd_db.Csv_io.load_file path with
      | Error msg ->
        Format.eprintf "%s: %s@." path msg;
        exit 2
      | Ok extra ->
        Tgd_db.Instance.iter_facts
          (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact inst pred t))
          extra)
    data_files;
  inst

let data_arg =
  Arg.(
    value & opt_all file []
    & info [ "d"; "data" ] ~docv:"CSV"
        ~doc:"Extra facts from a CSV file (predicate,arg1,arg2,...); repeatable.")

(* ------------------------------------------------------------------ *)
(* Resource governance: flags shared by the execution commands         *)

let budget_arg =
  Arg.(
    value & opt (some string) None
    & info [ "budget" ] ~docv:"SPEC"
        ~doc:
          "Per-run resource budget as comma-separated key=value pairs, e.g. \
           $(b,chase.rounds=100,rewrite.cqs=5000,deadline=2.5). Keys: chase.rounds, chase.facts, \
           chase.triggers, rewrite.cqs, rewrite.expansions, rewrite.depth, containment.checks, \
           eval.steps, deadline (float seconds). Budget exhaustion truncates the run gracefully \
           and reports diagnostics.")

let deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Wall-clock deadline per run; shorthand for deadline=... inside $(b,--budget).")

let stats_json_arg =
  Arg.(
    value & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write the runs' telemetry records (counters, phase timings, peak sizes) as a JSON \
              array to FILE, or to stdout with $(b,-).")

let budget_of_flags budget deadline =
  let base =
    match budget with
    | None -> Tgd_exec.Budget.unlimited
    | Some spec -> (
      match Tgd_exec.Budget.of_string spec with
      | Ok b -> b
      | Error msg ->
        Format.eprintf "bad --budget: %s@." msg;
        exit 2)
  in
  match deadline with None -> base | Some s -> { base with Tgd_exec.Budget.deadline_s = Some s }

(* One governor per run: its telemetry, containment counts included, is
   that run's alone. *)
let fresh_governor budget = Tgd_exec.Governor.create ~budget ()

let emit_stats stats_json records =
  match stats_json with
  | None -> ()
  | Some dest ->
    let payload = "[\n  " ^ String.concat ",\n  " records ^ "\n]\n" in
    if dest = "-" then print_string payload
    else begin
      let oc = open_out dest in
      output_string oc payload;
      close_out oc;
      Format.printf "wrote %s@." dest
    end

let pp_truncation d = Format.printf "  %a@." Tgd_exec.Governor.pp_diagnostics d

let record_and_emit stats_json run gov =
  emit_stats stats_json [ Tgd_exec.Governor.report_json ~run gov ]

(* ------------------------------------------------------------------ *)
(* classify                                                            *)

let classify_cmd =
  let run path verbose =
    let p, _ = load_program path in
    if verbose then print_string (Tgd_core.Explain.describe p)
    else begin
      let report = Tgd_core.Classifier.classify p in
      Tgd_core.Classifier.pp Format.std_formatter report;
      match Tgd_core.Classifier.fo_rewritable_witness report with
      | Some cls -> Format.printf "=> FO-rewritable (witness: %s)@." cls
      | None -> Format.printf "=> FO-rewritability not established by any implemented class@."
    end
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Also print dangerous-cycle witnesses.")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Run every TGD-class membership test on an ontology file.")
    Term.(const run $ path $ verbose)

(* ------------------------------------------------------------------ *)
(* patterns                                                            *)

let patterns_cmd =
  let run path max_cqs =
    let p, _ = load_program path in
    let config = { Tgd_rewrite.Rewrite.default_config with max_cqs } in
    Format.printf "%-28s %s@." "pattern (b=bound, u=free)" "rewriting";
    List.iter
      (fun (pat, status) ->
        Format.printf "%-28s %s@."
          (Format.asprintf "%a" Tgd_core.Query_pattern.pp pat)
          (match status with
          | Tgd_core.Query_pattern.Terminates n -> Printf.sprintf "terminates (%d disjuncts)" n
          | Tgd_core.Query_pattern.Diverges why -> "diverges (" ^ why ^ ")"))
      (Tgd_core.Query_pattern.analyze_all ~config p)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let max_cqs =
    Arg.(value & opt int 2_000 & info [ "max-cqs" ] ~doc:"Rewriting budget per pattern.")
  in
  Cmd.v
    (Cmd.info "patterns"
       ~doc:
         "Per-query-pattern FO-rewritability: which atomic query shapes terminate even when the \
          whole set of TGDs is intractable.")
    Term.(const run $ path $ max_cqs)

(* ------------------------------------------------------------------ *)
(* graph                                                               *)

let graph_cmd =
  let run path kind output =
    let p, _ = load_program path in
    let dot =
      match kind with
      | "position" -> Tgd_core.Position_graph.G.to_dot ~name:p.Program.name (Tgd_core.Position_graph.build p)
      | "pnode" ->
        let r = Tgd_core.P_node_graph.build p in
        if not r.Tgd_core.P_node_graph.complete then
          Format.eprintf "warning: node budget hit; graph truncated@.";
        Tgd_core.P_node_graph.G.to_dot ~name:p.Program.name r.Tgd_core.P_node_graph.graph
      | other ->
        Format.eprintf "unknown graph kind %S (expected position or pnode)@." other;
        exit 2
    in
    match output with
    | None -> print_string dot
    | Some file ->
      let oc = open_out file in
      output_string oc dot;
      close_out oc;
      Format.printf "wrote %s@." file
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let kind =
    Arg.(value & opt string "position" & info [ "k"; "kind" ] ~doc:"Graph kind: position or pnode.")
  in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.dot") in
  Cmd.v
    (Cmd.info "graph" ~doc:"Export the position graph or the P-node graph in Graphviz format.")
    Term.(const run $ path $ kind $ output)

(* ------------------------------------------------------------------ *)
(* rewrite                                                             *)

let target_arg =
  Arg.(
    value & opt string "ucq"
    & info [ "target" ] ~docv:"TARGET"
        ~doc:
          "Rewriting target: $(b,ucq) (union of conjunctive queries), $(b,datalog) (shared-pattern \
           Datalog program, evaluated by semi-naive saturation), or $(b,auto) (classifier \
           dispatch, falling back to the other target when the preferred one truncates).")

let target_of_flag s =
  match Tgd_obda.Target.of_string s with
  | Ok t -> t
  | Error msg ->
    Format.eprintf "bad --target: %s@." msg;
    exit 2

let rewrite_cmd =
  let run path sql target max_cqs budget deadline stats_json =
    let p, doc = load_program path in
    if doc.Tgd_parser.Parser.queries = [] then begin
      Format.eprintf "no queries in %s (add lines like: q(X) :- person(X).)@." path;
      exit 2
    end;
    let target = target_of_flag target in
    let ucq_config = { Tgd_rewrite.Rewrite.default_config with max_cqs } in
    let b = budget_of_flags budget deadline in
    let records = ref [] in
    List.iter
      (fun q ->
        let last_gov = ref None in
        let gov () =
          let g = fresh_governor b in
          last_gov := Some g;
          g
        in
        let artifact = Tgd_obda.Target.prepare ~ucq_config ~gov target p q in
        let gov = Option.get !last_gov in
        records := Tgd_exec.Governor.report_json ~run:("rewrite:" ^ q.Cq.name) gov :: !records;
        match artifact with
        | Tgd_obda.Target.Ucq_rewriting r ->
          Format.printf "%% query %s: %d disjunct(s), %s@." q.Cq.name
            (List.length r.Tgd_rewrite.Rewrite.ucq)
            (match r.Tgd_rewrite.Rewrite.outcome with
            | Tgd_rewrite.Rewrite.Complete -> "complete rewriting"
            | Tgd_rewrite.Rewrite.Truncated d ->
              "TRUNCATED (" ^ Tgd_exec.Governor.diag_summary d ^ ")");
          if sql then
            match r.Tgd_rewrite.Rewrite.ucq with
            | [] -> Format.printf "-- empty rewriting: no SQL@."
            | ucq -> Format.printf "%s;@." (Tgd_db.Sql.of_ucq ucq)
          else begin
            Cq.pp_ucq Format.std_formatter r.Tgd_rewrite.Rewrite.ucq;
            Format.printf "@."
          end
        | Tgd_obda.Target.Datalog_rewriting r ->
          if sql then begin
            Format.eprintf "--sql is only supported with --target ucq@.";
            exit 2
          end;
          Format.printf "%% query %s: datalog program, %d pattern(s), %d rule(s), %s, %s@."
            q.Cq.name r.Tgd_rewrite.Datalog_rw.stats.Tgd_rewrite.Datalog_rw.patterns
            r.Tgd_rewrite.Datalog_rw.stats.Tgd_rewrite.Datalog_rw.rules
            (if r.Tgd_rewrite.Datalog_rw.nonrecursive then "nonrecursive" else "recursive")
            (match r.Tgd_rewrite.Datalog_rw.outcome with
            | Tgd_rewrite.Datalog_rw.Complete -> "complete rewriting"
            | Tgd_rewrite.Datalog_rw.Truncated d ->
              "TRUNCATED (" ^ Tgd_exec.Governor.diag_summary d ^ ")");
          Format.printf "%a@." Tgd_rewrite.Datalog_rw.pp r)
      doc.Tgd_parser.Parser.queries;
    emit_stats stats_json (List.rev !records)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let sql = Arg.(value & flag & info [ "sql" ] ~doc:"Print SQL instead of Datalog syntax.") in
  let max_cqs =
    Arg.(value & opt int 20_000 & info [ "max-cqs" ] ~doc:"Budget on generated CQs.")
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Compute the UCQ (or SQL) or Datalog rewriting of each query in the file.")
    Term.(
      const run $ path $ sql $ target_arg $ max_cqs $ budget_arg $ deadline_arg $ stats_json_arg)

(* ------------------------------------------------------------------ *)
(* answer                                                              *)

let eval_workers_arg =
  Arg.(
    value & opt (some int) None
    & info [ "eval-workers" ] ~docv:"N"
        ~doc:
          "Domains used by morsel-parallel query evaluation; 1 forces the sequential path. \
           Default: $(b,TGDLIB_DOMAINS) if set, else one per core (capped at 8). Answers are \
           identical to the sequential path's.")

let resolve_eval_workers = function
  | Some n when n >= 1 -> n
  | Some n ->
    Format.eprintf "bad --eval-workers: %d (must be >= 1)@." n;
    exit 2
  | None -> Tgd_exec.Pool.default_workers ()

let answer_cmd =
  let run path method_ target data_files eval_workers budget deadline stats_json =
    let p, doc = load_program path in
    let inst = load_instance doc data_files in
    let eval_workers = resolve_eval_workers eval_workers in
    let pool =
      if eval_workers > 1 then Some (Tgd_exec.Pool.create ~workers:eval_workers ()) else None
    in
    Fun.protect ~finally:(fun () -> Option.iter Tgd_exec.Pool.shutdown pool) @@ fun () ->
    (* A supplied governor bypasses the chase's own round/fact defaults, so
       merge them into the budget when the spec leaves them unset. *)
    let b =
      let b = budget_of_flags budget deadline in
      {
        b with
        Tgd_exec.Budget.chase_rounds =
          (match b.Tgd_exec.Budget.chase_rounds with None -> Some 1_000 | some -> some);
        chase_facts =
          (match b.Tgd_exec.Budget.chase_facts with None -> Some 1_000_000 | some -> some);
      }
    in
    let records = ref [] in
    let record run gov = records := Tgd_exec.Governor.report_json ~run gov :: !records in
    let target = target_of_flag target in
    let answer_by_rewriting q =
      let last_gov = ref None in
      let gov () =
        let g = fresh_governor b in
        last_gov := Some g;
        g
      in
      let artifact = Tgd_obda.Target.prepare ~gov target p q in
      let gov = Option.get !last_gov in
      let answers =
        Tgd_obda.Target.answers ~gov ?pool ~workers:eval_workers artifact inst
      in
      record
        (Printf.sprintf "answer.rewriting.%s:%s" (Tgd_obda.Target.artifact_kind artifact)
           q.Cq.name)
        gov;
      (answers, Tgd_obda.Target.complete artifact && Tgd_exec.Governor.stopped gov = None)
    in
    let answer_by_chase q =
      let gov = fresh_governor b in
      let r = Tgd_chase.Certain.cq ~gov ?pool ~eval_workers p inst q in
      record ("answer.chase:" ^ q.Cq.name) gov;
      (r.Tgd_chase.Certain.answers, r.Tgd_chase.Certain.exact)
    in
    let print_answers q answers exact =
      Format.printf "%s: %d certain answer(s)%s@." q.Cq.name (List.length answers)
        (if exact then "" else " [budget hit: lower bound]");
      List.iter (fun t -> Format.printf "  %a@." Tgd_db.Tuple.pp t) answers
    in
    List.iter
      (fun q ->
        match method_ with
        | "rewriting" ->
          let a, exact = answer_by_rewriting q in
          print_answers q a exact
        | "chase" ->
          let a, exact = answer_by_chase q in
          print_answers q a exact
        | _ ->
          let a1, e1 = answer_by_rewriting q in
          let a2, e2 = answer_by_chase q in
          print_answers q a1 (e1 && e2);
          if (e1 && e2)
             && not (List.length a1 = List.length a2 && List.for_all2 Tgd_db.Tuple.equal a1 a2)
          then
            Format.printf "  WARNING: rewriting (%d) and chase (%d) disagree@." (List.length a1)
              (List.length a2))
      doc.Tgd_parser.Parser.queries;
    emit_stats stats_json (List.rev !records)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let method_ =
    Arg.(value & opt string "both" & info [ "m"; "method" ] ~doc:"rewriting, chase, or both.")
  in
  Cmd.v
    (Cmd.info "answer"
       ~doc:"Compute certain answers to the queries in the file over its facts.")
    Term.(
      const run $ path $ method_ $ target_arg $ data_arg $ eval_workers_arg $ budget_arg
      $ deadline_arg $ stats_json_arg)

(* ------------------------------------------------------------------ *)
(* chase                                                               *)

let chase_cmd =
  let run path max_rounds max_facts print_facts data_files budget deadline stats_json =
    let p, doc = load_program path in
    let inst = load_instance doc data_files in
    (* --max-rounds / --max-facts are defaults; an explicit --budget key wins. *)
    let b =
      let b = budget_of_flags budget deadline in
      {
        b with
        Tgd_exec.Budget.chase_rounds =
          (match b.Tgd_exec.Budget.chase_rounds with None -> Some max_rounds | some -> some);
        chase_facts =
          (match b.Tgd_exec.Budget.chase_facts with None -> Some max_facts | some -> some);
      }
    in
    let gov = fresh_governor b in
    let stats = Tgd_chase.Chase.run ~gov p inst in
    Format.printf "chase: %s after %d round(s); +%d fact(s), %d null(s), %d trigger(s) fired@."
      (match stats.Tgd_chase.Chase.outcome with
      | Tgd_chase.Chase.Terminated -> "terminated"
      | Tgd_chase.Chase.Truncated d -> "TRUNCATED (" ^ Tgd_exec.Governor.diag_summary d ^ ")")
      stats.Tgd_chase.Chase.rounds stats.Tgd_chase.Chase.derived stats.Tgd_chase.Chase.nulls
      stats.Tgd_chase.Chase.triggers_fired;
    (match stats.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Truncated d -> pp_truncation d
    | Tgd_chase.Chase.Terminated -> ());
    record_and_emit stats_json "chase" gov;
    if print_facts then Format.printf "%a@." Tgd_db.Instance.pp inst
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let max_rounds = Arg.(value & opt int 1_000 & info [ "max-rounds" ]) in
  let max_facts = Arg.(value & opt int 1_000_000 & info [ "max-facts" ]) in
  let print_facts = Arg.(value & flag & info [ "facts" ] ~doc:"Print the chased instance.") in
  Cmd.v
    (Cmd.info "chase" ~doc:"Materialize the facts of the file under its TGDs.")
    Term.(
      const run $ path $ max_rounds $ max_facts $ print_facts $ data_arg $ budget_arg
      $ deadline_arg $ stats_json_arg)

(* ------------------------------------------------------------------ *)
(* check: consistency against negative constraints                     *)

let check_cmd =
  let run path =
    let p, doc = load_program path in
    match doc.Tgd_parser.Parser.constraints with
    | [] -> Format.printf "no negative constraints in %s (add: body -> falsum.)@." path
    | ncs ->
      let inst = instance_of_document doc in
      let constraints =
        List.map (fun (name, body) -> Tgd_obda.Constraints.make ~name body) ncs
      in
      let verdict = Tgd_obda.Constraints.check p constraints inst in
      if verdict.Tgd_obda.Constraints.consistent then
        Format.printf "consistent (%d constraint(s) checked%s)@." (List.length constraints)
          (if verdict.Tgd_obda.Constraints.complete then "" else "; rewriting budget hit")
      else begin
        Format.printf "INCONSISTENT:@.";
        List.iter
          (fun viol ->
            Format.printf "  constraint %s violated through %a@."
              viol.Tgd_obda.Constraints.constraint_.Tgd_obda.Constraints.name Cq.pp
              viol.Tgd_obda.Constraints.witness)
          verdict.Tgd_obda.Constraints.violations;
        exit 1
      end
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "check" ~doc:"Check the facts against the file's negative constraints (body -> falsum).")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* approx: Section-7 interval answers for intractable ontologies       *)

let approx_cmd =
  let run path =
    let p, doc = load_program path in
    if doc.Tgd_parser.Parser.queries = [] then begin
      Format.eprintf "no queries in %s@." path;
      exit 2
    end;
    let inst = instance_of_document doc in
    let subset, removed = Tgd_obda.Approximation.wr_subset p in
    Format.printf "WR subset: %d/%d rules kept" (Program.size subset) (Program.size p);
    if removed <> [] then
      Format.printf " (removed: %s)"
        (String.concat ", " (List.map (fun (r : Tgd.t) -> r.Tgd.name) removed));
    Format.printf "@.";
    List.iter
      (fun q ->
        let itv = Tgd_obda.Approximation.interval_answers p inst q in
        Format.printf "@.%s: %d certain (sound lower bound), %d possible (complete upper bound)%s@."
          q.Cq.name
          (List.length itv.Tgd_obda.Approximation.lower)
          (List.length itv.Tgd_obda.Approximation.upper)
          (if itv.Tgd_obda.Approximation.exact then " — exact" else "");
        List.iter (fun t -> Format.printf "  certain  %a@." Tgd_db.Tuple.pp t)
          itv.Tgd_obda.Approximation.lower;
        List.iter
          (fun t ->
            if not (List.exists (Tgd_db.Tuple.equal t) itv.Tgd_obda.Approximation.lower) then
              Format.printf "  possible %a@." Tgd_db.Tuple.pp t)
          itv.Tgd_obda.Approximation.upper)
      doc.Tgd_parser.Parser.queries
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "approx"
       ~doc:
         "Bracket certain answers for ontologies outside the tractable classes: a sound lower \
          bound via a WR subset and a complete upper bound via Datalog relaxation.")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* Worker domains all allocate on the request path (parse, rewrite-cache
   probe, evaluation, response serialization), and in OCaml 5 every minor
   collection is a stop-the-world barrier across domains — with the 256k-word
   default minor heap, a 4-worker server spends more time synchronizing GCs
   than serving (the BENCH_serve 4-domain collapse). Scale the minor heap
   with the worker count unless the operator pinned one via OCAMLRUNPARAM. *)
let tune_minor_heap ~workers =
  let pinned =
    match Sys.getenv_opt "OCAMLRUNPARAM" with
    | None -> false
    | Some s ->
      String.split_on_char ',' s
      |> List.exists (fun kv -> String.length kv >= 2 && kv.[0] = 's' && kv.[1] = '=')
  in
  if not pinned then
    Gc.set
      {
        (Gc.get ()) with
        Gc.minor_heap_size = min (16 * 1024 * 1024) (1024 * 1024 * max 1 workers);
      }

let parse_listen_addr spec =
  match String.index_opt spec ':' with
  | None -> (
    match int_of_string_opt spec with
    | Some port when port >= 0 -> Ok (Tgd_serve.Net.Tcp ("127.0.0.1", port))
    | Some _ | None ->
      Error (Printf.sprintf "bad --listen %S (expected unix:PATH, tcp:HOST:PORT, or PORT)" spec))
  | Some i -> (
    let scheme = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    match scheme with
    | "unix" -> Ok (Tgd_serve.Net.Unix_path rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "bad --listen %S (tcp needs HOST:PORT)" spec)
      | Some j -> (
        let host = String.sub rest 0 j in
        match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
        | Some port when port >= 0 -> Ok (Tgd_serve.Net.Tcp (host, port))
        | Some _ | None -> Error (Printf.sprintf "bad --listen %S (bad port)" spec)))
    | _ -> Error (Printf.sprintf "bad --listen %S (unknown scheme %S)" spec scheme))

let parse_quota spec =
  let num s =
    match float_of_string_opt s with
    | Some f when f > 0.0 -> Ok f
    | Some _ | None -> Error (Printf.sprintf "bad --quota %S (numbers must be positive)" spec)
  in
  match String.index_opt spec ':' with
  | None -> Result.map (fun rate -> (rate, None)) (num spec)
  | Some i -> (
    match num (String.sub spec 0 i) with
    | Error e -> Error e
    | Ok rate ->
      Result.map
        (fun burst -> (rate, Some burst))
        (num (String.sub spec (i + 1) (String.length spec - i - 1))))

let serve_cmd =
  let run workers queue_bound cache_capacity target eval_workers budget deadline listen max_clients
      max_inflight quota data_dir fsync checkpoint_every =
    let target = target_of_flag target in
    let base_budget =
      match (budget, deadline) with
      | None, None -> None (* keep the server's own default *)
      | _ -> Some (budget_of_flags budget deadline)
    in
    let listen_addrs =
      List.map
        (fun spec ->
          match parse_listen_addr spec with
          | Ok addr -> addr
          | Error msg ->
            Format.eprintf "obda serve: %s@." msg;
            exit 1)
        listen
    in
    let rate, burst =
      match quota with
      | None -> (None, None)
      | Some spec -> (
        match parse_quota spec with
        | Ok (rate, burst) -> (Some rate, burst)
        | Error msg ->
          Format.eprintf "obda serve: %s@." msg;
          exit 1)
    in
    let resolved_workers =
      match workers with
      | Some w -> w
      | None -> Tgd_exec.Pool.default_workers ()
    in
    tune_minor_heap ~workers:resolved_workers;
    let store =
      match data_dir with
      | None -> None
      | Some dir -> (
        match Tgd_store.Store.open_dir ~fsync dir with
        | Ok store -> Some store
        | Error msg ->
          Format.eprintf "obda serve: cannot open data dir: %s@." msg;
          exit 1)
    in
    let server =
      Tgd_serve.Server.create ~cache_capacity ?base_budget ~target ~eval_workers ?store
        ~checkpoint_every ()
    in
    (match store with
    | Some s ->
      Format.eprintf "obda serve: durable store at %s (fsync %s)@." (Tgd_store.Store.dir s)
        (if fsync then "on" else "off")
    | None -> ());
    Fun.protect ~finally:(fun () -> Tgd_serve.Server.shutdown server) @@ fun () ->
    let listeners = List.map Tgd_serve.Net.listen listen_addrs in
    List.iter
      (fun l ->
        Format.eprintf "obda serve: listening on %s@."
          (Tgd_serve.Net.addr_to_string (Tgd_serve.Net.listener_addr l)))
      listeners;
    (* Without --listen, stdin/stdout is the one connection. *)
    let adopt = if listeners = [] then Some (Unix.stdin, Unix.stdout) else None in
    Tgd_serve.Net.serve ?workers ~queue_bound ~max_clients ?max_inflight ?rate ?burst ?adopt server
      ~listeners
  in
  let workers =
    Arg.(
      value & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing prepare/execute requests (default: one per core).")
  in
  let queue_bound =
    Arg.(
      value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admission bound on queued requests; beyond it, requests are shed with a typed \
             $(b,overloaded) response instead of queueing without limit.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 1024
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Prepared-query LRU cache capacity (canonical CQ + ontology epoch entries).")
  in
  let eval_workers =
    Arg.(
      value & opt int 1
      & info [ "eval-workers" ] ~docv:"N"
          ~doc:
            "Domains for morsel-parallel evaluation of each executed query (a dedicated pool, \
             distinct from $(b,--workers)' request pool). Default 1: parallelize many light \
             queries via $(b,--workers); raise this instead when single heavy queries dominate.")
  in
  let listen =
    Arg.(
      value & opt_all string []
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve many clients concurrently on ADDR — $(b,unix:PATH), $(b,tcp:HOST:PORT), or a \
             bare PORT (binds 127.0.0.1; port 0 picks one). Repeatable; all listeners share one \
             server. A single event loop multiplexes connections while requests interleave \
             through the worker pool; per-connection response order is preserved. Default: \
             JSONL over stdin/stdout, served by the same loop as one connection.")
  in
  let max_clients =
    Arg.(
      value & opt int 1024
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "With $(b,--listen): maximum concurrent connections. A client accepted beyond the \
             limit receives one $(b,overloaded) response line and is closed.")
  in
  let max_inflight =
    Arg.(
      value & opt (some int) None
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Server-wide cap on admitted-but-unanswered requests; beyond it requests are shed \
             with $(b,overloaded). Default: $(b,--workers) + $(b,--queue-bound).")
  in
  let quota =
    Arg.(
      value & opt (some string) None
      & info [ "quota" ] ~docv:"RATE[:BURST]"
          ~doc:
            "Per-tenant token-bucket quota — RATE requests/second refill, \
             BURST bucket size (default: RATE, min 1). A request whose tenant's bucket is empty \
             is shed with a typed $(b,quota_exceeded) response naming the retry delay. Tenants \
             are the envelope's $(b,tenant) field (default tenant otherwise). Default: no \
             quota.")
  in
  let data_dir =
    Arg.(
      value & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durable store directory (created if missing). On startup the registry is recovered \
             from the latest snapshots plus WAL replay; afterwards every acknowledged mutation \
             is write-ahead logged, and the $(b,snapshot) op checkpoints. Default: in-memory \
             only.")
  in
  let fsync =
    Arg.(
      value & opt bool true
      & info [ "fsync" ] ~docv:"BOOL"
          ~doc:
            "Fsync each WAL append (and snapshot) before acknowledging the operation. Disable \
             only when losing the last few acked mutations on power failure is acceptable; \
             crash-consistency (torn-tail truncation) holds either way.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a fresh snapshot generation (and trim the WAL) whenever an entry's log \
             reaches N records. Default 0: checkpoint only on explicit $(b,snapshot) requests.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent query server: register ontologies and data, then prepare/execute \
          conjunctive queries over a prepared-rewriting cache, speaking a JSONL protocol \
          (register-ontology, load-csv, prepare, execute, snapshot, stats, ping, shutdown). \
          With $(b,--data-dir) the registry is durable: write-ahead logged, snapshotted, and \
          recovered on restart.")
    Term.(
      const run $ workers $ queue_bound $ cache_capacity $ target_arg $ eval_workers $ budget_arg
      $ deadline_arg $ listen $ max_clients
      $ max_inflight $ quota $ data_dir $ fsync $ checkpoint_every)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let run seed cases corpus replay_dir invariant no_shrink stop_after json trace dump_dir =
    let invariants =
      match invariant with
      | None -> Tgd_conformance.Invariant.all
      | Some name -> (
        match Tgd_conformance.Invariant.find name with
        | Some inv -> [ inv ]
        | None ->
          Format.eprintf "unknown invariant %S; known: %s@." name
            (String.concat ", "
               (List.map
                  (fun (i : Tgd_conformance.Invariant.t) -> i.Tgd_conformance.Invariant.name)
                  Tgd_conformance.Invariant.all));
          exit 2)
    in
    let summary =
      match replay_dir with
      | Some dir -> Tgd_conformance.Harness.replay ~invariants ~dir ()
      | None ->
        let on_case =
          if trace || dump_dir <> None then
            Some
              (fun index (c : Tgd_conformance.Case.t) ->
                if trace then
                  Format.eprintf "case %d (%s, seed %d)@." index c.Tgd_conformance.Case.label
                    c.Tgd_conformance.Case.seed;
                match dump_dir with
                | None -> ()
                | Some dir ->
                  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                  Tgd_conformance.Case.save
                    ~path:
                      (Filename.concat dir
                         (Printf.sprintf "case-%06d-seed%d.case" index
                            c.Tgd_conformance.Case.seed))
                    c)
          else None
        in
        Tgd_conformance.Harness.run ~invariants ?corpus_dir:corpus ~shrink:(not no_shrink)
          ?stop_after ?on_case ~seed ~cases ()
    in
    if json then begin
      let open Tgd_serve.Json in
      let obj =
        Obj
          [
            ("seed", Int summary.Tgd_conformance.Harness.seed);
            ("cases", Int summary.Tgd_conformance.Harness.cases);
            ("checks", Int summary.Tgd_conformance.Harness.checks);
            ("passed", Int summary.Tgd_conformance.Harness.passed);
            ("skipped", Int summary.Tgd_conformance.Harness.skipped);
            ("failed", Int summary.Tgd_conformance.Harness.failed);
            ( "per_invariant",
              Obj
                (List.map
                   (fun (name, (p, s, f)) ->
                     (name, Obj [ ("pass", Int p); ("skip", Int s); ("fail", Int f) ]))
                   summary.Tgd_conformance.Harness.per_invariant) );
            ( "failures",
              List
                (List.map
                   (fun (f : Tgd_conformance.Harness.failure) ->
                     Obj
                       ([
                          ("invariant", String f.Tgd_conformance.Harness.invariant);
                          ("label", String f.original.Tgd_conformance.Case.label);
                          ("seed", Int f.original.Tgd_conformance.Case.seed);
                          ("message", String f.message);
                        ]
                       @
                       match f.Tgd_conformance.Harness.corpus_file with
                       | None -> []
                       | Some p -> [ ("corpus_file", String p) ]))
                   summary.Tgd_conformance.Harness.failures) );
          ]
      in
      print_endline (Tgd_serve.Json.to_string obj)
    end
    else print_string (Tgd_conformance.Harness.summary_to_string summary);
    if summary.Tgd_conformance.Harness.failed > 0 then exit 1
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Base seed of the deterministic case stream.")
  in
  let cases =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"K" ~doc:"Number of generated cases to sweep.")
  in
  let corpus =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Persist shrunk failing cases as $(b,DIR/<invariant>-seed<N>.case).")
  in
  let replay_dir =
    Arg.(
      value & opt (some dir) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:"Instead of generating, replay every *.case file in DIR through the registry.")
  in
  let invariant =
    Arg.(
      value & opt (some string) None
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            "Check a single invariant (subsumption, differential, metamorphic, serve, \
             eval-parallel, truncation, update-sequence) instead of the full registry.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures as generated, without greedy shrinking.")
  in
  let stop_after =
    Arg.(
      value & opt (some int) None
      & info [ "stop-after" ] ~docv:"N" ~doc:"Stop the sweep after N failures.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as a single JSON object.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Print each case's index, family and seed to stderr before checking it.")
  in
  let dump_dir =
    Arg.(
      value & opt (some string) None
      & info [ "dump-cases" ] ~docv:"DIR"
          ~doc:
            "Write every generated case to DIR before checking it (useful for inspecting a \
             case that hangs an invariant, with any other $(b,obda) subcommand).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Metamorphic conformance fuzzing: sweep a seeded stream of class-biased (ontology, \
          instance, query) cases through the cross-layer invariant registry (classifier \
          subsumption, rewrite/chase differential, metamorphic transforms, serve-path \
          equivalence, eval-parallelism, truncation soundness, incremental update \
          sequences), shrinking and persisting any failure. Exits 1 if any invariant \
          fails.")
    Term.(
      const run $ seed $ cases $ corpus $ replay_dir $ invariant $ no_shrink $ stop_after $ json
      $ trace $ dump_dir)

(* ------------------------------------------------------------------ *)
(* examples                                                            *)

let examples_cmd =
  let run () =
    let show p =
      Format.printf "%% %s@.%s@." p.Program.name (Tgd_parser.Printer.program_to_string p)
    in
    show Tgd_core.Paper_examples.example1;
    show Tgd_core.Paper_examples.example2;
    show Tgd_core.Paper_examples.example3;
    show Tgd_gen.University.ontology
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"Print the paper's examples and the university ontology.")
    Term.(const run $ const ())

let main =
  let info =
    Cmd.info "obda" ~version:"1.0.0"
      ~doc:"Query answering over ontologies specified via database dependencies (SIGMOD'14 reproduction)."
  in
  Cmd.group info
    [
      classify_cmd; graph_cmd; rewrite_cmd; answer_cmd; chase_cmd; check_cmd; approx_cmd;
      patterns_cmd; examples_cmd; serve_cmd; fuzz_cmd;
    ]

let () = exit (Cmd.eval main)
