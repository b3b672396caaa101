(* obdabench: the repository benchmark.

   One workload per run (or all five): build the workload's state on a
   real [obda serve --workers 1] child over its Unix socket, drive it
   closed-loop with at most two connections, check every reply, and print
   the end-to-end metrics. [--trace 1] instead splits the window between a
   served pass and an in-process replay of the same seeded request list,
   and prints the per-layer metrics. The last line of stdout is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.

   Usage (from the repository root):
     bash benchmark/run.sh --workload uni-read --seed 20140614 --seconds 18 --trace 0
     bash benchmark/run.sh --smoke
   See benchmark/README.md. *)

module Json = Tgd_serve.Json
module W = Workload

let schema = "obdabench/v1"

type metric = {
  name : string;
  unit_ : string;
  value : float;
  detail : (string * Json.t) list;  (** sample counts behind a percentile *)
}

let metric ?(detail = []) name unit_ value = { name; unit_; value; detail }

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)

(* Reads to end of file without asking for its length, which /proc files
   do not report. *)
let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let b = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let n = input ic chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes b chunk 0 n;
        go ()
      end
    in
    go ();
    close_in ic;
    Some (Buffer.contents b)

(* The checked-out commit, read from .git without running git; "unknown"
   outside a git work tree. *)
let git_rev () =
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" ref_) with
    | Some rev -> String.trim rev
    | None -> (
      match read_file ".git/packed-refs" with
      | None -> "unknown"
      | Some packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ rev; r ] when r = ref_ -> Some rev
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | Some rev -> rev

(* CPUs this process may run on, as nproc counts them. *)
let nproc () =
  let count_cpus list =
    String.split_on_char ',' (String.trim list)
    |> List.fold_left
         (fun n range ->
           match String.split_on_char '-' range with
           | [ a; b ] -> n + int_of_string b - int_of_string a + 1
           | [ _ ] -> n + 1
           | _ -> n)
         0
  in
  match read_file "/proc/self/status" with
  | None -> Domain.recommended_domain_count ()
  | Some status -> (
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = "Cpus_allowed_list" ->
             Some (count_cpus (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
    |> function
    | Some n when n > 0 -> n
    | _ -> Domain.recommended_domain_count ())

(* The host's (steal, total) CPU ticks from /proc/stat. Steal is time a
   VM's vCPUs were runnable while the host ran something else: a run with
   a large share of it measured a busy host, not the program. *)
let cpu_ticks () =
  match Option.map (String.split_on_char '\n') (read_file "/proc/stat") with
  | Some (line :: _) -> (
    match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      Some (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> None)
  | Some [] | None -> None

let steal_share t0 t1 =
  match t0, t1 with
  | Some (s0, n0), Some (s1, n1) when n1 > n0 -> Json.Float (float_of_int (s1 - s0) /. float_of_int (n1 - n0))
  | _ -> Json.Null

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let ms x = x *. 1000.0
let us x = x *. 1e6
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let percentile_metric name (w : W.t) lat p =
  let a = Stats.sorted lat in
  metric name "ms"
    (ms (Stats.percentile a p))
    ~detail:
      [
        ("percentile", Json.Float p);
        ("n", Json.Int (Array.length a));
        ("beyond", Json.Int (Stats.beyond a p));
        ("op", Json.String (match w.W.shape with W.Read_mix -> "execute" | W.Write_mix -> "add-facts" | W.Restarts -> "restart"));
      ]

let end_to_end_metrics (w : W.t) (s : Served.result) =
  [
    metric "setup_s" "s" (Stats.median s.Served.setup_s)
      ~detail:[ ("setups", Json.Int (List.length s.Served.setup_s)) ];
    percentile_metric "op_p50_ms" w s.Served.lat 50.0;
    percentile_metric "op_tail_ms" w s.Served.lat w.W.tail_pct;
    metric "ops_per_s" "1/s"
      (float_of_int (List.length s.Served.lat) /. s.Served.window_s)
      ~detail:[ ("window_s", Json.Float s.Served.window_s) ];
    metric "server_peak_rss_mb" "MB" s.Served.rss_mb ~detail:[ ("after_ops", Json.Int w.W.rss_after) ];
    metric "store_bytes_per_fact" "B" (ratio s.Served.store_bytes s.Served.facts)
      ~detail:[ ("bytes", Json.Int s.Served.store_bytes); ("facts", Json.Int s.Served.facts) ];
  ]

let layer_metrics (s : Served.result) (o : Trace.outcome) =
  let t = o.Trace.trace in
  let mean = Trace.mean_s t in
  let served_p50 = Stats.percentile (Stats.sorted s.Served.lat) 50.0 in
  let handle_p50 = Stats.percentile (Stats.sorted t.Trace.op_times) 50.0 in
  [
    metric "protocol.parse_us" "us" (us (mean "protocol.parse"));
    metric "parser.query_us" "us" (us (mean "parser.query"));
    metric "canon.key_us" "us" (us (mean "canon.key"));
    metric "prepared.lookup_us" "us" (us (mean "prepared.lookup"));
    metric "prepared.hit_ratio" "ratio" (ratio s.Served.hits (s.Served.hits + s.Served.misses));
    metric "prepared.evictions" "count" (float_of_int s.Served.evictions);
    metric "rewrite.prepare_ms" "ms" (ms (mean "rewrite.prepare"));
    metric "rewrite.cqs_per_miss" "count" (ratio t.Trace.generated t.Trace.ucq_misses);
    metric "rewrite.kept_ratio" "ratio" (ratio t.Trace.kept t.Trace.generated);
    metric "containment.hom_ratio" "ratio" (ratio t.Trace.homs t.Trace.checks);
    metric "eval.answers_ms" "ms" (ms (mean "eval.answers"));
    metric "eval.steps_per_answer" "count" (ratio t.Trace.eval_steps t.Trace.ucq_answers);
    metric "datalog.rules_per_query" "count" (ratio t.Trace.datalog_rules t.Trace.datalog_misses);
    metric "json.encode_us" "us" (us (mean "json.encode"));
    metric "json.bytes_per_response" "B" (ratio t.Trace.reply_bytes t.Trace.replies);
    metric "net.overhead_ms" "ms" (ms (served_p50 -. handle_p50));
    metric "handle.ms" "ms" (ms handle_p50) ~detail:[ ("n", Json.Int (List.length t.Trace.op_times)) ];
    metric "trace.coverage" "ratio" (Stats.median t.Trace.op_spans /. handle_p50);
    metric "gc.minor_words_per_request" "words" (t.Trace.minor_words /. float_of_int (max 1 t.Trace.replies));
    metric "gc.major_collections" "count" (float_of_int t.Trace.major_collections);
    metric "client.cpu_ms_per_request" "ms" (ms (s.Served.client_cpu_s /. float_of_int (max 1 s.Served.requests)));
    metric "registry.load_ms" "ms" (ms (mean "registry.load"));
    metric "delta.triggers_per_fact" "count" (ratio o.Trace.delta_triggers o.Trace.delta_facts);
    metric "delta.derived_per_fact" "count" (ratio o.Trace.delta_derived o.Trace.delta_facts);
    metric "store.log_ms" "ms" (ms (mean "store.log"));
    metric "wal.bytes_per_fact" "B" (ratio t.Trace.wal_bytes t.Trace.facts_logged);
    metric "store.checkpoint_ms" "ms" (ms (mean "store.checkpoint"));
    metric "store.checkpoints" "count" (float_of_int t.Trace.checkpoints);
    metric "store.recover_ms" "ms" (ms (mean "store.recover"));
    metric "recovery.replay_ms" "ms" (ms (mean "recovery.replay"));
    metric "recovery.replayed_records" "count" (ratio t.Trace.replayed t.Trace.restarts);
    metric "snapshot.bytes_per_fact" "B" (ratio o.Trace.snapshot_bytes o.Trace.stored_facts);
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type options = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  out : string;
}

let describe (m : metric) =
  let extra =
    List.filter_map
      (fun (k, v) ->
        match v with
        | Json.Int i -> Some (Printf.sprintf "%s=%d" k i)
        | Json.Float f -> Some (Printf.sprintf "%s=%g" k f)
        | Json.String s -> Some (Printf.sprintf "%s=%s" k s)
        | _ -> None)
      m.detail
  in
  Printf.printf "  %-28s %14.6g %-6s %s\n" m.name m.value m.unit_
    (if extra = [] then "" else "(" ^ String.concat ", " extra ^ ")")

let result_json ~opts (w : W.t) ~tally ~steal metrics =
  let num v = Json.Float v in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String w.W.name);
      ("seed", Json.Int opts.seed);
      ("seconds", num opts.seconds);
      ("trace", Json.Bool opts.trace);
      ("smoke", Json.Bool opts.smoke);
      ( "provenance",
        Json.Obj
          [
            ("git_rev", Json.String (git_rev ()));
            ("nproc", Json.Int (nproc ()));
            ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml_version", Json.String Sys.ocaml_version);
            ("host_steal_share", steal);
            ( "server",
              Json.Obj
                [
                  ("command", Json.String "obda serve --listen unix:PATH");
                  ("workers", Json.Int 1);
                  ("fsync", Json.Bool true);
                  ("checkpoint_every", Json.Int w.W.checkpoint_every);
                  ("connections", Json.Int (match w.W.shape with W.Restarts -> 1 | _ -> 2));
                ] );
          ] );
      ("correct", Json.Bool (tally.Check.failed = 0));
      ("attempted", Json.Int tally.Check.attempted);
      ("failed", Json.Int tally.Check.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj ([ ("value", num m.value); ("unit", Json.String m.unit_) ] @ m.detail)))
             metrics) );
    ]

(* The summary line, last on stdout: exactly correct / attempted / failed / metrics. *)
let summary_json ~tally metrics =
  Json.Obj
    [
      ("correct", Json.Bool (tally.Check.failed = 0));
      ("attempted", Json.Int (max 1 tally.Check.attempted));
      ("failed", Json.Int tally.Check.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             metrics) );
    ]

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let write_result ~opts w ~tally ~steal metrics =
  mkdir_p opts.out;
  let file =
    Filename.concat opts.out
      (Printf.sprintf "%s-s%d%s.json" w.W.name opts.seed (if opts.trace then "-trace" else ""))
  in
  let oc = open_out file in
  output_string oc (Json.to_string (result_json ~opts w ~tally ~steal metrics));
  output_char oc '\n';
  close_out oc

let run_workload (cfg : Served.config) ~opts name =
  let w = W.make name ~seed:opts.seed ~smoke:opts.smoke in
  (* Every run starts from empty data directories. *)
  let cfg = { cfg with Served.work = Filename.concat cfg.Served.work (name ^ if opts.trace then "-trace" else "") } in
  Unix.mkdir cfg.Served.work 0o755;
  let tally = Check.tally () in
  let ticks0 = cpu_ticks () in
  Printf.printf "%s: seed %d, %gs%s%s\n%!" name opts.seed opts.seconds
    (if opts.trace then ", traced" else "")
    (if opts.smoke then ", smoke" else "");
  let metrics =
    try
      let oracle = Oracle.create w in
      let metrics =
        if not opts.trace then
          end_to_end_metrics w
            (Served.run cfg w ~oracle ~tally ~seconds:opts.seconds
               ~warm_s:(if opts.smoke then 0.0 else 2.0)
               ~setups:(if opts.smoke then 1 else 7)
               ~setup_budget:(if opts.smoke then 0.0 else 1.5))
        else begin
          (* Per-layer metrics have no bounds to hold: no rehearsal, one set-up. *)
          let served =
            Served.run cfg w ~oracle ~tally ~seconds:(opts.seconds /. 2.0) ~warm_s:0.0 ~setups:1
              ~setup_budget:0.0
          in
          let o = Trace.run w ~oracle ~work:cfg.Served.work ~seconds:(opts.seconds /. 2.0) in
          tally.Check.attempted <- tally.Check.attempted + o.Trace.trace.Trace.ops;
          List.iter (Check.fail tally ~workload:name Check.Mismatched) o.Trace.mismatches;
          let metrics = layer_metrics served o in
          let coverage = (List.find (fun m -> m.name = "trace.coverage") metrics).value in
          (* A timing ratio: gated on full-size runs, not on the smoke. *)
          if (not opts.smoke) && (coverage < 0.9 || coverage > 1.1) then
            Check.fail tally ~workload:name Check.Mismatched
              (Printf.sprintf "trace.coverage %.3f outside [0.9, 1.1]" coverage);
          metrics
        end
      in
      Oracle.shutdown oracle;
      metrics
    with
    | Served.Broken msg | Failure msg ->
      Served.kill_all ();
      Check.fail tally ~workload:name Check.Lost msg;
      []
  in
  Served.rm_rf cfg.Served.work;
  List.iter describe metrics;
  if metrics <> [] then write_result ~opts w ~tally ~steal:(steal_share ticks0 (cpu_ticks ())) metrics;
  print_endline (Json.to_string (summary_json ~tally metrics));
  tally.Check.failed = 0 && metrics <> []

let () =
  let workload = ref "" and seed = ref 20140614 and seconds = ref nan and trace = ref 0 in
  let smoke = ref false and obda = ref "_build/default/bin/obda.exe" and work = ref ".obdabench" in
  let out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " W.names ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 20140614)");
      ("--seconds", Arg.Set_float seconds, "S  timed window per run (default 18; smoke 0.25)");
      ("--trace", Arg.Set_int trace, "0|1  1: per-layer metrics from a traced run");
      ("--smoke", Arg.Set smoke, " tiny inputs, every check, traced and untraced");
      ("--obda", Arg.Set_string obda, "PATH  the obda executable (default _build/default/bin/obda.exe)");
      ("--work", Arg.Set_string work, "DIR  scratch and results directory (default .obdabench)");
      ("--out", Arg.Set_string out, "DIR  result files (default WORK/results)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "obdabench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  if not (Sys.file_exists !obda) then begin
    prerr_endline ("obdabench: no obda executable at " ^ !obda ^ " (run: dune build bin/obda.exe)");
    exit 2
  end;
  if !workload <> "" && not (List.mem !workload W.names) then begin
    prerr_endline ("obdabench: unknown workload " ^ !workload);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let run_dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  mkdir_p run_dir;
  (* at_exit runs last-registered first: children die before their
     directory is removed. *)
  at_exit (fun () -> Served.rm_rf run_dir);
  at_exit Served.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let cfg = { Served.obda = !obda; work = run_dir } in
  let seconds = if Float.is_nan !seconds then if !smoke then 0.25 else 18.0 else !seconds in
  let out = if !out = "" then Filename.concat !work "results" else !out in
  let names = if !workload = "" then W.names else [ !workload ] in
  let traces = if !smoke then [ false; true ] else [ !trace = 1 ] in
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun name ->
           List.map
             (fun trace -> run_workload cfg ~opts:{ seed = !seed; seconds; trace; smoke = !smoke; out } name)
             traces)
         names)
  in
  exit (if ok then 0 else 1)
