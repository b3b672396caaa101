(* compare: judge a change's benchmark runs against its parent's.

   Usage: compare.exe [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Each directory holds obdabench result files (traced and smoke results
   are skipped). For every workload and every end-to-end metric of
   BENCHMARK.json it prints both sides' medians and quartiles, the change
   in the median, and a verdict against the metric's bound:

   - REGRESSED: the change's median is worse by more than the bound;
   - UNRESOLVED: a side's run-to-run spread (quartile distance over the
     median) is wider than the bound, so "unchanged" cannot be told from
     noise — unless every change run beats every parent run (improved);
   - improved: the median is better by more than the parent's spread and
     the change wins at least nine tenths of the run pairs (paired by seed
     when both sides ran the same seeds), ties counting for neither;
   - unchanged: otherwise.

   Exits 1 when anything REGRESSED. *)

module Json = Tgd_serve.Json

type bound = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float;
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let parse_file path =
  match open_in_bin path with
  | exception Sys_error e -> die "%s" e
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e)

let number = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

let bounds path =
  match Json.member "end_to_end" (parse_file path) with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match
          ( Json.string_field "name" m,
            Json.string_field "unit" m,
            Json.string_field "better" m,
            Option.bind (Json.member "bound" m) number )
        with
        | Some name, Some unit_, Some better, Some bound ->
          { name; unit_; lower_is_better = better = "lower"; bound }
        | _ -> die "%s: malformed end_to_end entry" path)
      ms
  | _ -> die "%s: no end_to_end list" path

(* (workload, seed, metric values) of every untraced full run in [dir]. *)
let runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let j = parse_file (Filename.concat dir f) in
         let flag k = Json.member k j = Some (Json.Bool true) in
         match Json.string_field "workload" j, Json.int_field "seed" j, Json.member "metrics" j with
         | Some w, Some seed, Some (Json.Obj ms) when not (flag "trace" || flag "smoke") ->
           Some (w, seed, List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) number)) ms)
         | _ -> None)

let values runs ~workload ~metric =
  List.filter_map
    (fun (w, seed, ms) -> if w = workload then Option.map (fun v -> (seed, v)) (List.assoc_opt metric ms) else None)
    runs

let spread vs =
  let q1, q2, q3 = Stats.quartiles vs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

let verdict b parent change =
  let pv = List.map snd parent and cv = List.map snd change in
  let pm = Stats.median pv and cm = Stats.median cv in
  let better x y = if b.lower_is_better then x < y else x > y in
  (* > 0 when the change is worse, as a share of the parent's median *)
  let worse = (if b.lower_is_better then cm -. pm else pm -. cm) /. Float.abs (if pm = 0.0 then 1.0 else pm) in
  let pairs =
    let seeds = List.sort compare (List.map fst parent) in
    if seeds = List.sort compare (List.map fst change) then
      List.map (fun (s, p) -> (List.assoc s change, p)) parent
    else List.concat_map (fun c -> List.map (fun p -> (c, p)) pv) cv
  in
  let wins = List.length (List.filter (fun (c, p) -> better c p) pairs) in
  let every_better = List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv in
  let every_worse = List.for_all (fun c -> List.for_all (fun p -> better p c) pv) cv in
  let verdict =
    if Float.max (spread pv) (spread cv) > b.bound then
      if every_better then "improved" else if every_worse && worse > b.bound then "REGRESSED" else "UNRESOLVED"
    else if worse > b.bound then "REGRESSED"
    else if -.worse > spread pv && float_of_int wins >= 0.9 *. float_of_int (List.length pairs) then "improved"
    else "unchanged"
  in
  (verdict, -.worse)

let () =
  let benchmark = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string benchmark, "FILE  bounds file (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare [--benchmark FILE] PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir = match !dirs with [ p; c ] -> (p, c) | _ -> die "need PARENT_DIR and CHANGE_DIR" in
  let bounds = bounds !benchmark in
  let parent = runs parent_dir and change = runs change_dir in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _) -> w) parent @ List.map (fun (w, _, _) -> w) change)
  in
  if workloads = [] then die "no result files in %s or %s" parent_dir change_dir;
  let show vs =
    let q1, _, q3 = Stats.quartiles vs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median vs) q1 q3
  in
  Printf.printf "%-12s %-22s %-8s %-30s %-30s %8s  %s\n" "workload" "metric" "bound" "parent median [q1, q3]"
    "change median [q1, q3]" "gain" "verdict";
  let regressed = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun b ->
          let p = values parent ~workload ~metric:b.name and c = values change ~workload ~metric:b.name in
          match p, c with
          | [], _ | _, [] ->
            Printf.printf "%-12s %-22s %-8s %-30s %-30s %8s  UNRESOLVED (missing runs)\n" workload b.name
              (Printf.sprintf "%g%%" (b.bound *. 100.0))
              (Printf.sprintf "n=%d" (List.length p)) (Printf.sprintf "n=%d" (List.length c)) ""
          | _ ->
            let v, gain = verdict b p c in
            if v = "REGRESSED" then regressed := true;
            Printf.printf "%-12s %-22s %-8s %-30s %-30s %+7.1f%%  %s\n" workload
              (b.name ^ " " ^ b.unit_)
              (Printf.sprintf "%g%%" (b.bound *. 100.0))
              (show (List.map snd p)) (show (List.map snd c)) (gain *. 100.0) v)
        bounds)
    workloads;
  exit (if !regressed then 1 else 0)
