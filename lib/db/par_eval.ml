(* Morsel-driven parallel UCQ evaluation: scan morsels into lane-private
   flat buckets, then sort, dedup and decode one first-column code range
   per job (see the interface). No mutex is taken anywhere on the answer
   path. *)

let default_min_tuples = 512

(* The index of [stride] in [strides]. *)
let group strides stride =
  let rec find g = if strides.(g) = stride then g else find (g + 1) in
  find 0

(* The sort, dedup and decode after the scan, timed as the
   [eval.par.merge] phase when governed. *)
let merge_phase gov f =
  match gov with
  | None -> f ()
  | Some g ->
    let t0 = Unix.gettimeofday () in
    let result = f () in
    Tgd_exec.Telemetry.add_span (Tgd_exec.Governor.telemetry g) "eval.par.merge"
      (Unix.gettimeofday () -. t0);
    result

(* Morsels: contiguous row ranges of each disjunct's leading scan. A
   disjunct is split only when several workers share it and its scan
   reaches [min_tuples] rows. *)
let morsels ~workers ~min_tuples compiled =
  List.concat_map
    (fun plan ->
      let n0 = Col_eval.lead_len plan in
      if workers <= 1 || n0 = 0 || n0 < min_tuples then [ (plan, 0, n0) ]
      else begin
        let target = workers * 4 in
        let chunk = max 1024 ((n0 + target - 1) / target) in
        let rec ranges lo acc =
          if lo >= n0 then List.rev acc
          else ranges (lo + chunk) ((plan, lo, min n0 (lo + chunk)) :: acc)
        in
        ranges 0 []
      end)
    compiled
  |> Array.of_list

let columnar_ucq ?gov ~run_batch ~workers ~min_tuples ~partitions inst disjuncts =
  (* One [eval.steps] charge per disjunct mirrors [Col_eval.iter]'s
     join-search root charge, so a 1-step budget trips either entry. *)
  (match gov with
  | Some g when disjuncts <> [] ->
    Tgd_exec.Governor.charge ~n:(List.length disjuncts) g Tgd_exec.Budget.key_eval_steps
  | Some _ | None -> ());
  let compiled =
    List.filter Col_eval.can_match (List.map (Col_eval.compile inst) disjuncts)
  in
  (* Answer arities present, ascending — [Tuple.compare]'s leading key,
     so answers grouped by arity in this order are globally sorted.
     (Disjuncts of one union normally share an arity; nothing here
     assumes it.) *)
  let strides =
    List.sort_uniq Int.compare (List.map Col_eval.out_arity compiled) |> Array.of_list
  in
  (* Phase 1: scan. Every task pushes its coded answers, duplicates
     included, onto its lane's flat bucket for their arity: a stride-sized
     blit, with no allocation and no dedup probe (the sort makes every
     duplicate adjacent). A lane is a task when several workers run, so
     no bucket is shared; with one worker it is the calling domain, whose
     disjuncts of one arity fill one bucket. *)
  let tasks = morsels ~workers ~min_tuples compiled in
  let ntasks = Array.length tasks in
  let lanes =
    Array.init
      (if workers <= 1 then 1 else ntasks)
      (fun _ -> Array.map (fun _ -> Col_eval.bucket_create ()) strides)
  in
  let scan_task ti =
    let plan, lo, hi = tasks.(ti) in
    let stride = Col_eval.out_arity plan in
    let b = lanes.(if workers <= 1 then 0 else ti).(group strides stride) in
    Col_eval.run ?gov plan ~lo ~hi ~emit:(fun a -> Col_eval.bucket_push b ~stride a 0)
  in
  (match gov with
  | Some g when ntasks > 0 -> Tgd_exec.Governor.charge ~n:ntasks g "eval.morsels"
  | Some _ | None -> ());
  run_batch ntasks scan_task;
  merge_phase gov @@ fun () ->
  (* Phase 2: merge. Per arity, the first answer column's codes [lo .. hi]
     split into at most [partitions] ordered, disjoint ranges of equal
     width; a range is one job, which gathers its rows from every lane,
     sorts, compacts and decodes them. As code order is [Tuple.compare]'s,
     the jobs' lists, in arity then range order, concatenate into the
     sorted answer set. A group with one range takes every row, so no
     code is read. *)
  let ranges g stride =
    let lo = ref max_int and hi = ref min_int in
    if stride > 0 && partitions > 1 then
      Array.iter
        (fun lane ->
          let b : Col_eval.bucket = lane.(g) in
          for r = 0 to b.rows - 1 do
            let c = b.data.(r * stride) in
            if c < !lo then lo := c;
            if c > !hi then hi := c
          done)
        lanes;
    if !lo >= !hi then [ (g, min_int, max_int) ]
    else
      let parts = min partitions (!hi - !lo + 1) in
      let width = ((!hi - !lo) / parts) + 1 in
      List.init parts (fun p -> (g, !lo + (p * width), !lo + ((p + 1) * width) - 1))
  in
  let jobs = Array.of_list (List.concat (List.mapi ranges (Array.to_list strides))) in
  let lists = Array.make (Array.length jobs) [] in
  let merge_job j =
    let g, lo, hi = jobs.(j) in
    let stride = strides.(g) in
    let b =
      (* One lane and one range: the bucket is the range, and no other
         job reads it, so it is sorted in place. *)
      if Array.length lanes = 1 && lo = min_int then lanes.(0).(g)
      else begin
        (* The range's rows, counted first so that the gather allocates
           one array of the range's size. *)
        let each f =
          Array.iter
            (fun lane ->
              let b : Col_eval.bucket = lane.(g) in
              for r = 0 to b.rows - 1 do
                let o = r * stride in
                if lo = min_int || (b.data.(o) >= lo && b.data.(o) <= hi) then f b.data o
              done)
            lanes
        in
        let n = ref 0 in
        each (fun _ _ -> incr n);
        let out = { Col_eval.data = Array.make (!n * stride) 0; rows = 0 } in
        each (Col_eval.bucket_push out ~stride);
        out
      end
    in
    Col_eval.sort_rows b.data ~stride ~rows:b.rows;
    let rows = Col_eval.uniq_rows b.data ~stride ~rows:b.rows in
    lists.(j) <- Col_eval.decode_rows b.data ~stride ~rows []
  in
  run_batch (Array.length jobs) merge_job;
  (* Tail: append the jobs' lists in order. The last one is not copied:
     with one range it is the whole answer set. *)
  Array.fold_right (fun l acc -> match acc with [] -> l | _ -> l @ acc) lists []

let ucq ?gov ?pool ?workers ?(min_tuples = default_min_tuples) ?partitions inst disjuncts =
  let workers =
    match (workers, pool) with
    | Some w, _ -> max 1 w
    | None, Some p -> Tgd_exec.Pool.size p
    | None, None -> Tgd_exec.Pool.default_workers ()
  in
  (match gov with
  | Some g when workers > 1 -> Tgd_exec.Governor.gauge g "eval.par.workers" workers
  | Some _ | None -> ());
  let partitions =
    match partitions with
    | Some p when p >= 1 -> p
    | Some p -> invalid_arg (Printf.sprintf "Par_eval.ucq: partitions must be >= 1, got %d" p)
    | None -> workers
  in
  (* A no-op read on an instance already sealed (every registry instance),
     so concurrent evaluations of a shared instance never write. *)
  Instance.seal inst;
  (* A batch of one item, or any batch of a one-worker call, runs on the
     calling domain. Others go to the caller's pool, or to a transient one
     of [workers - 1] helpers (the caller is the last worker) spawned by
     the first batch that needs it and joined before returning. *)
  let transient = ref None in
  let run_batch n f =
    if workers <= 1 || n <= 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let p =
        match pool, !transient with
        | Some p, _ | None, Some p -> p
        | None, None ->
          let p = Tgd_exec.Pool.create ~workers:(workers - 1) () in
          transient := Some p;
          p
      in
      Tgd_exec.Pool.run_morsels p ~n f
    end
  in
  Fun.protect ~finally:(fun () -> Option.iter Tgd_exec.Pool.shutdown !transient) (fun () ->
      columnar_ucq ?gov ~run_batch ~workers ~min_tuples ~partitions inst disjuncts)
