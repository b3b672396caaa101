(* Morsel-driven parallel UCQ evaluation: scan morsels into task-private
   partition buckets, then sort, dedup and merge partition-owned runs
   (see the interface). No mutex is taken anywhere on the answer path. *)

let default_min_tuples = 512

(* A grow-only flat bucket of fixed-stride coded rows; each one is owned
   by exactly one task (or by the lone worker of a sequential run), so no
   locking — and no per-answer heap block: pushing an answer blits its
   codes onto the end of one [int array]. [rows] is tracked separately so
   stride-0 (boolean) answers still count. *)
type bucket = {
  mutable data : int array;
  mutable rows : int;
}

let bucket_create () = { data = [||]; rows = 0 }

let bucket_push b (src : int array) stride =
  b.data <- Columnar.room b.data (((b.rows + 1) * stride) - 1);
  Array.blit src 0 b.data (b.rows * stride) stride;
  b.rows <- b.rows + 1

let default_partitions ~workers = max 1 (workers * 4)

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

(* One worker, hence one partition: every disjunct emits straight into
   its arity's flat buffer, which is sorted and compacted in place, and
   the distinct rows are decoded into the result list from the largest
   arity down — no routing hash, no copy and no merge. *)
let sequential_ucq ?gov compiled strides =
  (match gov with
  | Some g when compiled <> [] ->
    Tgd_exec.Governor.charge ~n:(List.length compiled) g "eval.morsels"
  | Some _ | None -> ());
  let bufs = Array.map (fun _ -> bucket_create ()) strides in
  List.iter
    (fun plan ->
      let stride = Col_eval.out_arity plan in
      let b = bufs.(group strides stride) in
      Col_eval.run ?gov plan ~lo:0 ~hi:(Col_eval.lead_len plan) ~emit:(fun a ->
          bucket_push b a stride))
    compiled;
  merge_phase gov (fun () ->
      let result = ref [] in
      for g = Array.length strides - 1 downto 0 do
        let b = bufs.(g) and stride = strides.(g) in
        Col_eval.sort_rows b.data ~stride ~rows:b.rows;
        let rows = Col_eval.uniq_rows b.data ~stride ~rows:b.rows in
        result := Col_eval.decode_rows b.data ~stride ~rows !result
      done;
      !result)

(* Several workers. Phase 1: scan morsels. Contiguous row ranges of each
   disjunct's leading scan; every task hashes each coded answer it emits
   into task-private per-partition flat buckets — a stride-sized blit, no
   allocation and no dedup probe (the partition sort makes every
   duplicate adjacent, so phase 2 dedups for free). *)
let parallel_ucq ?gov ~run_batch ~workers ~min_tuples ~partitions compiled strides =
  let parts_n = partitions in
  let tasks =
    List.concat_map
      (fun plan ->
        let n0 = Col_eval.lead_len plan in
        if n0 = 0 then [ (plan, 0, 0) ]
        else if n0 < min_tuples then [ (plan, 0, n0) ]
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
  in
  let ntasks = Array.length tasks in
  let buckets = Array.make ntasks [||] in
  let scan_task ti =
    let plan, lo, hi = tasks.(ti) in
    let stride = Col_eval.out_arity plan in
    let locals = Array.init parts_n (fun _ -> bucket_create ()) in
    Col_eval.run ?gov plan ~lo ~hi ~emit:(fun a ->
        bucket_push locals.(Columnar.hash_codes a mod parts_n) a stride);
    buckets.(ti) <- locals
  in
  if ntasks > 0 then begin
    (match gov with
    | Some g -> Tgd_exec.Governor.charge ~n:ntasks g "eval.morsels"
    | None -> ());
    if ntasks = 1 then scan_task 0 else run_batch ntasks scan_task
  end;
  merge_phase gov @@ fun () ->
  (* Phase 2: partition-owned sort + dedup. Partition [p] is touched by
     exactly one worker, so the cross-task merge needs no lock: per
     arity group it concatenates the tasks' flat buckets, sorts and
     compacts the rows in place, and decodes the distinct ones into
     [runs.(p).(g)]. *)
  let runs = Array.make_matrix parts_n (Array.length strides) ([||], [||]) in
  let task_strides = Array.map (fun (plan, _, _) -> Col_eval.out_arity plan) tasks in
  let merge_partition p =
    Array.iteri
      (fun g stride ->
        let total = ref 0 in
        Array.iteri
          (fun ti s -> if s = stride then total := !total + buckets.(ti).(p).rows)
          task_strides;
        let flat = Array.make (!total * stride) 0 and fill = ref 0 in
        Array.iteri
          (fun ti s ->
            if s = stride then begin
              let b = buckets.(ti).(p) in
              Array.blit b.data 0 flat !fill (b.rows * stride);
              fill := !fill + (b.rows * stride)
            end)
          task_strides;
        Col_eval.sort_rows flat ~stride ~rows:!total;
        let uniq = Col_eval.uniq_rows flat ~stride ~rows:!total in
        (* Not [Array.init]: a long array made over a young first tuple
           forces a minor collection, which stops every domain. *)
        let tuples = Array.make uniq [||] in
        for row = 0 to uniq - 1 do
          tuples.(row) <- Col_eval.decode_row flat ~stride ~row
        done;
        runs.(p).(g) <- (flat, tuples))
      strides
  in
  if ntasks > 0 then
    if parts_n = 1 then merge_partition 0 else run_batch parts_n merge_partition;
  (* Sequential tail: per arity group, a k-way merge of the (disjoint —
     equal answers hash to the same partition) sorted runs, compared on
     their flat codes. It walks the runs from their ends and conses the
     largest head, so the list comes out ascending. *)
  let result = ref [] in
  for g = Array.length strides - 1 downto 0 do
    let stride = strides.(g) in
    let head = Array.init parts_n (fun p -> Array.length (snd runs.(p).(g)) - 1) in
    for _ = 1 to Array.fold_left (fun n h -> n + h + 1) 0 head do
      let best = ref (-1) in
      for p = 0 to parts_n - 1 do
        if
          head.(p) >= 0
          && (!best < 0
             || Col_eval.compare_rows (fst runs.(p).(g)) (head.(p) * stride)
                  (fst runs.(!best).(g)) (head.(!best) * stride) ~stride
                > 0)
        then best := p
      done;
      let b = !best in
      result := (snd runs.(b).(g)).(head.(b)) :: !result;
      head.(b) <- head.(b) - 1
    done
  done;
  !result

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
  if workers <= 1 then sequential_ucq ?gov compiled strides
  else parallel_ucq ?gov ~run_batch ~workers ~min_tuples ~partitions compiled strides

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
    | None -> default_partitions ~workers
  in
  (* A no-op read on an instance already sealed (every registry instance),
     so concurrent evaluations of a shared instance never write. *)
  Instance.seal inst;
  (* Batches go to the caller's pool, or to a transient one of
     [workers - 1] helpers (the caller is the last worker) spawned by the
     first batch that needs it and joined before returning. *)
  let transient = ref None in
  let run_batch n f =
    let p =
      match pool, !transient with
      | Some p, _ | None, Some p -> p
      | None, None ->
        let p = Tgd_exec.Pool.create ~workers:(workers - 1) () in
        transient := Some p;
        p
    in
    Tgd_exec.Pool.run_morsels p ~n f
  in
  Fun.protect ~finally:(fun () -> Option.iter Tgd_exec.Pool.shutdown !transient) (fun () ->
      columnar_ucq ?gov ~run_batch ~workers ~min_tuples ~partitions inst disjuncts)
