(* Morsel-driven parallel UCQ evaluation.

   The instance is sealed and every disjunct is compiled with [Col_eval];
   the leading scan is split into contiguous row-range morsels, and every
   worker hashes its coded answers into task-private partition buckets.
   The merge is then free of locks: a second parallel phase gives each of
   the P answer partitions to one worker, which deduplicates and sorts its
   partition alone, and the final k-way concatenation-merge of the
   (disjoint, sorted) partitions is a linear pass. No mutex is taken
   anywhere on the answer path.

   The engine polls the one shared governor, so budgets and truncation
   semantics survive parallelism, and returns answers deduplicated and
   sorted by [Tuple.compare]. *)

let default_min_tuples = 512

(* A grow-only flat bucket of fixed-stride coded rows; each one is owned
   by exactly one task (phase 1) or one partition worker (phase 2), so no
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

(* Phase 2's output for one partition: per answer arity (ascending — the
   leading key of [Tuple.compare]) the sorted unique coded rows, plus the
   matching decoded tuples in the same global order. The flat rows drive
   the phase-3 head comparisons; the tuples are what gets returned. *)
type part = {
  strides : int array;
  flats : int array array;
  counts : int array;
  tuples : Tuple.t array;
}

let empty_part = { strides = [||]; flats = [||]; counts = [||]; tuples = [||] }

let default_partitions ~workers = max 1 (workers * 4)

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
     so phase 2 can emit each partition's arity groups in this order and
     be globally sorted. (Disjuncts of one union normally share an arity;
     nothing here assumes it.) *)
  let strides =
    List.sort_uniq Int.compare (List.map Col_eval.out_arity compiled) |> Array.of_list
  in
  (* Phase 1: scan morsels. Contiguous row ranges of each disjunct's
     leading scan; every task hashes each coded answer it emits into
     task-private per-partition flat buckets — a stride-sized blit, no
     allocation and no dedup probe (the partition sort makes every
     duplicate adjacent, so phase 2 dedups for free). *)
  let parts_n = partitions in
  let tasks =
    List.concat_map
      (fun plan ->
        let n0 = Col_eval.lead_len plan in
        if n0 = 0 then [ (plan, 0, 0) ]
        else if workers <= 1 || n0 < min_tuples then [ (plan, 0, n0) ]
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
        bucket_push locals.(Col_eval.hash_codes a mod parts_n) a stride);
    buckets.(ti) <- locals
  in
  if ntasks > 0 then begin
    (match gov with
    | Some g -> Tgd_exec.Governor.charge ~n:ntasks g "eval.morsels"
    | None -> ());
    if workers <= 1 || ntasks = 1 then
      for ti = 0 to ntasks - 1 do
        scan_task ti
      done
    else run_batch ntasks scan_task
  end;
  (* Phase 2: partition-owned sort + dedup. Partition [p] is touched by
     exactly one worker, so the cross-task merge needs no lock: per
     arity group it concatenates the tasks' flat buckets, sorts the rows
     in place (sequential memory — the rows are bare ints), compacts
     adjacent duplicates, and only then decodes, so the sequential tail
     below touches nothing but sorted uniques. *)
  let merge_t0 = match gov with Some _ -> Unix.gettimeofday () | None -> 0.0 in
  let parts = Array.make parts_n empty_part in
  let task_strides = Array.map (fun (plan, _, _) -> Col_eval.out_arity plan) tasks in
  let merge_partition p =
    let groups = ref [] in
    Array.iter
      (fun stride ->
        let total = ref 0 in
        for ti = 0 to ntasks - 1 do
          if task_strides.(ti) = stride && Array.length buckets.(ti) > 0 then
            total := !total + buckets.(ti).(p).rows
        done;
        if !total > 0 then begin
          let flat = Array.make (!total * stride) 0 in
          let fill = ref 0 in
          for ti = 0 to ntasks - 1 do
            if task_strides.(ti) = stride && Array.length buckets.(ti) > 0 then begin
              let b = buckets.(ti).(p) in
              Array.blit b.data 0 flat !fill (b.rows * stride);
              fill := !fill + (b.rows * stride)
            end
          done;
          Col_eval.sort_rows flat ~stride ~rows:!total;
          let uniq = Col_eval.uniq_rows flat ~stride ~rows:!total in
          groups := (stride, flat, uniq) :: !groups
        end)
      strides;
    let groups = Array.of_list (List.rev !groups) in
    let nuniq = Array.fold_left (fun acc (_, _, u) -> acc + u) 0 groups in
    if nuniq > 0 then begin
      let tuples = Array.make nuniq [||] in
      let fill = ref 0 in
      Array.iter
        (fun (stride, flat, uniq) ->
          for row = 0 to uniq - 1 do
            tuples.(!fill) <- Col_eval.decode_row flat ~stride ~row;
            incr fill
          done)
        groups;
      parts.(p) <-
        {
          strides = Array.map (fun (s, _, _) -> s) groups;
          flats = Array.map (fun (_, f, _) -> f) groups;
          counts = Array.map (fun (_, _, u) -> u) groups;
          tuples;
        }
    end
  in
  if ntasks > 0 then
    if workers <= 1 || parts_n = 1 then merge_partition 0
    else run_batch parts_n merge_partition;
  (* Sequential tail: k-way merge of the (disjoint — equal answers hash
     to the same partition) sorted partitions. Heads are compared on the
     flat codes, arity first; output takes the pre-decoded tuples. *)
  let total = Array.fold_left (fun acc p -> acc + Array.length p.tuples) 0 parts in
  let result = Array.make total [||] in
  let head_g = Array.make parts_n 0 in
  let head_r = Array.make parts_n 0 in
  let head_t = Array.make parts_n 0 in
  let head_cmp p q =
    let sp = parts.(p).strides.(head_g.(p)) and sq = parts.(q).strides.(head_g.(q)) in
    let c = Int.compare sp sq in
    if c <> 0 then c
    else
      Col_eval.compare_rows
        parts.(p).flats.(head_g.(p))
        (head_r.(p) * sp)
        parts.(q).flats.(head_g.(q))
        (head_r.(q) * sp) ~stride:sp
  in
  for i = 0 to total - 1 do
    let best = ref (-1) in
    for p = 0 to parts_n - 1 do
      if head_g.(p) < Array.length parts.(p).strides then
        if !best < 0 || head_cmp p !best < 0 then best := p
    done;
    let b = !best in
    result.(i) <- parts.(b).tuples.(head_t.(b));
    head_t.(b) <- head_t.(b) + 1;
    head_r.(b) <- head_r.(b) + 1;
    if head_r.(b) = parts.(b).counts.(head_g.(b)) then begin
      head_g.(b) <- head_g.(b) + 1;
      head_r.(b) <- 0
    end
  done;
  (match gov with
  | Some g ->
    Tgd_exec.Telemetry.add_span (Tgd_exec.Governor.telemetry g) "eval.par.merge"
      (Unix.gettimeofday () -. merge_t0)
  | None -> ());
  Array.to_list result

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
    | Some p when p >= 1 -> if workers <= 1 then 1 else p
    | Some p -> invalid_arg (Printf.sprintf "Par_eval.ucq: partitions must be >= 1, got %d" p)
    | None -> if workers <= 1 then 1 else default_partitions ~workers
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
