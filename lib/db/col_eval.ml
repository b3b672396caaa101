(* Compiled conjunctive-query evaluation over columnar blocks.

   A CQ body is compiled once into an array of join steps against the
   sealed relations' columnar blocks: variables become numbered slots in a
   single mutable [int array] binding frame, constants become pre-computed
   value codes, and each step is a probe (CSR index range) or scan followed
   by a flat array of per-column checks. The interpreter therefore
   allocates nothing per candidate tuple — no [Symbol.Map] environments, no
   boxed tuples — and every scan walks contiguous [int array]s, which is
   what lets morsel workers run at memory bandwidth instead of fighting the
   multicore minor heap (see E18 / BENCH_parallel_eval.json).

   The join order and each step's probe column come from {!Join_plan},
   the planner {!Eval.bindings} interprets over boxed relations; compiling
   translates its steps into slots, codes and captured columns. *)

open Tgd_logic

(* A check against one column of the step's block. The column array is
   captured directly so the inner loop does one load, not two. *)
type check =
  | Check_const of int array * int (* column codes, required code *)
  | Check_slot of int array * int (* column codes, frame slot *)
  | Bind of int array * int (* column codes, frame slot to set *)

type probe =
  | Scan
  | Probe_const of int (* column index, constant code *) * int
  | Probe_slot of int * int (* column index, frame slot *)

type step = {
  plan : Join_plan.step;
  block : Columnar.t;
  probe : probe;
  checks : check array;
}

type out_arg =
  | Out_slot of int
  | Out_code of int

type t = {
  steps : step array;
  nslots : int;
  out : out_arg array;
}

type compiled =
  | Compiled of t
  | Empty (* a body atom can never match: the disjunct has no answers *)

let out_arity t = Array.length t.out

(* ------------------------------------------------------------------ *)
(* Coded answer tuples                                                 *)

(* The comparison/hash helpers below are on the per-answer hot path
   (hashtable dedup, partition sort: millions of calls per query), so they
   are written as top-level recursions with explicit arguments — an inner
   [let rec loop] capturing the arrays would allocate a closure block per
   call, which at sort time is several words *per comparison*. *)

let rec hash_from (a : int array) n i h =
  if i >= n then h land max_int
  else hash_from a n (i + 1) ((h * 31) + Array.unsafe_get a i)

let hash_codes (a : int array) = hash_from a (Array.length a) 0 17

(* Flat fixed-stride rows. [Par_eval]'s partition buckets store coded
   answers back to back in one [int array] (row [r] of a stride-[s] bucket
   occupies offsets [r*s .. r*s + s - 1]): per answer that is [s] machine
   words and zero pointers, so sorting and deduplicating a
   million-answer partition is sequential memory traffic instead of a
   pointer chase through a million tiny heap blocks. *)

let rec row_cmp_from (a : int array) oa (b : int array) ob stride i =
  if i >= stride then 0
  else
    let c =
      Int.compare (Array.unsafe_get a (oa + i)) (Array.unsafe_get b (ob + i))
    in
    if c <> 0 then c else row_cmp_from a oa b ob stride (i + 1)

let compare_rows a oa b ob ~stride = row_cmp_from a oa b ob stride 0

let swap_rows (a : int array) stride i j =
  let oi = i * stride and oj = j * stride in
  for k = 0 to stride - 1 do
    let t = Array.unsafe_get a (oi + k) in
    Array.unsafe_set a (oi + k) (Array.unsafe_get a (oj + k));
    Array.unsafe_set a (oj + k) t
  done

(* Direct-call quicksort (median-of-three to the front, Hoare partition,
   swap-based insertion below 16 rows) over the rows of a flat bucket.
   [Array.sort] would need one heap block per row plus a closure call per
   comparison — at n log n comparisons per partition that indirection is
   the sort. [piv] is a caller-provided stride-sized scratch row: the
   pivot must be copied out because partition swaps move it. Bounds are
   row indices, [hi] inclusive. *)
let rec qsort_rows (a : int array) stride (piv : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let j = ref i in
      while
        !j > lo && row_cmp_from a (!j * stride) a ((!j - 1) * stride) stride 0 < 0
      do
        swap_rows a stride !j (!j - 1);
        decr j
      done
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    (* Sort rows lo/mid/hi among themselves, then move the median to [lo]
       where the Hoare scan expects its pivot. *)
    if row_cmp_from a (mid * stride) a (lo * stride) stride 0 < 0 then
      swap_rows a stride mid lo;
    if row_cmp_from a (hi * stride) a (mid * stride) stride 0 < 0 then begin
      swap_rows a stride hi mid;
      if row_cmp_from a (mid * stride) a (lo * stride) stride 0 < 0 then
        swap_rows a stride mid lo
    end;
    swap_rows a stride lo mid;
    Array.blit a (lo * stride) piv 0 stride;
    let i = ref (lo - 1) and j = ref (hi + 1) in
    let cut = ref (-1) in
    while !cut < 0 do
      incr i;
      while row_cmp_from a (!i * stride) piv 0 stride 0 < 0 do
        incr i
      done;
      decr j;
      while row_cmp_from piv 0 a (!j * stride) stride 0 < 0 do
        decr j
      done;
      if !i >= !j then cut := !j else swap_rows a stride !i !j
    done;
    qsort_rows a stride piv lo !cut;
    qsort_rows a stride piv (!cut + 1) hi
  end

let sort_rows (a : int array) ~stride ~rows =
  if stride > 0 && rows > 1 then qsort_rows a stride (Array.make stride 0) 0 (rows - 1)

(* Compact duplicate (adjacent, post-sort) rows in place; returns the
   unique count. Stride 0 (boolean answers) collapses to one row. *)
let uniq_rows (a : int array) ~stride ~rows =
  if rows = 0 then 0
  else begin
    let w = ref 1 in
    for r = 1 to rows - 1 do
      if row_cmp_from a (r * stride) a ((!w - 1) * stride) stride 0 <> 0 then begin
        if r <> !w then Array.blit a (r * stride) a (!w * stride) stride;
        incr w
      end
    done;
    !w
  end

let decode_row (a : int array) ~stride ~row =
  let off = row * stride in
  Array.init stride (fun i -> Value.decode a.(off + i))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

exception No_match

let const_code c = Value.code (Value.Const c)

let block_of inst (a : Atom.t) =
  match Instance.relation inst a.Atom.pred with
  | None -> raise No_match
  | Some rel ->
    if Relation.arity rel <> Atom.arity a then raise No_match
    else (
      match Relation.columnar rel with
      | Some block -> block
      | None ->
        invalid_arg
          (Printf.sprintf "Col_eval.compile: relation %s is not sealed"
             (Symbol.name a.Atom.pred)))

let compile inst (q : Cq.t) =
  try
    let blocks = Array.of_list (List.map (block_of inst) q.Cq.body) in
    let plan = Join_plan.make ~sizes:(Array.map Columnar.nrows blocks) q.Cq.body in
    let slots = Symbol.Table.create 16 in
    let step (s : Join_plan.step) =
      let block = blocks.(s.Join_plan.index) in
      let probed = Option.value s.Join_plan.probe ~default:(-1) in
      let probe =
        match s.Join_plan.probe with
        | None -> Scan
        | Some j -> (
          match s.Join_plan.args.(j) with
          | Join_plan.Const c -> Probe_const (j, const_code c)
          | Join_plan.Check v | Join_plan.Bind v -> Probe_slot (j, Symbol.Table.find slots v))
      in
      (* One op per column, left to right, except the probed column: it
         holds the probe value on every candidate row. *)
      let check k =
        let j = if probed >= 0 && k >= probed then k + 1 else k in
        let col = Columnar.col block j in
        match s.Join_plan.args.(j) with
        | Join_plan.Const c -> Check_const (col, const_code c)
        | Join_plan.Check v -> Check_slot (col, Symbol.Table.find slots v)
        | Join_plan.Bind v ->
          let slot = Symbol.Table.length slots in
          Symbol.Table.add slots v slot;
          Bind (col, slot)
      in
      let nchecks = Array.length s.Join_plan.args - if probed >= 0 then 1 else 0 in
      { plan = s; block; probe; checks = Array.init nchecks check }
    in
    let steps = Array.map step plan in
    let out =
      List.map
        (function
          | Term.Const c -> Out_code (const_code c)
          | Term.Var v -> (
            match Symbol.Table.find_opt slots v with
            | Some s -> Out_slot s
            | None -> invalid_arg "Col_eval.compile: unbound answer variable"))
        q.Cq.answer
    in
    Compiled { steps; nslots = Symbol.Table.length slots; out = Array.of_list out }
  with No_match -> Empty

let steps t = Array.map (fun s -> s.plan) t.steps

let pp ppf t =
  Array.iteri
    (fun k s ->
      let access =
        match s.plan.Join_plan.probe with
        | None -> "scan"
        | Some j -> Printf.sprintf "index probe on c%d" (j + 1)
      in
      Format.fprintf ppf "%d. %a  via %s (%d rows)@." (k + 1) Atom.pp s.plan.Join_plan.atom access
        (Columnar.nrows s.block))
    t.steps

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Candidate rows of a step under the current frame: [(rows, start, len)]
   where the row ids are [rows.(start) ..] when [rows] is [Some _] and the
   identity range [start ..] otherwise (full scan). *)
let candidates (s : step) (frame : int array) =
  match s.probe with
  | Scan -> (None, 0, Columnar.nrows s.block)
  | Probe_const (col, code) ->
    let rows, start, len = Columnar.probe s.block ~col code in
    (Some rows, start, len)
  | Probe_slot (col, slot) ->
    let rows, start, len = Columnar.probe s.block ~col frame.(slot) in
    (Some rows, start, len)

let lead_len t =
  if Array.length t.steps = 0 then 0
  else
    let _, _, len = candidates t.steps.(0) [||] in
    len

exception Stopped

(* Tick stride: batching the shared governor's atomic counter is what
   keeps many workers from contending on it. The governor polls the clock
   and the cancellation callback on its own stride of these ticks, so a
   stop is seen within a few thousand nodes. *)
let stride = 256

let run ?gov t ~lo ~hi ~emit =
  let frame = Array.make (max t.nslots 1) 0 in
  let steps = t.steps in
  let nsteps = Array.length steps in
  let nodes = ref 0 in
  let tick, flush =
    match gov with
    | None -> ((fun () -> ()), fun () -> ())
    | Some g ->
      let meter = Tgd_exec.Governor.meter g Tgd_exec.Budget.key_eval_steps in
      ( (fun () ->
          incr nodes;
          if !nodes land (stride - 1) = 0 then begin
            Tgd_exec.Governor.tick ~n:stride meter;
            if not (Tgd_exec.Governor.live g) then raise Stopped
          end),
        fun () ->
          let rem = !nodes land (stride - 1) in
          if rem > 0 then Tgd_exec.Governor.tick ~n:rem meter )
  in
  let nout = Array.length t.out in
  (* One scratch answer, refilled per match: the emit callback must copy
     what it keeps. Copying into a flat partition bucket is exactly what
     [Par_eval] does, so the per-answer heap allocation disappears. *)
  let out_buf = Array.make nout 0 in
  let emit_current () =
    for i = 0 to nout - 1 do
      out_buf.(i) <-
        (match Array.unsafe_get t.out i with Out_slot s -> frame.(s) | Out_code c -> c)
    done;
    emit out_buf
  in
  (* Top-level-style recursion with explicit arguments: an inner closure
     capturing [cs]/[r] would be allocated per candidate row. *)
  let rec checks_from (cs : check array) n r i =
    i >= n
    ||
    match Array.unsafe_get cs i with
    | Check_const (col, code) -> Array.unsafe_get col r = code && checks_from cs n r (i + 1)
    | Check_slot (col, slot) ->
      Array.unsafe_get col r = Array.unsafe_get frame slot && checks_from cs n r (i + 1)
    | Bind (col, slot) ->
      Array.unsafe_set frame slot (Array.unsafe_get col r);
      checks_from cs n r (i + 1)
  in
  let matches (s : step) r =
    let cs = s.checks in
    checks_from cs (Array.length cs) r 0
  in
  let rec at depth =
    if depth = nsteps then emit_current ()
    else begin
      let s = Array.unsafe_get steps depth in
      let rows, start, len = candidates s frame in
      let stop = start + len in
      match rows with
      | None ->
        for r = start to stop - 1 do
          if matches s r then begin
            tick ();
            at (depth + 1)
          end
        done
      | Some rows ->
        for k = start to stop - 1 do
          let r = Array.unsafe_get rows k in
          if matches s r then begin
            tick ();
            at (depth + 1)
          end
        done
    end
  in
  (try
     if nsteps = 0 then emit_current ()
     else begin
       let s = Array.unsafe_get steps 0 in
       let rows, start, _ = candidates s frame in
       let lo = start + lo and hi = start + hi in
       match rows with
       | None ->
         for r = lo to hi - 1 do
           if matches s r then begin
             tick ();
             at 1
           end
         done
       | Some rows ->
         for k = lo to hi - 1 do
           let r = Array.unsafe_get rows k in
           if matches s r then begin
             tick ();
             at 1
           end
         done
     end
   with Stopped -> ());
  flush ()
