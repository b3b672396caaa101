(* Compiled conjunctive-query evaluation over coded rows (see the
   interface). The join order and each step's probe column come from
   {!Join_plan}. *)

open Tgd_logic

(* A check against one column of a segment. The column array is
   captured directly so the inner loop does one load, not two. *)
type check =
  | Check_const of int array * int (* column codes, required code *)
  | Check_slot of int array * int (* column codes, frame slot *)
  | Bind of int array * int (* column codes, frame slot to set *)

type out_arg =
  | Out_slot of int
  | Out_code of int

(* A {!Relation.segment} of a step's rows, with the checks on its columns. *)
type seg = {
  checks : check array;
  nrows : int;
  probe : col:int -> int -> int array * int * int;
}

(* A step reads its segments in order, the block's rows before the
   tails'. [probe] is the probed column ([-1]: a scan) and [key] the code
   it must hold. *)
type step = {
  plan : Join_plan.step;
  probe : int;
  key : out_arg;
  segs : seg array;
}

type t = {
  steps : step array;
  nslots : int;
  out : out_arg array;
}

let out_arity t = Array.length t.out

(* ------------------------------------------------------------------ *)
(* Coded answer tuples                                                 *)

(* The comparisons below are on the per-answer hot path (sort and dedup:
   millions of calls per query), so they are top-level recursions with
   explicit arguments — an inner [let rec loop] capturing the arrays would
   allocate a closure block per call. *)

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

(* Insertion sort for a handful of rows, where the radix sort's digit
   counts would cost more than the comparisons. *)
let insertion_sort_rows (a : int array) stride rows =
  for i = 1 to rows - 1 do
    let j = ref i in
    while !j > 0 && row_cmp_from a (!j * stride) a ((!j - 1) * stride) stride 0 < 0 do
      swap_rows a stride !j (!j - 1);
      decr j
    done
  done

let radix_bits = 11
let radix_mask = (1 lsl radix_bits) - 1

(* Stable LSD radix sort of the rows of a flat bucket: one counting pass
   per [radix_bits]-bit digit of [code - lo], columns from the last to the
   first, and per column only the digits its code range [hi - lo] needs (a
   column of constants takes one or two passes; one mixing in null codes,
   [>= Value.null_base], up to five). Each pass is stable, so the order
   the later columns set survives as the tie-break: the rows end in
   lexicographic code order, which is [Tuple.compare]'s. Passes scatter
   whole rows between [a] and one scratch buffer; only the first
   [rows * stride] ints of [a] are read or written. *)
let sort_rows (a : int array) ~stride ~rows =
  if stride > 0 && rows > 1 then
    if rows <= 64 then insertion_sort_rows a stride rows
    else begin
      let len = rows * stride in
      let src = ref a and dst = ref (Array.make len 0) in
      let count = Array.make (radix_mask + 2) 0 in
      for k = stride - 1 downto 0 do
        let lo = ref max_int and hi = ref min_int and s = !src in
        for r = 0 to rows - 1 do
          let c = Array.unsafe_get s ((r * stride) + k) in
          if c < !lo then lo := c;
          if c > !hi then hi := c
        done;
        let shift = ref 0 in
        while (!hi - !lo) lsr !shift > 0 do
          let s = !src and d = !dst and lo = !lo and sh = !shift in
          Array.fill count 0 (radix_mask + 2) 0;
          for r = 0 to rows - 1 do
            let g = 1 + (((Array.unsafe_get s ((r * stride) + k) - lo) lsr sh) land radix_mask) in
            Array.unsafe_set count g (Array.unsafe_get count g + 1)
          done;
          for g = 1 to radix_mask do
            count.(g) <- count.(g) + count.(g - 1)
          done;
          for r = 0 to rows - 1 do
            let o = r * stride in
            let g = ((Array.unsafe_get s (o + k) - lo) lsr sh) land radix_mask in
            let w = Array.unsafe_get count g in
            Array.unsafe_set count g (w + 1);
            for i = 0 to stride - 1 do
              Array.unsafe_set d ((w * stride) + i) (Array.unsafe_get s (o + i))
            done
          done;
          src := d;
          dst := s;
          shift := sh + radix_bits
        done
      done;
      if !src != a then Array.blit !src 0 a 0 len
    end

(* Compact duplicate (adjacent, post-sort) rows in place; returns the
   unique count. Stride 0 (boolean answers) collapses to one row. *)
let uniq_rows (a : int array) ~stride ~rows =
  if rows = 0 then 0
  else begin
    let w = ref 1 in
    for r = 1 to rows - 1 do
      let o = r * stride and ow = !w * stride in
      if row_cmp_from a o a (ow - stride) stride 0 <> 0 then begin
        for i = 0 to stride - 1 do
          Array.unsafe_set a (ow + i) (Array.unsafe_get a (o + i))
        done;
        incr w
      end
    done;
    !w
  end

let decode_row (a : int array) ~stride ~row =
  let off = row * stride and t = Array.make stride (Value.Null 0) in
  for i = 0 to stride - 1 do
    t.(i) <- Value.decode a.(off + i)
  done;
  t

let rec decode_rows a ~stride ~rows acc =
  if rows = 0 then acc
  else decode_rows a ~stride ~rows:(rows - 1) (decode_row a ~stride ~row:(rows - 1) :: acc)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let const_code c = Value.code (Value.Const c)

(* A step's rows, as segments: a forced delta's block, scanned with every
   column checked ([true]), a relation's nonempty segments, or none (also
   scanned) for a relation that is missing or of another arity. *)
let source_of inst ~forced i (a : Atom.t) =
  let arity = Atom.arity a in
  match (forced, Instance.relation inst a.Atom.pred) with
  | Some (f, rows), _ when f = i ->
    (true, if Columnar.arity rows = arity then [ Relation.block_segment rows ] else [])
  | _, Some rel when Relation.arity rel = arity ->
    (false, List.filter (fun (g : Relation.segment) -> g.nrows > 0) (Relation.segments rel))
  | _ -> (true, [])

let compile ?(bound = []) ?forced inst (q : Cq.t) =
  let sources = Array.of_list (List.mapi (source_of inst ~forced) q.Cq.body) in
  let plan =
    Join_plan.make
      ~init:(fun v -> List.exists (Symbol.equal v) bound)
      ?forced:(Option.map fst forced)
      ~sizes:
        (Array.map (fun (_, segs) -> List.fold_left (fun n (g : Relation.segment) -> n + g.nrows) 0 segs) sources)
      q.Cq.body
  in
  (* Variable -> frame slot; bodies are small. *)
  let slots = ref (List.mapi (fun i v -> (v, i)) bound) in
  let slot v = List.find_map (fun (w, s) -> if Symbol.equal v w then Some s else None) !slots in
  let step (s : Join_plan.step) =
    let scan, segs = sources.(s.Join_plan.index) in
    let probe = match s.Join_plan.probe with Some j when not scan -> j | Some _ | None -> -1 in
    let key =
      if probe < 0 then Out_code 0
      else
        match s.Join_plan.args.(probe) with
        | Join_plan.Const c -> Out_code (const_code c)
        | Join_plan.Check v | Join_plan.Bind v -> Out_slot (Option.get (slot v))
    in
    (* One op per column, left to right, except the probed column: it
       holds the probe value on every candidate row. *)
    let op k =
      let j = if probe >= 0 && k >= probe then k + 1 else k in
      match s.Join_plan.args.(j) with
      | Join_plan.Const c ->
        let code = const_code c in
        fun col -> Check_const (col j, code)
      | Join_plan.Check v ->
        let slot = Option.get (slot v) in
        fun col -> Check_slot (col j, slot)
      | Join_plan.Bind v ->
        let slot = List.length !slots in
        slots := (v, slot) :: !slots;
        fun col -> Bind (col j, slot)
    in
    let ops = Array.init (Array.length s.Join_plan.args - if probe >= 0 then 1 else 0) op in
    let checks col = Array.map (fun op -> op col) ops in
    let seg (g : Relation.segment) = { checks = checks (Array.get g.cols); nrows = g.nrows; probe = g.probe } in
    { plan = s; probe; key; segs = Array.of_list (List.map seg segs) }
  in
  let steps = Array.map step plan in
  let out =
    List.map
      (function
        | Term.Const c -> Out_code (const_code c)
        | Term.Var v -> (
          match slot v with
          | Some s -> Out_slot s
          | None -> invalid_arg "Col_eval.compile: unbound answer variable"))
      q.Cq.answer
  in
  { steps; nslots = List.length !slots; out = Array.of_list out }

let rows s = Array.fold_left (fun n seg -> n + seg.nrows) 0 s.segs
let can_match t = Array.for_all (fun s -> rows s > 0) t.steps
let steps t = Array.map (fun s -> s.plan) t.steps

let pp ppf t =
  Array.iteri
    (fun k s ->
      let access = if s.probe < 0 then "scan" else Printf.sprintf "index probe on c%d" (s.probe + 1) in
      Format.fprintf ppf "%d. %a  via %s (%d rows)@." (k + 1) Atom.pp s.plan.Join_plan.atom access
        (rows s))
    t.steps

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Candidate rows of a step's segment under the current frame:
   [(rows, start, len)], the row ids [rows.(start) ..] when [rows] is
   [Some _] and the identity range [start ..] otherwise (full scan). *)
let candidates (s : step) seg (frame : int array) =
  if s.probe < 0 then (None, 0, seg.nrows)
  else
    let code = match s.key with Out_slot slot -> frame.(slot) | Out_code c -> c in
    let rows, start, len = seg.probe ~col:s.probe code in
    (Some rows, start, len)

let lead_len t =
  if Array.length t.steps = 0 then 0
  else
    let s = t.steps.(0) in
    Array.fold_left (fun n seg -> let _, _, len = candidates s seg [||] in n + len) 0 s.segs

exception Stopped

(* Tick stride: batching the shared governor's atomic counter is what
   keeps many workers from contending on it. The governor polls the clock
   and the cancellation callback on its own stride of these ticks, so a
   stop is seen within a few thousand nodes. *)
let stride = 256

(* The join search. [node ()] is called once per matched candidate and
   says whether to search below it; it may raise [Stopped]. The leading
   step reads its candidates [lo .. hi - 1]: the block's first, then the
   tail's. *)
let exec ~node ?(bound = [||]) t ~lo ~hi ~emit =
  let frame = Array.make (max t.nslots 1) 0 in
  Array.blit bound 0 frame 0 (Array.length bound);
  let steps = t.steps in
  let nsteps = Array.length steps in
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
  let rec visit depth ~lo ~hi =
    let s = Array.unsafe_get steps depth in
    let next = depth + 1 in
    let off = ref 0 in
    for g = 0 to Array.length s.segs - 1 do
      let seg = Array.unsafe_get s.segs g in
      let rows, start, len = candidates s seg frame in
      let a = start + max 0 (lo - !off) and b = start + min len (hi - !off) in
      (match rows with
      | None ->
        for r = a to b - 1 do
          try_row seg.checks r next
        done
      | Some rows ->
        for k = a to b - 1 do
          try_row seg.checks (Array.unsafe_get rows k) next
        done);
      off := !off + len
    done
  and try_row cs r next = if checks_from cs (Array.length cs) r 0 && node () then at next
  and at depth = if depth = nsteps then emit_current () else visit depth ~lo:0 ~hi:max_int in
  if nsteps = 0 then emit_current () else visit 0 ~lo ~hi

let run ?gov t ~lo ~hi ~emit =
  match gov with
  | None -> exec ~node:(fun () -> true) t ~lo ~hi ~emit
  | Some g ->
    let meter = Tgd_exec.Governor.meter g Tgd_exec.Budget.key_eval_steps in
    let nodes = ref 0 in
    let node () =
      incr nodes;
      if !nodes land (stride - 1) = 0 then begin
        Tgd_exec.Governor.tick ~n:stride meter;
        if not (Tgd_exec.Governor.live g) then raise Stopped
      end;
      true
    in
    (try exec ~node t ~lo ~hi ~emit with Stopped -> ());
    let rem = !nodes land (stride - 1) in
    if rem > 0 then Tgd_exec.Governor.tick ~n:rem meter

let iter ?gov ?bound t emit =
  let node =
    match gov with
    | None -> fun () -> true
    | Some g ->
      let meter = Tgd_exec.Governor.meter g Tgd_exec.Budget.key_eval_steps in
      fun () ->
        Tgd_exec.Governor.tick meter;
        Tgd_exec.Governor.live g
  in
  (* The root is a node too. *)
  if node () then exec ~node ?bound t ~lo:0 ~hi:max_int ~emit

(* Coded answers are sorted and compacted in one flat buffer: code order
   is [Tuple.compare]'s, so only distinct answers are decoded. *)
let cq ?gov inst q =
  let t = compile inst q in
  let stride = out_arity t and buf = ref [||] and rows = ref 0 in
  iter ?gov t (fun codes ->
      buf := Columnar.room !buf (((!rows + 1) * stride) - 1);
      Array.blit codes 0 !buf (!rows * stride) stride;
      incr rows);
  sort_rows !buf ~stride ~rows:!rows;
  decode_rows !buf ~stride ~rows:(uniq_rows !buf ~stride ~rows:!rows) []
