(* Columnar sealed storage: one flat int column per attribute plus a CSR
   index (code -> contiguous row-id range) per column. Built once when a
   relation is sealed; morsel workers then scan contiguous [int array]s
   instead of chasing boxed tuples through a hashtable, which is what makes
   parallel evaluation memory-bandwidth-bound instead of
   minor-heap/cache-miss-bound. *)

(* The value-code -> group-id map of an index: hashed and ready, or still
   the per-group codes of a snapshot-imported block. Hydration is
   deferred to the first probe (a recovered server may never probe some
   columns). Not a [Lazy.t]: morsel workers probe concurrently, and racing
   domains here just build identical private tables — the last field write
   wins, which is benign duplicate work instead of [Lazy.Undefined]. *)
type groups_state =
  | Built of (int, int) Hashtbl.t
  | Codes of int array (* group id -> value code *)

type index = {
  mutable groups : groups_state; (* value code -> group id *)
  starts : int array; (* group id -> offset into [rows]; length ngroups+1 *)
  rows : int array; (* row ids, grouped by the column's value code *)
}

let groups_of idx =
  match idx.groups with
  | Built tbl -> tbl
  | Codes codes ->
    let tbl = Hashtbl.create (max 16 (Array.length codes)) in
    Array.iteri (fun g code -> Hashtbl.replace tbl code g) codes;
    idx.groups <- Built tbl;
    tbl

type t = {
  arity : int;
  nrows : int;
  cols : int array array; (* arity columns of nrows codes each *)
  indexes : index array;
}

let arity t = t.arity
let nrows t = t.nrows

let build_index (col : int array) =
  let n = Array.length col in
  let groups = Hashtbl.create (max 16 (n / 4)) in
  let counts = ref (Array.make 16 0) in
  let ngroups = ref 0 in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get col i in
    match Hashtbl.find_opt groups c with
    | Some g -> !counts.(g) <- !counts.(g) + 1
    | None ->
      let g = !ngroups in
      if g = Array.length !counts then begin
        let bigger = Array.make (2 * g) 0 in
        Array.blit !counts 0 bigger 0 g;
        counts := bigger
      end;
      !counts.(g) <- 1;
      Hashtbl.add groups c g;
      incr ngroups
  done;
  let starts = Array.make (!ngroups + 1) 0 in
  for g = 0 to !ngroups - 1 do
    starts.(g + 1) <- starts.(g) + !counts.(g)
  done;
  let fill = Array.init !ngroups (fun g -> starts.(g)) in
  let rows = Array.make n 0 in
  for i = 0 to n - 1 do
    let g = Hashtbl.find groups (Array.unsafe_get col i) in
    rows.(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  { groups = Built groups; starts; rows }

let build ~arity (tuples : Tuple.t array) =
  let nrows = Array.length tuples in
  let cols = Array.init (max arity 1) (fun _ -> Array.make nrows 0) in
  for i = 0 to nrows - 1 do
    let t = tuples.(i) in
    for j = 0 to arity - 1 do
      cols.(j).(i) <- Value.code t.(j)
    done
  done;
  let indexes = Array.init arity (fun j -> build_index cols.(j)) in
  { arity; nrows; cols; indexes }

(* Extend a CSR index with rows [old_n ..] of the (already extended)
   column, without rehashing the sealed prefix: each group keeps its old
   segment (blitted) followed by the appended row ids. *)
let extend_index idx (col : int array) ~old_n =
  let n = Array.length col in
  let groups = Hashtbl.copy (groups_of idx) in
  let old_ngroups = Array.length idx.starts - 1 in
  let counts = ref (Array.make (old_ngroups + 16) 0) in
  let ngroups = ref old_ngroups in
  for i = old_n to n - 1 do
    let c = Array.unsafe_get col i in
    let g =
      match Hashtbl.find_opt groups c with
      | Some g -> g
      | None ->
        let g = !ngroups in
        Hashtbl.add groups c g;
        incr ngroups;
        g
    in
    if g >= Array.length !counts then begin
      let bigger = Array.make (2 * Array.length !counts) 0 in
      Array.blit !counts 0 bigger 0 (Array.length !counts);
      counts := bigger
    end;
    !counts.(g) <- !counts.(g) + 1
  done;
  let starts = Array.make (!ngroups + 1) 0 in
  for g = 0 to !ngroups - 1 do
    let old_len = if g < old_ngroups then idx.starts.(g + 1) - idx.starts.(g) else 0 in
    let new_len = if g < Array.length !counts then !counts.(g) else 0 in
    starts.(g + 1) <- starts.(g) + old_len + new_len
  done;
  let rows = Array.make n 0 in
  let fill = Array.make (max !ngroups 1) 0 in
  for g = 0 to !ngroups - 1 do
    let pos = starts.(g) in
    if g < old_ngroups then begin
      let o = idx.starts.(g) and len = idx.starts.(g + 1) - idx.starts.(g) in
      Array.blit idx.rows o rows pos len;
      fill.(g) <- pos + len
    end
    else fill.(g) <- pos
  done;
  for i = old_n to n - 1 do
    let g = Hashtbl.find groups (Array.unsafe_get col i) in
    rows.(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  { groups = Built groups; starts; rows }

let extend t (tuples : Tuple.t array) =
  let added = Array.length tuples in
  if added = 0 then t
  else begin
    let old_n = t.nrows in
    let nrows = old_n + added in
    let cols =
      Array.init
        (max t.arity 1)
        (fun j ->
          let c = Array.make nrows 0 in
          Array.blit t.cols.(j) 0 c 0 old_n;
          c)
    in
    for i = 0 to added - 1 do
      let tup = tuples.(i) in
      for j = 0 to t.arity - 1 do
        cols.(j).(old_n + i) <- Value.code tup.(j)
      done
    done;
    let indexes = Array.init t.arity (fun j -> extend_index t.indexes.(j) cols.(j) ~old_n) in
    { arity = t.arity; nrows; cols; indexes }
  end

let col t j = t.cols.(j)

let probe t ~col code =
  let idx = t.indexes.(col) in
  match Hashtbl.find_opt (groups_of idx) code with
  | None -> (idx.rows, 0, 0)
  | Some g -> (idx.rows, idx.starts.(g), idx.starts.(g + 1) - idx.starts.(g))

let decode_row t i = Array.init t.arity (fun j -> Value.decode t.cols.(j).(i))

(* ------------------------------------------------------------------ *)
(* Serialization hooks (durable snapshots)                             *)

type parts = {
  p_arity : int;
  p_nrows : int;
  p_cols : int array array;
  p_codes : int array array;
  p_starts : int array array;
  p_rows : int array array;
}

let export t =
  let codes_of idx =
    match idx.groups with
    | Codes codes -> codes
    | Built tbl ->
      let codes = Array.make (Array.length idx.starts - 1) 0 in
      Hashtbl.iter (fun code g -> codes.(g) <- code) tbl;
      codes
  in
  {
    p_arity = t.arity;
    p_nrows = t.nrows;
    p_cols = t.cols;
    p_codes = Array.map codes_of t.indexes;
    p_starts = Array.map (fun idx -> idx.starts) t.indexes;
    p_rows = Array.map (fun idx -> idx.rows) t.indexes;
  }

(* The CSR arrays of an index are adopted as they are and probed with
   unchecked loads ([Col_eval]), so an image that breaks their shape must
   be refused here: one linear pass over arrays already read. *)
let check_index ~nrows j codes starts rows =
  let ngroups = Array.length codes in
  let fail what = Error (Printf.sprintf "column %d index: %s" j what) in
  let rec monotone g = g > ngroups || (starts.(g - 1) <= starts.(g) && monotone (g + 1)) in
  if Array.length starts <> ngroups + 1 then fail "group offsets do not match the group count"
  else if starts.(0) <> 0 || starts.(ngroups) <> nrows || not (monotone 1) then
    fail "group offsets are not a partition of the rows"
  else if Array.length rows <> nrows then fail "row list length mismatch"
  else if Array.exists (fun r -> r < 0 || r >= nrows) rows then fail "row id out of range"
  else Ok ()

let import p =
  let nrows = p.p_nrows in
  let rec check_indexes j =
    if j >= p.p_arity then Ok ()
    else
      Result.bind
        (check_index ~nrows j p.p_codes.(j) p.p_starts.(j) p.p_rows.(j))
        (fun () -> check_indexes (j + 1))
  in
  if Array.exists (fun col -> Array.length col <> nrows) p.p_cols then
    Error "column length mismatch"
  else
    Result.map
      (fun () ->
        let index_of j =
          { groups = Codes p.p_codes.(j); starts = p.p_starts.(j); rows = p.p_rows.(j) }
        in
        { arity = p.p_arity; nrows; cols = p.p_cols; indexes = Array.init p.p_arity index_of })
      (check_indexes 0)

let iter_rows f t =
  for i = 0 to t.nrows - 1 do
    f (decode_row t i)
  done
