(* Columnar sealed storage: one flat int column per attribute plus a CSR
   index (code -> contiguous row-id range) per column. Morsel workers scan
   contiguous [int array]s instead of chasing boxed tuples through a
   hashtable, which is what makes parallel evaluation memory-bandwidth-bound
   instead of minor-heap/cache-miss-bound.

   A block is its columns: an index is an access path, built on the first
   probe of its column and never stored. A block that is only scanned or
   imaged (a chase model, a recovered relation nobody queries) never pays
   for one. *)

module Itbl = Hashtbl.Make (Int)

type index = {
  groups : int Itbl.t; (* value code -> group id *)
  starts : int array; (* group id -> offset into [rows]; length ngroups+1 *)
  rows : int array; (* row ids, grouped by the column's value code, ascending *)
}

type t = {
  arity : int;
  nrows : int;
  cols : int array array; (* arity columns of nrows codes each *)
  indexes : index option Atomic.t array;
  (* One slot per column, [None] until the column's first probe. Morsel
     workers probe concurrently: racing domains each build an identical
     index privately and the last publish wins — benign duplicate work
     instead of [Lazy.Undefined]. The atomic publish orders the build's
     writes before any reader that sees the index. *)
}

let arity t = t.arity
let nrows t = t.nrows
let unindexed arity = Array.init arity (fun _ -> Atomic.make None)

let empty ~arity = { arity; nrows = 0; cols = Array.make arity [||]; indexes = unindexed arity }

let of_columns ~arity ~nrows cols =
  if Array.length cols <> arity then Error "column count does not match arity"
  else if Array.exists (fun col -> Array.length col <> nrows) cols then
    Error "column length mismatch"
  else Ok { arity; nrows; cols; indexes = unindexed arity }

let room a n =
  if n < Array.length a then a
  else
    let b = Array.make (max 4 (2 * n)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

(* Extend a CSR index with rows [old_n ..] of the (already extended)
   column, without rehashing the sealed prefix: each group keeps its old
   segment (blitted) followed by the appended row ids. *)
let extend_index idx (col : int array) ~old_n =
  let n = Array.length col in
  let groups = Itbl.copy idx.groups in
  let old_ngroups = Array.length idx.starts - 1 in
  let counts = ref (Array.make (old_ngroups + 16) 0) in
  let ngroups = ref old_ngroups in
  for i = old_n to n - 1 do
    let c = Array.unsafe_get col i in
    let g =
      match Itbl.find_opt groups c with
      | Some g -> g
      | None ->
        let g = !ngroups in
        Itbl.add groups c g;
        incr ngroups;
        g
    in
    counts := room !counts g;
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
    let g = Itbl.find groups (Array.unsafe_get col i) in
    rows.(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  { groups; starts; rows }

let extend t (tail : int array array) ~len =
  if len = 0 then t
  else begin
    let old_n = t.nrows in
    let nrows = old_n + len in
    let cols =
      Array.init t.arity (fun j ->
          let c = Array.make nrows 0 in
          Array.blit t.cols.(j) 0 c 0 old_n;
          Array.blit tail.(j) 0 c old_n len;
          c)
    in
    (* Only the indexes some probe already built are carried forward. *)
    let indexes =
      Array.init t.arity (fun j ->
          Atomic.make
            (Option.map (fun idx -> extend_index idx cols.(j) ~old_n) (Atomic.get t.indexes.(j))))
    in
    { arity = t.arity; nrows; cols; indexes }
  end

(* The index of a whole column: the extension of an empty index. *)
let build_index (col : int array) =
  let groups = Itbl.create (max 16 (Array.length col / 4)) in
  extend_index { groups; starts = [| 0 |]; rows = [||] } col ~old_n:0

let col t j = t.cols.(j)
let indexed t ~col = Option.is_some (Atomic.get t.indexes.(col))

let index_of t col =
  match Atomic.get t.indexes.(col) with
  | Some idx -> idx
  | None ->
    let idx = build_index t.cols.(col) in
    Atomic.set t.indexes.(col) (Some idx);
    idx

let probe t ~col code =
  let idx = index_of t col in
  match Itbl.find_opt idx.groups code with
  | None -> (idx.rows, 0, 0)
  | Some g -> (idx.rows, idx.starts.(g), idx.starts.(g + 1) - idx.starts.(g))

let decode_row t i = Array.init t.arity (fun j -> Value.decode t.cols.(j).(i))

let iter_rows f t =
  for i = 0 to t.nrows - 1 do
    f (decode_row t i)
  done
