(* Columnar sealed storage: one flat int column per attribute. The CSR
   index per column (code -> contiguous row-id range) and the row set are
   access paths, built on first use and never stored: a block that is
   only scanned or imaged never pays for them. *)

module Itbl = Hashtbl.Make (Int)

type index = {
  groups : int Itbl.t; (* value code -> group id *)
  starts : int array; (* group id -> offset into [rows]; length ngroups+1 *)
  rows : int array; (* row ids, grouped by the column's value code, ascending *)
}

(* An open-addressing set of row ids, hashed and compared by the rows'
   codes: a slot holds [id + 1], or [0] when empty, and at most half the
   slots are full (linear probing). *)
type rowset = {
  mutable slots : int array;
  mutable count : int;
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
  rows : rowset option Atomic.t; (* built on the first [mem], published likewise *)
}

let arity t = t.arity
let nrows t = t.nrows

let make ~arity ~nrows cols =
  { arity; nrows; cols; indexes = Array.init arity (fun _ -> Atomic.make None); rows = Atomic.make None }

let empty ~arity = make ~arity ~nrows:0 (Array.make arity [||])

let of_columns ~arity ~nrows cols =
  if Array.length cols <> arity then Error "column count does not match arity"
  else if Array.exists (fun col -> Array.length col <> nrows) cols then
    Error "column length mismatch"
  else Ok (make ~arity ~nrows cols)

let room a n =
  if n < Array.length a then a
  else
    let b = Array.make (max 4 (2 * n)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

(* ------------------------------------------------------------------ *)
(* Row sets                                                            *)

(* Every code goes through a multiply and the high bits are folded down,
   so the masked slot depends on the whole row: no column's skew clusters
   the probes. Top-level recursions, so a probe allocates no closure. *)
let mix h c = (h lxor c) * 0x2545F4914F6CDD1D
let finish h = h lxor (h lsr 29)

let rec hash_row (cols : int array array) r j h =
  if j = Array.length cols then finish h
  else hash_row cols r (j + 1) (mix h (Array.unsafe_get (Array.unsafe_get cols j) r))

let rec hash_from (codes : int array) j h =
  if j = Array.length codes then finish h else hash_from codes (j + 1) (mix h (Array.unsafe_get codes j))

let hash_codes codes = hash_from codes 0 0 land max_int

let rec row_is (cols : int array array) r (codes : int array) j =
  j = Array.length cols
  || (Array.unsafe_get (Array.unsafe_get cols j) r = Array.unsafe_get codes j && row_is cols r codes (j + 1))

let rowset_create () = { slots = [||]; count = 0 }

let rec find_slot slots mask cols codes i =
  let s = Array.unsafe_get slots i in
  s <> 0 && (row_is cols (s - 1) codes 0 || find_slot slots mask cols codes ((i + 1) land mask))

let rowset_mem set cols codes =
  let n = Array.length set.slots in
  n > 0 && find_slot set.slots (n - 1) cols codes (hash_from codes 0 0 land (n - 1))

let rec place slots mask id i =
  if Array.unsafe_get slots i = 0 then Array.unsafe_set slots i (id + 1)
  else place slots mask id ((i + 1) land mask)

let place_row slots cols id =
  let mask = Array.length slots - 1 in
  place slots mask id (hash_row cols id 0 0 land mask)

let rowset_add set cols id =
  if 2 * (set.count + 1) > Array.length set.slots then begin
    let old = set.slots in
    set.slots <- Array.make (max 8 (2 * Array.length old)) 0;
    Array.iter (fun s -> if s <> 0 then place_row set.slots cols (s - 1)) old
  end;
  place_row set.slots cols id;
  set.count <- set.count + 1

let published slot build a b =
  match Atomic.get slot with
  | Some x -> x
  | None ->
    let x = build a b in
    Atomic.set slot (Some x);
    x

let rowset_of cols nrows =
  let set = rowset_create () in
  for id = 0 to nrows - 1 do
    rowset_add set cols id
  done;
  set

let mem t codes = t.nrows > 0 && rowset_mem (published t.rows rowset_of t.cols t.nrows) t.cols codes

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
    (* So is a built row set: the old slots are copied, the new rows added. *)
    let grow set =
      let set = { set with slots = Array.copy set.slots } in
      for id = old_n to nrows - 1 do
        rowset_add set cols id
      done;
      set
    in
    { arity = t.arity; nrows; cols; indexes; rows = Atomic.make (Option.map grow (Atomic.get t.rows)) }
  end

(* The index of a whole column: the extension of an empty index. *)
let build_index t j =
  let col = t.cols.(j) in
  let groups = Itbl.create (max 16 (Array.length col / 4)) in
  extend_index { groups; starts = [| 0 |]; rows = [||] } col ~old_n:0

let col t j = t.cols.(j)
let indexed t ~col = Option.is_some (Atomic.get t.indexes.(col))

let probe t ~col code =
  let idx = published t.indexes.(col) build_index t col in
  match Itbl.find_opt idx.groups code with
  | None -> (idx.rows, 0, 0)
  | Some g -> (idx.rows, idx.starts.(g), idx.starts.(g + 1) - idx.starts.(g))
