module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* A code's row ids in a tail, ascending: a growable int array. *)
type ids = {
  mutable ids : int array;
  mutable n : int;
}

(* Rows coded at insert: a growable code column per attribute and, per
   column, a code -> row-ids index built on its first probe and extended
   by later inserts. Only the owner of an unshared relation appends, so
   the lazy index is published through an [Atomic] for readers on other
   domains (racing builders publish identical ones, as in [Columnar]). *)
type tail = {
  tcols : int array array;
  mutable len : int;
  tindex : ids Columnar.Itbl.t option Atomic.t array;
}

type t = {
  arity : int;
  mutable rows : unit Tuple.Table.t;
  (* Replaced only while [unboxed] is still [Some _], by a fully built
     table (see [ensure_rows]); mutated in place only by the owner of an
     unshared relation. *)
  indexes : Tuple.t list Vtbl.t option array; (* one optional index per column *)
  mutable block : Columnar.t; (* the rows up to the last seal *)
  mutable tails : tail list;
  (* The rows since, newest tail first: the head takes inserts, the rest
     are shared with the relations copied, and never grow. *)
  unboxed : Columnar.t option Atomic.t;
  (* [Some block]: the relation was adopted from a snapshot block and the
     row hashtable has not been materialized yet ([rows] and the tail are
     empty). Pure columnar readers never pay for the boxing; the first
     boxed-side consumer triggers it via [ensure_rows]. Atomic because a
     shared relation is read from several domains: it is cleared only
     after the built table is published in [rows]. *)
  mutable shared : bool;
  (* Reachable from more than one instance ({!Instance.copy}): no instance
     may mutate it any more, only copy it ({!copy}) and mutate the copy.
     Never reset — the other holders keep their reference. *)
}

let new_tail arity =
  { tcols = Array.make arity [||]; len = 0; tindex = Array.init arity (fun _ -> Atomic.make None) }

let create ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  {
    arity;
    rows = Tuple.Table.create 64;
    indexes = Array.make (max arity 1) None;
    block = Columnar.empty ~arity;
    tails = [ new_tail arity ];
    unboxed = Atomic.make None;
    shared = false;
  }

(* Written once: copies racing on other domains then only read the flag. *)
let share r = if not r.shared then r.shared <- true

(* The block with the given tails folded in: nothing is re-coded, and only
   the indexes some probe already built are grown. *)
let fold block tails =
  let len = List.fold_left (fun n t -> n + t.len) 0 tails in
  let col j =
    let c = Array.make len 0 in
    ignore (List.fold_left (fun off t -> Array.blit t.tcols.(j) 0 c off t.len; off + t.len) 0 tails);
    c
  in
  Columnar.extend block (Array.init (Columnar.arity block) col) ~len

(* A private duplicate of a relation, which is frozen for good: the row
   table and the built index tables are structurally copied, while the
   block and the original's tails, which no longer grow, are shared with
   their built indexes; past eight (a probe visits each), they are folded
   into a new block. A deferred row set stays deferred in the copy. *)
let copy r =
  share r;
  let unboxed = Atomic.get r.unboxed in
  let tails = List.filter (fun t -> t.len > 0) r.tails in
  let fold_now = List.length tails > 8 in
  {
    arity = r.arity;
    rows = (match unboxed with Some _ -> Tuple.Table.create 64 | None -> Tuple.Table.copy r.rows);
    indexes = Array.map (Option.map Vtbl.copy) r.indexes;
    block = (if fold_now then fold r.block (List.rev tails) else r.block);
    tails = new_tail r.arity :: (if fold_now then [] else tails);
    unboxed = Atomic.make unboxed;
    shared = false;
  }

let shared r = r.shared

let owned r what =
  if r.shared then invalid_arg (Printf.sprintf "Relation.%s: shared relation" what)

let arity r = r.arity

(* Materialize the deferred row hashtable of a snapshot-adopted relation:
   decode each block row once into a private table, then publish it —
   [rows] first, then [unboxed] — so a reader on another domain sees
   either the deferred state or the whole table, never a half-filled one.
   Two domains racing here both build identical tables and the last write
   wins: benign duplicate work, as in [Columnar]'s first-probe indexes.
   Idempotent; a no-op everywhere else. *)
let ensure_rows r =
  match Atomic.get r.unboxed with
  | None -> ()
  | Some block ->
    let rows = Tuple.Table.create (max 64 (Columnar.nrows block)) in
    Columnar.iter_rows (fun t -> Tuple.Table.replace rows t ()) block;
    r.rows <- rows;
    Atomic.set r.unboxed None

let pending r = List.fold_left (fun n t -> n + t.len) 0 r.tails
let cardinality r = Columnar.nrows r.block + pending r

let mem r t =
  ensure_rows r;
  Tuple.Table.mem r.rows t

let index_insert idx t pos =
  let key = t.(pos) in
  let existing = Option.value ~default:[] (Vtbl.find_opt idx key) in
  Vtbl.replace idx key (t :: existing)

let tail_index_add idx code row =
  let g =
    match Columnar.Itbl.find_opt idx code with
    | Some g -> g
    | None ->
      let g = { ids = [| row |]; n = 0 } in
      Columnar.Itbl.add idx code g;
      g
  in
  g.ids <- Columnar.room g.ids g.n;
  g.ids.(g.n) <- row;
  g.n <- g.n + 1

(* Code a row into the slot past the tail's rows: no row changes, so an
   uncodable value raises before anything is written. *)
let tail_code tail t =
  for j = 0 to Array.length t - 1 do
    let col = Columnar.room tail.tcols.(j) tail.len in
    tail.tcols.(j) <- col;
    col.(tail.len) <- Value.code t.(j)
  done

let tail_commit tail =
  let row = tail.len in
  for j = 0 to Array.length tail.tcols - 1 do
    match Atomic.get tail.tindex.(j) with None -> () | Some idx -> tail_index_add idx tail.tcols.(j).(row) row
  done;
  tail.len <- row + 1

let insert r t =
  if Array.length t <> r.arity then invalid_arg "Relation.insert: arity mismatch";
  owned r "insert";
  ensure_rows r;
  if Tuple.Table.mem r.rows t then false
  else begin
    let tail = List.hd r.tails in
    tail_code tail t;
    Tuple.Table.add r.rows t ();
    for pos = 0 to r.arity - 1 do
      match r.indexes.(pos) with None -> () | Some idx -> index_insert idx t pos
    done;
    tail_commit tail;
    true
  end

let iter f r =
  ensure_rows r;
  Tuple.Table.iter (fun t () -> f t) r.rows

let to_list r =
  ensure_rows r;
  Tuple.Table.fold (fun t () acc -> t :: acc) r.rows []

(* Built privately, then published with one field write. A shared
   relation may be probed from several domains at once: racing builders
   each publish a complete, identical table and the last write wins — the
   same benign race as [Columnar]'s first-probe indexes. *)
let build_index r pos =
  let idx = Vtbl.create (max 64 (cardinality r)) in
  iter (fun t -> index_insert idx t pos) r;
  r.indexes.(pos) <- Some idx;
  idx

let lookup r ~pos v =
  if pos < 0 || pos >= r.arity then invalid_arg "Relation.lookup: position out of range";
  let idx = match r.indexes.(pos) with Some idx -> idx | None -> build_index r pos in
  Option.value ~default:[] (Vtbl.find_opt idx v)

let seal r =
  if pending r > 0 then begin
    owned r "seal";
    r.block <- fold r.block (List.rev r.tails);
    r.tails <- [ new_tail r.arity ]
  end

let block r = r.block
let tails r = List.rev r.tails
let tail_len tail = tail.len
let tail_col tail j = tail.tcols.(j)

let tail_probe tail ~col code =
  let idx =
    match Atomic.get tail.tindex.(col) with
    | Some idx -> idx
    | None ->
      let idx = Columnar.Itbl.create (max 16 tail.len) in
      let c = tail.tcols.(col) in
      for row = 0 to tail.len - 1 do
        tail_index_add idx c.(row) row
      done;
      Atomic.set tail.tindex.(col) (Some idx);
      idx
  in
  match Columnar.Itbl.find_opt idx code with None -> ([||], 0) | Some g -> (g.ids, g.n)

let of_columnar block =
  let r = create ~arity:(Columnar.arity block) in
  (* Adopt the block outright: no value re-coding, and even the row
     hashtable stays deferred ([ensure_rows]) until a boxed
     consumer — membership, insert, iteration — actually needs it. *)
  r.block <- block;
  Atomic.set r.unboxed (Some block);
  r

(* ------------------------------------------------------------------ *)
(* Value substitution (EGD merges)                                     *)

let index_remove idx t pos =
  let key = t.(pos) in
  match Vtbl.find_opt idx key with
  | None -> ()
  | Some l -> (
    match List.filter (fun u -> not (Tuple.equal u t)) l with
    | [] -> Vtbl.remove idx key
    | l' -> Vtbl.replace idx key l')

let mentions r v =
  let rec at pos = pos < r.arity && (lookup r ~pos v <> [] || at (pos + 1)) in
  at 0

let substitute r ~from_ ~to_ =
  let affected = Tuple.Table.create 8 in
  for pos = 0 to r.arity - 1 do
    List.iter (fun t -> Tuple.Table.replace affected t ()) (lookup r ~pos from_)
  done;
  if Tuple.Table.length affected = 0 then []
  else begin
    owned r "substitute";
    (* Remove every affected row first, then insert the rewritten rows:
       a replacement may collide with another affected original. *)
    Tuple.Table.iter
      (fun old () ->
        Tuple.Table.remove r.rows old;
        Array.iteri
          (fun pos idx ->
            match idx with None -> () | Some idx -> index_remove idx old pos)
          r.indexes)
      affected;
    let fresh = ref [] in
    Tuple.Table.iter
      (fun old () ->
        let nw = Array.map (fun v -> if Value.equal v from_ then to_ else v) old in
        if not (Tuple.Table.mem r.rows nw) then begin
          Tuple.Table.add r.rows nw ();
          Array.iteri
            (fun pos idx ->
              match idx with None -> () | Some idx -> index_insert idx nw pos)
            r.indexes;
          fresh := nw :: !fresh
        end)
      affected;
    (* Rewriting sealed rows is no append: re-code every row. *)
    r.block <- Columnar.empty ~arity:r.arity;
    let tail = new_tail r.arity in
    r.tails <- [ tail ];
    iter (fun t -> tail_code tail t; tail_commit tail) r;
    !fresh
  end
