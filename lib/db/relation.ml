module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = {
  arity : int;
  mutable rows : unit Tuple.Table.t;
  (* Replaced only while [unboxed] is still [Some _], by a fully built
     table (see [ensure_rows]); mutated in place only by the owner of an
     unshared relation. *)
  indexes : Tuple.t list Vtbl.t option array; (* one optional index per column *)
  mutable columnar : Columnar.t option;
  (* The last sealed block. [Some _] with an empty [pending] means the block
     mirrors [rows] exactly; with a non-empty [pending] the block covers a
     prefix and the next seal extends it ({!Columnar.extend}) instead of
     re-encoding everything. *)
  mutable pending : Tuple.t list;
  (* Tuples inserted since the block was built, newest first. Only grows
     while [columnar] is [Some _]. *)
  unboxed : Columnar.t option Atomic.t;
  (* [Some block]: the relation was adopted from a snapshot block and the
     row hashtable has not been materialized yet ([rows] is empty, [pending]
     too, [columnar = Some block]). Pure columnar readers never pay for the
     boxing; the first boxed-side consumer triggers it via [ensure_rows].
     Atomic because a shared relation is read from several domains: it is
     cleared only after the built table is published in [rows]. *)
  mutable shared : bool;
  (* Reachable from more than one instance ({!Instance.copy}): no instance
     may mutate it any more, only copy it ({!copy}) and mutate the copy.
     Never reset — the other holders keep their reference. *)
}

let create ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  {
    arity;
    rows = Tuple.Table.create 64;
    indexes = Array.make (max arity 1) None;
    columnar = None;
    pending = [];
    unboxed = Atomic.make None;
    shared = false;
  }

(* A private duplicate of a possibly shared relation: the hashtable and the
   built index tables are duplicated (cheap structural copies — keys and
   the tuples themselves are shared and never mutated), while the frozen
   snapshots (columnar block, pending tail) are shared outright. A row set
   still deferred in a snapshot block stays deferred in the copy. *)
let copy r =
  let unboxed = Atomic.get r.unboxed in
  {
    arity = r.arity;
    rows = (match unboxed with Some _ -> Tuple.Table.create 64 | None -> Tuple.Table.copy r.rows);
    indexes = Array.map (Option.map Vtbl.copy) r.indexes;
    columnar = r.columnar;
    pending = r.pending;
    unboxed = Atomic.make unboxed;
    shared = false;
  }

(* Written once: copies racing on other domains then only read the flag. *)
let share r = if not r.shared then r.shared <- true
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

let cardinality r =
  match Atomic.get r.unboxed with
  | Some block -> Columnar.nrows block
  | None -> Tuple.Table.length r.rows

let mem r t =
  ensure_rows r;
  Tuple.Table.mem r.rows t

let index_insert idx t pos =
  let key = t.(pos) in
  let existing = Option.value ~default:[] (Vtbl.find_opt idx key) in
  Vtbl.replace idx key (t :: existing)

let insert r t =
  if Array.length t <> r.arity then invalid_arg "Relation.insert: arity mismatch";
  owned r "insert";
  ensure_rows r;
  if Tuple.Table.mem r.rows t then false
  else begin
    Tuple.Table.add r.rows t ();
    Array.iteri
      (fun pos idx -> match idx with None -> () | Some idx -> index_insert idx t pos)
      r.indexes;
    (* The columnar block is kept alongside a pending tail so the next
       seal can extend it in place of a full re-encode. *)
    if Option.is_some r.columnar then r.pending <- t :: r.pending;
    true
  end

let iter f r =
  ensure_rows r;
  Tuple.Table.iter (fun t () -> f t) r.rows

let fold f r init =
  ensure_rows r;
  Tuple.Table.fold (fun t () acc -> f t acc) r.rows init
let to_list r = fold (fun t acc -> t :: acc) r []

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
  (* With a block covering every row, scans and joins run columnar and the
     boxed per-column indexes stay lazy (built on the first boxed lookup)
     — this is what makes adopting a snapshot block a bulk load. *)
  match r.columnar with
  | Some block when r.pending <> [] ->
    owned r "seal";
    (* Sealed-instance append path: code only the tail, blit the rest. *)
    r.columnar <- Some (Columnar.extend block (Array.of_list (List.rev r.pending)));
    r.pending <- []
  | Some _ -> ()
  | None ->
    owned r "seal";
    let tuples = Array.make (cardinality r) [||] in
    let i = ref 0 in
    iter
      (fun t ->
        tuples.(!i) <- t;
        incr i)
      r;
    r.columnar <- Some (Columnar.build ~arity:r.arity tuples)

let columnar r =
  (* A block with a pending tail is stale: readers get [None] until the
     next seal extends it. *)
  match r.pending with [] -> r.columnar | _ :: _ -> None

(* The no-block rows come in [iter] order, the order a seal codes them. *)
let sealed_parts r =
  match r.columnar with
  | Some _ as block -> (block, List.rev r.pending)
  | None -> (None, List.rev (to_list r))

let of_columnar block =
  let r = create ~arity:(Columnar.arity block) in
  (* Adopt the block outright: no value re-coding, and even the row
     hashtable stays deferred ([ensure_rows]) until a boxed
     consumer — membership, insert, iteration — actually needs it. *)
  r.columnar <- Some block;
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
    (* Substitution rewrites sealed rows, so the extend path is invalid:
       drop every frozen snapshot. *)
    r.columnar <- None;
    r.pending <- [];
    !fresh
  end
