(* A code's row ids in a tail, ascending: a growable int array. *)
type ids = {
  mutable ids : int array;
  mutable n : int;
}

(* Rows coded at insert: a growable code column per attribute, the set of
   its row ids and, per column, a code -> row-ids index built on its first
   probe (published through an [Atomic], as in [Columnar]); inserts, by
   the owner of an unshared relation only, extend both. *)
type tail = {
  tcols : int array array;
  mutable len : int;
  tindex : ids Columnar.Itbl.t option Atomic.t array;
  trows : Columnar.rowset;
}

type t = {
  arity : int;
  mutable block : Columnar.t; (* the rows up to the last seal *)
  mutable tails : tail list;
  (* The rows since, newest tail first: the head takes inserts, the rest
     are shared with the relations copied, and never grow. *)
  mutable shared : bool; (* for good: see [share] in the interface *)
}

let new_tail arity =
  {
    tcols = Array.make arity [||];
    len = 0;
    tindex = Array.init arity (fun _ -> Atomic.make None);
    trows = Columnar.rowset_create ();
  }

let create ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  { arity; block = Columnar.empty ~arity; tails = [ new_tail arity ]; shared = false }

(* Written once: copies racing on other domains then only read the flag. *)
let share r = if not r.shared then r.shared <- true
let shared r = r.shared

let owned r what =
  if r.shared then invalid_arg (Printf.sprintf "Relation.%s: shared relation" what)

let arity r = r.arity
let pending r = List.fold_left (fun n t -> n + t.len) 0 r.tails
let cardinality r = Columnar.nrows r.block + pending r

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

(* Append a row known to be absent from the tail. *)
let tail_append tail (codes : int array) =
  let row = tail.len in
  for j = 0 to Array.length codes - 1 do
    let col = Columnar.room tail.tcols.(j) row in
    tail.tcols.(j) <- col;
    col.(row) <- codes.(j);
    match Atomic.get tail.tindex.(j) with None -> () | Some idx -> tail_index_add idx codes.(j) row
  done;
  Columnar.rowset_add tail.trows tail.tcols row;
  tail.len <- row + 1

let rec tails_mem codes = function
  | [] -> false
  | t :: rest -> Columnar.rowset_mem t.trows t.tcols codes || tails_mem codes rest

let mem_codes r codes = Columnar.mem r.block codes || tails_mem codes r.tails

let insert_codes r codes =
  if Array.length codes <> r.arity then invalid_arg "Relation.insert: arity mismatch";
  owned r "insert";
  (not (mem_codes r codes)) && (tail_append (List.hd r.tails) codes; true)

(* Coding raises on a value with no code, before anything is written. *)
let insert r t = insert_codes r (Array.map Value.code t)

(* A value with no code is in no row. *)
let code_opt v = match Value.code v with c -> Some c | exception Invalid_argument _ -> None

let mem r t =
  Array.length t = r.arity
  && match Array.map Value.code t with
     | codes -> mem_codes r codes
     | exception Invalid_argument _ -> false

type segment = {
  cols : int array array;
  nrows : int;
  probe : col:int -> int -> int array * int * int;
}

(* A tail as it is now: its ids are ascending, so the rows inserted
   later, which a probe also finds, are a suffix to cut. *)
let tail_index tail col =
  let idx = Columnar.Itbl.create (max 16 tail.len) in
  for row = 0 to tail.len - 1 do
    tail_index_add idx tail.tcols.(col).(row) row
  done;
  idx

let tail_segment tail =
  let len = tail.len in
  let probe ~col code =
    match Columnar.Itbl.find_opt (Columnar.published tail.tindex.(col) tail_index tail col) code with
    | None -> ([||], 0, 0)
    | Some g ->
      let n = ref g.n in
      while !n > 0 && g.ids.(!n - 1) >= len do
        decr n
      done;
      (g.ids, 0, !n)
  in
  { cols = Array.copy tail.tcols; nrows = len; probe }

let block_segment b =
  { cols = Array.init (Columnar.arity b) (Columnar.col b); nrows = Columnar.nrows b; probe = Columnar.probe b }

let segments r = block_segment r.block :: List.rev_map tail_segment r.tails

let iter_codes f r =
  let buf = Array.make r.arity 0 in
  List.iter
    (fun s ->
      for i = 0 to s.nrows - 1 do
        Array.iteri (fun j col -> buf.(j) <- col.(i)) s.cols;
        f buf
      done)
    (segments r)

let iter f r = iter_codes (fun codes -> f (Array.map Value.decode codes)) r

let to_list r =
  let acc = ref [] in
  iter (fun t -> acc := t :: !acc) r;
  List.rev !acc

let lookup r ~pos v =
  if pos < 0 || pos >= r.arity then invalid_arg "Relation.lookup: position out of range";
  match code_opt v with
  | None -> []
  | Some code ->
    List.concat_map
      (fun s ->
        let ids, start, n = s.probe ~col:pos code in
        List.init n (fun k -> Array.map (fun col -> Value.decode col.(ids.(start + k))) s.cols))
      (segments r)

let seal r =
  let len = pending r in
  if len > 0 then begin
    owned r "seal";
    let tails = List.tl (segments r) in
    let col j =
      let c = Array.make len 0 in
      ignore (List.fold_left (fun off s -> Array.blit s.cols.(j) 0 c off s.nrows; off + s.nrows) 0 tails);
      c
    in
    r.block <- Columnar.extend r.block (Array.init r.arity col) ~len;
    r.tails <- [ new_tail r.arity ]
  end

(* The block and the original's tails, which no longer grow, are shared
   with their sets and built indexes; past eight tails (a probe visits
   each), those are merged into one new tail. *)
let copy r =
  share r;
  let tails = List.filter (fun t -> t.len > 0) r.tails in
  let tails =
    if List.length tails <= 8 then tails
    else
      let merged = new_tail r.arity in
      iter_codes (tail_append merged) { r with block = Columnar.empty ~arity:r.arity; tails };
      [ merged ]
  in
  { r with tails = new_tail r.arity :: tails; shared = false }

let block r = r.block

(* The block is adopted outright: nothing is re-coded, and its row set and
   indexes are built by the first probe that needs each. *)
let of_columnar block = { (create ~arity:(Columnar.arity block)) with block }

(* ------------------------------------------------------------------ *)
(* Value substitution (EGD merges)                                     *)

let mentions r v =
  match code_opt v with
  | None -> false
  | Some code ->
    let holds s col =
      let _, _, n = s.probe ~col code in
      n > 0
    in
    List.exists (fun s -> List.exists (holds s) (List.init r.arity Fun.id)) (segments r)

(* Rewriting sealed rows is no append: every row is re-coded into a new
   tail behind an empty block, the untouched rows first, then the
   rewritten ones that collide with no row. *)
let substitute r ~from_ ~to_ =
  if not (mentions r from_) then []
  else begin
    owned r "substitute";
    let f = Value.code from_ and t = Value.code to_ in
    let tail = new_tail r.arity and rewritten = ref [] in
    iter_codes
      (fun codes ->
        if Array.mem f codes then rewritten := Array.map (fun c -> if c = f then t else c) codes :: !rewritten
        else tail_append tail codes)
      r;
    let fresh =
      List.filter
        (fun codes -> (not (Columnar.rowset_mem tail.trows tail.tcols codes)) && (tail_append tail codes; true))
        (List.rev !rewritten)
    in
    r.block <- Columnar.empty ~arity:r.arity;
    r.tails <- [ tail ];
    fresh
  end
