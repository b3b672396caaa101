type t = int

(* Interning is global to the process and, since the serving layer parses and
   rewrites on worker domains concurrently, must be thread-safe. The lookup
   path is lock-free: spellings live in an open-addressing table whose slots
   are individual [Atomic.t] cells, and the table itself is published through
   an [Atomic.t], so a warm intern (the overwhelmingly common case on the
   serving path — every request re-interns the same predicate and variable
   spellings) never touches the mutex. Only a genuine miss takes the lock,
   re-probes the current table, and inserts; resize republishes a fresh
   table. A reader that raced against a resize sees the old table — which
   still answers every symbol interned before the resize correctly — and a
   stale miss simply falls through to the locked path, which probes the
   current table again.

   [name] reads stay lock-free too: entries are written into [names] before
   the slot is published with a release [Atomic.set], and a symbol value
   reaches another domain either through that slot (acquire read orders the
   array write before it) or through a synchronizing handoff (queue,
   channel), which orders the publication the same way. *)

type slot =
  | Empty
  | Used of string * int

type table = {
  mask : int;  (* capacity - 1; capacity is a power of two *)
  slots : slot Atomic.t array;
}

let make_table capacity = { mask = capacity - 1; slots = Array.init capacity (fun _ -> Atomic.make Empty) }

let lock = Mutex.create ()
let current : table Atomic.t = Atomic.make (make_table 2048)
let names = ref (Array.make 1024 "")
let count = ref 0

(* FNV-1a over the spelling: cheap, and good enough spread for linear
   probing at <= 50% load. *)
let hash_string s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int) s;
  !h

(* Probe [tbl] for [s]: [Some i] on a hit, [None] on a miss. Lock-free. *)
let probe tbl s =
  let h = hash_string s in
  let rec go i =
    match Atomic.get tbl.slots.(i land tbl.mask) with
    | Empty -> None
    | Used (k, v) -> if String.equal k s then Some v else go (i + 1)
  in
  go h

(* Insert under the lock: the caller holds [lock] and has re-probed. *)
let insert_slot tbl s v =
  let h = hash_string s in
  let rec go i =
    let cell = tbl.slots.(i land tbl.mask) in
    match Atomic.get cell with
    | Empty -> Atomic.set cell (Used (s, v))
    | Used _ -> go (i + 1)
  in
  go h

let intern_unlocked s =
  let tbl = Atomic.get current in
  match probe tbl s with
  | Some i -> i
  | None ->
    let i = !count in
    if i = Array.length !names then begin
      let bigger = Array.make (2 * i) "" in
      Array.blit !names 0 bigger 0 i;
      names := bigger
    end;
    !names.(i) <- s;
    incr count;
    (* Keep load factor <= 1/2 so probe chains stay short. *)
    let tbl =
      if 2 * (i + 1) > tbl.mask + 1 then begin
        let bigger = make_table (2 * (tbl.mask + 1)) in
        Array.iter
          (fun cell ->
            match Atomic.get cell with
            | Empty -> ()
            | Used (k, v) -> insert_slot bigger k v)
          tbl.slots;
        Atomic.set current bigger;
        bigger
      end
      else tbl
    in
    insert_slot tbl s i;
    i

let intern s =
  match probe (Atomic.get current) s with
  | Some i -> i
  | None ->
    Mutex.lock lock;
    let i = intern_unlocked s in
    Mutex.unlock lock;
    i

let name i = !names.(i)

let count () = !count

let of_int i =
  if i < 0 || i >= count () then
    invalid_arg (Printf.sprintf "Symbol.of_int: %d is not an interned symbol" i);
  i

let fresh_counter = ref 0

let fresh base =
  Mutex.lock lock;
  let rec go () =
    incr fresh_counter;
    let s = Printf.sprintf "%s#%d" base !fresh_counter in
    if probe (Atomic.get current) s <> None then go () else intern_unlocked s
  in
  let i = go () in
  Mutex.unlock lock;
  i

(* A family's spellings are interned on first use and cached in an array
   published through an [Atomic.t]: a lookup is an array read, and a
   domain that needs a longer array builds one from the current and
   installs it by compare-and-set, so a racing domain never loses an entry
   (the symbols are the same either way: interning is idempotent). *)
let numbered prefix =
  let cache = Atomic.make [||] in
  let rec get i =
    let a = Atomic.get cache in
    if i < Array.length a then a.(i)
    else begin
      let n = max 64 (2 * (i + 1)) in
      let b =
        Array.init n (fun j ->
            if j < Array.length a then a.(j) else intern (Printf.sprintf "%s%d" prefix j))
      in
      ignore (Atomic.compare_and_set cache a b);
      get i
    end
  in
  get

let equal = Int.equal
let compare = Int.compare
let hash i = i
let pp ppf i = Format.pp_print_string ppf (name i)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
