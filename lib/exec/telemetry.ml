(* Counters and peak gauges live in [int Atomic.t] cells so that any number
   of domains can charge one record concurrently without losing updates; the
   mutex guards only the key->cell tables (lookup/insert) and the float-
   valued phase table. [add] takes a short critical section to fetch the
   cell, then updates it lock-free; hot loops fetch the cell once through
   [counter] (see [Governor.meter]) and skip the lock and the hash. *)

type t = {
  lock : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  peaks : (string, int Atomic.t) Hashtbl.t;
  phases : (string, float) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    peaks = Hashtbl.create 8;
    phases = Hashtbl.create 8;
  }

(* Find or create the atomic cell for a key. *)
let cell t tbl key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add tbl key c;
        c)

let counter t key = cell t t.counters key
let add t key n = Atomic.fetch_and_add (counter t key) n + n

let get t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.counters key with None -> 0 | Some c -> Atomic.get c)

let set_counter t key v = Atomic.set (cell t t.counters key) v

let gauge t key v =
  let c = cell t t.peaks key in
  let rec raise_to () =
    let cur = Atomic.get c in
    if cur < v && not (Atomic.compare_and_set c cur v) then raise_to ()
  in
  raise_to ()

let peak t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.peaks key with None -> 0 | Some c -> Atomic.get c)

let add_span t key s =
  Mutex.protect t.lock (fun () ->
      let v = s +. Option.value ~default:0.0 (Hashtbl.find_opt t.phases key) in
      Hashtbl.replace t.phases key v)

let sorted xs = List.sort compare xs

let counters t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k c acc -> (k, Atomic.get c) :: acc) t.counters [] |> sorted)

let peaks t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k c acc -> (k, Atomic.get c) :: acc) t.peaks [] |> sorted)

let phases t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.phases [] |> sorted)

let merge_into ~into t =
  (* Snapshot the source first so the two locks are never held together. *)
  let cs = counters t and ps = peaks t and hs = phases t in
  List.iter (fun (k, v) -> ignore (add into k v)) cs;
  List.iter (fun (k, v) -> gauge into k v) ps;
  List.iter (fun (k, v) -> add_span into k v) hs

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_object fields to_value =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ to_value v) fields) ^ "}"

let to_json_fields t =
  Printf.sprintf "\"counters\": %s, \"peaks\": %s, \"phases\": %s"
    (json_object (counters t) string_of_int)
    (json_object (peaks t) string_of_int)
    (json_object (phases t) (Printf.sprintf "%.6f"))
