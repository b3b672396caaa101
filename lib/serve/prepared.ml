type entry = {
  ontology : string;
  epoch : int;
  canon : Canon.t;
  artifact : Tgd_obda.Target.artifact;
  prepare_s : float;
}

(* Intrusive doubly-linked recency list: [head] is most recent, [tail] the
   eviction candidate. Sentinel-free; empty list is two [None]s. *)
type node = {
  key : string;
  entry : entry;
  mutable prev : node option;  (* towards head / more recent *)
  mutable next : node option;  (* towards tail / less recent *)
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  cap : int;
  telemetry : Tgd_exec.Telemetry.t;
}

let key_hits = "serve.cache.hits"
let key_misses = "serve.cache.misses"
let key_evictions = "serve.cache.evictions"

let create ?(capacity = 1024) ~telemetry () =
  if capacity <= 0 then invalid_arg "Prepared.create: capacity must be positive";
  { lock = Mutex.create (); table = Hashtbl.create 64; head = None; tail = None;
    cap = capacity; telemetry }

let cache_key ~ontology ~epoch ~canon_key =
  ontology ^ "\x00" ^ string_of_int epoch ^ "\x00" ^ canon_key

let unlink t node =
  (match node.prev with Some p -> p.next <- node.next | None -> t.head <- node.next);
  (match node.next with Some n -> n.prev <- node.prev | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t ~ontology ~epoch ~canon =
  let key = cache_key ~ontology ~epoch ~canon_key:canon.Canon.key in
  let hit =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table key with
        | None -> None
        | Some node ->
          unlink t node;
          push_front t node;
          Some node.entry)
  in
  ignore
    (Tgd_exec.Telemetry.add t.telemetry (match hit with Some _ -> key_hits | None -> key_misses) 1);
  hit

let add t entry =
  let key =
    cache_key ~ontology:entry.ontology ~epoch:entry.epoch ~canon_key:entry.canon.Canon.key
  in
  let evicted =
    Mutex.protect t.lock (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some old ->
          unlink t old;
          Hashtbl.remove t.table key
        | None -> ());
        let node = { key; entry; prev = None; next = None } in
        Hashtbl.add t.table key node;
        push_front t node;
        let evicted = ref 0 in
        while Hashtbl.length t.table > t.cap do
          match t.tail with
          | None -> assert false
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            incr evicted
        done;
        !evicted)
  in
  if evicted > 0 then ignore (Tgd_exec.Telemetry.add t.telemetry key_evictions evicted)

let purge t ~ontology ~keep_epoch =
  Mutex.protect t.lock (fun () ->
      let stale =
        Hashtbl.fold
          (fun _ node acc ->
            if node.entry.ontology = ontology && node.entry.epoch < keep_epoch then node :: acc
            else acc)
          t.table []
      in
      List.iter
        (fun node ->
          unlink t node;
          Hashtbl.remove t.table node.key)
        stale;
      List.length stale)

let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
let capacity t = t.cap
