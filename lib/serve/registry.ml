open Tgd_logic

type materialization = Tgd_store.Snapshot.materialization = {
  model : Tgd_db.Instance.t;
  floor : int;
  complete : bool;
}

type entry = {
  name : string;
  epoch : int;
  delta_epoch : int;
  program : Program.t;
  instance : Tgd_db.Instance.t;
  materialization : materialization option;
}

type mutation = {
  entry : entry;
  added : int;
  delta : Tgd_chase.Chase.stats option;
}

type t = {
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  (* Highest epoch ever used per name: survives re-registration so epochs
     stay monotone over the registry's lifetime. *)
  last_epoch : (string, int) Hashtbl.t;
  (* Highest delta epoch per name, monotone the same way. *)
  last_delta : (string, int) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    entries = Hashtbl.create 8;
    last_epoch = Hashtbl.create 8;
    last_delta = Hashtbl.create 8;
  }

let next_counter tbl name =
  let e = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl name) in
  Hashtbl.replace tbl name e;
  e

let install t name program instance =
  Tgd_db.Instance.seal instance;
  Mutex.protect t.lock (fun () ->
      let entry =
        {
          name;
          epoch = next_counter t.last_epoch name;
          delta_epoch = next_counter t.last_delta name;
          program;
          instance;
          materialization = None;
        }
      in
      Hashtbl.replace t.entries name entry;
      entry)

(* A data-only mutation: the full epoch — the prepared-cache key — stays
   put, because a rewriting depends only on the TGDs; only the delta epoch
   bumps. *)
let install_delta t (prev : entry) instance materialization =
  Tgd_db.Instance.seal instance;
  (match materialization with
  | Some m -> Tgd_db.Instance.seal m.model
  | None -> ());
  Mutex.protect t.lock (fun () ->
      let entry =
        { prev with delta_epoch = next_counter t.last_delta prev.name; instance; materialization }
      in
      Hashtbl.replace t.entries prev.name entry;
      entry)

let register t ~name ?facts program =
  let instance =
    match facts with
    | None -> Tgd_db.Instance.create ()
    | Some inst -> Tgd_db.Instance.copy inst
  in
  install t name program instance

let restore t ~name ~epoch ~delta_epoch ?materialization program instance =
  Tgd_db.Instance.seal instance;
  (match materialization with
  | Some m -> Tgd_db.Instance.seal m.model
  | None -> ());
  Mutex.protect t.lock (fun () ->
      (* Epoch counters resume at least where the snapshot left them, so a
         post-recovery register/mutation continues the pre-crash sequence
         instead of restarting it (cache keys must stay unresurrectable). *)
      let catch_up tbl v =
        if v > Option.value ~default:0 (Hashtbl.find_opt tbl name) then
          Hashtbl.replace tbl name v
      in
      catch_up t.last_epoch epoch;
      catch_up t.last_delta delta_epoch;
      let entry = { name; epoch; delta_epoch; program; instance; materialization } in
      Hashtbl.replace t.entries name entry;
      entry)

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.entries name)

let add_facts ?gov t ~name facts =
  match find t name with
  | None -> Error (Printf.sprintf "unknown ontology %S" name)
  | Some entry ->
    (* Copy-on-write: in-flight readers keep the old sealed instance, and
       the copy shares the frozen columnar blocks, so re-sealing after the
       append extends them instead of re-encoding. *)
    let merged = Tgd_db.Instance.copy entry.instance in
    let added =
      List.filter (fun (pred, tup) -> Tgd_db.Instance.add_fact merged pred tup) facts
    in
    let materialization, delta =
      match entry.materialization with
      | None -> (None, None)
      | Some m ->
        (* The chase materialization stays alive: apply the delta to a
           copy-on-write extension of the model instead of cold-starting. *)
        let model = Tgd_db.Instance.copy m.model in
        let stats =
          Tgd_chase.Chase.run ?gov ~null_floor:m.floor ~batch:added entry.program model
        in
        let complete =
          m.complete
          && stats.Tgd_chase.Chase.consistent
          && stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated
        in
        ( Some { model; floor = m.floor + stats.Tgd_chase.Chase.nulls; complete },
          Some stats )
    in
    Ok { entry = install_delta t entry merged materialization; added = List.length added; delta }

let materialize ?gov t ~name =
  match find t name with
  | None -> Error (Printf.sprintf "unknown ontology %S" name)
  | Some entry ->
    let model = Tgd_db.Instance.copy entry.instance in
    let stats = Tgd_chase.Chase.run ?gov entry.program model in
    let m =
      {
        model;
        floor = Tgd_db.Instance.max_null model;
        complete = stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated;
      }
    in
    Tgd_db.Instance.seal model;
    let entry =
      Mutex.protect t.lock (fun () ->
          (* A cache fill, not a mutation: both epochs stay put. Re-read the
             current entry under the lock so a racing mutation is not
             clobbered — if one slipped in, its materialization (or absence)
             wins and this model is dropped. *)
          match Hashtbl.find_opt t.entries name with
          | Some cur when cur.epoch = entry.epoch && cur.delta_epoch = entry.delta_epoch ->
            let e = { cur with materialization = Some m } in
            Hashtbl.replace t.entries name e;
            e
          | Some cur -> cur
          | None -> entry)
    in
    Ok (entry, stats)

let load_csv_string ?gov t ~name src =
  match find t name with
  | None -> Error (Printf.sprintf "unknown ontology %S" name)
  | Some _ -> (
    match Tgd_db.Csv_io.load_string src with
    | Error msg -> Error msg
    | Ok extra -> add_facts ?gov t ~name (Tgd_db.Instance.facts extra))

let list t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun name e acc ->
          ( name,
            e.epoch,
            e.delta_epoch,
            Program.size e.program,
            Tgd_db.Instance.cardinality e.instance )
          :: acc)
        t.entries [])
  |> List.sort compare
