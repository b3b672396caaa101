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
   put, because a rewriting depends only on the TGDs; the delta epoch bumps
   once per applied batch. *)
(* Only the instance is sealed: readers evaluate on it. The model is the
   chase's working set — chased, counted and imaged, never queried — so
   its touched relations keep a pending tail, which the next chase reads
   after the block and a snapshot writes after the block's columns. *)
let install_delta t (prev : entry) ~batches instance materialization =
  Tgd_db.Instance.seal instance;
  Mutex.protect t.lock (fun () ->
      let delta_epoch = ref prev.delta_epoch in
      for _ = 1 to batches do
        delta_epoch := next_counter t.last_delta prev.name
      done;
      let entry = { prev with delta_epoch = !delta_epoch; instance; materialization } in
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

let unknown name = Printf.sprintf "unknown ontology %S" name

(* Every predicate keeps one arity: the one the instance, the model or the
   rules already give it, else the one the batch first uses. Checked before
   the batch inserts its first fact, so it applies whole or not at all. *)
let check_arities program instance materialization facts =
  let signature = lazy (Program.predicates program) in
  let known pred =
    let in_ inst = Option.map Tgd_db.Relation.arity (Tgd_db.Instance.relation inst pred) in
    match in_ instance, Option.bind materialization (fun m -> in_ m.model) with
    | Some a, _ | None, Some a -> Some a
    | None, None -> List.assoc_opt pred (Lazy.force signature)
  in
  let seen = Symbol.Table.create 8 in
  let rec go = function
    | [] -> Ok ()
    | (pred, tup) :: rest -> (
      let arity = Array.length tup in
      let expected =
        match Symbol.Table.find_opt seen pred with
        | Some a -> a
        | None ->
          let a = Option.value ~default:arity (known pred) in
          Symbol.Table.add seen pred a;
          a
      in
      if arity = expected then go rest
      else
        Error
          (Printf.sprintf "predicate %s has arity %d, but the batch uses it with arity %d"
             (Symbol.name pred) expected arity))
  in
  go facts

(* One batch on the private successor: insert its new facts and, when a
   materialization is alive, extend the model by a batch chase at the
   running null floor instead of re-chasing. *)
let apply_batch program instance materialization (make_gov, facts) =
  (* The governor is made only now, so its deadline clock starts with
     this batch, not with the call or with the batches before it. *)
  let gov = make_gov () in
  let added =
    List.filter (fun (pred, tup) -> Tgd_db.Instance.add_fact instance pred tup) facts
  in
  let added_n = List.length added in
  match materialization with
  | None -> (None, added_n, None)
  | Some m ->
    let stats = Tgd_chase.Chase.run ?gov ~null_floor:m.floor ~batch:added program m.model in
    let complete =
      m.complete
      && stats.Tgd_chase.Chase.consistent
      && stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated
    in
    (Some { m with floor = m.floor + stats.Tgd_chase.Chase.nulls; complete }, added_n, Some stats)

let add_batches t ~name batches =
  match find t name with
  | None -> List.map (fun _ -> Error (unknown name)) batches
  | Some entry ->
    (* Copy-on-write, once for the whole run: in-flight readers keep the
       old instances, and the copies share every relation until a batch
       writes it, so a run pays only for the relations it touches. The one
       seal at install extends the touched blocks instead of re-encoding.
       Skipping the seals between batches changes nothing a batch chase
       finds: it reads each relation's block and then its pending tail,
       and a seal only moves rows from one to the other. *)
    let instance = Tgd_db.Instance.copy entry.instance in
    let materialization =
      ref
        (Option.map
           (fun m -> { m with model = Tgd_db.Instance.copy m.model })
           entry.materialization)
    in
    let applied = ref 0 in
    let outcomes =
      List.map
        (fun ((_, facts) as batch) ->
          match check_arities entry.program instance !materialization facts with
          | Error msg -> Error msg
          | Ok () ->
            incr applied;
            let m, added, delta = apply_batch entry.program instance !materialization batch in
            materialization := m;
            Ok (added, delta))
        batches
    in
    (* No batch applied: nothing to install, and no [Ok] to attach it to. *)
    let entry =
      if !applied = 0 then entry
      else install_delta t entry ~batches:!applied instance !materialization
    in
    List.map (Result.map (fun (added, delta) -> { entry; added; delta })) outcomes

let add_facts ?gov t ~name facts = List.hd (add_batches t ~name [ ((fun () -> gov), facts) ])

let materialize ?gov t ~name =
  match find t name with
  | None -> Error (unknown name)
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
  | None -> Error (unknown name)
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
