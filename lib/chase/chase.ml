open Tgd_logic
open Tgd_db
open Tgd_exec

type variant =
  | Oblivious
  | Restricted

type outcome =
  | Terminated
  | Truncated of Governor.diagnostics

type violation = {
  egd : Egd.t;
  v1 : Value.t;
  v2 : Value.t;
}

type stats = {
  outcome : outcome;
  rounds : int;
  inserted : int;
  derived : int;
  nulls : int;
  triggers_fired : int;
  merges : int;
  consistent : bool;
  violation : violation option;
}

type keys =
  | Chase_keys
  | Datalog_keys

module Key_table = Hashtbl.Make (struct
  type t = string * int array

  let equal (n1, (t1 : int array)) (n2, t2) = String.equal n1 n2 && t1 = t2
  let hash (n, t) = (Hashtbl.hash n * 31) + Columnar.hash_codes t
end)

let default_governor ~max_rounds ~max_facts () =
  Governor.create
    ~budget:
      {
        Budget.unlimited with
        Budget.chase_rounds = Some max_rounds;
        chase_facts = Some max_facts;
      }
    ()

(* A frontier: per predicate, a coded block of the rows the next search
   joins through, newest first (trigger order and null labels follow it).
   [None] is the whole instance. A round appends its new rows to code
   columns per predicate; [freeze] builds each block, reversed. Without EGDs, a predicate no
   rule body reads gets an empty block: its facts still keep the loop
   going one more round. (EGD merges filter a frontier by which rows are
   still present, so then all are kept.) *)
type rows = {
  cols : int array array;
  mutable n : int;
}

let push ~keep out pred (codes : int array) =
  let rows =
    match Symbol.Table.find out pred with
    | rows -> rows
    | exception Not_found ->
      let rows = { cols = Array.make (Array.length codes) [||]; n = 0 } in
      Symbol.Table.add out pred rows;
      rows
  in
  if keep pred then begin
    for j = 0 to Array.length codes - 1 do
      let col = Columnar.room rows.cols.(j) rows.n in
      rows.cols.(j) <- col;
      col.(rows.n) <- codes.(j)
    done;
    rows.n <- rows.n + 1
  end

let freeze out =
  let block { cols; n } =
    let cols = Array.map (fun col -> Array.init n (fun i -> col.(n - 1 - i))) cols in
    Result.get_ok (Columnar.of_columns ~arity:(Array.length cols) ~nrows:n cols)
  in
  Symbol.Table.of_seq (Seq.map (fun (pred, rows) -> (pred, block rows)) (Symbol.Table.to_seq out))

let is_empty = function None -> false | Some f -> Symbol.Table.length f = 0

exception Hard of violation
exception Merge of Value.t * Value.t (* from_, to_ *)

(* One EGD step: the first violation whose match uses a frontier fact. When
   the frontier is seeded, untouched equivalence classes are never
   revisited — sound because the instance was EGD-stable before the
   frontier's facts arrived. *)
let find_egd_step ?gov egds inst frontier =
  try
    List.iter
      (fun (egd : Egd.t) ->
        let answer = [ Term.Var egd.Egd.left; Term.Var egd.Egd.right ] in
        Trigger.bindings ?gov inst egd.Egd.body ~answer ~delta:frontier (fun codes ->
            if codes.(0) <> codes.(1) then
              match (Value.decode codes.(0), Value.decode codes.(1)) with
              | (Value.Null _ as l), r -> raise (Merge (l, r))
              | l, (Value.Null _ as r) -> raise (Merge (r, l))
              | l, r -> raise (Hard { egd; v1 = l; v2 = r })))
      egds;
    `Stable
  with
  | Merge (from_, to_) -> `Merge (from_, to_)
  | Hard v -> `Hard v

let run ?(variant = Restricted) ?(max_rounds = 1_000) ?(max_facts = 1_000_000) ?gov ?null_floor
    ?(egds = []) ?batch ?(keys = Chase_keys) program inst =
  (* [eval_gov] bounds the join searches; only ungoverned Datalog answering
     runs them unbounded. *)
  let gov, eval_gov =
    match (gov, keys) with
    | Some g, _ -> (g, Some g)
    | None, Chase_keys ->
      let g = default_governor ~max_rounds ~max_facts () in
      (g, Some g)
    | None, Datalog_keys -> (Governor.unlimited (), None)
  in
  (* Start above every null already in the instance: a chase resumed on a
     partly chased instance must not reuse a label, or two unrelated nulls
     would join and derive facts the program does not entail. Scanned only
     when a null is first needed, so Datalog runs never pay for it. *)
  let gen =
    lazy
      (Null_gen.create
         ~start:(match null_floor with Some f -> f | None -> Instance.max_null inst)
         ())
  in
  let fired : unit Key_table.t = Key_table.create 256 in
  let inserted = ref 0 in
  let derived = ref 0 in
  let triggers_fired = ref 0 in
  let rounds = ref 0 in
  let merges = ref 0 in
  let violation = ref None in
  (* Set when a budget stop skipped pending work mid-round: an empty final
     frontier then does not mean a fixpoint was reached. *)
  let skipped_work = ref false in
  let charge_fired, end_round =
    match (keys, batch) with
    | Datalog_keys, _ ->
      (ignore, fun () -> Governor.gauge gov Budget.key_rewrite_datalog_facts !derived)
    | Chase_keys, None ->
      let triggers = Governor.meter gov Budget.key_chase_triggers in
      ( (fun () -> Governor.tick triggers),
        fun () ->
          Governor.charge gov Budget.key_chase_rounds;
          Governor.gauge gov Budget.key_chase_facts (Instance.cardinality inst) )
    | Chase_keys, Some _ ->
      let triggers = Governor.meter gov Budget.key_chase_delta_triggers in
      ( (fun () -> Governor.tick triggers),
        fun () ->
          Governor.charge gov Budget.key_chase_rounds;
          Governor.gauge gov Budget.key_chase_delta_facts (!inserted + !derived);
          Governor.gauge gov Budget.key_chase_facts (Instance.cardinality inst) )
  in
  let push =
    let body (r : Tgd.t) = List.map (fun (a : Atom.t) -> a.Atom.pred) r.Tgd.body in
    let reads = Symbol.Set.of_list (List.concat_map body (Tgd_logic.Program.tgds program)) in
    push ~keep:(fun pred -> egds <> [] || Symbol.Set.mem pred reads)
  in
  let add_fact ~delta_out pred codes =
    Instance.add_codes inst pred codes && (incr derived; push delta_out pred codes; true)
  in
  (* A full rule's search answers its head atoms' arguments, back to back:
     each is copied into its atom's scratch row and inserted coded. *)
  let rec fire ~delta_out codes off added = function
    | [] -> added
    | (pred, row) :: rest ->
      Array.blit codes off row 0 (Array.length row);
      let fresh = add_fact ~delta_out pred row in
      fire ~delta_out codes (off + Array.length row) (fresh || added) rest
  in
  let fire_full ~delta_out heads codes =
    if Governor.live gov then begin
      if fire ~delta_out codes 0 false heads then begin
        incr triggers_fired;
        charge_fired ()
      end
    end
    else skipped_work := true
  in
  let apply_trigger ~delta_out (tr, satisfied) =
    (* Triggers of one rule and frontier row fire one head (up to nulls). *)
    let k = (tr.Trigger.rule.Tgd.name, tr.Trigger.frontier) in
    if not (Key_table.mem fired k) then begin
      Key_table.add fired k ();
      if variant = Oblivious || not (satisfied ?gov:eval_gov inst tr.Trigger.frontier) then begin
        incr triggers_fired;
        charge_fired ();
        List.iter
          (fun (pred, t) -> ignore (add_fact ~delta_out pred t))
          (Trigger.head_facts tr (Lazy.force gen))
      end
    end
  in
  let rules =
    List.map
      (fun (r : Tgd.t) ->
        if Symbol.Set.is_empty (Tgd.existential_head_vars r) then
          let heads = List.map (fun (a : Atom.t) -> (a.Atom.pred, Array.make (Atom.arity a) 0)) r.Tgd.head in
          (r, Either.Left heads, List.concat_map (fun (a : Atom.t) -> Array.to_list a.Atom.args) r.Tgd.head)
        else
          (r, Either.Right (Trigger.satisfied r), List.map (fun v -> Term.Var v) (Trigger.frontier_vars r)))
      (Tgd_logic.Program.tgds program)
  in
  let tgd_round frontier =
    let delta_out = Symbol.Table.create 16 in
    let triggers = ref [] in
    List.iter
      (fun ((r : Tgd.t), kind, answer) ->
        let found =
          match kind with
          | Either.Left heads -> fire_full ~delta_out heads
          | Either.Right s -> fun codes -> triggers := ({ Trigger.rule = r; frontier = Array.copy codes }, s) :: !triggers
        in
        Trigger.bindings ?gov:eval_gov inst r.Tgd.body ~answer ~delta:frontier found)
      rules;
    (* Budget checks sit at the trigger loop head, not just between rounds:
       a single round over a large frontier can fire unboundedly many
       triggers. Discovery itself is governed too ([eval.steps]): the
       governor was live when this round began, so a stop observed here
       means the search was cut short and the trigger list is partial. *)
    if Governor.stopped gov <> None then skipped_work := true;
    List.iter
      (fun tr -> if Governor.live gov then apply_trigger ~delta_out tr else skipped_work := true)
      (List.rev !triggers);
    incr rounds;
    end_round ();
    freeze delta_out
  in
  (* EGD merges rewrite rows in place, so a frontier can go stale: keep only
     the rows the instance still contains, with the given facts in front,
     newest first. *)
  let with_facts tbl facts =
    let out = Symbol.Table.create 16 in
    let keep pred codes =
      match Instance.relation inst pred with
      | Some rel when Relation.mem_codes rel codes -> push out pred codes
      | Some _ | None -> ()
    in
    Symbol.Table.iter
      (fun pred block ->
        let cols = Array.init (Columnar.arity block) (Columnar.col block) in
        for r = Columnar.nrows block - 1 downto 0 do
          keep pred (Array.map (fun col -> col.(r)) cols)
        done)
      tbl;
    List.iter (fun (pred, codes) -> keep pred codes) facts;
    freeze out
  in
  (* Merge until stable, searching from the frontier, and hand back the
     frontier of the next TGD round: its surviving facts plus every fact
     the merges rewrote. Each merge substitutes only inside the relations
     that contain the merged value. *)
  let egd_pass frontier =
    if egds = [] || is_empty frontier then frontier
    else begin
      let rewritten = ref [] in
      let cur = ref frontier in
      let stable = ref false in
      while (not !stable) && Governor.live gov && !violation = None && not (is_empty !cur) do
        match find_egd_step ?gov:eval_gov egds inst !cur with
        | `Stable -> stable := true
        | `Hard v -> violation := Some v
        | `Merge (from_, to_) ->
          incr merges;
          Governor.charge gov "egd.merges";
          let fresh = Instance.substitute inst ~from_ ~to_ in
          rewritten := fresh @ !rewritten;
          cur := Option.map (fun c -> with_facts c fresh) !cur
      done;
      if Governor.stopped gov <> None && !violation = None && not (is_empty !cur) then
        skipped_work := true;
      Option.map (fun f -> with_facts f !rewritten) frontier
    end
  in
  (* The first frontier is the only difference between the modes: the
     whole instance, or the inserted batch. *)
  let first =
    match batch with
    | None -> None
    | Some facts ->
      let delta0 = Symbol.Table.create 16 in
      List.iter
        (fun (pred, t) ->
          let codes = Array.map Value.code t in
          if Instance.add_codes inst pred codes then begin
            incr inserted;
            push delta0 pred codes
          end)
        facts;
      if keys = Chase_keys then Governor.gauge gov Budget.key_chase_delta_facts !inserted;
      Some (freeze delta0)
  in
  let frontier = ref (egd_pass first) in
  while Governor.live gov && !violation = None && not (is_empty !frontier) do
    frontier := egd_pass (Some (tgd_round !frontier))
  done;
  let nulls = if Lazy.is_val gen then Null_gen.count (Lazy.force gen) else 0 in
  if keys = Chase_keys then Telemetry.gauge (Governor.telemetry gov) "chase.nulls" nulls;
  let outcome =
    if ((not (is_empty !frontier)) && !violation = None) || !skipped_work then begin
      (* The loop only exits with pending work when the governor stopped;
         make sure a reason is latched even on an exotic path. *)
      if Governor.stopped gov = None then
        Governor.stop gov
          (Governor.Limit { counter = Budget.key_chase_rounds; limit = max_rounds });
      Truncated (Option.get (Governor.diagnostics gov))
    end
    else Terminated
  in
  {
    outcome;
    rounds = !rounds;
    inserted = !inserted;
    derived = !derived;
    nulls;
    triggers_fired = !triggers_fired;
    merges = !merges;
    consistent = !violation = None;
    violation = !violation;
  }
