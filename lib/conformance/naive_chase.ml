open Tgd_logic
open Tgd_db
module Governor = Tgd_exec.Governor
module Budget = Tgd_exec.Budget

exception Found

(* The restricted-chase activity test, written out here rather than shared
   with the production chase: does the frontier assignment extend to a
   match of the head? *)
let satisfied ~gov inst (r : Tgd.t) env =
  let frontier = Tgd.frontier r in
  let init = Symbol.Map.filter (fun v _ -> Symbol.Set.mem v frontier) env in
  try
    Eval.bindings ~gov ~init inst r.Tgd.head (fun _ -> raise Found);
    false
  with Found -> true

let head_facts gen (r : Tgd.t) env =
  let env =
    Symbol.Set.fold
      (fun v env -> Symbol.Map.add v (Tgd_chase.Null_gen.next gen) env)
      (Tgd.existential_head_vars r) env
  in
  List.map
    (fun (a : Atom.t) ->
      ( a.Atom.pred,
        Array.map
          (function Term.Const c -> Value.Const c | Term.Var v -> Symbol.Map.find v env)
          a.Atom.args ))
    r.Tgd.head

let run ~gov program inst =
  let gen = Tgd_chase.Null_gen.create ~start:(Instance.max_null inst) () in
  let rounds = ref 0 and derived = ref 0 and fired = ref 0 in
  let fixpoint = ref false in
  while (not !fixpoint) && Governor.live gov do
    let triggers = ref [] in
    List.iter
      (fun (r : Tgd.t) ->
        Eval.bindings ~gov inst r.Tgd.body (fun env -> triggers := (r, env) :: !triggers))
      (Program.tgds program);
    let fired_now = ref 0 in
    List.iter
      (fun (r, env) ->
        if Governor.live gov && not (satisfied ~gov inst r env) then begin
          incr fired_now;
          Governor.charge gov Budget.key_chase_triggers;
          List.iter
            (fun (pred, t) -> if Instance.add_fact inst pred t then incr derived)
            (head_facts gen r env)
        end)
      (List.rev !triggers);
    (* A round proves a fixpoint only if the governor never cut its search
       or its checks short. *)
    fixpoint := !fired_now = 0 && Governor.stopped gov = None;
    fired := !fired + !fired_now;
    incr rounds;
    Governor.charge gov Budget.key_chase_rounds;
    Governor.gauge gov Budget.key_chase_facts (Instance.cardinality inst)
  done;
  let outcome =
    if !fixpoint then Tgd_chase.Chase.Terminated
    else Tgd_chase.Chase.Truncated (Option.get (Governor.diagnostics gov))
  in
  {
    Tgd_chase.Chase.outcome;
    rounds = !rounds;
    inserted = 0;
    derived = !derived;
    nulls = Tgd_chase.Null_gen.count gen;
    triggers_fired = !fired;
    merges = 0;
    consistent = true;
    violation = None;
  }
