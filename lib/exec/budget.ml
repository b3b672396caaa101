type t = {
  chase_rounds : int option;
  chase_facts : int option;
  chase_triggers : int option;
  chase_delta_triggers : int option;
  chase_delta_facts : int option;
  rewrite_cqs : int option;
  rewrite_expansions : int option;
  rewrite_depth : int option;
  rewrite_datalog_patterns : int option;
  rewrite_datalog_rules : int option;
  rewrite_datalog_facts : int option;
  containment_checks : int option;
  eval_steps : int option;
  deadline_s : float option;
}

let unlimited =
  {
    chase_rounds = None;
    chase_facts = None;
    chase_triggers = None;
    chase_delta_triggers = None;
    chase_delta_facts = None;
    rewrite_cqs = None;
    rewrite_expansions = None;
    rewrite_depth = None;
    rewrite_datalog_patterns = None;
    rewrite_datalog_rules = None;
    rewrite_datalog_facts = None;
    containment_checks = None;
    eval_steps = None;
    deadline_s = None;
  }

let key_chase_rounds = "chase.rounds"
let key_chase_facts = "chase.facts"
let key_chase_triggers = "chase.triggers"
let key_chase_delta_triggers = "chase.delta.triggers"
let key_chase_delta_facts = "chase.delta.facts"
let key_rewrite_cqs = "rewrite.cqs"
let key_rewrite_expansions = "rewrite.expansions"
let key_rewrite_depth = "rewrite.depth"
let key_rewrite_datalog_patterns = "rewrite.datalog.patterns"
let key_rewrite_datalog_rules = "rewrite.datalog.rules"
let key_rewrite_datalog_facts = "rewrite.datalog.facts"
let key_containment_checks = "containment.checks"
let key_eval_steps = "eval.steps"

let limit t key =
  if String.equal key key_chase_rounds then t.chase_rounds
  else if String.equal key key_chase_facts then t.chase_facts
  else if String.equal key key_chase_triggers then t.chase_triggers
  else if String.equal key key_chase_delta_triggers then t.chase_delta_triggers
  else if String.equal key key_chase_delta_facts then t.chase_delta_facts
  else if String.equal key key_rewrite_cqs then t.rewrite_cqs
  else if String.equal key key_rewrite_expansions then t.rewrite_expansions
  else if String.equal key key_rewrite_depth then t.rewrite_depth
  else if String.equal key key_rewrite_datalog_patterns then t.rewrite_datalog_patterns
  else if String.equal key key_rewrite_datalog_rules then t.rewrite_datalog_rules
  else if String.equal key key_rewrite_datalog_facts then t.rewrite_datalog_facts
  else if String.equal key key_containment_checks then t.containment_checks
  else if String.equal key key_eval_steps then t.eval_steps
  else None

(* Accepted spellings for each field: the canonical dotted key plus a short
   alias for the command line. *)
let set t key v =
  match key with
  | "chase.rounds" | "rounds" -> Ok { t with chase_rounds = Some v }
  | "chase.facts" | "facts" -> Ok { t with chase_facts = Some v }
  | "chase.triggers" | "triggers" -> Ok { t with chase_triggers = Some v }
  | "chase.delta.triggers" | "delta.triggers" -> Ok { t with chase_delta_triggers = Some v }
  | "chase.delta.facts" | "delta.facts" -> Ok { t with chase_delta_facts = Some v }
  | "rewrite.cqs" | "cqs" -> Ok { t with rewrite_cqs = Some v }
  | "rewrite.expansions" | "expansions" -> Ok { t with rewrite_expansions = Some v }
  | "rewrite.depth" | "depth" -> Ok { t with rewrite_depth = Some v }
  | "rewrite.datalog.patterns" | "datalog.patterns" | "patterns" ->
    Ok { t with rewrite_datalog_patterns = Some v }
  | "rewrite.datalog.rules" | "datalog.rules" -> Ok { t with rewrite_datalog_rules = Some v }
  | "rewrite.datalog.facts" | "datalog.facts" -> Ok { t with rewrite_datalog_facts = Some v }
  | "containment.checks" | "checks" -> Ok { t with containment_checks = Some v }
  | "eval.steps" | "steps" -> Ok { t with eval_steps = Some v }
  | _ -> Error (Printf.sprintf "unknown budget key %S" key)

let of_string ?(base = unlimited) spec =
  let items =
    String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ -> acc
      | Ok t -> (
        match String.index_opt item '=' with
        | None -> Error (Printf.sprintf "budget item %S is not key=value" item)
        | Some i ->
          let key = String.trim (String.sub item 0 i) in
          let value = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
          if key = "deadline" || key = "deadline_s" then
            match float_of_string_opt value with
            | Some s when s >= 0.0 -> Ok { t with deadline_s = Some s }
            | _ -> Error (Printf.sprintf "bad deadline %S (want seconds)" value)
          else
            match int_of_string_opt value with
            | Some v when v >= 0 -> set t key v
            | _ -> Error (Printf.sprintf "bad value %S for budget key %S" value key)))
    (Ok base) items

let to_string t =
  let ints =
    [
      (key_chase_rounds, t.chase_rounds);
      (key_chase_facts, t.chase_facts);
      (key_chase_triggers, t.chase_triggers);
      (key_chase_delta_triggers, t.chase_delta_triggers);
      (key_chase_delta_facts, t.chase_delta_facts);
      (key_rewrite_cqs, t.rewrite_cqs);
      (key_rewrite_expansions, t.rewrite_expansions);
      (key_rewrite_depth, t.rewrite_depth);
      (key_rewrite_datalog_patterns, t.rewrite_datalog_patterns);
      (key_rewrite_datalog_rules, t.rewrite_datalog_rules);
      (key_rewrite_datalog_facts, t.rewrite_datalog_facts);
      (key_containment_checks, t.containment_checks);
      (key_eval_steps, t.eval_steps);
    ]
    |> List.filter_map (fun (k, v) ->
           Option.map (fun v -> Printf.sprintf "%s=%d" k v) v)
  in
  let all =
    match t.deadline_s with
    | None -> ints
    | Some s -> ints @ [ Printf.sprintf "deadline=%g" s ]
  in
  String.concat "," all
