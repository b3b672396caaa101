(* Property tests for the governed execution layer (lib/exec):

   - Budget specs parse / print / round-trip, with aliases and errors.
   - The governor latches its first stop reason; charge stops at the limit
     (value >= limit), gauge stops only beyond it (value > limit);
     cancellation and deadlines trip from plain [live] polling.
   - A meter counts and stops exactly like [charge], from any number of
     domains, adds no key until it ticks and polls the deadline itself.
   - Budget-exhausted chase runs are deterministic for a fixed input.
   - Truncation never corrupts state: rerunning from scratch after a
     truncated run gives exactly the unbudgeted result.
   - Truncation diagnostics are monotone in the budget.
   - Governed evaluation returns a subset of the full answers. *)

open Tgd_logic
open Tgd_exec

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args

(* p(X) -> r(X,Y); r(X,Y) -> p(Y): diverges under the oblivious and the
   restricted chase alike. *)
let divergent =
  Program.make_exn
    [
      Tgd.make ~name:"r1" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "r" [ v "X"; v "Y" ] ];
      Tgd.make ~name:"r2" ~body:[ atom "r" [ v "X"; v "Y" ] ] ~head:[ atom "p" [ v "Y" ] ];
    ]

let divergent_start () = Tgd_db.Instance.of_atoms [ atom "p" [ c "a" ] ]

(* A terminating program with existentials, so the no-corruption test
   exercises null generation too. *)
let terminating =
  Program.make_exn
    [
      Tgd.make ~name:"t1" ~body:[ atom "person" [ v "X" ] ]
        ~head:[ atom "hasid" [ v "X"; v "I" ] ];
      Tgd.make ~name:"t2" ~body:[ atom "hasid" [ v "X"; v "I" ] ]
        ~head:[ atom "registered" [ v "X" ] ];
    ]

let terminating_start () =
  Tgd_db.Instance.of_atoms [ atom "person" [ c "a" ]; atom "person" [ c "b" ] ]

let sorted_facts inst =
  List.sort compare
    (List.map
       (fun (pred, t) -> (Symbol.name pred, Array.to_list t))
       (Tgd_db.Instance.facts inst))

(* ------------------------------------------------------------------ *)
(* Budget *)

let test_budget_roundtrip () =
  let spec = "chase.rounds=100,rewrite.cqs=5000,deadline=2.5" in
  match Budget.of_string spec with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check (option int)) "rounds" (Some 100) b.Budget.chase_rounds;
    Alcotest.(check (option int)) "cqs" (Some 5000) b.Budget.rewrite_cqs;
    Alcotest.(check bool) "deadline" true (b.Budget.deadline_s = Some 2.5);
    (match Budget.of_string (Budget.to_string b) with
    | Ok b' -> Alcotest.(check bool) "round-trip" true (b = b')
    | Error e -> Alcotest.fail e)

let test_budget_aliases () =
  match (Budget.of_string "rounds=7,facts=9,cqs=3", Budget.of_string "chase.rounds=7") with
  | Ok b, Ok b' ->
    Alcotest.(check (option int)) "rounds alias" (Some 7) b.Budget.chase_rounds;
    Alcotest.(check (option int)) "facts alias" (Some 9) b.Budget.chase_facts;
    Alcotest.(check (option int)) "cqs alias" (Some 3) b.Budget.rewrite_cqs;
    Alcotest.(check (option int)) "canonical" (Some 7) b'.Budget.chase_rounds
  | _ -> Alcotest.fail "aliases should parse"

let test_budget_errors () =
  let bad spec =
    match Budget.of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
  in
  bad "bogus=3";
  bad "rounds=abc";
  bad "deadline=soon";
  bad "rounds"

let test_budget_limit_lookup () =
  match Budget.of_string "chase.triggers=42" with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check (option int)) "limit" (Some 42) (Budget.limit b Budget.key_chase_triggers);
    Alcotest.(check (option int)) "other key" None (Budget.limit b Budget.key_chase_rounds);
    Alcotest.(check (option int)) "unknown key" None (Budget.limit b "no.such.counter")

(* ------------------------------------------------------------------ *)
(* Governor *)

let test_governor_charge_latches () =
  let b = { Budget.unlimited with Budget.containment_checks = Some 5 } in
  let g = Governor.create ~budget:b () in
  for _ = 1 to 4 do
    Governor.charge g Budget.key_containment_checks
  done;
  Alcotest.(check bool) "live below limit" true (Governor.live g);
  Governor.charge g Budget.key_containment_checks;
  Alcotest.(check bool) "stopped at limit" false (Governor.live g);
  (match Governor.stopped g with
  | Some (Governor.Limit { counter; limit }) ->
    Alcotest.(check string) "counter" Budget.key_containment_checks counter;
    Alcotest.(check int) "limit" 5 limit
  | _ -> Alcotest.fail "expected Limit stop reason");
  (* First reason wins: a later stop must not overwrite it. *)
  Governor.stop g Governor.Cancelled;
  match Governor.stopped g with
  | Some (Governor.Limit _) -> ()
  | _ -> Alcotest.fail "stop reason was overwritten"

let test_governor_gauge_boundary () =
  let b = { Budget.unlimited with Budget.chase_facts = Some 10 } in
  let g = Governor.create ~budget:b () in
  Governor.gauge g Budget.key_chase_facts 10;
  Alcotest.(check bool) "at limit is within budget" true (Governor.live g);
  Governor.gauge g Budget.key_chase_facts 11;
  Alcotest.(check bool) "beyond limit stops" false (Governor.live g)

let test_governor_cancellation () =
  let flag = ref false in
  let g = Governor.create ~cancel:(fun () -> !flag) () in
  for _ = 1 to 200 do
    ignore (Governor.live g)
  done;
  Alcotest.(check bool) "no spurious cancel" true (Governor.live g);
  flag := true;
  (* live polls the callback at a small stride; a loop head reaches it fast. *)
  let tripped = ref false in
  for _ = 1 to 200 do
    if not (Governor.live g) then tripped := true
  done;
  Alcotest.(check bool) "cancel tripped" true !tripped;
  match Governor.stopped g with
  | Some Governor.Cancelled -> ()
  | _ -> Alcotest.fail "expected Cancelled"

let test_governor_deadline () =
  let b = { Budget.unlimited with Budget.deadline_s = Some 0.02 } in
  let g = Governor.create ~budget:b () in
  Unix.sleepf 0.05;
  let tripped = ref false in
  for _ = 1 to 200 do
    if not (Governor.live g) then tripped := true
  done;
  Alcotest.(check bool) "deadline tripped" true !tripped;
  match Governor.stopped g with
  | Some (Governor.Deadline s) -> Alcotest.(check bool) "deadline value" true (s = 0.02)
  | _ -> Alcotest.fail "expected Deadline"

let test_diagnostics_snapshot () =
  let b = { Budget.unlimited with Budget.chase_triggers = Some 3 } in
  let g = Governor.create ~budget:b () in
  Alcotest.(check bool) "no diagnostics while live" true (Governor.diagnostics g = None);
  Governor.charge ~n:3 g Budget.key_chase_triggers;
  match Governor.diagnostics g with
  | None -> Alcotest.fail "expected diagnostics after stop"
  | Some d ->
    Alcotest.(check int) "charged counter in snapshot" 3
      (List.assoc Budget.key_chase_triggers d.Governor.counters);
    Alcotest.(check bool) "summary non-empty" true
      (String.length (Governor.diag_summary d) > 0)

let test_report_json_shape () =
  let g = Governor.unlimited () in
  Governor.charge ~n:7 g "chase.rounds";
  Governor.gauge g "chase.facts" 12;
  let json = Governor.report_json ~run:"shape \"quoted\"" g in
  let has sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length json && (String.sub json i n = sub || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %s" sub) true (go 0)
  in
  has "\"outcome\": \"complete\"";
  has "\"chase.rounds\": 7";
  has "\"chase.facts\": 12";
  has "\\\"quoted\\\""

(* ------------------------------------------------------------------ *)
(* Meters *)

let test_meter_latches_like_charge () =
  let limit = 7 in
  let b = { Budget.unlimited with Budget.eval_steps = Some limit } in
  let metered = Governor.create ~budget:b () and charged = Governor.create ~budget:b () in
  let m = Governor.meter metered Budget.key_eval_steps in
  for i = 1 to limit do
    Alcotest.(check bool) (Printf.sprintf "live before tick %d" i) true (Governor.live metered);
    Governor.tick m;
    Governor.charge charged Budget.key_eval_steps;
    Alcotest.(check bool)
      (Printf.sprintf "tick %d stops iff charge %d does" i i)
      (Governor.stopped charged = None)
      (Governor.stopped metered = None)
  done;
  (match Governor.stopped metered with
  | Some (Governor.Limit { counter; limit = l }) ->
    Alcotest.(check string) "counter" Budget.key_eval_steps counter;
    Alcotest.(check int) "limit" limit l
  | _ -> Alcotest.fail "expected Limit on the limit-th tick");
  let value g = Telemetry.get (Governor.telemetry g) Budget.key_eval_steps in
  Alcotest.(check int) "same counter value as charge" (value charged) (value metered);
  Alcotest.(check int) "counter at the limit" limit (value metered);
  (* A batched tick crosses the limit the same way a batched charge does. *)
  let b = { Budget.unlimited with Budget.chase_triggers = Some 10 } in
  let g = Governor.create ~budget:b () in
  let m = Governor.meter g Budget.key_chase_triggers in
  Governor.tick ~n:9 m;
  Alcotest.(check bool) "9 of 10 is live" true (Governor.live g);
  Governor.tick ~n:5 m;
  Alcotest.(check bool) "14 of 10 stopped" true (Governor.stopped g <> None)

let test_meter_domains_exact () =
  let g = Governor.unlimited () in
  let ticks = 10_000 in
  let work () =
    let m = Governor.meter g Budget.key_eval_steps in
    for _ = 1 to ticks do
      Governor.tick m
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  Alcotest.(check int) "4 x 10k ticks" (4 * ticks)
    (Telemetry.get (Governor.telemetry g) Budget.key_eval_steps)

let test_meter_untouched_adds_no_key () =
  let g = Governor.unlimited () in
  Governor.charge g Budget.key_chase_rounds;
  let before = Telemetry.counters (Governor.telemetry g) in
  let _unused = Governor.meter g Budget.key_eval_steps in
  Alcotest.(check (list (pair string int)))
    "counters unchanged" before
    (Telemetry.counters (Governor.telemetry g))

let test_meter_trips_deadline () =
  let b = { Budget.unlimited with Budget.deadline_s = Some 0.02 } in
  let g = Governor.create ~budget:b () in
  let m = Governor.meter g Budget.key_eval_steps in
  let t0 = Unix.gettimeofday () in
  (* Only ticks, never [live]: the meter's own polls must see the
     deadline. The 5 s cap keeps a broken poll from hanging the suite. *)
  while Governor.stopped g = None && Unix.gettimeofday () -. t0 < 5.0 do
    Governor.tick m
  done;
  match Governor.stopped g with
  | Some (Governor.Deadline s) -> Alcotest.(check bool) "deadline value" true (s = 0.02)
  | _ -> Alcotest.fail "expected Deadline from a tick-only loop"

(* A governed Datalog answer on University data: the [eval.steps] total
   and answer count of a full run, and where an [eval.steps] budget cuts
   it. Recorded when every join node was charged through
   [Governor.charge]; a meter that miscounts, skips the ticks after a
   stop or latches a node late fails here. *)
let datalog_run ?limit () =
  let data = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 7) ~scale:50 in
  let q = List.hd Tgd_gen.University.queries in
  let dl = Tgd_rewrite.Datalog_rw.rewrite Tgd_gen.University.ontology q in
  let tel = Telemetry.create () in
  let budget = { Budget.unlimited with Budget.eval_steps = limit } in
  let g = Governor.create ~budget ~telemetry:tel () in
  let answers = Tgd_obda.Target.datalog_answers ~gov:g dl data in
  (Telemetry.get tel Budget.key_eval_steps, List.length answers, Governor.stopped g <> None)

let test_pinned_datalog_steps () =
  let check name (steps, answers, stopped) got =
    let s, a, st = got in
    Alcotest.(check int) (name ^ ": eval.steps") steps s;
    Alcotest.(check int) (name ^ ": answers") answers a;
    Alcotest.(check bool) (name ^ ": stopped") stopped st
  in
  check "full run" (1486, 60, false) (datalog_run ());
  (* Cut in the goal query: the ticks after the stop still count. *)
  check "limit 1466" (1486, 39, true) (datalog_run ~limit:1466 ());
  (* Cut in the saturation. *)
  check "limit 743" (795, 0, true) (datalog_run ~limit:743 ())

(* ------------------------------------------------------------------ *)
(* Engine-level properties *)

let truncated_run budget_triggers =
  let b = { Budget.unlimited with Budget.chase_triggers = Some budget_triggers } in
  let g = Governor.create ~budget:b () in
  let inst = divergent_start () in
  let stats = Tgd_chase.Chase.run ~gov:g divergent inst in
  (stats, sorted_facts inst, Governor.diagnostics g)

let test_truncation_deterministic () =
  let s1, f1, d1 = truncated_run 50 in
  let s2, f2, d2 = truncated_run 50 in
  Alcotest.(check int) "rounds" s1.Tgd_chase.Chase.rounds s2.Tgd_chase.Chase.rounds;
  Alcotest.(check int) "new facts" s1.Tgd_chase.Chase.derived s2.Tgd_chase.Chase.derived;
  Alcotest.(check int) "triggers" s1.Tgd_chase.Chase.triggers_fired
    s2.Tgd_chase.Chase.triggers_fired;
  Alcotest.(check bool) "instances identical" true (f1 = f2);
  match (d1, d2) with
  | Some d1, Some d2 ->
    Alcotest.(check bool) "same stop reason" true (d1.Governor.reason = d2.Governor.reason);
    Alcotest.(check bool) "same counters" true (d1.Governor.counters = d2.Governor.counters)
  | _ -> Alcotest.fail "both runs should be truncated"

let test_truncation_no_corruption () =
  (* Reference: the unbudgeted chase, before any truncated run happened. *)
  let reference = terminating_start () in
  let r = Tgd_chase.Chase.run terminating reference in
  Alcotest.(check bool) "reference terminates" true (r.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated);
  (* A truncated run in between... *)
  let b = { Budget.unlimited with Budget.chase_triggers = Some 1 } in
  let g = Governor.create ~budget:b () in
  let truncated = terminating_start () in
  let t = Tgd_chase.Chase.run ~gov:g terminating truncated in
  (match t.Tgd_chase.Chase.outcome with
  | Tgd_chase.Chase.Truncated _ -> ()
  | Tgd_chase.Chase.Terminated -> Alcotest.fail "expected truncation under triggers=1");
  (* ... must not change what a fresh unbudgeted run computes. *)
  let rerun = terminating_start () in
  let r2 = Tgd_chase.Chase.run terminating rerun in
  Alcotest.(check bool) "rerun terminates" true (r2.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated);
  Alcotest.(check bool) "rerun equals reference (incl. null labels)" true
    (sorted_facts reference = sorted_facts rerun)

let test_diagnostics_monotone () =
  let runs = List.map (fun t -> (t, truncated_run t)) [ 20; 40; 80 ] in
  List.iter
    (fun (t, (stats, _, d)) ->
      Alcotest.(check bool)
        (Printf.sprintf "triggers within budget %d" t)
        true
        (stats.Tgd_chase.Chase.triggers_fired <= t);
      match d with
      | None -> Alcotest.fail "expected truncation"
      | Some d ->
        Alcotest.(check int)
          (Printf.sprintf "diagnosed triggers at budget %d" t)
          stats.Tgd_chase.Chase.triggers_fired
          (List.assoc Budget.key_chase_triggers d.Governor.counters))
    runs;
  let triggers = List.map (fun (_, (s, _, _)) -> s.Tgd_chase.Chase.triggers_fired) runs in
  let facts = List.map (fun (_, (s, _, _)) -> s.Tgd_chase.Chase.derived) runs in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "triggers monotone in budget" true (nondecreasing triggers);
  Alcotest.(check bool) "facts monotone in budget" true (nondecreasing facts)

let test_governed_eval_subset () =
  let facts =
    List.concat_map
      (fun i ->
        [
          atom "e" [ c (Printf.sprintf "a%d" i); c (Printf.sprintf "b%d" i) ];
          atom "e" [ c (Printf.sprintf "b%d" i); c (Printf.sprintf "c%d" i) ];
        ])
      (List.init 20 Fun.id)
  in
  let inst = Tgd_db.Instance.of_atoms facts in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X"; v "Z" ]
      ~body:[ atom "e" [ v "X"; v "Y" ]; atom "e" [ v "Y"; v "Z" ] ]
  in
  let full = Tgd_conformance.Eval.cq inst q in
  Alcotest.(check int) "full join size" 20 (List.length full);
  let b = { Budget.unlimited with Budget.eval_steps = Some 10 } in
  let g = Governor.create ~budget:b () in
  let partial = Tgd_conformance.Eval.cq ~gov:g inst q in
  Alcotest.(check bool) "eval stopped" true (Governor.stopped g <> None);
  Alcotest.(check bool) "partial is smaller" true (List.length partial < List.length full);
  Alcotest.(check bool) "partial subset of full" true
    (List.for_all (fun t -> List.exists (Tgd_db.Tuple.equal t) full) partial)

let () =
  Alcotest.run "exec"
    [
      ( "budget",
        [
          Alcotest.test_case "round-trip" `Quick test_budget_roundtrip;
          Alcotest.test_case "aliases" `Quick test_budget_aliases;
          Alcotest.test_case "errors" `Quick test_budget_errors;
          Alcotest.test_case "limit lookup" `Quick test_budget_limit_lookup;
        ] );
      ( "governor",
        [
          Alcotest.test_case "charge latches first reason" `Quick test_governor_charge_latches;
          Alcotest.test_case "gauge boundary" `Quick test_governor_gauge_boundary;
          Alcotest.test_case "cancellation" `Quick test_governor_cancellation;
          Alcotest.test_case "deadline" `Quick test_governor_deadline;
          Alcotest.test_case "diagnostics snapshot" `Quick test_diagnostics_snapshot;
          Alcotest.test_case "report json shape" `Quick test_report_json_shape;
        ] );
      ( "meter",
        [
          Alcotest.test_case "latches like charge" `Quick test_meter_latches_like_charge;
          Alcotest.test_case "exact across domains" `Quick test_meter_domains_exact;
          Alcotest.test_case "untouched meter adds no key" `Quick test_meter_untouched_adds_no_key;
          Alcotest.test_case "tick-only loop trips deadline" `Quick test_meter_trips_deadline;
          Alcotest.test_case "pinned datalog eval.steps" `Quick test_pinned_datalog_steps;
        ] );
      ( "engine",
        [
          Alcotest.test_case "truncation deterministic" `Quick test_truncation_deterministic;
          Alcotest.test_case "truncation no corruption" `Quick test_truncation_no_corruption;
          Alcotest.test_case "diagnostics monotone" `Quick test_diagnostics_monotone;
          Alcotest.test_case "governed eval subset" `Quick test_governed_eval_subset;
        ] );
    ]
