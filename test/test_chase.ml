(* Unit tests for the chase engine: triggers, oblivious vs restricted,
   termination, budgets, certain answers. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval
open Tgd_chase

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args
let tuple l = Array.of_list (List.map Value.const l)

let person_project =
  Program.make_exn ~name:"pp"
    [
      Tgd.make ~name:"has_member" ~body:[ atom "project" [ v "P" ] ]
        ~head:[ atom "member" [ v "P"; v "M" ] ];
      Tgd.make ~name:"member_person" ~body:[ atom "member" [ v "P"; v "M" ] ]
        ~head:[ atom "person" [ v "M" ] ];
    ]

(* ------------------------------------------------------------------ *)
(* Trigger *)

(* Every trigger of a program on an instance; with [delta], only those
   whose body uses a delta fact. *)
let find_triggers program inst ~delta =
  let triggers = ref [] in
  List.iter
    (fun (r : Tgd.t) ->
      let answer = List.map (fun v -> Term.Var v) (Trigger.frontier_vars r) in
      Trigger.bindings inst r.Tgd.body ~answer ~delta (fun codes ->
          triggers := { Trigger.rule = r; frontier = Array.copy codes } :: !triggers))
    (Program.tgds program);
  List.rev !triggers

let test_trigger_discovery () =
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "project" [ c "gemini" ] ] in
  let triggers = find_triggers person_project inst ~delta:None in
  Alcotest.(check int) "one per project" 2 (List.length triggers)

let test_trigger_satisfaction () =
  let inst =
    Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "member" [ c "apollo"; c "alan" ] ]
  in
  let triggers = find_triggers person_project inst ~delta:None in
  let has_member_trigger =
    List.find (fun tr -> tr.Trigger.rule.Tgd.name = "has_member") triggers
  in
  Alcotest.(check bool) "head already satisfied" true
    (Trigger.satisfied has_member_trigger.Trigger.rule inst has_member_trigger.Trigger.frontier)

let test_trigger_head_facts_share_nulls () =
  let r =
    Tgd.make ~name:"r" ~body:[ atom "p" [ v "X" ] ]
      ~head:[ atom "q" [ v "X"; v "Z" ]; atom "s" [ v "Z" ] ]
  in
  let program = Program.make_exn [ r ] in
  let inst = Instance.of_atoms [ atom "p" [ c "a" ] ] in
  match find_triggers program inst ~delta:None with
  | [ tr ] ->
    let gen = Null_gen.create () in
    (match Trigger.head_facts tr gen with
    | [ (_, t1); (_, t2) ] ->
      Alcotest.(check bool) "same null in both head atoms" true (t1.(1) = t2.(0));
      Alcotest.(check bool) "null is a null" true (Value.is_null (Value.decode t1.(1)))
    | _ -> Alcotest.fail "expected two head facts")
  | _ -> Alcotest.fail "expected one trigger"

(* Every null label a generator hands out has a columnar code, so sealing
   never meets a null it cannot code. *)
let test_null_labels_stay_codable () =
  let last = Null_gen.next (Null_gen.create ~start:(Value.null_base - 2) ()) in
  Alcotest.(check int) "last label codable" ((2 * Value.null_base) - 1) (Value.code last);
  match Null_gen.next (Null_gen.create ~start:(Value.null_base - 1) ()) with
  | v -> Alcotest.failf "handed out %s" (Value.to_string v)
  | exception Invalid_argument _ -> ()

let test_trigger_delta_restriction () =
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "project" [ c "gemini" ] ] in
  let delta = Symbol.Table.create 4 in
  Symbol.Table.add delta (Symbol.intern "project")
    (Result.get_ok (Columnar.of_columns ~arity:1 ~nrows:1 [| [| Value.code (Value.const "apollo") |] |]));
  let triggers = find_triggers person_project inst ~delta:(Some delta) in
  Alcotest.(check int) "only the delta project" 1 (List.length triggers)

(* ------------------------------------------------------------------ *)
(* Chase *)

let test_restricted_no_new_null_when_satisfied () =
  let inst =
    Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "member" [ c "apollo"; c "alan" ] ]
  in
  let stats = Chase.run person_project inst in
  Alcotest.(check bool) "terminated" true (stats.Chase.outcome = Chase.Terminated);
  Alcotest.(check int) "no null invented" 0 stats.Chase.nulls;
  (* person(alan) was derived. *)
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "person" [ c "alan" ] ] in
  Alcotest.(check bool) "person derived" true (Eval.cq_exists inst q)

let test_restricted_invents_when_needed () =
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ] ] in
  let stats = Chase.run person_project inst in
  Alcotest.(check int) "one null" 1 stats.Chase.nulls;
  Alcotest.(check int) "member + person" 2 stats.Chase.derived

let test_oblivious_fires_more () =
  let inst =
    Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "member" [ c "apollo"; c "alan" ] ]
  in
  let stats = Chase.run ~variant:Chase.Oblivious person_project inst in
  (* Oblivious fires has_member even though satisfied: invents a null. *)
  Alcotest.(check bool) "null invented" true (stats.Chase.nulls >= 1)

let test_chase_budget () =
  (* Non-terminating: p(X) -> r(X,Y); r(X,Y) -> p(Y). *)
  let p =
    Program.make_exn
      [
        Tgd.make ~name:"r1" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "r" [ v "X"; v "Y" ] ];
        Tgd.make ~name:"r2" ~body:[ atom "r" [ v "X"; v "Y" ] ] ~head:[ atom "p" [ v "Y" ] ];
      ]
  in
  let inst = Instance.of_atoms [ atom "p" [ c "a" ] ] in
  let stats = Chase.run ~max_rounds:10 p inst in
  Alcotest.(check bool) "budget exhausted" true
    (match stats.Chase.outcome with Chase.Truncated _ -> true | Chase.Terminated -> false);
  Alcotest.(check bool) "progress was made" true (stats.Chase.derived > 5)

let test_chase_weakly_acyclic_terminates () =
  let rng = Tgd_gen.Rng.create 3 in
  let data = Tgd_gen.University.generate_data rng ~scale:50 in
  let stats = Chase.run Tgd_gen.University.ontology data in
  Alcotest.(check bool) "terminates" true (stats.Chase.outcome = Chase.Terminated)

let test_chase_models_program () =
  (* After a terminated chase, no active trigger remains. *)
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ]; atom "project" [ c "x" ] ] in
  let _ = Chase.run person_project inst in
  let triggers = find_triggers person_project inst ~delta:None in
  List.iter
    (fun tr -> Alcotest.(check bool) "trigger satisfied" true (Trigger.satisfied tr.Trigger.rule inst tr.Trigger.frontier))
    triggers

let test_chase_multi_head () =
  let p =
    Program.make_exn
      [
        Tgd.make ~name:"mh" ~body:[ atom "a" [ v "X" ] ]
          ~head:[ atom "b" [ v "X"; v "Z" ]; atom "c" [ v "Z" ] ];
      ]
  in
  let inst = Instance.of_atoms [ atom "a" [ c "k" ] ] in
  let stats = Chase.run p inst in
  Alcotest.(check int) "both head atoms" 2 stats.Chase.derived;
  let q =
    Cq.make ~name:"q" ~answer:[] ~body:[ atom "b" [ c "k"; v "Z" ]; atom "c" [ v "Z" ] ]
  in
  Alcotest.(check bool) "joined on the same null" true (Eval.cq_exists inst q)

(* ------------------------------------------------------------------ *)
(* EGDs *)

let funct_r = Egd.functional "r" ~arity:2 ~key:[ 1 ] ~determined:2

let test_egd_make_validation () =
  Alcotest.check_raises "variables must occur"
    (Invalid_argument "Egd.make: equated variables must occur in the body") (fun () ->
      ignore
        (Egd.make ?name:None ~body:[ atom "p" [ v "X" ] ] ~left:(Symbol.intern "X")
           ~right:(Symbol.intern "Q")))

let test_egd_functional_shape () =
  Alcotest.(check int) "two body atoms" 2 (List.length funct_r.Egd.body);
  Alcotest.check_raises "bad position" (Invalid_argument "Egd.functional: bad determined position")
    (fun () -> ignore (Egd.functional "r" ~arity:2 ~key:[ 1 ] ~determined:5))

let no_tgds = Program.make_exn ~name:"empty" []

(* The chase mutates its instance: run it on a copy and hand both back. *)
let chase_copy ?(tgds = no_tgds) egds inst =
  let work = Instance.copy inst in
  (Chase.run ~egds tgds work, work)

let test_egd_satisfied () =
  let inst = Instance.of_atoms [ atom "r" [ c "a"; c "b" ]; atom "r" [ c "x"; c "b" ] ] in
  let stats, _ = chase_copy [ funct_r ] inst in
  Alcotest.(check bool) "consistent" true stats.Chase.consistent;
  Alcotest.(check int) "no merges needed" 0 stats.Chase.merges

let test_egd_hard_violation () =
  let inst = Instance.of_atoms [ atom "r" [ c "a"; c "b" ]; atom "r" [ c "a"; c "d" ] ] in
  match chase_copy [ funct_r ] inst with
  | { Chase.consistent = true; _ }, _ ->
    Alcotest.fail "expected a violation: r(a,b), r(a,d) with funct r"
  | { Chase.violation = None; _ }, _ -> Alcotest.fail "inconsistent without a violation"
  | { Chase.violation = Some viol; _ }, _ ->
    Alcotest.(check bool) "both constants reported" true
      (Value.is_null viol.Chase.v1 = false && Value.is_null viol.Chase.v2 = false)

let test_egd_merges_nulls () =
  let inst = Instance.create () in
  ignore (Instance.add_fact inst (Symbol.intern "r") [| Value.const "a"; Value.const "b" |]);
  ignore (Instance.add_fact inst (Symbol.intern "r") [| Value.const "a"; Value.Null 1 |]);
  ignore (Instance.add_fact inst (Symbol.intern "q") [| Value.Null 1 |]);
  let stats, merged = chase_copy [ funct_r ] inst in
  Alcotest.(check bool) "null merge must not fail" true stats.Chase.consistent;
  Alcotest.(check int) "one merge" 1 stats.Chase.merges;
  (* The null was identified with b everywhere: q(b) now holds and the two
     r-facts collapsed into one. *)
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "q" [ c "b" ] ] in
  Alcotest.(check bool) "null renamed in q" true (Eval.cq_exists merged q);
  Alcotest.(check int) "r collapsed" 2 (Instance.cardinality merged)

let test_egd_combined_chase () =
  (* person(X) -> has_mother(X, M) plus functionality of has_mother: the
     invented mother merges with a known one. *)
  let tgds =
    Program.make_exn
      [
        Tgd.make ~name:"mother" ~body:[ atom "person" [ v "X" ] ]
          ~head:[ atom "has_mother" [ v "X"; v "M" ] ];
      ]
  in
  let funct_mother = Egd.functional "has_mother" ~arity:2 ~key:[ 1 ] ~determined:2 in
  let inst =
    Instance.of_atoms [ atom "person" [ c "ada" ]; atom "has_mother" [ c "ada"; c "ida" ] ]
  in
  let stats, chased = chase_copy ~tgds [ funct_mother ] inst in
  Alcotest.(check bool) "consistent" true stats.Chase.consistent;
  (* Either the restricted chase never invented a witness, or the EGD merged
     it with ida; in both cases exactly one mother and no null remains. *)
  let q = Cq.make ~name:"q" ~answer:[ v "M" ] ~body:[ atom "has_mother" [ c "ada"; v "M" ] ] in
  match Eval.cq chased q with
  | [ t ] -> Alcotest.(check bool) "the known mother" true (Value.equal t.(0) (Value.const "ida"))
  | other -> Alcotest.fail (Printf.sprintf "expected 1 mother, got %d" (List.length other))

let test_egd_dl_lite_f_consistency () =
  (* DL-Lite_F: funct(advises-): a student with two advisors is fine for
     funct(advises) keyed on the advisor... keyed on the student it is a
     violation. *)
  let funct_inv = Tgd_gen.Dl_lite.functionality (Tgd_gen.Dl_lite.Inv "advises") in
  let consistent inst = (fst (chase_copy [ funct_inv ] inst)).Chase.consistent in
  let ok = Instance.of_atoms [ atom "advises" [ c "prof1"; c "sam" ]; atom "advises" [ c "prof1"; c "lee" ] ] in
  Alcotest.(check bool) "one advisor each: consistent" true (consistent ok);
  let bad = Instance.of_atoms [ atom "advises" [ c "prof1"; c "sam" ]; atom "advises" [ c "prof2"; c "sam" ] ] in
  Alcotest.(check bool) "two advisors for sam: inconsistent" false (consistent bad)

(* A chain where every link needs one EGD merge before the next TGD
   trigger exists: ok(c_i) invents p(c_{i+1}, Z), t(Z); funct p merges Z
   into a_{i+1}, which makes t(a_{i+1}) and so ok(c_{i+1}) derivable. The
   loop must keep alternating until the whole chain is done. *)
let test_egd_chain_completes () =
  let links = 25 in
  let tgds =
    Program.make_exn
      [
        Tgd.make ~name:"step"
          ~body:[ atom "ok" [ v "X" ]; atom "e" [ v "X"; v "Y" ] ]
          ~head:[ atom "p" [ v "Y"; v "Z" ]; atom "t" [ v "Z" ] ];
        Tgd.make ~name:"check"
          ~body:[ atom "p" [ v "Y"; v "Z" ]; atom "t" [ v "Z" ]; atom "g" [ v "Z" ] ]
          ~head:[ atom "ok" [ v "Y" ] ];
      ]
  in
  let funct_p = Egd.functional "p" ~arity:2 ~key:[ 1 ] ~determined:2 in
  let ci i = c (Printf.sprintf "c%d" i) and ai i = c (Printf.sprintf "a%d" i) in
  let inst =
    Instance.of_atoms
      (atom "ok" [ ci 0 ]
      :: List.concat
           (List.init links (fun i ->
                [
                  atom "e" [ ci i; ci (i + 1) ];
                  atom "p" [ ci (i + 1); ai (i + 1) ];
                  atom "g" [ ai (i + 1) ];
                ])))
  in
  let stats = Chase.run ~egds:[ funct_p ] tgds inst in
  Alcotest.(check bool) "terminated" true (stats.Chase.outcome = Chase.Terminated);
  Alcotest.(check bool) "consistent" true stats.Chase.consistent;
  Alcotest.(check int) "one merge per link" links stats.Chase.merges;
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "ok" [ ci links ] ] in
  Alcotest.(check bool) "end of the chain reached" true (Eval.cq_exists inst q)

(* ------------------------------------------------------------------ *)
(* Pinned traces *)

(* Two budgeted runs whose [eval.steps] count and null-labelled facts were
   recorded under the per-node adaptive join order that {!Join_plan}
   replaced. Null labels follow trigger discovery order, so a drift in
   the join order or in where [eval.steps] is charged fails here. *)
let pinned_run program inst ~rounds =
  let tel = Tgd_exec.Telemetry.create () in
  let budget = { Tgd_exec.Budget.unlimited with Tgd_exec.Budget.chase_rounds = Some rounds } in
  let gov = Tgd_exec.Governor.create ~budget ~telemetry:tel () in
  ignore (Chase.run ~gov program inst);
  let show (p, t) = Format.asprintf "%s%a" (Symbol.name p) Tuple.pp t in
  let facts = Instance.facts inst in
  let sorted l = List.sort compare (List.map show l) in
  ( Tgd_exec.Telemetry.get tel "eval.steps",
    sorted facts,
    sorted (List.filter (fun (_, t) -> Tuple.has_null t) facts) )

let test_pinned_infinite_chase () =
  let program =
    match Tgd_parser.Parser.parse_file "../examples/ontologies/infinite_chase_linear.tgd" with
    | Error e -> Alcotest.fail (Format.asprintf "%a" Tgd_parser.Parser.pp_error e)
    | Ok doc -> (
      match Tgd_parser.Parser.program_of_document doc with
      | Ok p -> p
      | Error e -> Alcotest.fail e)
  in
  let inst =
    Instance.of_atoms [ atom "person" [ c "ann" ]; atom "parent_of" [ c "bob"; c "ann" ] ]
  in
  let steps, facts, _ = pinned_run program inst ~rounds:8 in
  Alcotest.(check int) "eval.steps" 24 steps;
  Alcotest.(check (list string))
    "facts"
    [
      "parent_of(_n1,bob)"; "parent_of(_n2,_n1)"; "parent_of(_n3,_n2)"; "parent_of(_n4,_n3)";
      "parent_of(bob,ann)"; "person(_n1)"; "person(_n2)"; "person(_n3)"; "person(ann)";
      "person(bob)";
    ]
    facts

let test_pinned_university () =
  let data = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 5) ~scale:10 in
  let steps, facts, with_nulls = pinned_run Tgd_gen.University.ontology data ~rounds:2 in
  Alcotest.(check int) "eval.steps" 218 steps;
  Alcotest.(check int) "facts" 105 (List.length facts);
  Alcotest.(check (list string))
    "null-labelled facts"
    [
      "degree_from(student9,_n2)"; "organization(_n1)"; "sub_organization_of(group0,_n1)";
      "university(_n2)";
    ]
    with_nulls

(* ------------------------------------------------------------------ *)
(* Certain *)

let test_certain_excludes_nulls () =
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ] ] in
  let members =
    Cq.make ~name:"m" ~answer:[ v "M" ] ~body:[ atom "member" [ v "P"; v "M" ] ]
  in
  let r = Certain.cq person_project inst members in
  Alcotest.(check bool) "exact" true r.Certain.exact;
  Alcotest.(check int) "the invented member is not certain" 0 (List.length r.Certain.answers)

let test_certain_boolean_with_nulls () =
  (* Boolean queries can be certain even through nulls. *)
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ] ] in
  let somebody = Cq.make ~name:"q" ~answer:[] ~body:[ atom "person" [ v "X" ] ] in
  let r = Certain.cq person_project inst somebody in
  Alcotest.(check int) "boolean certain answer" 1 (List.length r.Certain.answers)

let test_certain_input_untouched () =
  let inst = Instance.of_atoms [ atom "project" [ c "apollo" ] ] in
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "person" [ v "X" ] ] in
  let _ = Certain.cq person_project inst q in
  Alcotest.(check int) "input instance unchanged" 1 (Instance.cardinality inst)

let test_certain_inexact_flag () =
  let p =
    Program.make_exn
      [
        Tgd.make ~name:"r1" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "r" [ v "X"; v "Y" ] ];
        Tgd.make ~name:"r2" ~body:[ atom "r" [ v "X"; v "Y" ] ] ~head:[ atom "p" [ v "Y" ] ];
      ]
  in
  let inst = Instance.of_atoms [ atom "p" [ c "a" ] ] in
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "p" [ c "a" ] ] in
  let r = Certain.cq ~max_rounds:5 p inst q in
  Alcotest.(check bool) "flagged inexact" false r.Certain.exact;
  Alcotest.(check int) "still sound" 1 (List.length r.Certain.answers)

let () =
  Alcotest.run "chase"
    [
      ( "trigger",
        [
          Alcotest.test_case "discovery" `Quick test_trigger_discovery;
          Alcotest.test_case "satisfaction" `Quick test_trigger_satisfaction;
          Alcotest.test_case "head facts share nulls" `Quick test_trigger_head_facts_share_nulls;
          Alcotest.test_case "delta restriction" `Quick test_trigger_delta_restriction;
          Alcotest.test_case "null labels stay codable" `Quick test_null_labels_stay_codable;
        ] );
      ( "chase",
        [
          Alcotest.test_case "restricted skips satisfied" `Quick
            test_restricted_no_new_null_when_satisfied;
          Alcotest.test_case "restricted invents" `Quick test_restricted_invents_when_needed;
          Alcotest.test_case "oblivious fires more" `Quick test_oblivious_fires_more;
          Alcotest.test_case "budget" `Quick test_chase_budget;
          Alcotest.test_case "weakly acyclic terminates" `Quick test_chase_weakly_acyclic_terminates;
          Alcotest.test_case "result models program" `Quick test_chase_models_program;
          Alcotest.test_case "multi-head nulls" `Quick test_chase_multi_head;
          Alcotest.test_case "pinned trace: infinite chase" `Quick test_pinned_infinite_chase;
          Alcotest.test_case "pinned trace: University" `Quick test_pinned_university;
        ] );
      ( "egd",
        [
          Alcotest.test_case "validation" `Quick test_egd_make_validation;
          Alcotest.test_case "functional shape" `Quick test_egd_functional_shape;
          Alcotest.test_case "satisfied" `Quick test_egd_satisfied;
          Alcotest.test_case "hard violation" `Quick test_egd_hard_violation;
          Alcotest.test_case "null merging" `Quick test_egd_merges_nulls;
          Alcotest.test_case "combined chase" `Quick test_egd_combined_chase;
          Alcotest.test_case "dl-lite_f consistency" `Quick test_egd_dl_lite_f_consistency;
          Alcotest.test_case "merge chain completes" `Quick test_egd_chain_completes;
        ] );
      ( "certain",
        [
          Alcotest.test_case "nulls excluded" `Quick test_certain_excludes_nulls;
          Alcotest.test_case "boolean through nulls" `Quick test_certain_boolean_with_nulls;
          Alcotest.test_case "input untouched" `Quick test_certain_input_untouched;
          Alcotest.test_case "inexact flag" `Quick test_certain_inexact_flag;
        ] );
    ]
