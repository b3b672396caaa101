(* The conformance harness's own acceptance tests: corpus replay, the
   fixed-seed sweep that PR CI runs, determinism of the case stream and the
   summary, case round-tripping — and one injected mutant per invariant
   class, proving the registry actually catches the faults it claims to. *)

open Tgd_logic
open Tgd_conformance

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( try int_of_string (String.trim s) with _ -> default)
  | None -> default

(* ------------------------------------------------------------------ *)
(* Corpus replay: the checked-in shrunk cases must stay green.          *)

let test_corpus_replay () =
  let summary = Harness.replay ~dir:"corpus" () in
  Alcotest.(check bool) "corpus directory found" true (summary.Harness.cases > 0);
  if summary.Harness.failed > 0 then
    Alcotest.fail (Harness.summary_to_string summary)

(* ------------------------------------------------------------------ *)
(* The fixed-seed sweep (PR CI scale; nightly raises the env vars).     *)

let test_fixed_seed_sweep () =
  let seed = getenv_int "TGDLIB_FUZZ_SEED" 2014 in
  let cases = getenv_int "TGDLIB_FUZZ_CASES" 100 in
  let summary = Harness.run ~seed ~cases () in
  if summary.Harness.failed > 0 then Alcotest.fail (Harness.summary_to_string summary);
  Alcotest.(check int) "every case swept" cases summary.Harness.cases;
  Alcotest.(check int) "nine checks per case" (cases * 9) summary.Harness.checks

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)

let test_stream_determinism () =
  for index = 0 to 13 do
    let c1 = Gen_case.case ~seed:77 ~index and c2 = Gen_case.case ~seed:77 ~index in
    Alcotest.(check string)
      (Printf.sprintf "case %d reproducible" index)
      (Case.to_string c1) (Case.to_string c2)
  done;
  (* Different seeds diverge somewhere in a short prefix. *)
  let differs =
    List.exists
      (fun index ->
        Case.to_string (Gen_case.case ~seed:1 ~index)
        <> Case.to_string (Gen_case.case ~seed:2 ~index))
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "seeds matter" true differs

let test_summary_determinism () =
  let run () = Harness.summary_to_string (Harness.run ~seed:31 ~cases:21 ()) in
  Alcotest.(check string) "same seed, same report" (run ()) (run ())

let test_family_rotation () =
  (* Any 7 consecutive indices cover every family (the seed stride is
     coprime to the family count), and a case replayed by its OWN seed at
     index 0 regenerates identically — label included. *)
  let labels =
    List.init (Array.length Gen_case.families) (fun i ->
        (Gen_case.case ~seed:5 ~index:i).Case.label)
  in
  Array.iter
    (fun family ->
      let name = Gen_case.family_name family in
      Alcotest.(check bool) (name ^ " appears") true (List.mem name labels))
    Gen_case.families;
  let c = Gen_case.case ~seed:5 ~index:3 in
  let replayed = Gen_case.case ~seed:c.Case.seed ~index:0 in
  Alcotest.(check string) "replay by case seed" (Case.to_string c) (Case.to_string replayed)

(* ------------------------------------------------------------------ *)
(* Case round-trip through the ontology text format                     *)

let test_case_roundtrip () =
  for index = 0 to 6 do
    let c = Gen_case.case ~seed:11 ~index in
    match Case.of_string (Case.to_string c) with
    | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
    | Ok c' ->
      Alcotest.(check string) "label survives" c.Case.label c'.Case.label;
      Alcotest.(check int) "seed survives" c.Case.seed c'.Case.seed;
      Alcotest.(check string) "text fixpoint" (Case.to_string c) (Case.to_string c')
  done

(* ------------------------------------------------------------------ *)
(* Mutant acceptance: each invariant class catches its injected fault.  *)

let expect_caught ~name ~invariant ~cases mutant =
  let inv =
    match Invariant.find invariant with
    | Some inv -> inv
    | None -> Alcotest.fail ("unknown invariant " ^ invariant)
  in
  let summary =
    Harness.run ~oracle:mutant ~invariants:[ inv ] ~shrink:false ~stop_after:1 ~seed:2014
      ~cases ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s mutant caught by %s within %d cases" name invariant cases)
    true
    (summary.Harness.failed > 0)

(* A classifier that claims datalog membership without weak acyclicity:
   breaks the lattice on every case. *)
let test_mutant_subsumption () =
  let mutant =
    {
      Oracle.real with
      Oracle.classify =
        (fun p ->
          let r = Tgd_core.Classifier.classify p in
          { r with Tgd_core.Classifier.datalog = true; weakly_acyclic = false });
    }
  in
  expect_caught ~name:"lattice" ~invariant:"subsumption" ~cases:3 mutant

(* An evaluator that silently drops the last answer tuple: the SWR
   differential sees rewrite∘eval disagree with the chase. *)
let test_mutant_differential () =
  let mutant =
    {
      Oracle.real with
      Oracle.eval_ucq =
        (fun inst u ->
          match List.rev (Oracle.real.Oracle.eval_ucq inst u) with
          | [] -> []
          | _ :: rest -> List.rev rest);
    }
  in
  expect_caught ~name:"dropped-tuple" ~invariant:"differential" ~cases:60 mutant

(* A parallel evaluator that drops the first answer tuple: the eval-parallel
   invariant sees it disagree with the sequential path. *)
let test_mutant_eval_parallel () =
  let mutant =
    {
      Oracle.real with
      Oracle.eval_ucq_par =
        (fun ~workers ~partitions inst u ->
          match Oracle.real.Oracle.eval_ucq_par ~workers ~partitions inst u with
          | [] -> []
          | _ :: rest -> rest);
    }
  in
  expect_caught ~name:"dropped-tuple-parallel" ~invariant:"eval-parallel" ~cases:40 mutant

(* A cache key that is NOT invariant under variable renaming: prepared
   entries would miss (or collide) across alpha-equivalent queries. *)
let test_mutant_metamorphic () =
  let mutant = { Oracle.real with Oracle.canon_key = (fun q -> Cq.to_string q) } in
  expect_caught ~name:"raw-text-key" ~invariant:"metamorphic" ~cases:3 mutant

(* A serve path that appends a phantom row to every answer set: the
   byte-comparison against direct evaluation must notice. *)
let test_mutant_serve () =
  let corrupt = function
    | Tgd_serve.Json.List rows ->
      Tgd_serve.Json.List (rows @ [ Tgd_serve.Json.List [ Tgd_serve.Json.String "bogus" ] ])
    | v -> v
  in
  let mutant =
    {
      Oracle.real with
      Oracle.serve_handle =
        (fun srv req ->
          match Oracle.real.Oracle.serve_handle srv req with
          | Ok fields ->
            Ok
              (List.map
                 (fun (k, v) -> if String.equal k "answers" then (k, corrupt v) else (k, v))
                 fields)
          | Error _ as e -> e);
    }
  in
  expect_caught ~name:"phantom-row" ~invariant:"serve" ~cases:8 mutant

(* A chase that invents an answer when truncated hard: truncated answers
   are no longer a subset of the complete ones. *)
let test_mutant_truncation () =
  let mutant =
    {
      Oracle.real with
      Oracle.certain_cq =
        (fun ~max_rounds ~max_facts p inst q ->
          let r = Oracle.real.Oracle.certain_cq ~max_rounds ~max_facts p inst q in
          if max_rounds <= 1 then
            {
              r with
              Tgd_chase.Certain.answers =
                Array.make (Cq.arity q) (Tgd_db.Value.const "bogus")
                :: r.Tgd_chase.Certain.answers;
            }
          else r);
    }
  in
  expect_caught ~name:"invented-answer" ~invariant:"truncation" ~cases:3 mutant

(* An incremental chase that inserts the batch but skips every delta-joined
   trigger (the classic semi-naive bug: forgetting that old facts can join
   new ones): the incremental model misses derived facts the from-scratch
   chase has, and the update-sequence invariant sees the null-free parts
   disagree. *)
let test_mutant_delta_skip () =
  let mutant =
    {
      Oracle.real with
      Oracle.delta_apply =
        (fun ~max_rounds:_ ~max_facts:_ _p inst batch ->
          let inserted =
            List.fold_left
              (fun n (pred, t) -> if Tgd_db.Instance.add_fact inst pred t then n + 1 else n)
              0 batch
          in
          {
            Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated;
            rounds = 0;
            inserted;
            derived = 0;
            nulls = 0;
            triggers_fired = 0;
            merges = 0;
            consistent = true;
            violation = None;
          });
    }
  in
  expect_caught ~name:"skipped-delta-triggers" ~invariant:"update-sequence" ~cases:40 mutant

(* An incremental chase that leaves one equivalence class stale, as a buggy
   EGD replay would: after the real delta application, one constant is
   knocked back to a fresh null everywhere it occurs. The null-free parts of
   the two models can no longer coincide. *)
let test_mutant_delta_stale_class () =
  let mutant =
    {
      Oracle.real with
      Oracle.delta_apply =
        (fun ~max_rounds ~max_facts p inst batch ->
          let stats = Oracle.real.Oracle.delta_apply ~max_rounds ~max_facts p inst batch in
          let some_const =
            List.find_map
              (fun (_, t) ->
                Array.find_opt (function Tgd_db.Value.Const _ -> true | _ -> false) t)
              (Tgd_db.Instance.facts inst)
          in
          (match some_const with
          | Some c ->
            let stale = Tgd_db.Value.Null (Tgd_db.Instance.max_null inst + 1) in
            ignore (Tgd_db.Instance.substitute inst ~from_:c ~to_:stale)
          | None -> ());
          stats);
    }
  in
  expect_caught ~name:"stale-egd-class" ~invariant:"update-sequence" ~cases:10 mutant

(* A Datalog backend whose saturation misses answers (it drops the last
   goal tuple): the rewrite-target differential sees the two backends
   disagree. *)
let test_mutant_rewrite_target () =
  let mutant =
    {
      Oracle.real with
      Oracle.datalog_answers =
        (fun r inst ->
          match List.rev (Oracle.real.Oracle.datalog_answers r inst) with
          | [] -> []
          | _ :: rest -> List.rev rest);
    }
  in
  expect_caught ~name:"dropped-goal-tuple" ~invariant:"rewrite-target" ~cases:40 mutant

(* ------------------------------------------------------------------ *)
(* Shrinking: a failing case reduces to a minimal reproducer that still
   fails, never grows, and lands in the corpus directory when asked.    *)

let test_shrink_minimizes () =
  let mutant = { Oracle.real with Oracle.canon_key = (fun q -> Cq.to_string q) } in
  let inv = Option.get (Invariant.find "metamorphic") in
  let summary =
    Harness.run ~oracle:mutant ~invariants:[ inv ] ~stop_after:1 ~seed:2014 ~cases:3 ()
  in
  match summary.Harness.failures with
  | [] -> Alcotest.fail "expected the canon-key mutant to fail"
  | f :: _ ->
    let size (c : Case.t) =
      List.length (Program.tgds c.Case.program)
      + List.length c.Case.facts
      + List.length c.Case.query.Cq.body
    in
    Alcotest.(check bool) "shrunk no larger" true (size f.Harness.shrunk <= size f.Harness.original);
    (* The canon-key fault is query-shaped: rules and facts shrink away. *)
    Alcotest.(check int) "rules dropped" 0 (List.length (Program.tgds f.Harness.shrunk.Case.program));
    Alcotest.(check int) "facts dropped" 0 (List.length f.Harness.shrunk.Case.facts);
    (match inv.Invariant.check mutant f.Harness.shrunk with
    | Invariant.Fail _ -> ()
    | o ->
      Alcotest.fail ("shrunk case no longer fails: " ^ Invariant.outcome_to_string o))

(* A server that applies each add-facts batch straight to its registry,
   outside the WAL: the live answers include the batch, the recovered
   ones do not. *)
let test_mutant_durability () =
  let mutant =
    {
      Oracle.real with
      Oracle.serve_handle =
        (fun srv req ->
          match req with
          | Tgd_serve.Protocol.Add_facts { name; source = Tgd_serve.Protocol.Inline csv } -> (
            match Tgd_serve.Registry.load_csv_string (Tgd_serve.Server.registry srv) ~name csv with
            | Ok _ -> Ok []
            | Error msg -> Error ("bad_request", msg))
          | _ -> Oracle.real.Oracle.serve_handle srv req);
    }
  in
  expect_caught ~name:"unlogged-add-facts" ~invariant:"durability" ~cases:10 mutant

let test_failure_persisted () =
  let mutant = { Oracle.real with Oracle.canon_key = (fun q -> Cq.to_string q) } in
  let inv = Option.get (Invariant.find "metamorphic") in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tgd_conformance_corpus_test" in
  let summary =
    Harness.run ~oracle:mutant ~invariants:[ inv ] ~corpus_dir:dir ~stop_after:1 ~seed:2014
      ~cases:3 ()
  in
  match summary.Harness.failures with
  | { Harness.corpus_file = Some path; _ } :: _ ->
    (match Case.load path with
    | Ok c ->
      Sys.remove path;
      (match inv.Invariant.check mutant c with
      | Invariant.Fail _ -> ()
      | o -> Alcotest.fail ("persisted case no longer fails: " ^ Invariant.outcome_to_string o))
    | Error msg -> Alcotest.fail ("persisted case unreadable: " ^ msg))
  | _ -> Alcotest.fail "expected a persisted failure"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "conformance"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay checked-in cases" `Quick test_corpus_replay;
          Alcotest.test_case "case text round-trip" `Quick test_case_roundtrip;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "fixed-seed sweep is green" `Slow test_fixed_seed_sweep;
          Alcotest.test_case "case stream determinism" `Quick test_stream_determinism;
          Alcotest.test_case "summary determinism" `Quick test_summary_determinism;
          Alcotest.test_case "family rotation" `Quick test_family_rotation;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "subsumption catches lattice fault" `Quick test_mutant_subsumption;
          Alcotest.test_case "differential catches dropped tuple" `Quick test_mutant_differential;
          Alcotest.test_case "eval-parallel catches dropped tuple" `Quick
            test_mutant_eval_parallel;
          Alcotest.test_case "metamorphic catches non-canonical key" `Quick
            test_mutant_metamorphic;
          Alcotest.test_case "serve catches phantom row" `Quick test_mutant_serve;
          Alcotest.test_case "truncation catches invented answer" `Quick test_mutant_truncation;
          Alcotest.test_case "update-sequence catches skipped delta triggers" `Quick
            test_mutant_delta_skip;
          Alcotest.test_case "update-sequence catches a stale EGD class" `Quick
            test_mutant_delta_stale_class;
          Alcotest.test_case "rewrite-target catches a lossy Datalog backend" `Quick
            test_mutant_rewrite_target;
          Alcotest.test_case "durability catches an unlogged add-facts" `Quick
            test_mutant_durability;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "greedy shrink reaches a minimal reproducer" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "failures persist to the corpus directory" `Quick
            test_failure_persisted;
        ] );
    ]
