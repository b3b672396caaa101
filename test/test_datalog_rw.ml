(* Unit and property tests for the Datalog rewriting target: affected
   positions, pattern decomposition, exactness on workloads the UCQ
   rewriter cannot finish, truncation soundness, and a differential
   datalog ≡ ucq property on random SWR cases. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval
open Tgd_rewrite

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args

let is_complete = function Datalog_rw.Complete -> true | Datalog_rw.Truncated _ -> false

let datalog_answers = Tgd_obda.Target.datalog_answers

let ucq_answers p q inst =
  let r = Rewrite.ucq p q in
  match r.Rewrite.outcome with
  | Rewrite.Truncated _ -> Alcotest.fail "ucq rewriting unexpectedly truncated"
  | Rewrite.Complete ->
    Eval.ucq inst r.Rewrite.ucq |> List.filter (fun t -> not (Tuple.has_null t))

let tuples_equal l1 l2 = List.length l1 = List.length l2 && List.for_all2 Tuple.equal l1 l2

(* A depth-[n] concept hierarchy a_1 <= a_2 <= ... <= a_n. *)
let hierarchy n =
  let rules =
    List.init (n - 1) (fun i ->
        Tgd.make
          ~name:(Printf.sprintf "h%d" i)
          ~body:[ atom (Printf.sprintf "a%d" (i + 1)) [ v "X" ] ]
          ~head:[ atom (Printf.sprintf "a%d" (i + 2)) [ v "X" ] ])
  in
  Program.make_exn ~name:"hierarchy" rules

(* ------------------------------------------------------------------ *)

let test_deep_hierarchy () =
  let n = 60 in
  let p = hierarchy n in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom (Printf.sprintf "a%d" n) [ v "X" ] ]
  in
  let r = Datalog_rw.rewrite p q in
  Alcotest.(check bool) "complete" true (is_complete r.Datalog_rw.outcome);
  Alcotest.(check bool) "nonrecursive" true r.Datalog_rw.nonrecursive;
  (* One pattern per level: linear, not exponential, and no 60-disjunct
     union. *)
  Alcotest.(check bool) "pattern count linear" true (r.Datalog_rw.stats.Datalog_rw.patterns <= n + 1);
  let inst = Instance.of_atoms [ atom "a1" [ c "alice" ]; atom "a30" [ c "bob" ] ] in
  let got = datalog_answers r inst in
  let expected = ucq_answers p q inst in
  Alcotest.(check bool) "answers match ucq" true (tuples_equal got expected);
  Alcotest.(check int) "two answers" 2 (List.length got)

let test_example2_exact () =
  (* The paper's example 2 is not FO-rewritable: the UCQ rewriter diverges
     (test_rewrite asserts truncation). The Datalog target closes the
     recursion into a finite — recursive — program and answers exactly. *)
  let p = Tgd_core.Paper_examples.example2 in
  let q = Tgd_core.Paper_examples.example2_query in
  let r = Datalog_rw.rewrite p q in
  Alcotest.(check bool) "complete" true (is_complete r.Datalog_rw.outcome);
  Alcotest.(check bool) "recursive" false r.Datalog_rw.nonrecursive;
  Alcotest.(check bool) "few patterns" true (r.Datalog_rw.stats.Datalog_rw.patterns <= 16);
  (* t(c,a), r(c,d) |= q: R1 gives s(c,c,a), R2 gives r(a,_). *)
  let yes = Instance.of_atoms [ atom "t" [ c "c"; c "a" ]; atom "r" [ c "c"; c "d" ] ] in
  Alcotest.(check int) "entailed" 1 (List.length (datalog_answers r yes));
  (* Two derivation levels deep: r(d,e) -> s(d,d,c) -> r(c,_) -> s(c,c,a)
     -> r(a,_). *)
  let deep =
    Instance.of_atoms
      [ atom "t" [ c "c"; c "a" ]; atom "t" [ c "d"; c "c" ]; atom "r" [ c "d"; c "e" ] ]
  in
  Alcotest.(check int) "entailed transitively" 1 (List.length (datalog_answers r deep));
  let no = Instance.of_atoms [ atom "t" [ c "c"; c "a" ] ] in
  Alcotest.(check int) "not entailed" 0 (List.length (datalog_answers r no))

let test_example2_vs_chase () =
  (* Cross-check the Datalog target against chase-then-evaluate on data
     where the chase terminates. *)
  let p = Tgd_core.Paper_examples.example2 in
  let q = Tgd_core.Paper_examples.example2_query in
  let r = Datalog_rw.rewrite p q in
  let check_inst atoms =
    let inst = Instance.of_atoms atoms in
    let via_dl = datalog_answers r inst in
    let via_chase = Tgd_chase.Certain.cq ~max_rounds:60 ~max_facts:20_000 p inst q in
    Alcotest.(check bool) "chase exact" true via_chase.Tgd_chase.Certain.exact;
    Alcotest.(check bool) "datalog = chase" true
      (tuples_equal via_dl via_chase.Tgd_chase.Certain.answers)
  in
  check_inst [ atom "t" [ c "c"; c "a" ]; atom "r" [ c "c"; c "d" ] ];
  check_inst [ atom "t" [ c "c"; c "a" ]; atom "t" [ c "d"; c "c" ]; atom "r" [ c "d"; c "e" ] ];
  check_inst [ atom "s" [ c "u"; c "u"; c "a" ] ];
  check_inst [ atom "s" [ c "u"; c "v"; c "a" ]; atom "t" [ c "w"; c "a" ] ]

let test_affected_decomposition_shares () =
  (* r(X,Y1), r(X,Y2) with Y1, Y2 null-capable but X bound: the two atoms
     share only the constant-valued X, so they decompose into the SAME
     pattern — the sharing that keeps the program polynomial. *)
  let rules =
    [
      Tgd.make ~name:"mk" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "r" [ v "X"; v "Y" ] ];
    ]
  in
  let p = Program.make_exn ~name:"share" rules in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ atom "r" [ v "X"; v "Y1" ] ; atom "r" [ v "X"; v "Y2" ] ]
  in
  let r = Datalog_rw.rewrite p q in
  Alcotest.(check bool) "complete" true (is_complete r.Datalog_rw.outcome);
  (* Both body atoms collapse onto one r(X,_) pattern (plus its p(X)
     descendant). *)
  Alcotest.(check bool) "patterns shared" true (r.Datalog_rw.stats.Datalog_rw.patterns <= 3);
  let inst = Instance.of_atoms [ atom "p" [ c "a" ]; atom "r" [ c "b"; c "w" ] ] in
  let got = datalog_answers r inst in
  let expected = ucq_answers p q inst in
  Alcotest.(check bool) "answers match ucq" true (tuples_equal got expected);
  Alcotest.(check int) "two answers" 2 (List.length got)

let test_truncation_soundness () =
  let n = 40 in
  let p = hierarchy n in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom (Printf.sprintf "a%d" n) [ v "X" ] ]
  in
  let full = Datalog_rw.rewrite p q in
  Alcotest.(check bool) "full run complete" true (is_complete full.Datalog_rw.outcome);
  let inst =
    Instance.of_atoms [ atom "a1" [ c "deep" ]; atom (Printf.sprintf "a%d" n) [ c "top" ] ]
  in
  let full_answers = datalog_answers full inst in
  Alcotest.(check int) "full finds both" 2 (List.length full_answers);
  (* A tight pattern budget stops the exploration early; the truncated
     program must under-approximate, never invent. *)
  let budget =
    match Tgd_exec.Budget.of_string "rewrite.datalog.patterns=3" with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let gov = Tgd_exec.Governor.create ~budget () in
  let tight = Datalog_rw.rewrite ~gov p q in
  Alcotest.(check bool) "truncated" false (is_complete tight.Datalog_rw.outcome);
  let tight_answers = datalog_answers tight inst in
  Alcotest.(check bool) "sound subset" true
    (List.for_all (fun t -> List.exists (Tuple.equal t) full_answers) tight_answers);
  Alcotest.(check bool) "shallow answer kept" true
    (List.exists (fun t -> not (Tuple.has_null t)) tight_answers
    || tight_answers = []);
  (* The structural config cap reports the same way. *)
  let capped = Datalog_rw.rewrite ~config:{ Datalog_rw.default_config with max_patterns = 2 } p q in
  Alcotest.(check bool) "config cap truncates" false (is_complete capped.Datalog_rw.outcome)

let test_saturate_fact_budget () =
  (* The rewrite.datalog.facts gauge winds saturation down between rounds. *)
  let n = 30 in
  let p = hierarchy n in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom (Printf.sprintf "a%d" n) [ v "X" ] ]
  in
  let r = Datalog_rw.rewrite p q in
  let inst = Instance.of_atoms [ atom "a1" [ c "alice" ] ] in
  let budget =
    match Tgd_exec.Budget.of_string "rewrite.datalog.facts=5" with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let gov = Tgd_exec.Governor.create ~budget () in
  let partial = datalog_answers ~gov r inst in
  Alcotest.(check bool) "governor tripped" true (Tgd_exec.Governor.stopped gov <> None);
  let full = datalog_answers r inst in
  Alcotest.(check bool) "partial is subset" true
    (List.for_all (fun t -> List.exists (Tuple.equal t) full) partial)

(* ------------------------------------------------------------------ *)
(* Differential property: datalog ≡ ucq wherever both complete, on the
   same random SWR population the chase-vs-rewrite oracle uses. *)

let seed =
  match Sys.getenv_opt "TGDLIB_DIFF_SEED" with Some s -> int_of_string s | None -> 20140614

let n_cases =
  match Sys.getenv_opt "TGDLIB_DLRW_CASES" with Some s -> int_of_string s | None -> 150

let gen_config =
  {
    Tgd_gen.Gen_tgd.default_config with
    Tgd_gen.Gen_tgd.n_predicates = 4;
    max_arity = 2;
    n_rules = 4;
    max_body_atoms = 2;
    max_head_atoms = 1;
    existential_rate = 0.3;
  }

let random_swr_program rng =
  Tgd_gen.Gen_tgd.sample_in_class ~max_tries:200
    (fun p -> (Tgd_core.Swr.check p).Tgd_core.Swr.swr)
    (fun () -> Tgd_gen.Gen_tgd.random_simple_program rng gen_config)

let random_cq rng p =
  let preds = Program.predicates p in
  let n_atoms = 1 + Tgd_gen.Rng.int rng 2 in
  let term_of_var i = Term.var (Printf.sprintf "X%d" i) in
  let body =
    List.init n_atoms (fun _ ->
        let pred, arity = Tgd_gen.Rng.choose rng preds in
        Atom.make pred (List.init arity (fun _ -> term_of_var (Tgd_gen.Rng.int rng 3))))
  in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
  in
  let answer =
    List.filter (fun _ -> Tgd_gen.Rng.bool rng 0.5) vars |> List.map (fun x -> Term.Var x)
  in
  Cq.make ~name:"q" ~answer ~body

let test_differential_vs_ucq () =
  let rng = Tgd_gen.Rng.create seed in
  let compared = ref 0 in
  let nonempty = ref 0 in
  let skipped = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 100 * n_cases in
  let ucq_config = { Rewrite.default_config with max_cqs = 3_000 } in
  while !compared < n_cases && !attempts < max_attempts do
    incr attempts;
    match random_swr_program rng with
    | None -> incr skipped
    | Some p ->
      if Program.predicates p = [] then incr skipped
      else begin
        let inst =
          Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:5 ~domain_size:4
        in
        let q = random_cq rng p in
        let u = Rewrite.ucq ~config:ucq_config p q in
        let d = Datalog_rw.rewrite p q in
        match (u.Rewrite.outcome, d.Datalog_rw.outcome) with
        | Rewrite.Complete, Datalog_rw.Complete ->
          let via_ucq =
            Eval.ucq inst u.Rewrite.ucq |> List.filter (fun t -> not (Tuple.has_null t))
          in
          let via_dl = datalog_answers d inst in
          if tuples_equal via_ucq via_dl then begin
            incr compared;
            if via_ucq <> [] then incr nonempty
          end
          else begin
            let buf = Buffer.create 512 in
            let fmt = Format.formatter_of_buffer buf in
            Format.fprintf fmt "ucq and datalog targets disagree:@.-- program:@.%s"
              (Tgd_parser.Printer.program_to_string p);
            Format.fprintf fmt "-- query: %a@." Cq.pp q;
            Format.fprintf fmt "-- facts:@.";
            List.iter (fun a -> Format.fprintf fmt "  %a.@." Atom.pp a) (Instance.to_atoms inst);
            Format.fprintf fmt "-- via ucq (%d):" (List.length via_ucq);
            List.iter (fun t -> Format.fprintf fmt " %a" Tuple.pp t) via_ucq;
            Format.fprintf fmt "@.-- via datalog (%d):" (List.length via_dl);
            List.iter (fun t -> Format.fprintf fmt " %a" Tuple.pp t) via_dl;
            Format.pp_print_flush fmt ();
            Alcotest.fail (Buffer.contents buf)
          end
        | _ -> incr skipped
      end
  done;
  Printf.printf "datalog-vs-ucq: %d cases compared (%d non-empty), %d skipped, seed %d\n"
    !compared !nonempty !skipped seed;
  if !compared < n_cases then
    Alcotest.failf "only %d/%d cases compared after %d attempts" !compared n_cases !attempts;
  if !nonempty * 5 < n_cases then
    Alcotest.failf "only %d/%d compared cases had non-empty answers — generator too weak"
      !nonempty !compared

(* ------------------------------------------------------------------ *)
(* Against the naive reference chase                                    *)

(* The naive restricted chase of lib/conformance shares no loop with
   [Chase.run], so saturating an existential-free program both ways and
   evaluating the goal must give the same answers. *)
let naive_answers p inst q =
  let work = Instance.copy inst in
  let gov =
    Tgd_exec.Governor.create
      ~budget:{ Tgd_exec.Budget.unlimited with Tgd_exec.Budget.chase_facts = Some 200_000 }
      ()
  in
  let stats = Tgd_conformance.Naive_chase.run ~gov p work in
  if stats.Tgd_chase.Chase.outcome <> Tgd_chase.Chase.Terminated then
    Alcotest.fail "naive chase truncated";
  Eval.cq work q |> List.filter (fun t -> not (Tuple.has_null t))

let check_vs_naive ~what p q inst =
  let d = Datalog_rw.rewrite p q in
  if is_complete d.Datalog_rw.outcome then begin
    let got = datalog_answers d inst in
    (* The artifact's own program, saturated naively ... *)
    let artifact = naive_answers d.Datalog_rw.program inst (Datalog_rw.goal_query d) in
    (* ... and the input program, whose chase the artifact stands for. *)
    let direct = naive_answers p inst q in
    if not (tuples_equal got artifact && tuples_equal got direct) then
      Alcotest.failf "%s: datalog target %d answers, naive artifact %d, naive direct %d@.%s" what
        (List.length got) (List.length artifact) (List.length direct)
        (Tgd_parser.Printer.program_to_string p);
    true
  end
  else false

let test_random_vs_naive () =
  let rng = Tgd_gen.Rng.create seed in
  let config =
    {
      Tgd_gen.Gen_tgd.default_config with
      Tgd_gen.Gen_tgd.n_predicates = 4;
      max_arity = 2;
      n_rules = 5;
      max_body_atoms = 2;
      max_head_atoms = 2;
      existential_rate = 0.0;
    }
  in
  let compared = ref 0 and recursive = ref 0 in
  for i = 1 to 60 do
    let p = Tgd_gen.Gen_tgd.random_program rng config in
    if Program.predicates p <> [] then begin
      let inst = Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:6 ~domain_size:4 in
      let q = random_cq rng p in
      let d = Datalog_rw.rewrite p q in
      if check_vs_naive ~what:(Printf.sprintf "case %d" i) p q inst then begin
        incr compared;
        if not d.Datalog_rw.nonrecursive then incr recursive
      end
    end
  done;
  if !compared < 30 || !recursive = 0 then
    Alcotest.failf "only %d cases compared, %d recursive" !compared !recursive

let test_example2_vs_naive () =
  let p = Tgd_core.Paper_examples.example2 in
  let q = Tgd_core.Paper_examples.example2_query in
  let d = Datalog_rw.rewrite p q in
  Alcotest.(check bool) "recursive artifact" false d.Datalog_rw.nonrecursive;
  let rng = Tgd_gen.Rng.create seed in
  let entailed = ref 0 in
  (* Facts over a domain holding the query's constant [a]. *)
  let domain = [| "a"; "b"; "c"; "d" |] in
  let random_inst () =
    Instance.of_atoms
      (List.concat_map
         (fun (pred, arity) ->
           List.init 3 (fun _ ->
               Atom.make pred
                 (List.init arity (fun _ -> c domain.(Tgd_gen.Rng.int rng (Array.length domain))))))
         (Program.predicates p))
  in
  for _ = 1 to 40 do
    let inst = random_inst () in
    let got = datalog_answers d inst in
    let artifact = naive_answers d.Datalog_rw.program inst (Datalog_rw.goal_query d) in
    Alcotest.(check bool) "datalog target = naive saturation of the artifact" true
      (tuples_equal got artifact);
    if got <> [] then incr entailed
  done;
  (* Both outcomes occur, so the comparison is not vacuous. *)
  Alcotest.(check bool) (Printf.sprintf "%d of 40 entailed" !entailed) true
    (!entailed > 0 && !entailed < 40)

let test_university_vs_ucq () =
  let inst = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 7) ~scale:300 in
  List.iter
    (fun q ->
      let d = Datalog_rw.rewrite Tgd_gen.University.ontology q in
      Alcotest.(check bool) "complete" true (is_complete d.Datalog_rw.outcome);
      let got = datalog_answers d inst in
      let expected = ucq_answers Tgd_gen.University.ontology q inst in
      Alcotest.(check bool) (q.Cq.name ^ ": datalog = ucq") true (tuples_equal got expected))
    Tgd_gen.University.queries

let () =
  Alcotest.run "datalog_rw"
    [
      ( "rewrite",
        [
          Alcotest.test_case "deep hierarchy exact + nonrecursive" `Quick test_deep_hierarchy;
          Alcotest.test_case "example 2 exact (recursive)" `Quick test_example2_exact;
          Alcotest.test_case "example 2 vs chase" `Quick test_example2_vs_chase;
          Alcotest.test_case "decomposition shares patterns" `Quick
            test_affected_decomposition_shares;
          Alcotest.test_case "truncation is sound" `Quick test_truncation_soundness;
          Alcotest.test_case "saturation fact budget" `Quick test_saturate_fact_budget;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random SWR cases: datalog = ucq (seed %d)" n_cases seed)
            `Slow test_differential_vs_ucq;
        ] );
      ( "naive",
        [
          Alcotest.test_case "random existential-free programs" `Quick test_random_vs_naive;
          Alcotest.test_case "example 2 rewriting (recursive)" `Quick test_example2_vs_naive;
          Alcotest.test_case "university queries at scale 300 = ucq" `Quick test_university_vs_ucq;
        ] );
    ]
