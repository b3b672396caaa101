(* Unit tests for the rewriting engine: piece unifiers and UCQ rewriting. *)

open Tgd_logic
open Tgd_rewrite

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args

let outcome_is_complete = function Rewrite.Complete -> true | Rewrite.Truncated _ -> false

(* ------------------------------------------------------------------ *)
(* Piece unifiers *)

let test_piece_plain () =
  (* q(X) :- person(X) against member_person: one unifier. *)
  let rule =
    Tgd.make ~name:"member_person" ~body:[ atom "member" [ v "P"; v "M" ] ]
      ~head:[ atom "person" [ v "M" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  Alcotest.(check int) "one piece unifier" 1 (List.length (Piece.all q rule))

let test_piece_blocks_answer_var () =
  (* Existential head variable cannot unify with an answer variable. *)
  let rule =
    Tgd.make ~name:"has_member" ~body:[ atom "project" [ v "P" ] ]
      ~head:[ atom "member" [ v "P"; v "M" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ atom "member" [ v "X"; v "Y" ] ] in
  Alcotest.(check int) "blocked by answer var" 0 (List.length (Piece.all q rule));
  (* With the second position existential in the query, it works. *)
  let q' = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "member" [ v "X"; v "Y" ] ] in
  Alcotest.(check int) "allowed on existential var" 1 (List.length (Piece.all q' rule))

let test_piece_blocks_constant () =
  let rule =
    Tgd.make ~name:"has_member" ~body:[ atom "project" [ v "P" ] ]
      ~head:[ atom "member" [ v "P"; v "M" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "member" [ v "X"; c "alan" ] ] in
  Alcotest.(check int) "blocked by constant" 0 (List.length (Piece.all q rule))

let test_piece_blocks_frontier_merge () =
  (* Example 3's key blocking: head t(Y3,Y1,Y1) vs query atom t(X,X,W):
     the class of Y3 absorbs the frontier variable Y1 via X. *)
  let rule =
    Tgd.make ~name:"R1" ~body:[ atom "r" [ v "Y1"; v "Y2" ] ]
      ~head:[ atom "t" [ v "Y3"; v "Y1"; v "Y1" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "t" [ v "X"; v "X"; v "W" ] ] in
  Alcotest.(check int) "frontier absorbed" 0 (List.length (Piece.all q rule));
  (* t(U,X,X) with distinct U is fine. *)
  let q' = Cq.make ~name:"q" ~answer:[] ~body:[ atom "t" [ v "U"; v "X"; v "X" ] ] in
  Alcotest.(check int) "distinct existential position ok" 1 (List.length (Piece.all q' rule))

let test_piece_grows_to_shared_atoms () =
  (* The existential variable M is shared between two atoms; the piece must
     grow to contain both (they both unify with the head). *)
  let rule =
    Tgd.make ~name:"r" ~body:[ atom "project" [ v "P" ] ]
      ~head:[ atom "member" [ v "P"; v "M" ] ]
  in
  let q =
    Cq.make ~name:"q" ~answer:[]
      ~body:[ atom "member" [ v "P1"; v "X" ]; atom "member" [ v "P2"; v "X" ] ]
  in
  match Piece.all q rule with
  | [ pu ] ->
    Alcotest.(check int) "both atoms in the piece" 2 (List.length pu.Piece.piece);
    Alcotest.(check int) "empty remainder" 0 (List.length pu.Piece.remainder);
    (* Applying it yields a single project atom. *)
    let q' = Piece.apply q pu in
    Alcotest.(check int) "rewritten to one atom" 1 (List.length q'.Cq.body)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 piece unifier, got %d" (List.length other))

let test_piece_growth_fails_on_other_predicate () =
  (* The shared existential also occurs in an atom with a different
     predicate: growth is impossible, no unifier. *)
  let rule =
    Tgd.make ~name:"r" ~body:[ atom "project" [ v "P" ] ]
      ~head:[ atom "member" [ v "P"; v "M" ] ]
  in
  let q =
    Cq.make ~name:"q" ~answer:[]
      ~body:[ atom "member" [ v "P1"; v "X" ]; atom "leads" [ v "X"; v "P2" ] ]
  in
  Alcotest.(check int) "growth blocked" 0 (List.length (Piece.all q rule))

let test_piece_requires_single_head () =
  let rule =
    Tgd.make ~name:"mh" ~body:[ atom "a" [ v "X" ] ]
      ~head:[ atom "b" [ v "X" ]; atom "c" [ v "X" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[] ~body:[ atom "b" [ v "X" ] ] in
  Alcotest.check_raises "multi-head rejected" (Invalid_argument "Piece.all: rule must be single-head")
    (fun () -> ignore (Piece.all q rule))

let test_piece_apply_substitutes_answers () =
  (* Unifying can specialise the answer tuple. *)
  let rule =
    Tgd.make ~name:"r" ~body:[ atom "base" [ v "U" ] ] ~head:[ atom "p" [ v "U"; c "k" ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "Y" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  match Piece.all q rule with
  | [ pu ] ->
    let q' = Piece.apply q pu in
    Alcotest.(check bool) "answer became the constant k" true
      (Term.equal (List.hd q'.Cq.answer) (c "k"))
  | _ -> Alcotest.fail "expected one piece unifier"

(* ------------------------------------------------------------------ *)
(* Rewriting *)

let test_rewrite_example1 () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ] ] in
  let r = Rewrite.ucq Tgd_core.Paper_examples.example1 q in
  Alcotest.(check bool) "complete" true (outcome_is_complete r.Rewrite.outcome);
  Alcotest.(check int) "three disjuncts" 3 (List.length r.Rewrite.ucq)

let test_rewrite_example2_diverges () =
  let config = { Rewrite.default_config with max_cqs = 150 } in
  let r =
    Rewrite.ucq ~config Tgd_core.Paper_examples.example2 Tgd_core.Paper_examples.example2_query
  in
  Alcotest.(check bool) "truncated" true (not (outcome_is_complete r.Rewrite.outcome));
  Alcotest.(check bool) "grew deep" true (r.Rewrite.stats.Rewrite.max_depth > 5)

let test_rewrite_example3_terminates () =
  List.iter
    (fun (pred, arity) ->
      let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
      let q = Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ] in
      let r = Rewrite.ucq Tgd_core.Paper_examples.example3 q in
      Alcotest.(check bool)
        (Printf.sprintf "complete for %s" (Symbol.name pred))
        true
        (outcome_is_complete r.Rewrite.outcome))
    (Program.predicates Tgd_core.Paper_examples.example3)

let test_rewrite_contains_original () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let r = Rewrite.ucq Tgd_gen.University.ontology q in
  Alcotest.(check bool) "input query among disjuncts" true
    (List.exists (fun d -> Containment.equivalent d (Cq.canonical q)) r.Rewrite.ucq)

let test_rewrite_multi_head_aux_hidden () =
  (* Multi-head rule: the auxiliary predicate must not leak into the
     output. *)
  let p =
    Program.make_exn
      [
        Tgd.make ~name:"mh" ~body:[ atom "emp" [ v "X" ] ]
          ~head:[ atom "works" [ v "X"; v "D" ]; atom "dept" [ v "D" ] ];
      ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "works" [ v "X"; v "D" ]; atom "dept" [ v "D" ] ] in
  let r = Rewrite.ucq p q in
  Alcotest.(check bool) "complete" true (outcome_is_complete r.Rewrite.outcome);
  (* emp(X) must be a disjunct: both head atoms resolve against the same
     rule application through factorization of the auxiliary atom. *)
  let emp_q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "emp" [ v "X" ] ] in
  Alcotest.(check bool) "emp disjunct present" true
    (List.exists (fun d -> Containment.equivalent d emp_q) r.Rewrite.ucq);
  List.iter
    (fun (d : Cq.t) ->
      List.iter
        (fun (a : Atom.t) ->
          let name = Symbol.name a.Atom.pred in
          Alcotest.(check bool) "no aux predicate" false
            (String.length name >= 3 && String.sub name 0 3 = "aux"))
        d.Cq.body)
    r.Rewrite.ucq

let test_rewrite_depth_budget () =
  let config = { Rewrite.default_config with max_depth = 2 } in
  let r =
    Rewrite.ucq ~config Tgd_core.Paper_examples.example2 Tgd_core.Paper_examples.example2_query
  in
  (match r.Rewrite.outcome with
  | Rewrite.Truncated d ->
    Alcotest.(check bool) "depth mentioned" true
      (String.length (Tgd_exec.Governor.diag_summary d) > 0)
  | Rewrite.Complete -> Alcotest.fail "expected truncation");
  Alcotest.(check bool) "did not exceed depth" true (r.Rewrite.stats.Rewrite.max_depth <= 2)

let test_rewrite_pruning_equivalence () =
  (* With and without subsumption pruning, the rewritings are equivalent as
     UCQs. (On a compact ontology: the unpruned exploration is exponential
     by design — that gap is measured in bench E9, not here.) *)
  let p = Tgd_core.Paper_examples.example1 in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ] ] in
  let with_prune = Rewrite.ucq p q in
  let no_prune =
    Rewrite.ucq ~config:{ Rewrite.default_config with prune_subsumed = false } p q
  in
  Alcotest.(check bool) "both complete" true
    (outcome_is_complete with_prune.Rewrite.outcome
    && outcome_is_complete no_prune.Rewrite.outcome);
  Alcotest.(check bool) "equivalent UCQs" true
    (Containment.ucq_contained with_prune.Rewrite.ucq no_prune.Rewrite.ucq
    && Containment.ucq_contained no_prune.Rewrite.ucq with_prune.Rewrite.ucq);
  Alcotest.(check bool) "pruning not larger" true
    (List.length with_prune.Rewrite.ucq <= List.length no_prune.Rewrite.ucq)

let test_rewrite_ucq_of_union () =
  let q1 = Cq.make ~name:"q1" ~answer:[ v "X" ] ~body:[ atom "student" [ v "X" ] ] in
  let q2 = Cq.make ~name:"q2" ~answer:[ v "X" ] ~body:[ atom "faculty" [ v "X" ] ] in
  let r = Rewrite.ucq_of_union Tgd_gen.University.ontology [ q1; q2 ] in
  Alcotest.(check bool) "complete" true (outcome_is_complete r.Rewrite.outcome);
  Alcotest.(check bool) "covers both branches" true (List.length r.Rewrite.ucq >= 2)

let test_rewrite_dl_lite_role_hierarchy () =
  (* person query through a role hierarchy and inverse roles. *)
  let tbox =
    Tgd_gen.Dl_lite.
      [
        Concept_incl (Exists (Inv "treats"), Atomic "patient");
        Concept_incl (Atomic "patient", Atomic "person");
        Role_incl (Role "operates", Role "treats");
      ]
  in
  let p = Tgd_gen.Dl_lite.to_program tbox in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let r = Rewrite.ucq p q in
  Alcotest.(check bool) "complete" true (outcome_is_complete r.Rewrite.outcome);
  (* person <- patient <- exists treats- <- exists operates-: 4 disjuncts. *)
  Alcotest.(check int) "four disjuncts" 4 (List.length r.Rewrite.ucq)

let test_rewrite_empty_program () =
  let p = Program.make_exn ~name:"empty" [] in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "p" [ v "X" ] ] in
  let r = Rewrite.ucq p q in
  Alcotest.(check bool) "complete" true (outcome_is_complete r.Rewrite.outcome);
  Alcotest.(check int) "identity rewriting" 1 (List.length r.Rewrite.ucq)

(* Each run's containment counts are its own. Two domains rewrite
   different University queries at the same time, over and over; every
   run reports the checks, pre-filtered checks and searches it reports
   when run alone. The rewritings of these two queries do the same work
   whatever ids their fresh variables get (a rewriting of some other
   queries does not: its exploration order follows symbol ids, which
   interleave across domains), and a warm-up run goes first. *)
let test_rewrite_counts_per_run () =
  let program = Tgd_gen.University.ontology in
  let queries = List.filteri (fun i _ -> i = 4 || i = 5) Tgd_gen.University.queries in
  let counts q =
    let s = (Rewrite.ucq program q).Rewrite.stats in
    (s.Rewrite.containment_checks, s.Rewrite.containment_pruned, s.Rewrite.hom_searches)
  in
  ignore (List.map counts queries);
  let alone = List.map counts queries in
  Alcotest.(check bool) "the runs search for homomorphisms" true
    (List.for_all (fun (_, _, searches) -> searches > 0) alone);
  Alcotest.(check bool) "alone is reproducible" true (List.map counts queries = alone);
  let domains =
    List.map (fun q -> Domain.spawn (fun () -> List.init 200 (fun _ -> counts q))) queries
  in
  List.iter2
    (fun dom expected ->
      List.iter
        (fun got ->
          Alcotest.(check (triple int int int)) "concurrent run counts like a lone run" expected got)
        (Domain.join dom))
    domains alone

let () =
  Alcotest.run "rewrite"
    [
      ( "piece",
        [
          Alcotest.test_case "plain unifier" `Quick test_piece_plain;
          Alcotest.test_case "answer variable blocks" `Quick test_piece_blocks_answer_var;
          Alcotest.test_case "constant blocks" `Quick test_piece_blocks_constant;
          Alcotest.test_case "frontier merge blocks" `Quick test_piece_blocks_frontier_merge;
          Alcotest.test_case "piece growth" `Quick test_piece_grows_to_shared_atoms;
          Alcotest.test_case "growth fails across predicates" `Quick
            test_piece_growth_fails_on_other_predicate;
          Alcotest.test_case "single-head required" `Quick test_piece_requires_single_head;
          Alcotest.test_case "answers substituted" `Quick test_piece_apply_substitutes_answers;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "example 1 complete" `Quick test_rewrite_example1;
          Alcotest.test_case "example 2 diverges" `Quick test_rewrite_example2_diverges;
          Alcotest.test_case "example 3 terminates" `Quick test_rewrite_example3_terminates;
          Alcotest.test_case "contains original query" `Quick test_rewrite_contains_original;
          Alcotest.test_case "multi-head via aux" `Quick test_rewrite_multi_head_aux_hidden;
          Alcotest.test_case "depth budget" `Quick test_rewrite_depth_budget;
          Alcotest.test_case "pruning preserves semantics" `Quick test_rewrite_pruning_equivalence;
          Alcotest.test_case "union rewriting" `Quick test_rewrite_ucq_of_union;
          Alcotest.test_case "containment counts are per run" `Quick test_rewrite_counts_per_run;
          Alcotest.test_case "dl-lite role hierarchy" `Quick test_rewrite_dl_lite_role_hierarchy;
          Alcotest.test_case "empty program" `Quick test_rewrite_empty_program;
        ] );
    ]
