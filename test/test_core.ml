(* Tests for the paper's contribution: position graph, SWR, P-atoms,
   P-nodes, P-node graph, WR, and the umbrella classifier — including the
   golden figures from the paper. *)

open Tgd_logic
open Tgd_core

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args
let tgd name body head = Tgd.make ~name ~body ~head
let prog rules = Program.make_exn rules

let ex1 = Paper_examples.example1
let ex2 = Paper_examples.example2
let ex3 = Paper_examples.example3

(* ------------------------------------------------------------------ *)
(* Position / Position graph *)

let test_position_printing () =
  Alcotest.(check string) "whole" "r[ ]" (Position.to_string (Position.Whole (Symbol.intern "r")));
  Alcotest.(check string) "indexed" "r[2]" (Position.to_string (Position.At (Symbol.intern "r", 2)))

let test_figure1_golden () =
  let g = Position_graph.build ex1 in
  Alcotest.(check int) "7 nodes" 7 (Position_graph.G.n_nodes g);
  Alcotest.(check (list (triple string string string))) "figure 1 edges"
    Paper_examples.figure1_edges (Position_graph.edge_list g)

let test_figure1_s2_dead_end () =
  (* s[2] has no outgoing edges: head(R2)[2] is the existential Y3, so
     R-compatibility fails (Definition 3(ii)). *)
  let g = Position_graph.build ex1 in
  Alcotest.(check int) "s[2] dead end" 0
    (List.length (Position_graph.G.succ g (Position.At (Symbol.intern "s", 2))))

let test_figure2_nodes () =
  let g = Position_graph.build ex2 in
  Alcotest.(check int) "10 positions as in Figure 2" Paper_examples.figure2_node_count
    (Position_graph.G.n_nodes g)

let test_figure2_no_dangerous_cycle () =
  (* The documented failure: no m+s cycle, yet Example 2 is not
     FO-rewritable. *)
  let g = Position_graph.build ex2 in
  Alcotest.(check bool) "no dangerous cycle" false (Swr.dangerous_cycle_in_graph g);
  (* In fact Example 2's position graph has no s-edge at all. *)
  Alcotest.(check bool) "no s-edges" true
    (List.for_all
       (fun (e : Position_graph.G.edge) -> not e.Position_graph.G.label.Position_graph.s)
       (Position_graph.G.edges g))

let test_position_graph_s_edges () =
  (* An existential body variable occurring in two body atoms generates
     s-labels (Definition 4, point 2). *)
  let p =
    prog
      [
        tgd "r" [ atom "a" [ v "X"; v "W" ]; atom "b" [ v "W"; v "Y" ] ] [ atom "h" [ v "X"; v "Y" ] ];
      ]
  in
  let g = Position_graph.build p in
  Alcotest.(check bool) "s-edges present" true
    (List.exists
       (fun (e : Position_graph.G.edge) -> e.Position_graph.G.label.Position_graph.s)
       (Position_graph.G.edges g))

let test_swr_verdicts () =
  let v1 = Swr.check ex1 in
  Alcotest.(check bool) "example1 simple" true v1.Swr.simple;
  Alcotest.(check bool) "example1 swr" true v1.Swr.swr;
  let v2 = Swr.check ex2 in
  Alcotest.(check bool) "example2 not simple" false v2.Swr.simple;
  Alcotest.(check bool) "example2 not swr" false v2.Swr.swr;
  let v3 = Swr.check ex3 in
  Alcotest.(check bool) "example3 not swr (not simple)" false v3.Swr.swr

let test_swr_dangerous_mixed_cycle () =
  (* A cycle carrying both m and s labels: h(X,Y) <- a(X,W), b(W,Y) with
     both body predicates fed back from h. *)
  let p =
    prog
      [
        tgd "r1"
          [ atom "a" [ v "X"; v "W" ]; atom "b" [ v "W"; v "Y" ] ]
          [ atom "h" [ v "X"; v "Y" ] ];
        tgd "r2" [ atom "h" [ v "X"; v "Y" ] ] [ atom "a" [ v "X"; v "Y" ] ];
      ]
  in
  let verdict = Swr.check p in
  Alcotest.(check bool) "simple" true verdict.Swr.simple;
  Alcotest.(check bool) "dangerous" true verdict.Swr.dangerous;
  Alcotest.(check bool) "not swr" false verdict.Swr.swr

let test_swr_exact_agrees_on_examples () =
  List.iter
    (fun p ->
      let verdict = Swr.check p in
      match Swr.check_exact verdict.Swr.graph with
      | Some exact -> Alcotest.(check bool) "scc and simple-cycle agree" verdict.Swr.dangerous exact
      | None -> Alcotest.fail "enumeration budget hit on a tiny example")
    [ ex1; ex2; ex3 ]

let test_position_graph_empty_program () =
  let g = Position_graph.build (Program.make_exn ~name:"empty" []) in
  Alcotest.(check int) "no nodes" 0 (Position_graph.G.n_nodes g)

(* ------------------------------------------------------------------ *)
(* P-atoms and P-nodes *)

let test_p_atom_ordering () =
  Alcotest.(check bool) "z smallest" true P_atom.(term_compare Z (X 1) < 0);
  Alcotest.(check bool) "x before const" true
    P_atom.(term_compare (X 2) (C (Symbol.intern "a")) < 0)

let test_p_node_canonical_renaming () =
  (* The same situation up to variable names canonicalizes identically. *)
  let sigma1 = atom "p" [ v "A"; v "B"; v "A" ] in
  let sigma2 = atom "p" [ v "U"; v "W"; v "U" ] in
  let n1 = P_node.canonicalize ~sigma:sigma1 ~context:[ sigma1 ] ~tracked:None in
  let n2 = P_node.canonicalize ~sigma:sigma2 ~context:[ sigma2 ] ~tracked:None in
  Alcotest.(check bool) "equal nodes" true (P_node.equal n1 n2);
  Alcotest.(check string) "rendering" "<p(x1,x2,x1) | p(x1,x2,x1)>" (P_node.to_string n1)

let test_p_node_tracked () =
  let sigma = atom "p" [ v "A"; v "B" ] in
  let n = P_node.canonicalize ~sigma ~context:[ sigma ] ~tracked:(Some (Symbol.intern "B")) in
  Alcotest.(check string) "z marks tracked" "<p(x1,z) | p(x1,z)>" (P_node.to_string n)

let test_p_node_context_ordering_stable () =
  (* Context atoms given in different orders yield the same node. *)
  let sigma = atom "p" [ v "A" ] in
  let c1 = atom "q" [ v "A"; v "B" ] in
  let c2 = atom "r" [ v "B"; v "C" ] in
  let n1 = P_node.canonicalize ~sigma ~context:[ sigma; c1; c2 ] ~tracked:None in
  let n2 = P_node.canonicalize ~sigma ~context:[ c2; sigma; c1 ] ~tracked:None in
  Alcotest.(check bool) "order independent" true (P_node.equal n1 n2)

let test_p_node_unbounded_count () =
  (* <p(z, x1, x2) | p(z,x1,x2), q(x1)>: z unbounded, x1 shared (bounded),
     x2 single occurrence (unbounded) => 2. *)
  let sigma = atom "p" [ v "T"; v "A"; v "B" ] in
  let ctx = [ sigma; atom "q" [ v "A" ] ] in
  let n = P_node.canonicalize ~sigma ~context:ctx ~tracked:(Some (Symbol.intern "T")) in
  Alcotest.(check int) "unbounded args" 2 (P_node.unbounded_count n);
  (* Constants are bounded. *)
  let sigma2 = atom "p" [ c "k"; v "A"; v "A" ] in
  let n2 = P_node.canonicalize ~sigma:sigma2 ~context:[ sigma2 ] ~tracked:None in
  Alcotest.(check int) "constant and repeated var bounded" 0 (P_node.unbounded_count n2)

(* ------------------------------------------------------------------ *)
(* P-node graph / WR *)

let test_wr_example1 () =
  let w = Wr.check ex1 in
  Alcotest.(check bool) "complete" true w.Wr.complete;
  Alcotest.(check bool) "example1 wr" true w.Wr.wr

let test_wr_example2 () =
  let w = Wr.check ex2 in
  Alcotest.(check bool) "dangerous cycle found (Figure 3)" true w.Wr.dangerous;
  Alcotest.(check bool) "not wr" false w.Wr.wr

let test_wr_example3 () =
  let w = Wr.check ex3 in
  Alcotest.(check bool) "wr despite being outside all prior classes" true w.Wr.wr

let test_figure3_key_node_present () =
  (* Figure 3 features the P-atom s(z,z,x1): the repeated fresh existential
     introduced by R2's body. *)
  let w = Wr.check ex2 in
  let g = w.Wr.graph.P_node_graph.graph in
  let has_szz =
    List.exists
      (fun (n : P_node.t) -> P_atom.to_string n.P_node.atom = "s(z,z,x1)")
      (P_node_graph.G.nodes g)
  in
  Alcotest.(check bool) "s(z,z,x1) node" true has_szz

let test_figure3_cycle_labels () =
  (* The dangerous cycle of Example 2 carries s, m and d and no i. *)
  let w = Wr.check ex2 in
  let g = w.Wr.graph.P_node_graph.graph in
  match Wr.check_exact g with
  | Some b -> Alcotest.(check bool) "simple-cycle reading agrees" true b
  | None -> Alcotest.fail "enumeration budget hit"

let test_wr_exact_agrees_on_examples () =
  List.iter
    (fun p ->
      let w = Wr.check p in
      match Wr.check_exact w.Wr.graph.P_node_graph.graph with
      | Some exact -> Alcotest.(check bool) "readings agree" w.Wr.dangerous exact
      | None -> Alcotest.fail "budget hit")
    [ ex1; ex2; ex3 ]

let test_wr_budget_truncation () =
  let w = Wr.check ~max_nodes:2 ex2 in
  Alcotest.(check bool) "not complete" false w.Wr.complete;
  Alcotest.(check bool) "conservatively not wr" false w.Wr.wr

let test_wr_swr_agree_on_simple_corpora () =
  (* On simple TGDs, WR should accept whatever SWR accepts (WR is the
     generalization). *)
  let rng = Tgd_gen.Rng.create 123 in
  let agree = ref 0 and total = ref 0 in
  for i = 0 to 24 do
    let p =
      Tgd_gen.Gen_tgd.random_simple_program ~name:(Printf.sprintf "s%d" i) rng
        { Tgd_gen.Gen_tgd.default_config with n_rules = 4; n_predicates = 4; max_body_atoms = 2 }
    in
    let s = Swr.check p in
    let w = Wr.check ~max_nodes:5_000 p in
    if w.Wr.complete then begin
      incr total;
      if s.Swr.swr then begin
        if w.Wr.wr then incr agree
      end
      else incr agree (* SWR rejecting while WR accepts is fine: WR is larger *)
    end
  done;
  Alcotest.(check bool) "ran on a reasonable corpus" true (!total >= 15);
  Alcotest.(check int) "WR never rejects an SWR set" !total !agree

let test_multi_head_wr () =
  (* WR normalizes multi-head rules; a harmless hierarchy stays WR. *)
  let p =
    prog
      [
        tgd "mh" [ atom "emp" [ v "X" ] ]
          [ atom "works" [ v "X"; v "D" ]; atom "dept" [ v "D" ] ];
      ]
  in
  let w = Wr.check p in
  Alcotest.(check bool) "multi-head hierarchy wr" true w.Wr.wr

(* ------------------------------------------------------------------ *)
(* Explain *)

let test_explain_wr_witness_example2 () =
  let w = Wr.check ex2 in
  match Explain.wr_witness w.Wr.graph.P_node_graph.graph with
  | None -> Alcotest.fail "expected a dangerous-cycle witness"
  | Some cycle ->
    let has f = List.exists (fun (e : P_node_graph.G.edge) -> f e.P_node_graph.G.label) cycle in
    Alcotest.(check bool) "has s" true (has (fun l -> l.P_node_graph.s));
    Alcotest.(check bool) "has m" true (has (fun l -> l.P_node_graph.m));
    Alcotest.(check bool) "has d" true (has (fun l -> l.P_node_graph.d));
    Alcotest.(check bool) "no i" true (not (has (fun l -> l.P_node_graph.i)))

let test_explain_no_witness_on_wr () =
  let w = Wr.check ex3 in
  Alcotest.(check bool) "no dangerous cycle in example3" true
    (Explain.wr_witness w.Wr.graph.P_node_graph.graph = None)

let test_explain_swr_witness () =
  (* The mixed m+s cycle program from the SWR tests. *)
  let p =
    prog
      [
        tgd "r1"
          [ atom "a" [ v "X"; v "W" ]; atom "b" [ v "W"; v "Y" ] ]
          [ atom "h" [ v "X"; v "Y" ] ];
        tgd "r2" [ atom "h" [ v "X"; v "Y" ] ] [ atom "a" [ v "X"; v "Y" ] ];
      ]
  in
  let verdict = Swr.check p in
  Alcotest.(check bool) "witness found" true (Explain.swr_witness verdict.Swr.graph <> None)

let test_explain_describe () =
  let text = Explain.describe ex2 in
  Alcotest.(check bool) "mentions the cycle" true
    (String.length text > 200
    &&
    let rec contains i =
      i + 9 <= String.length text && (String.sub text i 9 = "dangerous" || contains (i + 1))
    in
    contains 0)

(* ------------------------------------------------------------------ *)
(* Query patterns *)

let test_pattern_example2_bound_free () =
  (* The paper's divergent query q() :- r("a", x) has pattern r(b,u). *)
  let pat = Query_pattern.of_query_atom Paper_examples.example2_query
      (List.hd Paper_examples.example2_query.Cq.body) in
  Alcotest.(check string) "pattern rendering" "r(b,u)"
    (Format.asprintf "%a" Query_pattern.pp pat);
  let config = { Tgd_rewrite.Rewrite.default_config with max_cqs = 500 } in
  (match Query_pattern.analyze ~config ex2 pat with
  | Query_pattern.Diverges _ -> ()
  | Query_pattern.Terminates _ -> Alcotest.fail "r(b,u) should diverge");
  (* ... while r(b,b) terminates: the existential head variable of R2
     refuses the bound position. *)
  match Query_pattern.analyze ~config ex2 (Query_pattern.make (Symbol.intern "r") [| true; true |]) with
  | Query_pattern.Terminates _ -> ()
  | Query_pattern.Diverges _ -> Alcotest.fail "r(b,b) should terminate"

let test_pattern_generic_query_shape () =
  let pat = Query_pattern.make (Symbol.intern "p") [| true; false; true |] in
  let q = Query_pattern.generic_query pat in
  Alcotest.(check int) "two answer variables" 2 (Cq.arity q);
  Alcotest.(check int) "one existential" 1 (Symbol.Set.cardinal (Cq.existential_vars q))

let test_pattern_analyze_all_on_wr_program () =
  (* On an FO-rewritable program every pattern terminates. *)
  let config = { Tgd_rewrite.Rewrite.default_config with max_cqs = 2_000 } in
  List.iter
    (fun (pat, status) ->
      match status with
      | Query_pattern.Terminates _ -> ()
      | Query_pattern.Diverges why ->
        Alcotest.fail
          (Format.asprintf "pattern %a diverged on example3: %s" Query_pattern.pp pat why))
    (Query_pattern.analyze_all ~config ex3)

let test_pattern_of_query_atom_constants () =
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ atom "p" [ v "X"; c "k"; v "Z" ] ]
  in
  let pat = Query_pattern.of_query_atom q (List.hd q.Cq.body) in
  Alcotest.(check string) "constants and answer vars bound" "p(b,b,u)"
    (Format.asprintf "%a" Query_pattern.pp pat)

(* ------------------------------------------------------------------ *)
(* Classifier *)

let test_classifier_example_matrix () =
  let r1 = Classifier.classify ex1 in
  Alcotest.(check bool) "ex1 swr" true r1.Classifier.swr;
  Alcotest.(check bool) "ex1 wr" true r1.Classifier.wr;
  let r2 = Classifier.classify ex2 in
  Alcotest.(check bool) "ex2 not wr" false r2.Classifier.wr;
  (* R1's body t(Y1,Y2), r(Y3,Y4) has no guard atom. *)
  Alcotest.(check bool) "ex2 not guarded" false r2.Classifier.guarded;
  let r3 = Classifier.classify ex3 in
  (* Example 3 escapes every class named by the paper; the GRD happens to be
     acyclic (R1 can never trigger R3 — the same blocking the paper
     describes), so both acyclic-grd and wr witness FO-rewritability. *)
  Alcotest.(check bool) "ex3 has an FO witness" true
    (Classifier.fo_rewritable_witness r3 <> None);
  Alcotest.(check bool) "ex3 wr" true r3.Classifier.wr;
  Alcotest.(check bool) "ex3 acyclic grd" true r3.Classifier.acyclic_grd;
  Alcotest.(check bool) "ex2: no FO witness" true (Classifier.fo_rewritable_witness r2 = None)

let test_classifier_rows () =
  let r = Classifier.classify ex1 in
  Alcotest.(check int) "row width matches header" (List.length Classifier.header)
    (List.length (Classifier.to_row r))

let test_incomparability_witnesses () =
  (* Section 6: domain-restricted and acyclic-GRD are incomparable with
     SWR. Direction 1: Example 1 is SWR but in neither class. *)
  let r1 = Classifier.classify ex1 in
  Alcotest.(check bool) "ex1 swr" true r1.Classifier.swr;
  Alcotest.(check bool) "ex1 not domain-restricted" false r1.Classifier.domain_restricted;
  Alcotest.(check bool) "ex1 not acyclic-grd" false r1.Classifier.acyclic_grd;
  (* Direction 2: the crafted witness is simple, in both classes, not SWR. *)
  let r2 = Classifier.classify Paper_examples.dr_agrd_not_swr in
  Alcotest.(check bool) "witness simple" true r2.Classifier.simple;
  Alcotest.(check bool) "witness domain-restricted" true r2.Classifier.domain_restricted;
  Alcotest.(check bool) "witness acyclic-grd" true r2.Classifier.acyclic_grd;
  Alcotest.(check bool) "witness not swr" false r2.Classifier.swr

let test_classifier_university () =
  let r = Classifier.classify Tgd_gen.University.ontology in
  Alcotest.(check bool) "university wr" true r.Classifier.wr;
  Alcotest.(check bool) "university weakly acyclic" true r.Classifier.weakly_acyclic;
  Alcotest.(check bool) "not simple (multi-head rules)" false r.Classifier.simple

(* The classifier reads each program's rewriting view, built once, so a
   repeat classify of one program interns no symbol. *)
let test_classifier_repeat_interns_nothing () =
  let p = Tgd_gen.University.ontology in
  ignore (Classifier.classify p);
  let before = Symbol.count () in
  ignore (Classifier.classify p);
  ignore (Classifier.classify p);
  Alcotest.(check int) "symbols interned by two more classifies" 0 (Symbol.count () - before)

let () =
  Alcotest.run "core"
    [
      ( "position graph",
        [
          Alcotest.test_case "position printing" `Quick test_position_printing;
          Alcotest.test_case "figure 1 golden" `Quick test_figure1_golden;
          Alcotest.test_case "figure 1 s[2] dead end" `Quick test_figure1_s2_dead_end;
          Alcotest.test_case "figure 2 nodes" `Quick test_figure2_nodes;
          Alcotest.test_case "figure 2 no dangerous cycle" `Quick test_figure2_no_dangerous_cycle;
          Alcotest.test_case "s-edge generation" `Quick test_position_graph_s_edges;
          Alcotest.test_case "empty program" `Quick test_position_graph_empty_program;
        ] );
      ( "swr",
        [
          Alcotest.test_case "verdicts on the examples" `Quick test_swr_verdicts;
          Alcotest.test_case "mixed m+s cycle" `Quick test_swr_dangerous_mixed_cycle;
          Alcotest.test_case "exact reading agrees" `Quick test_swr_exact_agrees_on_examples;
        ] );
      ( "p-node",
        [
          Alcotest.test_case "p-atom ordering" `Quick test_p_atom_ordering;
          Alcotest.test_case "canonical renaming" `Quick test_p_node_canonical_renaming;
          Alcotest.test_case "tracked variable" `Quick test_p_node_tracked;
          Alcotest.test_case "context order independence" `Quick test_p_node_context_ordering_stable;
          Alcotest.test_case "unbounded count" `Quick test_p_node_unbounded_count;
        ] );
      ( "wr",
        [
          Alcotest.test_case "example 1" `Quick test_wr_example1;
          Alcotest.test_case "example 2 (figure 3)" `Quick test_wr_example2;
          Alcotest.test_case "example 3" `Quick test_wr_example3;
          Alcotest.test_case "figure 3 key node" `Quick test_figure3_key_node_present;
          Alcotest.test_case "figure 3 cycle labels" `Quick test_figure3_cycle_labels;
          Alcotest.test_case "exact reading agrees" `Quick test_wr_exact_agrees_on_examples;
          Alcotest.test_case "budget truncation" `Quick test_wr_budget_truncation;
          Alcotest.test_case "wr extends swr on simple corpora" `Quick
            test_wr_swr_agree_on_simple_corpora;
          Alcotest.test_case "multi-head" `Quick test_multi_head_wr;
        ] );
      ( "explain",
        [
          Alcotest.test_case "wr witness on example2" `Quick test_explain_wr_witness_example2;
          Alcotest.test_case "no witness on example3" `Quick test_explain_no_witness_on_wr;
          Alcotest.test_case "swr witness" `Quick test_explain_swr_witness;
          Alcotest.test_case "describe" `Quick test_explain_describe;
        ] );
      ( "query patterns",
        [
          Alcotest.test_case "example2 bound/free split" `Quick test_pattern_example2_bound_free;
          Alcotest.test_case "generic query shape" `Quick test_pattern_generic_query_shape;
          Alcotest.test_case "all terminate on wr program" `Quick
            test_pattern_analyze_all_on_wr_program;
          Alcotest.test_case "constants are bound" `Quick test_pattern_of_query_atom_constants;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "example matrix" `Quick test_classifier_example_matrix;
          Alcotest.test_case "row shape" `Quick test_classifier_rows;
          Alcotest.test_case "incomparability witnesses" `Quick test_incomparability_witnesses;
          Alcotest.test_case "university" `Quick test_classifier_university;
          Alcotest.test_case "repeat classify interns nothing" `Quick
            test_classifier_repeat_interns_nothing;
        ] );
    ]
