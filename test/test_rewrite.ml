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

let test_piece_renames_rule_apart () =
  (* The rule and the query both use X and Y, in crossed roles. [Piece.all]
     renames the rule apart first: the query's X meets the rule's
     existential, and the rewriting is [q(Y) :- p(Y)]. Unrenamed, the two
     X's would be one variable and the existential's class would hold the
     frontier. [Piece.all_pooled] on the rule renamed into the pool agrees. *)
  let rule = Tgd.make ~name:"r" ~body:[ atom "p" [ v "X" ] ] ~head:[ atom "s" [ v "X"; v "Y" ] ] in
  let q = Cq.make ~name:"q" ~answer:[ v "Y" ] ~body:[ atom "s" [ v "Y"; v "X" ] ] in
  let expected = Cq.canonical (Cq.make ~name:"q" ~answer:[ v "Y" ] ~body:[ atom "p" [ v "Y" ] ]) in
  let rewritings unifiers = List.map (fun pu -> Cq.canonical (Piece.apply q pu)) unifiers in
  Alcotest.(check bool) "renamed apart" true ([ expected ] = rewritings (Piece.all q rule));
  Alcotest.(check bool) "pooled" true
    ([ expected ] = rewritings (Piece.all_pooled q (Tgd.rename_to_pool rule)))

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

(* Each run's containment counts are its own, and a function of the
   program and the query alone. University query 1 is rewritten four times
   in a row; then three domains rewrite queries 1, 5 and 6 at once, 200
   times each: every run reports the checks, pre-filtered checks and
   searches of a lone run. No rewriting interns a symbol, so the
   fingerprints, and with them the exploration and the counts, cannot
   shift between runs or across domains. *)
let test_rewrite_counts_per_run () =
  let program = Tgd_gen.University.ontology in
  let queries = List.filteri (fun i _ -> i = 0 || i = 4 || i = 5) Tgd_gen.University.queries in
  let counts q =
    let s = (Rewrite.ucq program q).Rewrite.stats in
    (s.Rewrite.containment_checks, s.Rewrite.containment_pruned, s.Rewrite.hom_searches)
  in
  let q1 = List.hd queries in
  let first = counts q1 in
  List.iter
    (fun got -> Alcotest.(check (triple int int int)) "query 1 counts like its first run" first got)
    (List.init 3 (fun _ -> counts q1));
  let alone = List.map counts queries in
  Alcotest.(check bool) "the runs search for homomorphisms" true
    (List.for_all (fun (_, _, searches) -> searches > 0) alone);
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

(* ------------------------------------------------------------------ *)
(* Oracle: rules renamed apart at every step *)

(* The rewriter renames each rule once per program into the reserved pool
   and hands it to [Piece.all_pooled] as is. The oracle does what the
   rewriter did before: it calls [Piece.all], which renames the rule apart
   with fresh symbols at every (CQ, rule) pair, and otherwise explores,
   prunes and minimizes the way [Rewrite.ucq] does, over plain lists. Both
   must give the same set of canonical disjuncts, truncated runs included. *)
let oracle_steps (view : Program.rewriting) (q : Cq.t) =
  let preds =
    List.fold_left (fun acc (a : Atom.t) -> Symbol.Set.add a.Atom.pred acc) Symbol.Set.empty q.Cq.body
  in
  Symbol.Set.fold
    (fun pred acc ->
      match Symbol.Map.find_opt pred view.Program.by_head with
      | None -> acc
      | Some rules ->
        List.fold_left
          (fun acc rule ->
            List.rev_append (List.map (Piece.apply q) (Piece.all q rule)) acc)
          acc rules)
    preds []

let oracle_ucq ?(max_cqs = Rewrite.default_config.Rewrite.max_cqs) program q0 =
  let view = Program.rewriting program in
  let seen = Hashtbl.create 256 in
  let kept = ref [] in
  let queue = Queue.create () in
  let generated = ref 1 in
  let add c =
    let c = Cq.canonical c in
    if List.length c.Cq.body <= Rewrite.default_config.Rewrite.max_body_atoms
       && not (Hashtbl.mem seen c)
    then begin
      Hashtbl.add seen c ();
      incr generated;
      let size (q : Cq.t) = List.length q.Cq.body in
      let live = List.filter (fun (_, alive) -> !alive) !kept in
      let subsumed =
        List.exists
          (fun (e, _) ->
            Containment.contained c e && not (size c < size e && Containment.contained e c))
          live
      in
      if not subsumed then begin
        List.iter (fun (e, alive) -> if Containment.contained e c then alive := false) live;
        let entry = (c, ref true) in
        kept := entry :: !kept;
        Queue.add entry queue
      end
    end
  in
  add q0;
  let stopped = ref false in
  while (not !stopped) && not (Queue.is_empty queue) do
    if !generated >= max_cqs then stopped := true
    else begin
      let c, alive = Queue.pop queue in
      if !alive then begin
        List.iter add (oracle_steps view c);
        List.iter add (Step.factorizations c)
      end
    end
  done;
  List.rev !kept
  |> List.filter_map (fun (c, alive) -> if !alive then Some c else None)
  |> List.filter (fun (c : Cq.t) ->
         not (List.exists (fun (a : Atom.t) -> Symbol.Set.mem a.Atom.pred view.Program.aux) c.Cq.body))
  |> Containment.minimize_ucq

let canonical_set ucq = List.sort_uniq Cq.compare (List.map Cq.canonical ucq)

let deep_hierarchy ~depth =
  Program.make_exn ~name:"deep"
    (List.init depth (fun i ->
         Tgd.make ~name:(Printf.sprintf "h%d" i)
           ~body:[ atom (Printf.sprintf "a%d" i) [ v "X" ] ]
           ~head:[ atom (Printf.sprintf "a%d" (i + 1)) [ v "X" ] ]))

let atomic_query p pred =
  let arity = Option.get (Program.arity_of p pred) in
  let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
  Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ]

(* The programs and queries of the rewriting experiments: the paper's
   examples (Example 2 under the 400-CQ budget), the University queries, a
   random DL-Lite TBox and an extended-DL TBox queried on every predicate,
   and the deep hierarchy and role chain of the rewriting benchmarks. *)
let oracle_corpus () =
  let open Tgd_core.Paper_examples in
  let every_predicate name p =
    List.map
      (fun (pred, _) -> (name ^ "/" ^ Symbol.name pred, p, atomic_query p pred, None))
      (Program.predicates p)
  in
  let dlite =
    Tgd_gen.Dl_lite.to_program
      (Tgd_gen.Dl_lite.random_tbox (Tgd_gen.Rng.create 555) ~n_concepts:20 ~n_roles:10 ~n_axioms:40)
  in
  let clinic, _ = Tgd_gen.Dl_ext.to_program Tgd_gen.Dl_ext.clinic in
  let deep = deep_hierarchy ~depth:60 in
  let chain = Tgd_gen.Gen_tgd.chain ?name:None ~depth:40 in
  [
    ("example1", example1, Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ] ], None);
    ("example2", example2, example2_query, Some 400);
    ( "example3",
      example3,
      Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "s" [ v "X"; v "Y"; v "Z" ] ],
      None );
    ("deep-hierarchy", deep, atomic_query deep (Symbol.intern "a60"), None);
    ( "role-chain",
      chain,
      Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r40" [ v "X"; v "Y" ] ],
      None );
  ]
  @ List.mapi
      (fun i q -> (Printf.sprintf "university/q%d" (i + 1), Tgd_gen.University.ontology, q, None))
      Tgd_gen.University.queries
  @ every_predicate "dl-lite" dlite
  @ every_predicate "clinic" clinic

let test_rewrite_matches_fresh_renaming_oracle () =
  List.iter
    (fun (name, program, q, max_cqs) ->
      let config =
        match max_cqs with
        | None -> Rewrite.default_config
        | Some n -> { Rewrite.default_config with Rewrite.max_cqs = n }
      in
      let pooled = (Rewrite.ucq ~config program q).Rewrite.ucq in
      let oracle = oracle_ucq ?max_cqs program q in
      Alcotest.(check (list string)) name
        (List.map Cq.to_string (canonical_set oracle))
        (List.map Cq.to_string (canonical_set pooled)))
    (oracle_corpus ())

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
          Alcotest.test_case "rule renamed apart" `Quick test_piece_renames_rule_apart;
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
          Alcotest.test_case "pooled rules match a fresh-renaming oracle" `Quick
            test_rewrite_matches_fresh_renaming_oracle;
          Alcotest.test_case "dl-lite role hierarchy" `Quick test_rewrite_dl_lite_role_hierarchy;
          Alcotest.test_case "empty program" `Quick test_rewrite_empty_program;
        ] );
    ]
