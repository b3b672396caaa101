(* Unit tests for the workload generators. *)

open Tgd_logic
open Tgd_gen

let test_rng_deterministic () =
  let g1 = Rng.create 99 and g2 = Rng.create 99 in
  let seq g = List.init 50 (fun _ -> Rng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq g1) (seq g2)

let test_rng_bounds () =
  let g = Rng.create 5 in
  for _ = 1 to 10_000 do
    let n = 1 + Rng.int g 100 in
    let x = Rng.int g n in
    if x < 0 || x >= n then Alcotest.fail (Printf.sprintf "out of bounds: %d of %d" x n)
  done

let test_rng_float_range () =
  let g = Rng.create 6 in
  for _ = 1 to 1_000 do
    let f = Rng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_rng_copy_independent () =
  let g = Rng.create 1 in
  let _ = Rng.int g 10 in
  let g' = Rng.copy g in
  Alcotest.(check int) "copies continue identically" (Rng.int g 1000) (Rng.int g' 1000)

let test_rng_shuffle_permutation () =
  let g = Rng.create 2 in
  let l = [ 1; 2; 3; 4; 5; 6 ] in
  let s = Rng.shuffle g l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_random_program_well_formed () =
  let g = Rng.create 3 in
  for i = 0 to 20 do
    let p = Gen_tgd.random_program ~name:(Printf.sprintf "p%d" i) g Gen_tgd.default_config in
    Alcotest.(check int) "rule count" Gen_tgd.default_config.Gen_tgd.n_rules (Program.size p)
  done

let test_random_simple_program_is_simple () =
  let g = Rng.create 4 in
  for i = 0 to 20 do
    let p = Gen_tgd.random_simple_program ~name:(Printf.sprintf "s%d" i) g Gen_tgd.default_config in
    Alcotest.(check bool) "simple" true (Program.is_simple p)
  done

let test_constructive_linear () =
  let g = Rng.create 5 in
  for i = 0 to 20 do
    let p =
      Gen_tgd.simple_linear ~name:(Printf.sprintf "l%d" i) g ~n_rules:6 ~n_predicates:4 ~max_arity:3
    in
    Alcotest.(check bool) "linear" true (Tgd_classes.Linear.check p);
    Alcotest.(check bool) "simple" true (Program.is_simple p)
  done

let test_constructive_multilinear () =
  let g = Rng.create 6 in
  for i = 0 to 20 do
    let p =
      Gen_tgd.simple_multilinear ~name:(Printf.sprintf "m%d" i) g ~n_rules:5 ~n_predicates:4 ~arity:3
    in
    Alcotest.(check bool) "multilinear" true (Tgd_classes.Multilinear.check p);
    Alcotest.(check bool) "simple" true (Program.is_simple p)
  done

let test_sample_in_class () =
  let g = Rng.create 7 in
  let draw () =
    Gen_tgd.random_simple_program g
      { Gen_tgd.default_config with n_rules = 3; max_body_atoms = 2 }
  in
  (match Gen_tgd.sample_in_class (fun p -> Tgd_classes.Sticky.sticky p) draw with
  | Some p -> Alcotest.(check bool) "sampled program is sticky" true (Tgd_classes.Sticky.sticky p)
  | None -> Alcotest.fail "no sticky program found in 1000 tries");
  match Gen_tgd.sample_in_class ~max_tries:3 (fun _ -> false) draw with
  | Some _ -> Alcotest.fail "impossible predicate satisfied"
  | None -> ()

let test_chain_family () =
  let p = Gen_tgd.chain ?name:None ~depth:10 in
  Alcotest.(check int) "ten rules" 10 (Program.size p);
  Alcotest.(check bool) "linear" true (Tgd_classes.Linear.check p);
  let verdict = Tgd_core.Swr.check p in
  Alcotest.(check bool) "chains are swr" true verdict.Tgd_core.Swr.swr

let test_star_family () =
  let p = Gen_tgd.wide_star ?name:None ~width:8 in
  Alcotest.(check int) "eight rules" 8 (Program.size p);
  Alcotest.(check bool) "swr" true (Tgd_core.Swr.check p).Tgd_core.Swr.swr

let test_dl_lite_translation_shape () =
  let axioms =
    Dl_lite.
      [
        Concept_incl (Atomic "a", Exists (Role "r"));
        Concept_incl (Exists (Inv "r"), Atomic "b");
        Role_incl (Role "r", Inv "s");
      ]
  in
  let p = Dl_lite.to_program axioms in
  Alcotest.(check int) "one tgd per axiom" 3 (Program.size p);
  Alcotest.(check bool) "linear" true (Tgd_classes.Linear.check p);
  Alcotest.(check bool) "simple" true (Program.is_simple p);
  (* a [= exists r produces an existential head variable. *)
  let r1 = List.hd (Program.tgds p) in
  Alcotest.(check int) "existential created" 1
    (Symbol.Set.cardinal (Tgd.existential_head_vars r1))

let test_dl_lite_inverse_direction () =
  (* exists r- [= b must read the SECOND position of r. *)
  let p = Dl_lite.to_program [ Dl_lite.Concept_incl (Exists (Dl_lite.Inv "r"), Atomic "b") ] in
  match Program.tgds p with
  | [ r ] -> (
    match r.Tgd.body, r.Tgd.head with
    | [ body ], [ head ] ->
      let subject = body.Atom.args.(1) in
      Alcotest.(check bool) "head var is body's 2nd arg" true
        (Term.equal (head.Atom.args.(0)) subject)
    | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "expected one rule"

let test_dl_lite_random_always_swr () =
  let g = Rng.create 8 in
  for _ = 1 to 20 do
    let tbox = Dl_lite.random_tbox g ~n_concepts:5 ~n_roles:3 ~n_axioms:10 in
    let p = Dl_lite.to_program tbox in
    Alcotest.(check bool) "random tbox swr" true (Tgd_core.Swr.check p).Tgd_core.Swr.swr
  done

let test_dl_ext_clinic_classification () =
  let p, ncs = Dl_ext.to_program Dl_ext.clinic in
  Alcotest.(check int) "one disjointness constraint" 1 (List.length ncs);
  let r = Tgd_core.Classifier.classify p in
  Alcotest.(check bool) "not linear (conjunctions)" false r.Tgd_core.Classifier.linear;
  Alcotest.(check bool) "not simple (multi-atom heads)" false r.Tgd_core.Classifier.simple;
  Alcotest.(check bool) "not sticky" false r.Tgd_core.Classifier.sticky;
  Alcotest.(check bool) "wr" true r.Tgd_core.Classifier.wr

let test_dl_ext_clinic_rewritable () =
  (* FO-rewritability in action: every atomic pattern terminates. *)
  let p, _ = Dl_ext.to_program Dl_ext.clinic in
  let cfg = { Tgd_rewrite.Rewrite.default_config with max_cqs = 3_000 } in
  List.iter
    (fun (pat, status) ->
      match status with
      | Tgd_core.Query_pattern.Terminates _ -> ()
      | Tgd_core.Query_pattern.Diverges why ->
        Alcotest.fail (Format.asprintf "%a diverged: %s" Tgd_core.Query_pattern.pp pat why))
    (Tgd_core.Query_pattern.analyze_all ~config:cfg ~max_arity:2 p)

let test_dl_ext_el_recursion_rejected () =
  let p, _ =
    Dl_ext.to_program [ Dl_ext.Incl ([ Dl_ext.Exists_in (Dl_ext.Role "r", "a") ], Dl_ext.Atomic "a") ]
  in
  Alcotest.(check bool) "EL recursion not wr" false (Tgd_core.Wr.check p).Tgd_core.Wr.wr

let test_dl_ext_disjoint_constraint_works () =
  let p, ncs = Dl_ext.to_program Dl_ext.clinic in
  let constraints = List.map (fun body -> Tgd_obda.Constraints.make body) ncs in
  (* alice is licensed and conducts a trial (physician via investigator) and
     is also enrolled in a trial (participant): violates the disjointness. *)
  let cst s = Term.const s in
  let inst =
    Tgd_db.Instance.of_atoms
      [
        Atom.of_strings "conducts" [ cst "alice"; cst "t1" ];
        Atom.of_strings "trial" [ cst "t1" ];
        Atom.of_strings "licensed" [ cst "alice" ];
        Atom.of_strings "enrolled_in" [ cst "alice"; cst "t1" ];
      ]
  in
  let verdict = Tgd_obda.Constraints.check p constraints inst in
  Alcotest.(check bool) "moonlighting investigator detected" false verdict.Tgd_obda.Constraints.consistent

let test_dl_ext_random_stratified_generation () =
  let g = Rng.create 33 in
  for _ = 1 to 10 do
    let tbox = Dl_ext.random_tbox g ~n_concepts:5 ~n_roles:3 ~n_axioms:8 () in
    let p, _ = Dl_ext.to_program tbox in
    (* Translation is well-formed and the classifier runs. *)
    Alcotest.(check bool) "program non-empty or constraints-only" true (Program.size p >= 0);
    ignore (Tgd_core.Swr.check p)
  done

let test_university_data_extensional_only () =
  (* The generator must not emit facts for derived predicates. *)
  let g = Rng.create 9 in
  let data = University.generate_data g ~scale:50 in
  let derived = [ "person"; "student"; "faculty"; "employee"; "organization"; "course"; "chair"; "publication" ] in
  List.iter
    (fun name ->
      match Tgd_db.Instance.relation data (Symbol.intern name) with
      | None -> ()
      | Some rel ->
        Alcotest.(check int) (name ^ " not materialized") 0 (Tgd_db.Relation.cardinality rel))
    derived

let test_university_data_scales () =
  let g = Rng.create 10 in
  let small = Tgd_db.Instance.cardinality (University.generate_data g ~scale:50) in
  let g = Rng.create 10 in
  let large = Tgd_db.Instance.cardinality (University.generate_data g ~scale:500) in
  Alcotest.(check bool) "grows with scale" true (large > 4 * small)

let test_random_instance_signature () =
  let g = Rng.create 11 in
  let p = Tgd_core.Paper_examples.example1 in
  let inst = Gen_db.random_instance g p ~facts_per_predicate:20 ~domain_size:10 in
  List.iter
    (fun (pred, arity) ->
      match Tgd_db.Instance.relation inst pred with
      | None -> Alcotest.fail ("missing relation " ^ Symbol.name pred)
      | Some rel ->
        Alcotest.(check int) "arity matches signature" arity (Tgd_db.Relation.arity rel);
        Alcotest.(check bool) "populated" true (Tgd_db.Relation.cardinality rel > 0))
    (Program.predicates p)

(* Regression: generated TGD sets must be closed over a declared signature.
   Before the fix, every generator call re-rolled arities for the same
   interned predicate names ([p0], [p1], ...), so composing two draws — a
   program from one call, facts generated against another call's arities —
   could use one predicate at two arities, and the conflict only surfaced
   inside [Instance.relation_for] when the facts were loaded (or at eval
   time). With a shared [Gen_tgd.signature] the
   composition is closed by construction. *)
let test_signature_closure_regression () =
  let g = Rng.create 20260805 in
  let cfg = { Gen_tgd.default_config with n_predicates = 6; max_arity = 3; n_rules = 5 } in
  let sg = Gen_tgd.signature g cfg in
  (* Facts drawn once against the declared signature... *)
  let shared = Gen_db.random_facts_for g sg ~facts_per_predicate:3 ~domain_size:4 in
  for i = 0 to 30 do
    (* ...must load against every program generated over that signature. *)
    let p = Gen_tgd.random_program ~name:(Printf.sprintf "sg%d" i) ~signature:sg g cfg in
    Alcotest.(check bool) "closed over declared signature" true (Gen_tgd.closed_over sg p);
    let inst = Gen_db.random_instance g p ~facts_per_predicate:2 ~domain_size:4 in
    (* Merging the shared facts into the program's instance must never hit
       an arity conflict (this is what blew up before the fix). *)
    Tgd_db.Instance.iter_facts
      (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact inst pred t))
      shared;
    (* Simple and linear draws share the same closure guarantee. *)
    let ps = Gen_tgd.random_simple_program ~signature:sg g cfg in
    Alcotest.(check bool) "simple draw closed" true (Gen_tgd.closed_over sg ps);
    let pl = Gen_tgd.simple_linear ~signature:sg g ~n_rules:4 ~n_predicates:6 ~max_arity:3 in
    Alcotest.(check bool) "linear draw closed" true (Gen_tgd.closed_over sg pl)
  done;
  (* Witness that the hazard is real without a shared signature: two
     independent draws are each internally consistent but may disagree on
     an arity, which [closed_over] detects against the other's signature. *)
  let independent_disagreement =
    List.exists
      (fun seed ->
        let ga = Rng.create seed and gb = Rng.create (seed + 1000) in
        let pa = Gen_tgd.random_program ga cfg in
        let sgb = Gen_tgd.signature gb cfg in
        not (Gen_tgd.closed_over sgb pa))
      (List.init 20 (fun i -> 100 + i))
  in
  Alcotest.(check bool) "unshared draws can disagree on arities" true independent_disagreement

let () =
  Alcotest.run "gen"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
        ] );
      ( "tgd generators",
        [
          Alcotest.test_case "random programs well-formed" `Quick test_random_program_well_formed;
          Alcotest.test_case "simple generator" `Quick test_random_simple_program_is_simple;
          Alcotest.test_case "constructive linear" `Quick test_constructive_linear;
          Alcotest.test_case "constructive multilinear" `Quick test_constructive_multilinear;
          Alcotest.test_case "acceptance sampling" `Quick test_sample_in_class;
          Alcotest.test_case "chain family" `Quick test_chain_family;
          Alcotest.test_case "star family" `Quick test_star_family;
          Alcotest.test_case "signature closure regression" `Quick
            test_signature_closure_regression;
        ] );
      ( "dl-lite",
        [
          Alcotest.test_case "translation shape" `Quick test_dl_lite_translation_shape;
          Alcotest.test_case "inverse roles" `Quick test_dl_lite_inverse_direction;
          Alcotest.test_case "random tboxes swr" `Quick test_dl_lite_random_always_swr;
        ] );
      ( "dl-ext",
        [
          Alcotest.test_case "clinic classification" `Quick test_dl_ext_clinic_classification;
          Alcotest.test_case "clinic rewritable" `Quick test_dl_ext_clinic_rewritable;
          Alcotest.test_case "EL recursion rejected" `Quick test_dl_ext_el_recursion_rejected;
          Alcotest.test_case "disjointness constraint" `Quick test_dl_ext_disjoint_constraint_works;
          Alcotest.test_case "stratified generation" `Quick test_dl_ext_random_stratified_generation;
        ] );
      ( "data generators",
        [
          Alcotest.test_case "university extensional only" `Quick
            test_university_data_extensional_only;
          Alcotest.test_case "university scales" `Quick test_university_data_scales;
          Alcotest.test_case "random instance signature" `Quick test_random_instance_signature;
        ] );
    ]
