(* Tests for the OBDA layer: mapping assertions, unfolding, negative
   constraints, approximation, and the end-to-end system. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval
open Tgd_obda

let v = Term.var
let c = Term.const
let atom p args = Atom.of_strings p args
let tuples_equal l1 l2 = List.length l1 = List.length l2 && List.for_all2 Tuple.equal l1 l2

(* A registrar source schema:
     emp_record(id, dept, role)      role in {prof, lect}
     enrollment(student, course)
   mapped to the ontology vocabulary of the university ontology. *)
let mappings =
  [
    Mapping.make ~name:"m_prof"
      ~source:[ atom "emp_record" [ v "X"; v "D"; c "prof" ] ]
      ~target:(atom "professor" [ v "X" ]);
    Mapping.make ~name:"m_lect"
      ~source:[ atom "emp_record" [ v "X"; v "D"; c "lect" ] ]
      ~target:(atom "lecturer" [ v "X" ]);
    Mapping.make ~name:"m_works"
      ~source:[ atom "emp_record" [ v "X"; v "D"; v "R" ] ]
      ~target:(atom "works_for" [ v "X"; v "D" ]);
    Mapping.make ~name:"m_takes"
      ~source:[ atom "enrollment" [ v "S"; v "C" ] ]
      ~target:(atom "takes_course" [ v "S"; v "C" ]);
    Mapping.make ~name:"m_student"
      ~source:[ atom "enrollment" [ v "S"; v "C" ] ]
      ~target:(atom "undergraduate" [ v "S" ]);
  ]

let source_db () =
  Instance.of_atoms
    [
      atom "emp_record" [ c "ada"; c "cs"; c "prof" ];
      atom "emp_record" [ c "bob"; c "math"; c "lect" ];
      atom "emp_record" [ c "eve"; c "cs"; c "lect" ];
      atom "enrollment" [ c "sam"; c "db101" ];
      atom "enrollment" [ c "lee"; c "db101" ];
    ]

(* ------------------------------------------------------------------ *)
(* Mapping *)

let test_mapping_validation () =
  Alcotest.check_raises "unsafe mapping"
    (Invalid_argument "Mapping.make: unsafe mapping (target variable not in source)") (fun () ->
      ignore (Mapping.make ?name:None ~source:[ atom "t" [ v "X" ] ] ~target:(atom "p" [ v "Y" ])));
  Alcotest.check_raises "empty source" (Invalid_argument "Mapping.make: empty source query")
    (fun () -> ignore (Mapping.make ?name:None ~source:[] ~target:(atom "p" [ c "a" ])))

let test_mapping_materialize () =
  let abox = Mapping.materialize mappings (source_db ()) in
  let count pred =
    match Instance.relation abox (Symbol.intern pred) with
    | None -> 0
    | Some rel -> Relation.cardinality rel
  in
  Alcotest.(check int) "professors" 1 (count "professor");
  Alcotest.(check int) "lecturers" 2 (count "lecturer");
  Alcotest.(check int) "works_for" 3 (count "works_for");
  Alcotest.(check int) "takes_course" 2 (count "takes_course");
  Alcotest.(check int) "undergraduates" 2 (count "undergraduate")

let test_mapping_for_pred () =
  Alcotest.(check int) "one professor mapping" 1
    (List.length (Mapping.for_pred mappings (Symbol.intern "professor")));
  Alcotest.(check int) "none for person" 0
    (List.length (Mapping.for_pred mappings (Symbol.intern "person")))

(* ------------------------------------------------------------------ *)
(* Unfold *)

let test_unfold_single_atom () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "professor" [ v "X" ] ] in
  match Unfold.cq mappings q with
  | [ u ] ->
    Alcotest.(check int) "source body" 1 (List.length u.Cq.body);
    Alcotest.(check string) "source predicate" "emp_record"
      (Symbol.name (List.hd u.Cq.body).Atom.pred)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 unfolding, got %d" (List.length other))

let test_unfold_unmapped_atom_dies () =
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  Alcotest.(check int) "no unfolding" 0 (List.length (Unfold.cq mappings q))

let test_unfold_join_threading () =
  (* takes_course(X,C), takes_course(Y,C): the shared course variable must
     link the two enrollment atoms. *)
  let q =
    Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ]
      ~body:[ atom "takes_course" [ v "X"; v "C" ]; atom "takes_course" [ v "Y"; v "C" ] ]
  in
  match Unfold.cq mappings q with
  | [ u ] ->
    let vars =
      List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty u.Cq.body
    in
    (* two students + one shared course variable *)
    Alcotest.(check int) "three variables" 3 (Symbol.Set.cardinal vars)
  | other -> Alcotest.fail (Printf.sprintf "expected 1 unfolding, got %d" (List.length other))

let test_unfold_equals_materialization () =
  (* Evaluating the unfolded query on the source equals evaluating the
     original query on the materialized ABox. *)
  let src = source_db () in
  let abox = Mapping.materialize mappings src in
  let queries =
    [
      Cq.make ~name:"u1" ~answer:[ v "X" ] ~body:[ atom "lecturer" [ v "X" ] ];
      Cq.make ~name:"u2" ~answer:[ v "X"; v "D" ] ~body:[ atom "works_for" [ v "X"; v "D" ] ];
      Cq.make ~name:"u3" ~answer:[ v "S" ]
        ~body:[ atom "undergraduate" [ v "S" ]; atom "takes_course" [ v "S"; v "C" ] ];
    ]
  in
  List.iter
    (fun q ->
      let via_unfold = Eval.ucq src (Unfold.cq mappings q) in
      let via_abox = Eval.cq abox q in
      Alcotest.(check bool) (q.Cq.name ^ " agreement") true (tuples_equal via_unfold via_abox))
    queries

let test_unfold_multiple_choices () =
  (* Two mappings target undergraduate-like predicates: a query over
     [student] is not mapped, but a query over works_for has one mapping and
     over lecturer one; a UCQ mixes them. *)
  let u =
    Unfold.ucq mappings
      [
        Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "lecturer" [ v "X" ] ];
        Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "professor" [ v "X" ] ];
      ]
  in
  Alcotest.(check int) "two disjuncts" 2 (List.length u)

(* ------------------------------------------------------------------ *)
(* Constraints *)

let disjoint_student_faculty = Constraints.make ~name:"disj" [ atom "student" [ v "X" ]; atom "faculty" [ v "X" ] ]

let test_constraints_consistent () =
  let data =
    Instance.of_atoms [ atom "undergraduate" [ c "sam" ]; atom "lecturer" [ c "ada" ] ]
  in
  let verdict =
    Constraints.check Tgd_gen.University.ontology [ disjoint_student_faculty ] data
  in
  Alcotest.(check bool) "consistent" true verdict.Constraints.consistent;
  Alcotest.(check bool) "complete" true verdict.Constraints.complete

let test_constraints_violation_through_hierarchy () =
  (* ada is both an undergraduate and a full professor; the violation is
     only visible through the taxonomy (undergraduate -> student,
     full_professor -> professor -> faculty): it requires rewriting the
     constraint body. *)
  let data =
    Instance.of_atoms [ atom "undergraduate" [ c "ada" ]; atom "full_professor" [ c "ada" ] ]
  in
  let verdict =
    Constraints.check Tgd_gen.University.ontology [ disjoint_student_faculty ] data
  in
  Alcotest.(check bool) "inconsistent" false verdict.Constraints.consistent;
  Alcotest.(check bool) "names the constraint" true
    (List.exists
       (fun viol -> viol.Constraints.constraint_.Constraints.name = "disj")
       verdict.Constraints.violations)

let test_constraints_empty_body_rejected () =
  Alcotest.check_raises "empty body" (Invalid_argument "Constraints.make: empty body") (fun () ->
      ignore (Constraints.make []))

(* ------------------------------------------------------------------ *)
(* Approximation *)

let test_wr_subset_identity_on_wr () =
  let p, removed = Approximation.wr_subset Tgd_core.Paper_examples.example3 in
  Alcotest.(check int) "nothing removed" 0 (List.length removed);
  Alcotest.(check int) "same size" 3 (Program.size p)

let test_wr_subset_on_example2 () =
  let p, removed = Approximation.wr_subset Tgd_core.Paper_examples.example2 in
  Alcotest.(check bool) "some rule removed" true (removed <> []);
  Alcotest.(check bool) "subset is wr" true (Tgd_core.Wr.check p).Tgd_core.Wr.wr

let test_datalog_relaxation_shape () =
  let relaxed = Approximation.datalog_relaxation Tgd_core.Paper_examples.example2 in
  List.iter
    (fun (r : Tgd.t) ->
      Alcotest.(check int) "no existential heads" 0
        (Symbol.Set.cardinal (Tgd.existential_head_vars r)))
    (Program.tgds relaxed)

let test_interval_brackets_example2 () =
  let p = Tgd_core.Paper_examples.example2 in
  let inst =
    Instance.of_atoms
      [
        atom "t" [ c "a"; c "b" ];
        atom "r" [ c "u"; c "w" ];
        atom "s" [ c "k"; c "k"; c "b" ];
      ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ] ] in
  let itv = Approximation.interval_answers p inst q in
  (* lower must be a subset of upper *)
  Alcotest.(check bool) "lower <= upper" true
    (List.for_all (fun t -> List.exists (Tuple.equal t) itv.Approximation.upper)
       itv.Approximation.lower);
  (* reference: bounded chase answers sit between lower and upper *)
  let reference = Tgd_chase.Certain.cq ~max_rounds:20 p inst q in
  Alcotest.(check bool) "lower <= chase" true
    (List.for_all
       (fun t -> List.exists (Tuple.equal t) reference.Tgd_chase.Certain.answers)
       itv.Approximation.lower);
  Alcotest.(check bool) "chase <= upper" true
    (List.for_all
       (fun t -> List.exists (Tuple.equal t) itv.Approximation.upper)
       reference.Tgd_chase.Certain.answers)

let test_interval_exact_when_datalog () =
  (* On a plain Datalog program both bounds coincide with the exact
     answers. *)
  let p =
    Program.make_exn
      [
        Tgd.make ~name:"r1" ~body:[ atom "e" [ v "X"; v "Y" ] ] ~head:[ atom "p" [ v "X"; v "Y" ] ];
      ]
  in
  let inst = Instance.of_atoms [ atom "e" [ c "a"; c "b" ] ] in
  let q = Cq.make ~name:"q" ~answer:[ v "X"; v "Y" ] ~body:[ atom "p" [ v "X"; v "Y" ] ] in
  let itv = Approximation.interval_answers p inst q in
  Alcotest.(check bool) "exact" true itv.Approximation.exact;
  Alcotest.(check int) "one answer" 1 (List.length itv.Approximation.lower)

(* ------------------------------------------------------------------ *)
(* Obda_system *)

let system () =
  Obda_system.make ~ontology:Tgd_gen.University.ontology ~mappings
    ~constraints:[ disjoint_student_faculty ] ()

let test_system_answer_vs_materialized () =
  let sys = system () in
  let src = source_db () in
  let queries =
    [
      Cq.make ~name:"persons" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ];
      Cq.make ~name:"faculty" ~answer:[ v "X" ] ~body:[ atom "faculty" [ v "X" ] ];
      Cq.make ~name:"works" ~answer:[ v "X"; v "D" ] ~body:[ atom "works_for" [ v "X"; v "D" ] ];
      Cq.make ~name:"org" ~answer:[] ~body:[ atom "organization" [ v "O" ] ];
    ]
  in
  List.iter
    (fun q ->
      let virt = Obda_system.answer sys ~source:src q in
      let materialized, exact = Obda_system.answer_materialized sys ~source:src q in
      Alcotest.(check bool) (q.Cq.name ^ ": rewriting complete") true virt.Obda_system.rewriting_complete;
      Alcotest.(check bool) (q.Cq.name ^ ": chase exact") true exact;
      Alcotest.(check bool)
        (Printf.sprintf "%s: virtual (%d) = materialized (%d)" q.Cq.name
           (List.length virt.Obda_system.tuples) (List.length materialized))
        true
        (tuples_equal virt.Obda_system.tuples materialized))
    queries

let test_system_answers_content () =
  let sys = system () in
  let src = source_db () in
  let q = Cq.make ~name:"persons" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let a = Obda_system.answer sys ~source:src q in
  (* ada, bob, eve (employees) + sam, lee (students) *)
  Alcotest.(check int) "five persons" 5 (List.length a.Obda_system.tuples);
  Alcotest.(check bool) "has sql" true (a.Obda_system.sql <> None)

let test_system_sql_over_source_schema () =
  let sys = system () in
  let src = source_db () in
  let q = Cq.make ~name:"f" ~answer:[ v "X" ] ~body:[ atom "faculty" [ v "X" ] ] in
  let a = Obda_system.answer sys ~source:src q in
  List.iter
    (fun (d : Cq.t) ->
      List.iter
        (fun (at : Atom.t) ->
          let name = Symbol.name at.Atom.pred in
          Alcotest.(check bool) ("source predicate " ^ name) true
            (name = "emp_record" || name = "enrollment"))
        d.Cq.body)
    a.Obda_system.source_ucq

let test_system_consistency () =
  let sys = system () in
  let ok = Obda_system.consistent sys ~source:(source_db ()) in
  Alcotest.(check bool) "clean registrar is consistent" true ok.Constraints.consistent;
  (* Add a lecturer who is also enrolled: inconsistent through mappings and
     the taxonomy. *)
  let bad = source_db () in
  ignore
    (Instance.add_fact bad (Symbol.intern "enrollment")
       [| Value.const "eve"; Value.const "db101" |]);
  let verdict = Obda_system.consistent sys ~source:bad in
  Alcotest.(check bool) "moonlighting lecturer detected" false verdict.Constraints.consistent

let test_system_without_mappings () =
  (* Identity behaviour: no mappings means the source speaks the ontology
     schema already. *)
  let sys = Obda_system.make ~ontology:Tgd_gen.University.ontology () in
  let data = Instance.of_atoms [ atom "undergraduate" [ c "sam" ] ] in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let a = Obda_system.answer sys ~source:data q in
  Alcotest.(check int) "sam is a person" 1 (List.length a.Obda_system.tuples)

(* ------------------------------------------------------------------ *)
(* Property tests: randomized mappings, programs and databases under a
   fixed seed. Each property states a semantic equivalence the OBDA layer
   promises, mirroring the conformance harness's oracle style. *)

module Rng = Tgd_gen.Rng

let source_schema = [ ("s0", 2); ("s1", 3); ("s2", 1) ]
let onto_schema = [ ("o0", 1); ("o1", 2); ("o2", 2) ]

let random_source_body rng =
  List.init
    (1 + Rng.int rng 2)
    (fun _ ->
      let name, arity = Rng.choose rng source_schema in
      atom name (List.init arity (fun _ -> v (Printf.sprintf "V%d" (Rng.int rng 4)))))

(* A safe GAV mapping: the target's variables are drawn from the source
   body's variables (constants fill target positions otherwise). *)
let random_mapping rng i =
  let source = random_source_body rng in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty source)
  in
  let name, arity = Rng.choose rng onto_schema in
  let target =
    Atom.make (Symbol.intern name)
      (List.init arity (fun _ ->
           if vars <> [] && Rng.bool rng 0.8 then Term.Var (Rng.choose rng vars)
           else c (Printf.sprintf "k%d" (Rng.int rng 3))))
  in
  Mapping.make ~name:(Printf.sprintf "m%d" i) ~source ~target

let random_source_db rng =
  Instance.of_atoms
    (List.concat_map
       (fun (name, arity) ->
         List.init
           (2 + Rng.int rng 4)
           (fun _ ->
             atom name (List.init arity (fun _ -> c (Printf.sprintf "d%d" (Rng.int rng 4))))))
       source_schema)

let random_onto_cq rng =
  let body =
    List.init
      (1 + Rng.int rng 2)
      (fun _ ->
        let name, arity = Rng.choose rng onto_schema in
        atom name (List.init arity (fun _ -> v (Printf.sprintf "X%d" (Rng.int rng 3)))))
  in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
  in
  let answer = List.filter (fun _ -> Rng.bool rng 0.5) vars |> List.map (fun x -> Term.Var x) in
  Cq.make ~name:"q" ~answer ~body

(* Unfolding a query to the source schema and evaluating there must agree
   with materializing the virtual ABox and evaluating the query over it. *)
let test_prop_unfold_vs_materialize () =
  let rng = Rng.create 2014 in
  for i = 0 to 99 do
    let mappings = List.init (2 + Rng.int rng 4) (random_mapping rng) in
    let db = random_source_db rng in
    let q = random_onto_cq rng in
    let unfolded = Unfold.ucq mappings [ q ] in
    let via_unfold = Eval.ucq db unfolded in
    let via_abox = Eval.cq (Mapping.materialize mappings db) q in
    if not (tuples_equal via_unfold via_abox) then
      Alcotest.fail
        (Printf.sprintf "iteration %d: unfold gives %d tuple(s), materialization %d for %s" i
           (List.length via_unfold) (List.length via_abox) (Cq.to_string q))
  done

(* The sound side of the approximation: the kept subset really is WR, it
   never grows, and kept + removed is a partition of the input rules. *)
let test_prop_wr_subset_classified () =
  let rng = Rng.create 7 in
  let cfg =
    {
      Tgd_gen.Gen_tgd.default_config with
      Tgd_gen.Gen_tgd.n_predicates = 4;
      max_arity = 2;
      n_rules = 4;
      max_body_atoms = 2;
      max_head_atoms = 1;
      existential_rate = 0.4;
    }
  in
  for i = 0 to 39 do
    let p = Tgd_gen.Gen_tgd.random_simple_program rng cfg in
    let kept, removed = Approximation.wr_subset p in
    let verdict = Tgd_core.Wr.check kept in
    if not verdict.Tgd_core.Wr.wr then
      Alcotest.fail (Printf.sprintf "iteration %d: wr_subset kept a non-WR program" i);
    Alcotest.(check int)
      (Printf.sprintf "iteration %d: partition" i)
      (Program.size p)
      (Program.size kept + List.length removed)
  done

(* The complete side: the relaxation is existential-free (plain Datalog)
   and the classifier recognises it as such. *)
let test_prop_datalog_relaxation_classified () =
  let rng = Rng.create 8 in
  let cfg =
    {
      Tgd_gen.Gen_tgd.default_config with
      Tgd_gen.Gen_tgd.n_predicates = 4;
      max_arity = 2;
      n_rules = 4;
      max_body_atoms = 2;
      max_head_atoms = 1;
      existential_rate = 0.5;
    }
  in
  for i = 0 to 39 do
    let p = Tgd_gen.Gen_tgd.random_simple_program rng cfg in
    let relaxed = Approximation.datalog_relaxation p in
    List.iter
      (fun r ->
        if not (Symbol.Set.is_empty (Tgd.existential_head_vars r)) then
          Alcotest.fail
            (Printf.sprintf "iteration %d: rule %s keeps an existential" i r.Tgd.name))
      (Program.tgds relaxed);
    let report = Tgd_core.Classifier.classify relaxed in
    if not report.Tgd_core.Classifier.datalog then
      Alcotest.fail (Printf.sprintf "iteration %d: relaxation not classified datalog" i);
    if not report.Tgd_core.Classifier.weakly_acyclic then
      Alcotest.fail (Printf.sprintf "iteration %d: relaxation not weakly acyclic" i)
  done

(* The interval really brackets: lower ⊆ upper on arbitrary inputs. *)
let test_prop_interval_ordered () =
  let rng = Rng.create 9 in
  let cfg =
    {
      Tgd_gen.Gen_tgd.default_config with
      Tgd_gen.Gen_tgd.n_predicates = 3;
      max_arity = 2;
      n_rules = 3;
      max_body_atoms = 2;
      max_head_atoms = 1;
      existential_rate = 0.4;
    }
  in
  for i = 0 to 29 do
    let p = Tgd_gen.Gen_tgd.random_simple_program rng cfg in
    let inst =
      Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:3 ~domain_size:3
    in
    let preds = Program.predicates p in
    let pred, arity = Rng.choose rng preds in
    let q =
      Cq.make ~name:"q"
        ~answer:[ Term.Var (Symbol.intern "X0") ]
        ~body:
          [
            Atom.make pred
              (List.init arity (fun j -> v (Printf.sprintf "X%d" (if j = 0 then 0 else Rng.int rng 2))));
          ]
    in
    let interval = Approximation.interval_answers p inst q in
    let subset small big =
      List.for_all (fun t -> List.exists (Tuple.equal t) big) small
    in
    if not (subset interval.Approximation.lower interval.Approximation.upper) then
      Alcotest.fail (Printf.sprintf "iteration %d: lower not within upper" i);
    if interval.Approximation.exact && not (tuples_equal interval.Approximation.lower interval.Approximation.upper)
    then Alcotest.fail (Printf.sprintf "iteration %d: exact but bounds differ" i)
  done

(* ------------------------------------------------------------------ *)
(* Target.answers: the one artifact-to-answers dispatch *)

(* emp(X) -> works(X, Y): a query over works rewrites to a two-disjunct
   UCQ, and the Datalog target to a small program. The instance holds
   labeled nulls in the works relation, as a partly chased instance does,
   and is large enough that the 3-worker run splits its scans into
   morsels. *)
let test_target_answers_dispatch () =
  let p =
    Program.make_exn ~name:"works"
      [
        Tgd.make ~name:"r1" ~body:[ atom "emp" [ v "X" ] ]
          ~head:[ atom "works" [ v "X"; v "Y" ] ];
      ]
  in
  let inst = Instance.create () in
  let add pred vals = ignore (Instance.add_fact inst (Symbol.intern pred) (Array.of_list vals)) in
  for i = 0 to 1_999 do
    add "works" [ Value.const (Printf.sprintf "x%d" i); Value.const (Printf.sprintf "d%d" (i mod 7)) ];
    if i mod 3 = 0 then add "works" [ Value.const (Printf.sprintf "y%d" i); Value.Null (i + 1) ];
    if i mod 5 = 0 then add "emp" [ Value.const (Printf.sprintf "z%d" i) ]
  done;
  Instance.seal inst;
  let queries =
    [
      Cq.make ~name:"pairs" ~answer:[ v "X"; v "Y" ] ~body:[ atom "works" [ v "X"; v "Y" ] ];
      Cq.make ~name:"workers" ~answer:[ v "X" ] ~body:[ atom "works" [ v "X"; v "Y" ] ];
    ]
  in
  List.iter
    (fun (q : Cq.t) ->
      let ucq = Tgd_rewrite.Rewrite.ucq p q in
      let raw = Eval.ucq inst ucq.Tgd_rewrite.Rewrite.ucq in
      let expected = List.filter (fun t -> not (Tuple.has_null t)) raw in
      let dl = Tgd_rewrite.Datalog_rw.rewrite p q in
      let dl_expected = Target.datalog_answers dl inst in
      Alcotest.(check bool) (q.Cq.name ^ ": datalog agrees with the UCQ") true
        (tuples_equal dl_expected expected);
      List.iter
        (fun workers ->
          let label kind = Printf.sprintf "%s: %s at %d worker(s)" q.Cq.name kind workers in
          Alcotest.(check bool) (label "ucq = Eval.ucq minus nulls") true
            (tuples_equal (Target.answers ~workers (Target.Ucq_rewriting ucq) inst) expected);
          Alcotest.(check bool) (label "datalog = datalog_answers") true
            (tuples_equal (Target.answers ~workers (Target.Datalog_rewriting dl) inst) dl_expected))
        [ 1; 3 ])
    queries;
  (* The pairs query actually meets nulls, so the filter is exercised, and
     the 3-worker run takes the columnar engine's morsel path. *)
  let pairs = Tgd_rewrite.Rewrite.ucq p (List.hd queries) in
  Alcotest.(check bool) "raw answers hold nulls" true
    (List.exists Tuple.has_null (Eval.ucq inst pairs.Tgd_rewrite.Rewrite.ucq));
  let gov = Tgd_exec.Governor.create () in
  ignore (Target.answers ~gov ~workers:3 (Target.Ucq_rewriting pairs) inst);
  Alcotest.(check bool) "3 workers split the scans into morsels" true
    (Tgd_exec.Telemetry.get (Tgd_exec.Governor.telemetry gov) "eval.morsels" > 1)

(* [auto] resolves by whether the rules are plain Datalog, the one
   classifier field its choice ever read. *)
let test_target_resolve_auto () =
  let rng = Rng.create 30 in
  let cfg =
    {
      Tgd_gen.Gen_tgd.default_config with
      Tgd_gen.Gen_tgd.n_predicates = 4;
      max_arity = 2;
      n_rules = 3;
      max_body_atoms = 2;
      max_head_atoms = 2;
      existential_rate = 0.2;
    }
  in
  let programs =
    Tgd_core.Paper_examples.[ example1; example2; example3 ]
    @ List.init 40 (fun _ -> Tgd_gen.Gen_tgd.random_program rng cfg)
  in
  let datalog = ref 0 in
  List.iteri
    (fun i p ->
      let expected =
        if (Tgd_core.Classifier.classify p).Tgd_core.Classifier.datalog then (
          incr datalog;
          Target.Datalog)
        else Target.Ucq
      in
      Alcotest.(check string)
        (Printf.sprintf "program %d" i)
        (Target.to_string expected)
        (Target.to_string (Target.resolve Target.Auto p)))
    programs;
  Alcotest.(check bool) "both outcomes occur" true (!datalog > 0 && !datalog < List.length programs)

(* Every Datalog artifact spells its intensional predicates the same way,
   so data may hold relations under those names, of any arity; they must
   not seed the saturation. *)
let test_target_datalog_ignores_intensional_data () =
  let p =
    Program.make_exn
      [ Tgd.make ~name:"r" ~body:[ atom "professor" [ v "X" ] ] ~head:[ atom "person" [ v "X" ] ] ]
  in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let inst =
    match Csv_io.load_string "professor,ada\n__dlr#goal,mallory\n__dlr#1,a,b,c\n" with
    | Ok inst -> inst
    | Error e -> Alcotest.fail e
  in
  let dl = Tgd_rewrite.Datalog_rw.rewrite p q in
  let answers = Target.datalog_answers dl inst in
  Alcotest.(check (list string)) "only the certain answer"
    [ "ada" ]
    (List.map (fun t -> Format.asprintf "%a" Value.pp t.(0)) answers);
  Alcotest.(check int) "the instance is untouched" 3 (Instance.cardinality inst);
  (* A query over more than 64 atoms: the rewriter drops its goal rule, so
     [__dlr#goal] heads no rule, and the data under that name is still no
     answer. *)
  let chain =
    List.init 65 (fun i ->
        atom "knows" [ v (Printf.sprintf "Y%d" i); v (Printf.sprintf "Y%d" (i + 1)) ])
  in
  let dl = Tgd_rewrite.Datalog_rw.rewrite p (Cq.make ~name:"q" ~answer:[ v "Y0" ] ~body:chain) in
  Alcotest.(check bool) "the oversize query truncates" false
    (Target.complete (Target.Datalog_rewriting dl));
  Alcotest.(check int) "and has no answer" 0 (List.length (Target.datalog_answers dl inst));
  (* Truncated runs over University, whose two-atom heads normalize into
     auxiliary predicates: a pattern over them gets no base rule, so one
     left unexplored appears in rule bodies only. Data under such a name
     changes no answer. *)
  let data = Tgd_gen.University.generate_data (Rng.create 5) ~scale:4 in
  Instance.seal data;
  let dangling = ref 0 in
  List.iter
    (fun max_patterns ->
      List.iter
        (fun q ->
          let config = { Tgd_rewrite.Datalog_rw.default_config with max_patterns } in
          let dl = Tgd_rewrite.Datalog_rw.rewrite ~config Tgd_gen.University.ontology q in
          let tgds = Program.tgds dl.Tgd_rewrite.Datalog_rw.program in
          let heads = List.map (fun (r : Tgd.t) -> (List.hd r.Tgd.head).Atom.pred) tgds in
          let poisoned = Instance.copy data in
          List.iter
            (fun (r : Tgd.t) ->
              List.iter
                (fun (a : Atom.t) ->
                  if Tgd_rewrite.Datalog_rw.intensional a.Atom.pred
                     && not (List.exists (Symbol.equal a.Atom.pred) heads)
                  then begin
                    incr dangling;
                    ignore
                      (Instance.add_fact poisoned a.Atom.pred
                         (Array.map (fun _ -> Value.const "mallory") a.Atom.args))
                  end)
                r.Tgd.body)
            tgds;
          let clean = Target.datalog_answers dl data in
          if not (tuples_equal (Target.datalog_answers dl poisoned) clean) then
            Alcotest.failf "max_patterns %d: data seeded an intensional predicate" max_patterns)
        Tgd_gen.University.queries)
    [ 2; 4; 8; 16 ];
  Alcotest.(check bool) "some truncated run leaves a predicate that heads no rule" true
    (!dangling > 0)

(* Cold prepares and warm Datalog executes intern nothing: after a
   warm-up, the symbol table stays the same size over 1,000 cold prepares
   under each target and 1,000 executes of a prepared Datalog artifact.
   Rewriting used to intern fresh rule variables for every (CQ, rule) pair
   and fresh pattern names for every Datalog run, and reading a Datalog
   artifact's answers interned a fresh variable per answer column. *)
let test_target_soak_interns_nothing () =
  let program = Tgd_gen.Dl_lite.(to_program (cold_tbox ())) in
  (* Built up front, so building them interns nothing later. *)
  let queries = Tgd_gen.Dl_lite.cold_queries 1_000 in
  let gov () = Tgd_exec.Governor.unlimited () in
  let prepare target q = Target.prepare ~gov target program q in
  List.iter
    (fun target ->
      List.iteri (fun i q -> if i < 100 then ignore (prepare target q)) queries;
      let before = Symbol.count () in
      List.iter (fun q -> ignore (prepare target q)) queries;
      Alcotest.(check int)
        (Target.to_string target ^ ": 1,000 cold prepares intern nothing")
        before (Symbol.count ()))
    [ Target.Ucq; Target.Datalog; Target.Auto ];
  (* The DL-Lite TBox has single-head rules only; University's domain and
     range axioms have two-atom heads, whose normalization introduces
     auxiliary predicates. *)
  let university = Program.make_exn (Program.tgds Tgd_gen.University.ontology) in
  List.iter
    (fun target ->
      let round () =
        List.iter
          (fun q -> ignore (Target.prepare ~gov target university q))
          Tgd_gen.University.queries
      in
      round ();
      let before = Symbol.count () in
      for _ = 1 to 15 do
        round ()
      done;
      Alcotest.(check int)
        (Target.to_string target ^ ": University prepares intern nothing")
        before (Symbol.count ()))
    [ Target.Ucq; Target.Datalog; Target.Auto ];
  let inst =
    Tgd_gen.Gen_db.random_instance (Rng.create 4) program ~facts_per_predicate:4 ~domain_size:20
  in
  Instance.seal inst;
  let artifact = prepare Target.Datalog (List.nth queries 2) in
  let expected = Target.answers artifact inst in
  let before = Symbol.count () in
  for _ = 1 to 1_000 do
    if not (tuples_equal (Target.answers artifact inst) expected) then
      Alcotest.fail "a warm execute changed its answers"
  done;
  Alcotest.(check int) "1,000 warm Datalog executes intern nothing" before (Symbol.count ())

(* An artifact, spelled out: its disjuncts or rules and every count. *)
let describe = function
  | Target.Ucq_rewriting r ->
    let s = r.Tgd_rewrite.Rewrite.stats in
    Printf.sprintf "%s\n%d %d %d %d %d %d %d"
      (String.concat "\n" (List.map Cq.to_string r.Tgd_rewrite.Rewrite.ucq))
      s.Tgd_rewrite.Rewrite.generated s.Tgd_rewrite.Rewrite.explored s.Tgd_rewrite.Rewrite.kept
      s.Tgd_rewrite.Rewrite.max_depth s.Tgd_rewrite.Rewrite.containment_checks
      s.Tgd_rewrite.Rewrite.containment_pruned s.Tgd_rewrite.Rewrite.hom_searches
  | Target.Datalog_rewriting r ->
    let s = r.Tgd_rewrite.Datalog_rw.stats in
    Format.asprintf "%a@.%d %d %d" Tgd_rewrite.Datalog_rw.pp r s.Tgd_rewrite.Datalog_rw.patterns
      s.Tgd_rewrite.Datalog_rw.rules s.Tgd_rewrite.Datalog_rw.explored

(* Several domains prepare on one fresh program at once, so they race to
   build its rewriting view; one view wins and every domain gets the
   artifacts, counts included, that a later lone run gets. *)
let test_target_prepare_concurrent_fresh_program () =
  let tgds = Program.tgds Tgd_gen.University.ontology in
  let gov () = Tgd_exec.Governor.unlimited () in
  let run program =
    List.concat_map
      (fun target ->
        List.map (fun q -> describe (Target.prepare ~gov target program q)) Tgd_gen.University.queries)
      [ Target.Ucq; Target.Datalog ]
  in
  let n = 3 in
  for round = 1 to 3 do
    let program = Program.make_exn ~name:"university" tgds in
    let ready = Atomic.make 0 in
    let domains =
      List.init n (fun _ ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < n do
                Domain.cpu_relax ()
              done;
              run program))
    in
    let results = List.map Domain.join domains in
    let alone = run program in
    List.iteri
      (fun d got ->
        Alcotest.(check (list string)) (Printf.sprintf "round %d, domain %d" round d) alone got)
      results
  done

let () =
  Alcotest.run "obda"
    [
      ( "mapping",
        [
          Alcotest.test_case "validation" `Quick test_mapping_validation;
          Alcotest.test_case "materialize" `Quick test_mapping_materialize;
          Alcotest.test_case "for_pred" `Quick test_mapping_for_pred;
        ] );
      ( "unfold",
        [
          Alcotest.test_case "single atom" `Quick test_unfold_single_atom;
          Alcotest.test_case "unmapped atom" `Quick test_unfold_unmapped_atom_dies;
          Alcotest.test_case "join threading" `Quick test_unfold_join_threading;
          Alcotest.test_case "equals materialization" `Quick test_unfold_equals_materialization;
          Alcotest.test_case "multiple choices" `Quick test_unfold_multiple_choices;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "consistent data" `Quick test_constraints_consistent;
          Alcotest.test_case "violation through hierarchy" `Quick
            test_constraints_violation_through_hierarchy;
          Alcotest.test_case "empty body rejected" `Quick test_constraints_empty_body_rejected;
        ] );
      ( "approximation",
        [
          Alcotest.test_case "identity on wr" `Quick test_wr_subset_identity_on_wr;
          Alcotest.test_case "subset of example2" `Quick test_wr_subset_on_example2;
          Alcotest.test_case "relaxation is datalog" `Quick test_datalog_relaxation_shape;
          Alcotest.test_case "interval brackets" `Quick test_interval_brackets_example2;
          Alcotest.test_case "exact on datalog" `Quick test_interval_exact_when_datalog;
        ] );
      ( "target",
        [
          Alcotest.test_case "answers dispatch" `Quick test_target_answers_dispatch;
          Alcotest.test_case "auto resolves like the classifier" `Quick test_target_resolve_auto;
          Alcotest.test_case "datalog answers ignore data under intensional names" `Quick
            test_target_datalog_ignores_intensional_data;
          Alcotest.test_case "cold prepares and warm executes intern nothing" `Quick
            test_target_soak_interns_nothing;
          Alcotest.test_case "concurrent prepares on a fresh program" `Quick
            test_target_prepare_concurrent_fresh_program;
        ] );
      ( "system",
        [
          Alcotest.test_case "virtual = materialized" `Quick test_system_answer_vs_materialized;
          Alcotest.test_case "answer content" `Quick test_system_answers_content;
          Alcotest.test_case "sql over source schema" `Quick test_system_sql_over_source_schema;
          Alcotest.test_case "consistency end-to-end" `Quick test_system_consistency;
          Alcotest.test_case "no mappings" `Quick test_system_without_mappings;
        ] );
      ( "properties",
        [
          Alcotest.test_case "unfold = materialize-then-evaluate" `Quick
            test_prop_unfold_vs_materialize;
          Alcotest.test_case "wr_subset output is WR" `Quick test_prop_wr_subset_classified;
          Alcotest.test_case "relaxation is classified datalog" `Quick
            test_prop_datalog_relaxation_classified;
          Alcotest.test_case "interval bounds ordered" `Quick test_prop_interval_ordered;
        ] );
    ]
