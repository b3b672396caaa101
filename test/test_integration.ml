(* Integration tests across the whole stack:
   - rewriting + evaluation vs chase materialization (Definition 1 in action);
   - the subsumption claims of Section 5 (experiment E5, small scale);
   - CLI-level file processing through the parser. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval

let v = Term.var
let atom p args = Atom.of_strings p args

let tuples_equal l1 l2 = List.length l1 = List.length l2 && List.for_all2 Tuple.equal l1 l2

let certain_by_rewriting p inst q =
  let r = Tgd_rewrite.Rewrite.ucq p q in
  match r.Tgd_rewrite.Rewrite.outcome with
  | Tgd_rewrite.Rewrite.Truncated d -> Error (Tgd_exec.Governor.diag_summary d)
  | Tgd_rewrite.Rewrite.Complete ->
    Ok (Eval.ucq inst r.Tgd_rewrite.Rewrite.ucq |> List.filter (fun t -> not (Tuple.has_null t)))

let check_agreement name p inst q =
  match certain_by_rewriting p inst q with
  | Error why -> Alcotest.fail (name ^ ": rewriting truncated: " ^ why)
  | Ok via_rw ->
    let via_chase = Tgd_chase.Certain.cq p inst q in
    Alcotest.(check bool) (name ^ ": chase exact") true via_chase.Tgd_chase.Certain.exact;
    Alcotest.(check bool)
      (Printf.sprintf "%s: rewriting (%d) = chase (%d)" name (List.length via_rw)
         (List.length via_chase.Tgd_chase.Certain.answers))
      true
      (tuples_equal via_rw via_chase.Tgd_chase.Certain.answers)

(* ------------------------------------------------------------------ *)
(* Definition 1 in action *)

let test_university_agreement () =
  let rng = Tgd_gen.Rng.create 77 in
  let data = Tgd_gen.University.generate_data rng ~scale:120 in
  List.iter
    (fun q -> check_agreement q.Cq.name Tgd_gen.University.ontology data q)
    Tgd_gen.University.queries

let test_example1_agreement_random_data () =
  let rng = Tgd_gen.Rng.create 78 in
  let p = Tgd_core.Paper_examples.example1 in
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ] ] in
  for _ = 1 to 10 do
    let inst = Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:30 ~domain_size:8 in
    check_agreement "example1" p inst q
  done

let test_example3_agreement_random_data () =
  let rng = Tgd_gen.Rng.create 79 in
  let p = Tgd_core.Paper_examples.example3 in
  for _ = 1 to 10 do
    let inst = Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:15 ~domain_size:5 in
    List.iter
      (fun (pred, arity) ->
        let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
        let q = Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ] in
        (* Example 3's chase does not terminate in general (t -> r -> s -> t
           with fresh nulls), so compare against a deep bounded chase: for
           FO-rewritable sets the certain answers stabilise at small depth. *)
        match certain_by_rewriting p inst q with
        | Error why -> Alcotest.fail ("rewriting truncated: " ^ why)
        | Ok via_rw ->
          let via_chase = Tgd_chase.Certain.cq ~max_rounds:12 p inst q in
          Alcotest.(check bool)
            (Printf.sprintf "%s agreement" (Symbol.name pred))
            true
            (tuples_equal via_rw via_chase.Tgd_chase.Certain.answers))
      (Program.predicates p)
  done

let test_random_linear_agreement () =
  (* Linear simple programs are FO-rewritable; rewriting and chase must
     agree on random data. *)
  let rng = Tgd_gen.Rng.create 80 in
  for i = 1 to 15 do
    let p =
      Tgd_gen.Gen_tgd.simple_linear ~name:(Printf.sprintf "lin%d" i) rng ~n_rules:5 ~n_predicates:4
        ~max_arity:3
    in
    let inst = Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:10 ~domain_size:6 in
    List.iter
      (fun (pred, arity) ->
        let vars = List.init arity (fun k -> v (Printf.sprintf "X%d" k)) in
        let q = Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ] in
        match certain_by_rewriting p inst q with
        | Error why -> Alcotest.fail ("rewriting truncated on linear program: " ^ why)
        | Ok via_rw ->
          let via_chase = Tgd_chase.Certain.cq ~max_rounds:15 ~max_facts:20_000 p inst q in
          Alcotest.(check bool)
            (Printf.sprintf "lin%d/%s" i (Symbol.name pred))
            true
            (tuples_equal via_rw via_chase.Tgd_chase.Certain.answers))
      (Program.predicates p)
  done

let test_sql_rendering_of_rewriting () =
  (* The SQL view of a rewriting mentions only extensional predicates. *)
  let q = Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ] in
  let r = Tgd_rewrite.Rewrite.ucq Tgd_gen.University.ontology q in
  let sql = Sql.of_ucq r.Tgd_rewrite.Rewrite.ucq in
  Alcotest.(check bool) "non-trivial SQL" true (String.length sql > 100)

(* ------------------------------------------------------------------ *)
(* E5: subsumption (Section 5), small scale *)

let subsumption_corpus checker generator n =
  let count = ref 0 and swr_count = ref 0 in
  for i = 1 to n do
    match generator i with
    | None -> ()
    | Some p ->
      if checker p then begin
        incr count;
        if (Tgd_core.Swr.check p).Tgd_core.Swr.swr then incr swr_count
      end
  done;
  (!count, !swr_count)

let test_swr_subsumes_linear () =
  let rng = Tgd_gen.Rng.create 81 in
  let gen i =
    Some (Tgd_gen.Gen_tgd.simple_linear ~name:(Printf.sprintf "l%d" i) rng ~n_rules:6 ~n_predicates:4 ~max_arity:3)
  in
  let total, swr = subsumption_corpus Tgd_classes.Linear.check gen 30 in
  Alcotest.(check bool) "corpus non-trivial" true (total >= 25);
  Alcotest.(check int) "every linear set is SWR" total swr

let test_swr_subsumes_multilinear () =
  let rng = Tgd_gen.Rng.create 82 in
  let gen i =
    Some (Tgd_gen.Gen_tgd.simple_multilinear ~name:(Printf.sprintf "m%d" i) rng ~n_rules:4 ~n_predicates:3 ~arity:3)
  in
  let total, swr = subsumption_corpus Tgd_classes.Multilinear.check gen 30 in
  Alcotest.(check bool) "corpus non-trivial" true (total >= 25);
  Alcotest.(check int) "every multilinear set is SWR" total swr

let test_swr_subsumes_sticky () =
  let rng = Tgd_gen.Rng.create 83 in
  let gen _ =
    Tgd_gen.Gen_tgd.sample_in_class
      (fun p -> Tgd_classes.Sticky.sticky p)
      (fun () ->
        Tgd_gen.Gen_tgd.random_simple_program rng
          { Tgd_gen.Gen_tgd.default_config with n_rules = 4; n_predicates = 4; max_body_atoms = 2 })
  in
  let total, swr = subsumption_corpus Tgd_classes.Sticky.sticky gen 30 in
  Alcotest.(check bool) "corpus non-trivial" true (total >= 20);
  Alcotest.(check int) "every sticky simple set is SWR" total swr

let test_swr_subsumes_sticky_join () =
  let rng = Tgd_gen.Rng.create 84 in
  let gen _ =
    Tgd_gen.Gen_tgd.sample_in_class
      (fun p -> Tgd_classes.Sticky.sticky_join p)
      (fun () ->
        Tgd_gen.Gen_tgd.random_simple_program rng
          { Tgd_gen.Gen_tgd.default_config with n_rules = 4; n_predicates = 4; max_body_atoms = 2 })
  in
  let total, swr = subsumption_corpus Tgd_classes.Sticky.sticky_join gen 30 in
  Alcotest.(check bool) "corpus non-trivial" true (total >= 20);
  Alcotest.(check int) "every sticky-join simple set is SWR" total swr

(* ------------------------------------------------------------------ *)
(* File-level pipeline *)

let test_file_pipeline () =
  let source =
    {|
      [has_member] project(P) -> member(P, M).
      [member_person] member(P, M) -> person(M).
      project(apollo).
      member(apollo, alan).
      q(X) :- person(X).
    |}
  in
  match Tgd_parser.Parser.parse_string source with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Tgd_parser.Parser.pp_error e)
  | Ok doc -> (
    match Tgd_parser.Parser.program_of_document doc with
    | Error e -> Alcotest.fail e
    | Ok p ->
      let inst = Instance.of_atoms doc.Tgd_parser.Parser.facts in
      let q = List.hd doc.Tgd_parser.Parser.queries in
      check_agreement "file pipeline" p inst q)

let () =
  Alcotest.run "integration"
    [
      ( "rewriting = chase",
        [
          Alcotest.test_case "university queries" `Quick test_university_agreement;
          Alcotest.test_case "example1 random data" `Quick test_example1_agreement_random_data;
          Alcotest.test_case "example3 random data" `Quick test_example3_agreement_random_data;
          Alcotest.test_case "random linear programs" `Quick test_random_linear_agreement;
          Alcotest.test_case "sql rendering" `Quick test_sql_rendering_of_rewriting;
        ] );
      ( "subsumption (E5)",
        [
          Alcotest.test_case "linear in swr" `Quick test_swr_subsumes_linear;
          Alcotest.test_case "multilinear in swr" `Quick test_swr_subsumes_multilinear;
          Alcotest.test_case "sticky in swr" `Quick test_swr_subsumes_sticky;
          Alcotest.test_case "sticky-join in swr" `Quick test_swr_subsumes_sticky_join;
        ] );
      ("pipeline", [ Alcotest.test_case "text to answers" `Quick test_file_pipeline ]);
    ]
