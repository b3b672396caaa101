(* Benchmark and experiment harness.

   Part 1 regenerates every figure/claim of the paper as a table
   (experiments E1-E9 of DESIGN.md, recorded in EXPERIMENTS.md), printing
   paper-expected vs measured values. Part 2 runs Bechamel timing groups,
   one per experiment that has a timing dimension.

   Run with: dune exec bench/main.exe            (full: reports + timings)
             dune exec bench/main.exe -- quick   (reports only)
             dune exec bench/main.exe -- e20 [quick]   (E20 alone) *)

open Tgd_logic

let section title =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==========================================================\n"

let row fmt = Printf.printf fmt

let check label ~expected ~got =
  Printf.printf "  %-58s paper: %-8s measured: %-8s %s\n" label expected got
    (if expected = got then "[ok]" else "[MISMATCH]")

let time_once f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Median-of-k wall-clock timing for the report tables (Bechamel handles the
   precise micro-timings separately). *)
let time_median ?(k = 5) f =
  let samples = List.init k (fun _ -> snd (time_once f)) in
  List.nth (List.sort compare samples) (k / 2)

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the position graph of Example 1; SWR holds.          *)

let e1 () =
  section "E1 (Figure 1): position graph of Example 1, SWR verdict";
  let p = Tgd_core.Paper_examples.example1 in
  let g = Tgd_core.Position_graph.build p in
  let edges = Tgd_core.Position_graph.edge_list g in
  check "edge list matches Figure 1" ~expected:"yes"
    ~got:(if edges = Tgd_core.Paper_examples.figure1_edges then "yes" else "no");
  check "nodes" ~expected:"7" ~got:(string_of_int (Tgd_core.Position_graph.G.n_nodes g));
  let v = Tgd_core.Swr.check p in
  check "set of simple TGDs" ~expected:"yes" ~got:(if v.Tgd_core.Swr.simple then "yes" else "no");
  check "SWR (Theorem 1 => FO-rewritable)" ~expected:"yes"
    ~got:(if v.Tgd_core.Swr.swr then "yes" else "no");
  List.iter (fun (s, d, l) -> row "    %s -> %s%s\n" s d (if l = "" then "" else " [" ^ l ^ "]")) edges

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — the position graph misses Example 2's danger.        *)

let e2 () =
  section "E2 (Figure 2): position graph of Example 2 misses the danger";
  let p = Tgd_core.Paper_examples.example2 in
  let g = Tgd_core.Position_graph.build p in
  check "position nodes" ~expected:"10" ~got:(string_of_int (Tgd_core.Position_graph.G.n_nodes g));
  check "dangerous (m+s) cycle in the position graph" ~expected:"no"
    ~got:(if Tgd_core.Swr.dangerous_cycle_in_graph g then "yes" else "no");
  (* The paper's figure draws the rewriting-step edges only; our
     generalized Definition 4 also adds the plain 1(a) feedback edges, so we
     get harmless cycles where the figure has none — the verdict ("no
     dangerous cycle, yet not FO-rewritable") is the same. *)
  let config = { Tgd_rewrite.Rewrite.default_config with max_cqs = 400 } in
  let r =
    Tgd_rewrite.Rewrite.ucq ~config p Tgd_core.Paper_examples.example2_query
  in
  check "rewriting of q() :- r(a,X) terminates" ~expected:"no"
    ~got:
      (match r.Tgd_rewrite.Rewrite.outcome with
      | Tgd_rewrite.Rewrite.Complete -> "yes"
      | Tgd_rewrite.Rewrite.Truncated _ -> "no");
  row "    unbounded chain: %d CQs generated down to depth %d before the budget\n"
    r.Tgd_rewrite.Rewrite.stats.Tgd_rewrite.Rewrite.generated
    r.Tgd_rewrite.Rewrite.stats.Tgd_rewrite.Rewrite.max_depth

(* ------------------------------------------------------------------ *)
(* E3: Figure 3 — the P-node graph detects Example 2's dangerous cycle. *)

let e3 () =
  section "E3 (Figure 3): P-node graph of Example 2 detects the dangerous cycle";
  let w = Tgd_core.Wr.check Tgd_core.Paper_examples.example2 in
  let g = w.Tgd_core.Wr.graph.Tgd_core.P_node_graph.graph in
  check "dangerous cycle (s-, m-, d-edges, no i-edge)" ~expected:"yes"
    ~got:(if w.Tgd_core.Wr.dangerous then "yes" else "no");
  check "WR" ~expected:"no" ~got:(if w.Tgd_core.Wr.wr then "yes" else "no");
  check "P-atom s(z,z,x1) of Figure 3 appears" ~expected:"yes"
    ~got:
      (if
         List.exists
           (fun (n : Tgd_core.P_node.t) ->
             Tgd_core.P_atom.to_string n.Tgd_core.P_node.atom = "s(z,z,x1)")
           (Tgd_core.P_node_graph.G.nodes g)
       then "yes"
       else "no");
  check "simple-cycle reading agrees" ~expected:"yes"
    ~got:(match Tgd_core.Wr.check_exact g with Some true -> "yes" | _ -> "no");
  row "    graph size: %d nodes, %d edges\n" (Tgd_core.P_node_graph.G.n_nodes g)
    (Tgd_core.P_node_graph.G.n_edges g)

(* ------------------------------------------------------------------ *)
(* E4: Example 3 — outside all prior classes, FO-rewritable, WR.       *)

let e4 () =
  section "E4 (Example 3): beyond all prior classes, yet WR and FO-rewritable";
  let p = Tgd_core.Paper_examples.example3 in
  let r = Tgd_core.Classifier.classify p in
  check "simple" ~expected:"no" ~got:(if r.Tgd_core.Classifier.simple then "yes" else "no");
  check "linear" ~expected:"no" ~got:(if r.Tgd_core.Classifier.linear then "yes" else "no");
  check "multilinear" ~expected:"no"
    ~got:(if r.Tgd_core.Classifier.multilinear then "yes" else "no");
  check "sticky" ~expected:"no" ~got:(if r.Tgd_core.Classifier.sticky then "yes" else "no");
  check "sticky-join" ~expected:"no"
    ~got:(if r.Tgd_core.Classifier.sticky_join then "yes" else "no");
  check "SWR" ~expected:"no" ~got:(if r.Tgd_core.Classifier.swr then "yes" else "no");
  check "WR" ~expected:"yes" ~got:(if r.Tgd_core.Classifier.wr then "yes" else "no");
  (* FO-rewritability in action: every atomic rewriting terminates. *)
  let all_complete =
    List.for_all
      (fun (pred, arity) ->
        let vars = List.init arity (fun i -> Term.var (Printf.sprintf "X%d" i)) in
        let q = Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ] in
        match (Tgd_rewrite.Rewrite.ucq p q).Tgd_rewrite.Rewrite.outcome with
        | Tgd_rewrite.Rewrite.Complete -> true
        | Tgd_rewrite.Rewrite.Truncated _ -> false)
      (Program.predicates p)
  in
  check "all atomic rewritings terminate" ~expected:"yes" ~got:(if all_complete then "yes" else "no")

(* ------------------------------------------------------------------ *)
(* E5: subsumption (Section 5): SWR contains the prior simple classes. *)

let e5 () =
  section "E5 (Section 5): SWR subsumes Linear/Multilinear/Sticky/Sticky-Join (simple TGDs)";
  let rng = Tgd_gen.Rng.create 20140622 in
  let corpus name gen checker n =
    let in_class = ref 0 and swr = ref 0 in
    for i = 1 to n do
      match gen i with
      | None -> ()
      | Some p ->
        if checker p then begin
          incr in_class;
          if (Tgd_core.Swr.check p).Tgd_core.Swr.swr then incr swr
        end
    done;
    row "  %-14s %4d sets in class, %4d of them SWR  %s\n" name !in_class !swr
      (if !in_class = !swr then "[ok: 100%]" else "[SUBSUMPTION VIOLATED]")
  in
  corpus "linear"
    (fun i ->
      Some (Tgd_gen.Gen_tgd.simple_linear ~name:(Printf.sprintf "l%d" i) rng ~n_rules:8 ~n_predicates:5 ~max_arity:3))
    Tgd_classes.Linear.check 100;
  corpus "multilinear"
    (fun i ->
      Some (Tgd_gen.Gen_tgd.simple_multilinear ~name:(Printf.sprintf "m%d" i) rng ~n_rules:5 ~n_predicates:4 ~arity:3))
    Tgd_classes.Multilinear.check 100;
  let sample checker _ =
    Tgd_gen.Gen_tgd.sample_in_class checker (fun () ->
        Tgd_gen.Gen_tgd.random_simple_program rng
          { Tgd_gen.Gen_tgd.default_config with n_rules = 5; n_predicates = 4; max_body_atoms = 2 })
  in
  corpus "sticky" (sample Tgd_classes.Sticky.sticky) Tgd_classes.Sticky.sticky 100;
  corpus "sticky-join" (sample Tgd_classes.Sticky.sticky_join) Tgd_classes.Sticky.sticky_join 100;
  (* DL-Lite: the motivating FO-rewritable language lands inside SWR. *)
  let ok = ref 0 in
  for _ = 1 to 100 do
    let tbox = Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:6 ~n_roles:4 ~n_axioms:12 in
    if (Tgd_core.Swr.check (Tgd_gen.Dl_lite.to_program tbox)).Tgd_core.Swr.swr then incr ok
  done;
  row "  %-14s %4d sets in class, %4d of them SWR  %s\n" "dl-lite" 100 !ok
    (if !ok = 100 then "[ok: 100%]" else "[SUBSUMPTION VIOLATED]")

(* ------------------------------------------------------------------ *)
(* E6: the SWR check is PTIME — scaling table.                         *)

let e6 () =
  section "E6 (PTIME claim): SWR check scaling with |P|";
  row "  %-10s %8s %8s %8s %12s\n" "family" "|P|" "nodes" "edges" "t_check";
  let families =
    [
      ("chain", fun n -> Tgd_gen.Gen_tgd.chain ?name:None ~depth:n);
      ("star", fun n -> Tgd_gen.Gen_tgd.wide_star ?name:None ~width:n);
      ( "dl-lite",
        fun n ->
          let rng = Tgd_gen.Rng.create (1000 + n) in
          Tgd_gen.Dl_lite.to_program
            (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:(n / 2) ~n_roles:(n / 4) ~n_axioms:n) );
    ]
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let p = make n in
          let t = time_median (fun () -> ignore (Tgd_core.Swr.check p)) in
          let g = Tgd_core.Position_graph.build p in
          row "  %-10s %8d %8d %8d %10.3fms\n" name n
            (Tgd_core.Position_graph.G.n_nodes g)
            (Tgd_core.Position_graph.G.n_edges g)
            (t *. 1000.))
        [ 10; 20; 40; 80; 160; 320 ])
    families

(* ------------------------------------------------------------------ *)
(* E7: the WR check is heavier (PSPACE claim) — node growth.           *)

let e7 () =
  section "E7 (PSPACE claim): P-node graph growth with |P|";
  row "  %-10s %8s %10s %10s %12s %10s\n" "family" "|P|" "p-nodes" "p-edges" "t_check" "complete";
  let families =
    [
      ("chain", fun n -> Tgd_gen.Gen_tgd.chain ?name:None ~depth:n);
      ( "dl-lite",
        fun n ->
          let rng = Tgd_gen.Rng.create (2000 + n) in
          Tgd_gen.Dl_lite.to_program
            (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:(n / 2) ~n_roles:(n / 4) ~n_axioms:n) );
      ( "random",
        fun n ->
          let rng = Tgd_gen.Rng.create (3000 + n) in
          Tgd_gen.Gen_tgd.random_program ~name:"rand" rng
            { Tgd_gen.Gen_tgd.default_config with n_rules = n; n_predicates = max 3 (n / 3); repeat_rate = 0.2 } );
    ]
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun n ->
          let p = make n in
          let (w : Tgd_core.Wr.verdict), t =
            time_once (fun () -> Tgd_core.Wr.check ~max_nodes:30_000 p)
          in
          let g = w.Tgd_core.Wr.graph.Tgd_core.P_node_graph.graph in
          row "  %-10s %8d %10d %10d %10.3fms %10s\n" name n
            (Tgd_core.P_node_graph.G.n_nodes g)
            (Tgd_core.P_node_graph.G.n_edges g)
            (t *. 1000.)
            (if w.Tgd_core.Wr.complete then "yes" else "TRUNC"))
        [ 10; 20; 40; 80 ])
    families

(* ------------------------------------------------------------------ *)
(* E8: rewriting+SQL-eval vs chase materialization (Definition 1).     *)

let e8 () =
  section "E8 (Definition 1): rewriting+evaluation = chase materialization, and who is faster";
  let ontology = Tgd_gen.University.ontology in
  row "  %-8s %-22s %8s %9s %12s %12s %9s\n" "scale" "query" "answers" "disjuncts" "t_rw+eval"
    "t_chase+eval" "agree";
  List.iter
    (fun scale ->
      let rng = Tgd_gen.Rng.create (4000 + scale) in
      let data = Tgd_gen.University.generate_data rng ~scale in
      (* chase once per scale, shared by the queries *)
      let chased, t_chase =
        time_once (fun () ->
            let copy = Tgd_db.Instance.copy data in
            ignore (Tgd_chase.Chase.run ontology copy);
            copy)
      in
      List.iter
        (fun q ->
          let rewriting, t_rw =
            time_once (fun () -> Tgd_rewrite.Rewrite.ucq ontology q)
          in
          let answers_rw, t_eval =
            time_once (fun () ->
                Tgd_conformance.Eval.ucq data rewriting.Tgd_rewrite.Rewrite.ucq
                |> List.filter (fun t -> not (Tgd_db.Tuple.has_null t)))
          in
          let answers_ch, t_ceval =
            time_once (fun () ->
                Tgd_conformance.Eval.cq chased q |> List.filter (fun t -> not (Tgd_db.Tuple.has_null t)))
          in
          let agree =
            List.length answers_rw = List.length answers_ch
            && List.for_all2 Tgd_db.Tuple.equal answers_rw answers_ch
          in
          row "  %-8d %-22s %8d %9d %10.2fms %10.2fms %9s\n" scale q.Cq.name
            (List.length answers_rw)
            (List.length rewriting.Tgd_rewrite.Rewrite.ucq)
            ((t_rw +. t_eval) *. 1000.)
            ((t_chase +. t_ceval) *. 1000.)
            (if agree then "yes" else "NO"))
        Tgd_gen.University.queries;
      row "  (scale %d: %d facts, one-off chase %0.2fms)\n" scale (Tgd_db.Instance.cardinality data)
        (t_chase *. 1000.))
    [ 100; 1000; 5000 ]

(* ------------------------------------------------------------------ *)
(* E9: rewriting sizes, with and without subsumption pruning.          *)

let e9 () =
  section "E9 (ablation): UCQ rewriting size with/without containment pruning";
  let cases =
    List.map (fun q -> ("university", Tgd_gen.University.ontology, q)) Tgd_gen.University.queries
    @ [
        ( "example1",
          Tgd_core.Paper_examples.example1,
          Cq.make ~name:"q_r" ~answer:[ Term.var "X" ]
            ~body:[ Atom.of_strings "r" [ Term.var "X"; Term.var "Y" ] ] );
        ( "example3",
          Tgd_core.Paper_examples.example3,
          Cq.make ~name:"q_s" ~answer:[ Term.var "X" ]
            ~body:[ Atom.of_strings "s" [ Term.var "X"; Term.var "Y"; Term.var "Z" ] ] );
      ]
  in
  row "  %-12s %-22s %10s %10s %12s %12s\n" "ontology" "query" "pruned" "unpruned" "gen(pruned)"
    "gen(unpr.)";
  List.iter
    (fun (name, p, q) ->
      let pruned = Tgd_rewrite.Rewrite.ucq p q in
      let unpruned =
        Tgd_rewrite.Rewrite.ucq
          ~config:{ Tgd_rewrite.Rewrite.default_config with prune_subsumed = false }
          p q
      in
      row "  %-12s %-22s %10d %10d %12d %12d\n" name q.Cq.name
        (List.length pruned.Tgd_rewrite.Rewrite.ucq)
        (List.length unpruned.Tgd_rewrite.Rewrite.ucq)
        pruned.Tgd_rewrite.Rewrite.stats.Tgd_rewrite.Rewrite.generated
        unpruned.Tgd_rewrite.Rewrite.stats.Tgd_rewrite.Rewrite.generated)
    cases

(* ------------------------------------------------------------------ *)
(* E10: the OBDA pipeline — rewriting + mapping unfolding vs            *)
(* materialization.                                                     *)

let registrar_mappings =
  let v = Term.var and c = Term.const in
  let atom p args = Atom.of_strings p args in
  Tgd_obda.Mapping.
    [
      make ~name:"m_prof"
        ~source:[ atom "emp_record" [ v "X"; v "D"; c "prof" ] ]
        ~target:(atom "professor" [ v "X" ]);
      make ~name:"m_lect"
        ~source:[ atom "emp_record" [ v "X"; v "D"; c "lect" ] ]
        ~target:(atom "lecturer" [ v "X" ]);
      make ~name:"m_works"
        ~source:[ atom "emp_record" [ v "X"; v "D"; v "R" ] ]
        ~target:(atom "works_for" [ v "X"; v "D" ]);
      make ~name:"m_under"
        ~source:[ atom "enrollment" [ v "S"; v "C" ] ]
        ~target:(atom "undergraduate" [ v "S" ]);
      make ~name:"m_takes"
        ~source:[ atom "enrollment" [ v "S"; v "C" ] ]
        ~target:(atom "takes_course" [ v "S"; v "C" ]);
    ]

let registrar_source rng ~employees ~enrollments =
  let inst = Tgd_db.Instance.create () in
  let add pred vals =
    ignore
      (Tgd_db.Instance.add_fact inst (Symbol.intern pred)
         (Array.of_list (List.map Tgd_db.Value.const vals)))
  in
  for i = 0 to employees - 1 do
    add "emp_record"
      [
        Printf.sprintf "e%d" i;
        Printf.sprintf "d%d" (Tgd_gen.Rng.int rng 10);
        (if Tgd_gen.Rng.bool rng 0.5 then "prof" else "lect");
      ]
  done;
  for i = 0 to enrollments - 1 do
    add "enrollment"
      [ Printf.sprintf "s%d" (i mod (max 1 (enrollments / 3))); Printf.sprintf "c%d" (Tgd_gen.Rng.int rng 40) ]
  done;
  inst

let e10 () =
  section "E10 (OBDA pipeline): rewriting + mapping unfolding over relational sources";
  let sys =
    Tgd_obda.Obda_system.make ~ontology:Tgd_gen.University.ontology ~mappings:registrar_mappings ()
  in
  let v = Term.var in
  let atom p args = Atom.of_strings p args in
  let queries =
    [
      Cq.make ~name:"persons" ~answer:[ v "X" ] ~body:[ atom "person" [ v "X" ] ];
      Cq.make ~name:"faculty_works" ~answer:[ v "X"; v "D" ]
        ~body:[ atom "faculty" [ v "X" ]; atom "works_for" [ v "X"; v "D" ] ];
      Cq.make ~name:"classmates" ~answer:[ v "X"; v "Y" ]
        ~body:[ atom "takes_course" [ v "X"; v "C" ]; atom "takes_course" [ v "Y"; v "C" ] ];
    ]
  in
  row "  %-8s %-16s %10s %9s %12s %14s %7s\n" "scale" "query" "unfolded" "answers" "t_virtual"
    "t_materialize" "agree";
  List.iter
    (fun scale ->
      let rng = Tgd_gen.Rng.create (7000 + scale) in
      let src = registrar_source rng ~employees:scale ~enrollments:(3 * scale) in
      List.iter
        (fun q ->
          let a, t_virtual = time_once (fun () -> Tgd_obda.Obda_system.answer sys ~source:src q) in
          let (mat, _), t_mat =
            time_once (fun () -> Tgd_obda.Obda_system.answer_materialized sys ~source:src q)
          in
          let agree =
            List.length a.Tgd_obda.Obda_system.tuples = List.length mat
            && List.for_all2 Tgd_db.Tuple.equal a.Tgd_obda.Obda_system.tuples mat
          in
          row "  %-8d %-16s %10d %9d %10.2fms %12.2fms %7s\n" scale q.Cq.name
            (List.length a.Tgd_obda.Obda_system.source_ucq)
            (List.length a.Tgd_obda.Obda_system.tuples)
            (t_virtual *. 1000.) (t_mat *. 1000.)
            (if agree then "yes" else "NO"))
        queries)
    [ 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* E11: Section 7 — approximation for intractable sets.                 *)

let e11 () =
  section "E11 (Section 7): interval approximation on non-WR programs";
  let rng = Tgd_gen.Rng.create 71 in
  let total = ref 0 and wr_already = ref 0 and exact = ref 0 in
  let kept_rules = ref 0 and all_rules = ref 0 in
  let v = Term.var in
  for i = 1 to 40 do
    let p =
      Tgd_gen.Gen_tgd.random_program ~name:(Printf.sprintf "p%d" i) rng
        {
          Tgd_gen.Gen_tgd.default_config with
          n_rules = 6;
          n_predicates = 4;
          repeat_rate = 0.3;
          existential_rate = 0.4;
        }
    in
    if (Tgd_core.Wr.check ~max_nodes:5_000 p).Tgd_core.Wr.wr then incr wr_already
    else begin
      incr total;
      let subset, removed = Tgd_obda.Approximation.wr_subset ~max_nodes:5_000 p in
      kept_rules := !kept_rules + Program.size subset;
      all_rules := !all_rules + Program.size subset + List.length removed;
      let inst = Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:10 ~domain_size:6 in
      (* one atomic query per program *)
      let pred, arity = List.hd (Program.predicates p) in
      let vars = List.init arity (fun k -> v (Printf.sprintf "X%d" k)) in
      let q = Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make pred vars ] in
      let itv = Tgd_obda.Approximation.interval_answers p inst q in
      if itv.Tgd_obda.Approximation.exact then incr exact
    end
  done;
  row "  random programs drawn: 40 (%d already WR, skipped)\n" !wr_already;
  row "  non-WR programs approximated: %d\n" !total;
  row "  average WR-subset retention: %d/%d rules\n" !kept_rules !all_rules;
  row "  queries where lower = upper (answers known exactly): %d/%d\n" !exact !total

(* ------------------------------------------------------------------ *)
(* E12: new FO-rewritable DLs beyond DL-Lite (Section 6's closing        *)
(* claim).                                                               *)

let e12 () =
  section "E12 (Section 6): an extended DL beyond DL-Lite, classified by WR";
  (* The clinic exemplar: conjunction + qualified existentials. *)
  let p, ncs = Tgd_gen.Dl_ext.to_program Tgd_gen.Dl_ext.clinic in
  let r = Tgd_core.Classifier.classify p in
  row "  clinic TBox: %d TGDs, %d disjointness constraint(s)\n" (Program.size p) (List.length ncs);
  check "expressible in DL-Lite (would be linear+simple)" ~expected:"no"
    ~got:(if r.Tgd_core.Classifier.linear && r.Tgd_core.Classifier.simple then "yes" else "no");
  check "sticky / sticky-join" ~expected:"no"
    ~got:(if r.Tgd_core.Classifier.sticky || r.Tgd_core.Classifier.sticky_join then "yes" else "no");
  check "WR (the class that accepts it)" ~expected:"yes"
    ~got:(if r.Tgd_core.Classifier.wr then "yes" else "no");
  (* EL-style recursion must be rejected. *)
  let rec_p, _ =
    Tgd_gen.Dl_ext.to_program
      [ Tgd_gen.Dl_ext.Incl ([ Tgd_gen.Dl_ext.Exists_in (Tgd_gen.Dl_ext.Role "r", "a") ], Tgd_gen.Dl_ext.Atomic "a") ]
  in
  check "EL-style recursion exists r.A [= A accepted" ~expected:"no"
    ~got:(if (Tgd_core.Wr.check rec_p).Tgd_core.Wr.wr then "yes" else "no");
  (* Random TBoxes: WR coverage, and pattern-level coverage of the rest. *)
  let rng = Tgd_gen.Rng.create 2014 in
  let total = 50 in
  let wr = ref 0 and patterns_safe = ref 0 and non_wr = ref 0 in
  for _ = 1 to total do
    let tbox = Tgd_gen.Dl_ext.random_tbox rng ~n_concepts:6 ~n_roles:3 ~n_axioms:10 () in
    let p, _ = Tgd_gen.Dl_ext.to_program tbox in
    if (Tgd_core.Wr.check ~max_nodes:10_000 p).Tgd_core.Wr.wr then incr wr
    else begin
      incr non_wr;
      let cfg = { Tgd_rewrite.Rewrite.default_config with max_cqs = 3_000 } in
      let statuses = Tgd_core.Query_pattern.analyze_all ~config:cfg ~max_arity:3 p in
      let all_safe =
        List.for_all
          (fun (_, s) ->
            match s with Tgd_core.Query_pattern.Terminates _ -> true | Tgd_core.Query_pattern.Diverges _ -> false)
          statuses
      in
      if all_safe then incr patterns_safe
    end
  done;
  row "  random extended TBoxes: %d/%d accepted by WR\n" !wr total;
  row "  of the %d rejected, %d have every atomic query pattern terminating\n" !non_wr
    !patterns_safe;
  row "  (WR is a sufficient condition; the query-pattern analysis of [11]\n";
  row "   recovers per-query guarantees for the conservative rejections)\n"

(* ------------------------------------------------------------------ *)
(* E13: Section 6's incomparability remark, witnessed.                  *)

let e13 () =
  section "E13 (Section 6): SWR is incomparable with domain-restricted and acyclic-GRD";
  let r1 = Tgd_core.Classifier.classify Tgd_core.Paper_examples.example1 in
  check "Example 1: SWR" ~expected:"yes" ~got:(if r1.Tgd_core.Classifier.swr then "yes" else "no");
  check "Example 1: domain-restricted" ~expected:"no"
    ~got:(if r1.Tgd_core.Classifier.domain_restricted then "yes" else "no");
  check "Example 1: acyclic GRD" ~expected:"no"
    ~got:(if r1.Tgd_core.Classifier.acyclic_grd then "yes" else "no");
  let r2 = Tgd_core.Classifier.classify Tgd_core.Paper_examples.dr_agrd_not_swr in
  check "witness: simple" ~expected:"yes" ~got:(if r2.Tgd_core.Classifier.simple then "yes" else "no");
  check "witness: domain-restricted" ~expected:"yes"
    ~got:(if r2.Tgd_core.Classifier.domain_restricted then "yes" else "no");
  check "witness: acyclic GRD" ~expected:"yes"
    ~got:(if r2.Tgd_core.Classifier.acyclic_grd then "yes" else "no");
  check "witness: SWR" ~expected:"no" ~got:(if r2.Tgd_core.Classifier.swr then "yes" else "no")

(* ------------------------------------------------------------------ *)
(* E14: the containment engine trajectory — rewriting workloads timed,  *)
(* filter hit rates recorded, and everything dumped to                  *)
(* BENCH_rewrite.json so later PRs can diff against this one.           *)

(* A deep concept hierarchy a0 ⊑ a1 ⊑ ... ⊑ a_depth: the atomic query on
   the top concept rewrites into depth+1 single-atom disjuncts over
   pairwise-distinct predicates, so every kept-set subsumption check is
   decidable by the fingerprint pre-filter alone. *)
let deep_hierarchy ~depth =
  Program.make_exn ~name:"deep"
    (List.init depth (fun i ->
         Tgd.make ~name:(Printf.sprintf "h%d" i)
           ~body:[ Atom.of_strings (Printf.sprintf "a%d" i) [ Term.var "X" ] ]
           ~head:[ Atom.of_strings (Printf.sprintf "a%d" (i + 1)) [ Term.var "X" ] ]))

type rewrite_sample = {
  rw_name : string;
  rw_ms : float;
  rw_stats : Tgd_rewrite.Rewrite.stats;
  rw_outcome : string;
}

let bench_rewrite_workloads () =
  let open Tgd_rewrite in
  let v = Term.var in
  let atomic p pred =
    let arity = Option.get (Program.arity_of p (Symbol.intern pred)) in
    let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
    Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make (Symbol.intern pred) vars ]
  in
  let dlite40 =
    let rng = Tgd_gen.Rng.create 555 in
    Tgd_gen.Dl_lite.to_program (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:20 ~n_roles:10 ~n_axioms:40)
  in
  let deep300 = deep_hierarchy ~depth:300 in
  let chain120 = Tgd_gen.Gen_tgd.chain ?name:None ~depth:120 in
  let e2_config = { Rewrite.default_config with max_cqs = 400 } in
  let workloads =
    [
      ( "e2-budget-400",
        fun () ->
          Rewrite.ucq ~config:e2_config Tgd_core.Paper_examples.example2
            Tgd_core.Paper_examples.example2_query );
      ( "university-union",
        fun () -> Rewrite.ucq_of_union Tgd_gen.University.ontology Tgd_gen.University.queries );
      ("dl-lite-40-atomic", fun () -> Rewrite.ucq dlite40 (atomic dlite40 "a0"));
      ("deep-hierarchy-300", fun () -> Rewrite.ucq deep300 (atomic deep300 "a300"));
      ( "deep-role-chain-120",
        fun () ->
          Rewrite.ucq chain120
            (Cq.make ~name:"q" ~answer:[ v "X" ]
               ~body:[ Atom.of_strings "r120" [ v "X"; v "Y" ] ]) );
    ]
  in
  List.map
    (fun (name, run) ->
      let r = ref (run ()) in
      let ms = time_median ~k:3 (fun () -> r := run ()) *. 1000. in
      {
        rw_name = name;
        rw_ms = ms;
        rw_stats = !r.Rewrite.stats;
        rw_outcome =
          (match !r.Rewrite.outcome with
          | Rewrite.Complete -> "complete"
          | Rewrite.Truncated d -> "truncated: " ^ Tgd_exec.Governor.diag_summary d);
      })
    workloads

let e14 () =
  section "E14 (engine): rewriting trajectory + containment filter hit rates";
  let samples = bench_rewrite_workloads () in
  row "  %-22s %10s %9s %6s %9s %9s %9s %10s\n" "workload" "t_rewrite" "generated" "kept"
    "cont.chk" "pruned" "hom.srch" "CQs/sec";
  List.iter
    (fun s ->
      let st = s.rw_stats in
      row "  %-22s %8.2fms %9d %6d %9d %9d %9d %10.0f\n" s.rw_name s.rw_ms
        st.Tgd_rewrite.Rewrite.generated st.Tgd_rewrite.Rewrite.kept
        st.Tgd_rewrite.Rewrite.containment_checks st.Tgd_rewrite.Rewrite.containment_pruned
        st.Tgd_rewrite.Rewrite.hom_searches
        (float_of_int st.Tgd_rewrite.Rewrite.generated /. (s.rw_ms /. 1000.)))
    samples;
  (* The deep hierarchy is the structural witness for the pruning claim:
     distinct predicates everywhere, so the filter must decide (almost)
     every check without a homomorphism search. *)
  let deep = List.find (fun s -> s.rw_name = "deep-hierarchy-300") samples in
  let st = deep.rw_stats in
  let ratio =
    float_of_int st.Tgd_rewrite.Rewrite.containment_checks
    /. float_of_int (max 1 st.Tgd_rewrite.Rewrite.hom_searches)
  in
  check "deep hierarchy: >= 5x fewer hom searches than checks" ~expected:"yes"
    ~got:(if ratio >= 5.0 then "yes" else "no");
  (* Ablation: minimizing the deep-hierarchy UCQ with the filtered+cached
     parallel engine vs the seed reference sweep. *)
  let deep300 = deep_hierarchy ~depth:300 in
  let q =
    Cq.make ~name:"q" ~answer:[ Term.var "X" ]
      ~body:[ Atom.of_strings "a300" [ Term.var "X" ] ]
  in
  let ucq = (Tgd_rewrite.Rewrite.ucq deep300 q).Tgd_rewrite.Rewrite.ucq in
  let t_engine = time_median ~k:3 (fun () -> ignore (Containment.minimize_ucq ucq)) *. 1000. in
  let t_reference =
    time_median ~k:3 (fun () -> ignore (Containment.minimize_ucq_reference ucq)) *. 1000.
  in
  let speedup = t_reference /. t_engine in
  row "  minimize_ucq on %d disjuncts: engine %.2fms, reference %.2fms (%.1fx)\n"
    (List.length ucq) t_engine t_reference speedup;
  check "minimize_ucq >= 2x faster than the reference sweep" ~expected:"yes"
    ~got:(if speedup >= 2.0 then "yes" else "no");
  (* The samples and the ablation row feed E21, which adds the Datalog
     backend's trajectory and writes the combined BENCH_rewrite.json. *)
  (samples, (List.length ucq, t_engine, t_reference, speedup))

(* ------------------------------------------------------------------ *)
(* E15: resource governance — graceful truncation on divergent inputs  *)

let e15 () =
  section "E15 (exec): governed truncation on non-terminating chase / rewriting";
  let module B = Tgd_exec.Budget in
  let module G = Tgd_exec.Governor in
  (* p(X) -> r(X,Y); r(X,Y) -> p(Y): an unbounded existential chain — the
     chase materializes a fresh null every round, forever. *)
  let v = Term.var in
  let divergent =
    Program.make_exn
      [
        Tgd.make ~name:"r1" ~body:[ Atom.of_strings "p" [ v "X" ] ]
          ~head:[ Atom.of_strings "r" [ v "X"; v "Y" ] ];
        Tgd.make ~name:"r2" ~body:[ Atom.of_strings "r" [ v "X"; v "Y" ] ]
          ~head:[ Atom.of_strings "p" [ v "Y" ] ];
      ]
  in
  let inst () = Tgd_db.Instance.of_atoms [ Atom.of_strings "p" [ Term.const "a" ] ] in
  let records = ref [] in
  (* Trigger-budget truncation: the chase winds down and reports how far it got. *)
  let gov = G.create ~budget:{ B.unlimited with B.chase_triggers = Some 200 } () in
  let stats, chase_s = time_once (fun () -> Tgd_chase.Chase.run ~gov divergent (inst ())) in
  let truncated, why =
    match stats.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Truncated d -> (true, G.diag_summary d)
    | Tgd_chase.Chase.Terminated -> (false, "terminated?!")
  in
  row "  chase under chase.triggers=200: %s in %.1fms (%d rounds, %d triggers, +%d facts)\n" why
    (chase_s *. 1000.) stats.Tgd_chase.Chase.rounds stats.Tgd_chase.Chase.triggers_fired
    stats.Tgd_chase.Chase.derived;
  check "divergent chase truncates gracefully under trigger budget" ~expected:"yes"
    ~got:(if truncated && stats.Tgd_chase.Chase.triggers_fired <= 200 then "yes" else "no");
  records := G.report_json ~run:"chase:trigger-budget" gov :: !records;
  (* Deadline truncation: wall-clock, not counter-based. *)
  let gov = G.create ~budget:{ B.unlimited with B.deadline_s = Some 0.05 } () in
  let stats, chase_s = time_once (fun () -> Tgd_chase.Chase.run ~gov divergent (inst ())) in
  let deadline_hit =
    match stats.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Truncated { G.reason = G.Deadline _; _ } -> true
    | _ -> false
  in
  row "  chase under deadline=50ms: stopped after %.1fms (%d rounds)\n" (chase_s *. 1000.)
    stats.Tgd_chase.Chase.rounds;
  check "divergent chase stops on wall-clock deadline within 10x slack" ~expected:"yes"
    ~got:(if deadline_hit && chase_s < 0.5 then "yes" else "no");
  records := G.report_json ~run:"chase:deadline" gov :: !records;
  (* Rewriting truncation: Example 2 is not FO-rewritable; the governed
     rewriter reports its kept/retired split at the stopping point. *)
  let gov = G.create ~budget:{ B.unlimited with B.rewrite_cqs = Some 150 } () in
  let r =
    Tgd_rewrite.Rewrite.ucq ~gov Tgd_core.Paper_examples.example2
      Tgd_core.Paper_examples.example2_query
  in
  let rw_truncated, kept, retired =
    match r.Tgd_rewrite.Rewrite.outcome with
    | Tgd_rewrite.Rewrite.Truncated d ->
      let get k = try List.assoc k d.G.counters with Not_found -> 0 in
      (true, get "rewrite.kept", get "rewrite.retired")
    | Tgd_rewrite.Rewrite.Complete -> (false, 0, 0)
  in
  row "  rewrite of Example 2 under rewrite.cqs=150: truncated with %d kept / %d retired\n" kept
    retired;
  check "divergent rewriting truncates with kept/retired diagnostics" ~expected:"yes"
    ~got:(if rw_truncated && kept > 0 then "yes" else "no");
  records := G.report_json ~run:"rewrite:cq-budget" gov :: !records;
  (* Telemetry trajectory file, sibling of BENCH_rewrite.json. *)
  let oc = open_out "BENCH_telemetry.json" in
  Printf.fprintf oc "{\n  \"schema\": \"bench_telemetry/v1\",\n  \"runs\": [\n    %s\n  ]\n}\n"
    (String.concat ",\n    " (List.rev !records));
  close_out oc;
  row "  wrote BENCH_telemetry.json\n"

(* ------------------------------------------------------------------ *)
(* E16: the serving layer — prepared-query cache under a Zipf replay.   *)

let e16 () =
  section "E16 (serve): prepared-query cache under a Zipf workload replay";
  let module P = Tgd_serve.Protocol in
  let module Server = Tgd_serve.Server in
  let srv = Server.create () in
  let tel = Server.telemetry srv in
  (* Register the university ontology and generated data directly through the
     registry (the JSONL path is exercised by the test suite; the bench
     measures prepare/execute, not parsing). *)
  let data = Tgd_gen.University.generate_data (Tgd_gen.Rng.create 0xE16) ~scale:300 in
  ignore
    (Tgd_serve.Registry.register (Server.registry srv) ~name:"uni" ~facts:data
       Tgd_gen.University.ontology);
  let queries = Array.of_list Tgd_gen.University.queries in
  let n_queries = Array.length queries in
  (* α-rename per tag: the replay must hit the cache through the canonical
     key, never through string identity of the submitted query. *)
  let qstr ~tag q =
    let renaming =
      Subst.of_list
        (Symbol.Set.elements (Cq.vars q)
        |> List.map (fun x -> (x, Term.var (Printf.sprintf "%s_%d" (Symbol.name x) tag))))
    in
    let q' =
      Cq.make ~name:q.Cq.name
        ~answer:(Subst.apply_terms renaming q.Cq.answer)
        ~body:(Subst.apply_atoms renaming q.Cq.body)
    in
    Format.asprintf "%a" Tgd_parser.Printer.query q'
  in
  let execute s =
    match Server.handle srv (P.Execute { ontology = "uni"; query = s; budget = None; target = None }) with
    | Ok _ -> ()
    | Error (kind, msg) -> failwith (kind ^ ": " ^ msg)
  in
  let prepare s =
    match Server.handle srv (P.Prepare { ontology = "uni"; query = s; target = None }) with
    | Ok _ -> ()
    | Error (kind, msg) -> failwith (kind ^ ": " ^ msg)
  in
  (* Cold phase: the first preparation of each distinct query pays the full
     UCQ rewriting + plan compilation; a repeated (α-renamed) preparation is
     a canonical-key cache hit. The speedup of the latter over the former is
     the value of the prepared-query cache — evaluation cost, which both
     paths share, is measured separately by the execute replay below. Each
     pass over the queries is one timed loop: a single warm call takes
     10-90 us, so a median of single calls moved with every noisy sample. *)
  let pass tag = snd (time_once (fun () -> Array.iter (fun q -> prepare (qstr ~tag q)) queries)) in
  let per_query s = s /. float_of_int n_queries in
  let cold_per_query = per_query (pass 0) in
  let warm_passes = List.sort compare (List.map pass [ 1; 2; 3; 4; 5 ]) in
  let warm_per_query = per_query (List.nth warm_passes 2) in
  (* Zipf(s=1) replay over the prepared server. *)
  let weights = Array.init n_queries (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total_w = Array.fold_left ( +. ) 0.0 weights in
  let rng = Tgd_gen.Rng.create 0x5317 in
  let sample () =
    let x = Tgd_gen.Rng.float rng *. total_w in
    let rec go i acc =
      if i = n_queries - 1 then i
      else if acc +. weights.(i) >= x then i
      else go (i + 1) (acc +. weights.(i))
    in
    go 0 0.0
  in
  let n_requests = 400 in
  let lats = Array.make n_requests 0.0 in
  let hits0 = Tgd_exec.Telemetry.get tel "serve.cache.hits" in
  let cqs0 = Tgd_exec.Telemetry.get tel "rewrite.cqs" in
  let replay_s =
    snd
      (time_once (fun () ->
           for k = 0 to n_requests - 1 do
             let s = qstr ~tag:(1 + (k mod 7)) queries.(sample ()) in
             let t = Unix.gettimeofday () in
             execute s;
             lats.(k) <- Unix.gettimeofday () -. t
           done))
  in
  Array.sort compare lats;
  let pct p = lats.(min (n_requests - 1) (int_of_float (p *. float_of_int n_requests))) in
  let p50 = pct 0.5 and p95 = pct 0.95 in
  let throughput = float_of_int n_requests /. replay_s in
  let warm_hits = Tgd_exec.Telemetry.get tel "serve.cache.hits" - hits0 in
  let warm_cqs = Tgd_exec.Telemetry.get tel "rewrite.cqs" - cqs0 in
  let speedup =
    cold_per_query /. (if warm_per_query > 0.0 then warm_per_query else epsilon_float)
  in
  row "  cold prepare pass: %.2fms/query   median warm pass: %.4fms/query  (%.0fx)\n"
    (cold_per_query *. 1000.) (warm_per_query *. 1000.) speedup;
  row "  warm execute p50: %.3fms  p95: %.3fms\n" (p50 *. 1000.) (p95 *. 1000.);
  row "  replay: %d requests in %.1fms  (%.0f req/s, %d cache hits)\n" n_requests
    (replay_s *. 1000.) throughput warm_hits;
  check "every replay request hits the prepared cache" ~expected:"yes"
    ~got:(if warm_hits = n_requests then "yes" else "no");
  check "warm executes never re-enter the rewriter" ~expected:"yes"
    ~got:(if warm_cqs = 0 then "yes" else "no");
  check "repeated queries >= 5x faster than cold prepare" ~expected:"yes"
    ~got:(if speedup >= 5.0 then "yes" else "no");
  (* Concurrent replay: 4 domains against the shared server state. The
     domains oversubscribe this host's cores by design (the pool clamp in
     Tgd_exec.Pool does not apply to raw Domain.spawn), so the leg runs
     with the minor heap scaled up the way `obda serve` scales it: at the
     256k-word default, stop-the-world minor-GC barriers across 4
     allocating domains collapsed throughput to ~20% of the sequential
     replay. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let per_domain = 100 in
  let failures = Atomic.make 0 in
  let conc_s =
    snd
      (time_once (fun () ->
           let domains =
             Array.init 4 (fun d ->
                 Domain.spawn (fun () ->
                     let rng = Tgd_gen.Rng.create (0xC0 + d) in
                     let sample () =
                       let x = Tgd_gen.Rng.float rng *. total_w in
                       let rec go i acc =
                         if i = n_queries - 1 then i
                         else if acc +. weights.(i) >= x then i
                         else go (i + 1) (acc +. weights.(i))
                       in
                       go 0 0.0
                     in
                     for k = 1 to per_domain do
                       let s = qstr ~tag:(8 + (k mod 5)) queries.(sample ()) in
                       try execute s with _ -> ignore (Atomic.fetch_and_add failures 1)
                     done))
           in
           Array.iter Domain.join domains))
  in
  Gc.set gc0;
  let conc_throughput = float_of_int (4 * per_domain) /. conc_s in
  row "  4-domain replay: %d requests in %.1fms (%.0f req/s, %d failures)\n" (4 * per_domain)
    (conc_s *. 1000.) conc_throughput (Atomic.get failures);
  check "concurrent replay completes without failures" ~expected:"yes"
    ~got:(if Atomic.get failures = 0 then "yes" else "no");
  (* Tripwire for the oversubscription regression: with the GC tuned, four
     raw domains on one core still pay barriers and context switches, but
     must stay well above the collapsed regime (~0.2x). The closed-loop
     network bench (bench/serve_load.exe, BENCH_serve.json v2) gates the
     real serving path at full parity. *)
  let conc_ratio = conc_throughput /. (if throughput > 0.0 then throughput else epsilon_float) in
  row "  4-domain / sequential ratio: %.2f\n" conc_ratio;
  check "4-domain replay >= 0.4x sequential (GC-barrier tripwire)" ~expected:"yes"
    ~got:(if conc_ratio >= 0.4 then "yes" else "no")
  (* BENCH_serve.json (schema v2) is written by bench/serve_load.exe, the
     closed-loop multi-connection load bench over the network front end. *)

(* ------------------------------------------------------------------ *)
(* E17 lives in the conformance harness (obda fuzz / test_conformance);  *)
(* it has no timing dimension, so there is no bench section for it.      *)

(* ------------------------------------------------------------------ *)
(* E18: morsel-driven parallel evaluation — per-core scaling.           *)

type e18_run = {
  engine : string; (* "boxed" (sequential Eval.ucq baseline) | "columnar" *)
  workers : int;
  wall : float; (* seconds *)
  speedup : float; (* vs the boxed 1-worker baseline of the same size *)
  scaling : float; (* vs the same engine's own 1-worker leg *)
  identical : bool;
  gc_minor : float; (* minor words allocated per run *)
  gc_major : float; (* major words allocated per run *)
}

let e18 () =
  section "E18 (parallel eval): columnar engine across workers and instance size vs boxed baseline";
  let v = Term.var in
  let q =
    Cq.make ~name:"q" ~answer:[ v "X" ]
      ~body:[ Atom.of_strings "r" [ v "X"; v "Y" ]; Atom.of_strings "s" [ v "Y" ] ]
  in
  (* r(x_i, y_{i mod keys}) joined with s over a third of the key domain:
     every answer requires an index probe, the lead scan splits evenly
     into morsels, and the answer set is ~n/3 tuples — big enough that the
     merge phase is exercised too. *)
  let build n =
    let inst = Tgd_db.Instance.create () in
    let add pred vals =
      ignore
        (Tgd_db.Instance.add_fact inst (Symbol.intern pred)
           (Array.of_list (List.map Tgd_db.Value.const vals)))
    in
    let keys = max 1 (n / 10) in
    for i = 0 to n - 1 do
      add "r" [ Printf.sprintf "x%d" i; Printf.sprintf "y%d" (i mod keys) ]
    done;
    let j = ref 0 in
    while !j < keys do
      add "s" [ Printf.sprintf "y%d" !j ];
      j := !j + 3
    done;
    inst
  in
  let workers_list = [ 1; 2; 4 ] in
  (* The honest hardware number: what the runtime would actually give a
     pool, not what TGDLIB_DOMAINS requests. Legs above it measure
     oversubscription, and the scaling gates only score when it is >= 4. *)
  let host_domains = Domain.recommended_domain_count () in
  row "  host domains: %d (scaling gates score only when >= 4; identity is checked everywhere)\n"
    host_domains;
  row "  %-10s %9s %9s %8s %11s %9s %9s %10s %11s\n" "facts" "answers" "engine" "workers"
    "t_eval" "speedup" "scaling" "identical" "minor_mw";
  let results =
    List.map
      (fun n ->
        let inst = build n in
        let reference = Tgd_conformance.Eval.ucq inst [ q ] in
        let k = if n >= 1_000_000 then 1 else 3 in
        Tgd_db.Instance.seal inst;
        (* Untimed: the first probe of a column builds its index. *)
        ignore (Tgd_db.Par_eval.ucq ~workers:1 inst [ q ]);
        let timed_leg ~engine w eval =
          let answers = ref [] in
          let minor0 = Gc.minor_words () in
          let major0 = (Gc.quick_stat ()).Gc.major_words in
          let wall = time_median ~k (fun () -> answers := eval ()) in
          let gc_minor = (Gc.minor_words () -. minor0) /. float_of_int k in
          let gc_major = ((Gc.quick_stat ()).Gc.major_words -. major0) /. float_of_int k in
          let identical =
            List.length !answers = List.length reference
            && List.for_all2 Tgd_db.Tuple.equal !answers reference
          in
          { engine; workers = w; wall; speedup = 0.; scaling = 0.; identical; gc_minor; gc_major }
        in
        let legs =
          timed_leg ~engine:"boxed" 1 (fun () -> Tgd_conformance.Eval.ucq inst [ q ])
          :: List.map
               (fun w ->
                 timed_leg ~engine:"columnar" w (fun () ->
                     Tgd_db.Par_eval.ucq ~workers:w inst [ q ]))
               workers_list
        in
        let wall_of engine w =
          match List.find_opt (fun r -> r.engine = engine && r.workers = w) legs with
          | Some r -> r.wall
          | None -> nan
        in
        let baseline = wall_of "boxed" 1 in
        let legs =
          List.map
            (fun r ->
              { r with speedup = baseline /. r.wall; scaling = wall_of r.engine 1 /. r.wall })
            legs
        in
        List.iter
          (fun r ->
            row "  %-10d %9d %9s %8d %9.2fms %8.2fx %8.2fx %10s %11.1f\n" n
              (List.length reference) r.engine r.workers (r.wall *. 1000.) r.speedup r.scaling
              (if r.identical then "yes" else "NO")
              (r.gc_minor /. 1e6))
          legs;
        (n, List.length reference, legs))
      [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let all_identical =
    List.for_all (fun (_, _, legs) -> List.for_all (fun r -> r.identical) legs) results
  in
  check "answers byte-identical to sequential at every size/engine/worker count" ~expected:"yes"
    ~got:(if all_identical then "yes" else "no");
  let find_leg n engine w =
    match List.find_opt (fun (n', _, _) -> n' = n) results with
    | None -> None
    | Some (_, _, legs) -> List.find_opt (fun r -> r.engine = engine && r.workers = w) legs
  in
  (* The columnar engine must not regress the sequential path: its 1-worker
     leg vs the boxed 1-worker leg, scored at every size (<= 10% slack). *)
  let seq_ok =
    List.for_all
      (fun (n, _, _) ->
        match (find_leg n "boxed" 1, find_leg n "columnar" 1) with
        | Some b, Some c -> c.wall <= b.wall *. 1.10
        | _ -> false)
      results
  in
  check "columnar 1-worker leg regresses the boxed baseline <= 10%" ~expected:"yes"
    ~got:(if seq_ok then "yes" else "no");
  (* Headline: >= 3x at 4 workers on the 10^6-fact leg, measured against
     the boxed sequential baseline (the engine this PR replaces). Like the
     scaling check below, 4-worker wall clock needs real cores — on a
     smaller host 4 domains time-slice and the ratio is load noise, so the
     number is reported rather than scored. *)
  (match find_leg 1_000_000 "columnar" 4 with
  | Some r when host_domains >= 4 ->
    check ">= 3x speedup at 4 workers on the 10^6-fact leg (vs boxed 1-worker)" ~expected:"yes"
      ~got:(if r.speedup >= 3.0 then "yes" else "no")
  | Some r ->
    row "  (4-worker columnar speedup at 10^6 facts: %.2fx — host has %d domain(s), not scored)\n"
      r.speedup host_domains
  | None -> ());
  (* Real parallel scaling needs real cores: scored on >= 4-domain hosts
     (CI's 4-vCPU leg), reported informationally elsewhere. *)
  (match find_leg 1_000_000 "columnar" 4 with
  | Some r when host_domains >= 4 ->
    check ">= 2x scaling at 4 workers on the 10^6-fact leg" ~expected:"yes"
      ~got:(if r.scaling >= 2.0 then "yes" else "no")
  | Some r ->
    row "  (4-worker columnar scaling at 10^6 facts: %.2fx — host has %d domain(s), not scored)\n"
      r.scaling host_domains
  | None -> ());
  (* min_tuples sweep: the sequential-fallback threshold. Below it a
     disjunct skips task splitting entirely; the sweep shows where
     splitting starts to pay on this host. *)
  let sweep_n = 100_000 in
  let sweep_inst = build sweep_n in
  let sweep_reference = Tgd_conformance.Eval.ucq sweep_inst [ q ] in
  Tgd_db.Instance.seal sweep_inst;
  let sweep_legs =
    List.map
      (fun mt ->
        let answers = ref [] in
        let wall =
          time_median ~k:3 (fun () ->
              answers := Tgd_db.Par_eval.ucq ~workers:4 ~min_tuples:mt sweep_inst [ q ])
        in
        let identical =
          List.length !answers = List.length sweep_reference
          && List.for_all2 Tgd_db.Tuple.equal !answers sweep_reference
        in
        row "  min_tuples sweep: %-9d %9.2fms %10s\n" mt (wall *. 1000.)
          (if identical then "yes" else "NO");
        (mt, wall, identical))
      [ 1; 512; 4_096; 65_536; 1_000_000 ]
  in
  check "min_tuples sweep preserves identity at every threshold" ~expected:"yes"
    ~got:(if List.for_all (fun (_, _, id) -> id) sweep_legs then "yes" else "no");
  let oc = open_out "BENCH_parallel_eval.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"bench_parallel_eval/v3\",\n";
  out "  \"host_domains\": %d,\n" host_domains;
  out "  \"query\": \"q(X) :- r(X,Y), s(Y)\",\n";
  out "  \"baseline\": \"boxed sequential Eval.ucq (pre-columnar default path)\",\n";
  out "  \"sizes\": [\n";
  List.iteri
    (fun i (n, answers, legs) ->
      out "    {\"facts\": %d, \"answers\": %d, \"runs\": [\n" n answers;
      List.iteri
        (fun j r ->
          out
            "      {\"engine\": %S, \"workers\": %d, \"wall_ms\": %.3f, \"speedup\": %.2f, \
             \"scaling\": %.2f, \"identical\": %b, \"gc_minor_words\": %.0f, \
             \"gc_major_words\": %.0f}%s\n"
            r.engine r.workers (r.wall *. 1000.) r.speedup r.scaling r.identical r.gc_minor
            r.gc_major
            (if j = List.length legs - 1 then "" else ","))
        legs;
      out "    ]}%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  out "  ],\n";
  out "  \"min_tuples_sweep\": {\"facts\": %d, \"workers\": 4, \"engine\": \"columnar\", \
       \"legs\": [" sweep_n;
  List.iteri
    (fun j (mt, wall, identical) ->
      out "%s{\"min_tuples\": %d, \"wall_ms\": %.3f, \"identical\": %b}"
        (if j = 0 then "" else ", ")
        mt (wall *. 1000.) identical)
    sweep_legs;
  out "]}\n}\n";
  close_out oc;
  row "  wrote BENCH_parallel_eval.json\n"

(* ------------------------------------------------------------------ *)
(* E19: incremental maintenance — delta-apply vs cold chase restart.    *)

(* Mirrors what the server's add-facts path does: a live materialization
   is extended by a batch run of Chase.run (copy-on-write model copy included in
   the timing), versus throwing the model away and re-chasing the merged
   instance from scratch (also from a copy). The program is a chain of
   three datalog steps plus one existential step, so the delta both joins
   through old facts and invents fresh nulls above the floor. *)
let e19 () =
  section "E19 (incremental chase): delta-apply vs cold restart, ~100k-fact model, 1% batch";
  let tgd name body head = Tgd.make ~name ~body ~head in
  let v = Term.var in
  let program =
    Program.make_exn ~name:"incr"
      [
        tgd "t0" [ Atom.of_strings "r0" [ v "X"; v "Y" ] ] [ Atom.of_strings "r1" [ v "X"; v "Y" ] ];
        tgd "t1" [ Atom.of_strings "r1" [ v "X"; v "Y" ] ] [ Atom.of_strings "r2" [ v "Y"; v "X" ] ];
        tgd "t2" [ Atom.of_strings "r2" [ v "X"; v "Y" ] ] [ Atom.of_strings "visible" [ v "X" ] ];
        (* Z is existential: every visible node gets one invented profile. *)
        tgd "t3" [ Atom.of_strings "visible" [ v "X" ] ] [ Atom.of_strings "profile" [ v "X"; v "Z" ] ];
      ]
  in
  let r0 = Symbol.intern "r0" in
  let n_base = 25_000 in
  let base = Tgd_db.Instance.create () in
  for i = 0 to n_base - 1 do
    ignore
      (Tgd_db.Instance.add_fact base r0
         [|
           Tgd_db.Value.const (Printf.sprintf "c%d" (i mod 20_000));
           Tgd_db.Value.const (Printf.sprintf "c%d" ((i * 7) mod 20_000));
         |])
  done;
  (* The warm materialization the delta leg maintains. *)
  let model = Tgd_db.Instance.copy base in
  let warm_stats = Tgd_chase.Chase.run program model in
  let model_facts = Tgd_db.Instance.cardinality model in
  let floor = Tgd_db.Instance.max_null model in
  row "  base facts: %d   materialized model: %d facts (%d nulls, chase %s)\n" n_base
    model_facts warm_stats.Tgd_chase.Chase.nulls
    (match warm_stats.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Terminated -> "terminated"
    | Tgd_chase.Chase.Truncated _ -> "TRUNCATED");
  (* A 1% batch of fresh edges: new constants, so every insert starts a new
     derivation chain through all four rules. *)
  let n_batch = n_base / 100 in
  let batch =
    List.init n_batch (fun i ->
        ( r0,
          [|
            Tgd_db.Value.const (Printf.sprintf "n%d" i);
            Tgd_db.Value.const (Printf.sprintf "n%d" (i + 1));
          |] ))
  in
  let last_delta = ref None in
  let delta_wall =
    time_median ~k:5 (fun () ->
        let m = Tgd_db.Instance.copy model in
        let stats = Tgd_chase.Chase.run ~null_floor:floor ~batch program m in
        last_delta := Some (m, stats))
  in
  let cold_wall =
    time_median ~k:5 (fun () ->
        let m = Tgd_db.Instance.copy base in
        List.iter (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact m pred t)) batch;
        ignore (Tgd_chase.Chase.run program m))
  in
  (* Agreement: the delta-applied model and a cold re-chase must coincide on
     every null-free fact (certain-answer equivalence). *)
  let cold = Tgd_db.Instance.copy base in
  List.iter (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact cold pred t)) batch;
  ignore (Tgd_chase.Chase.run program cold);
  let delta_model, delta_stats =
    match !last_delta with Some (m, s) -> (m, s) | None -> assert false
  in
  let null_free inst =
    Tgd_db.Instance.facts inst
    |> List.filter (fun (_, t) -> not (Tgd_db.Tuple.has_null t))
    |> List.sort compare
  in
  let agree = null_free delta_model = null_free cold in
  let speedup = cold_wall /. delta_wall in
  row "  cold restart: %.1f ms   delta-apply: %.1f ms   speedup: %.1fx\n" (cold_wall *. 1000.)
    (delta_wall *. 1000.) speedup;
  row "  delta stats: %d inserted, %d derived, %d nulls, %d triggers, %d rounds\n"
    delta_stats.Tgd_chase.Chase.inserted delta_stats.Tgd_chase.Chase.derived
    delta_stats.Tgd_chase.Chase.nulls delta_stats.Tgd_chase.Chase.triggers_fired
    delta_stats.Tgd_chase.Chase.rounds;
  check "delta-apply agrees with cold restart on null-free facts" ~expected:"yes"
    ~got:(if agree then "yes" else "no");
  check "delta-apply at least 5x faster than cold restart" ~expected:"yes"
    ~got:(if speedup >= 5.0 then "yes" else "no");
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"bench_incremental/v1\",\n\
    \  \"base_facts\": %d,\n\
    \  \"model_facts\": %d,\n\
    \  \"batch_facts\": %d,\n\
    \  \"cold_ms\": %.3f,\n\
    \  \"delta_ms\": %.3f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"agree_null_free\": %b,\n\
    \  \"delta\": {\"inserted\": %d, \"derived\": %d, \"nulls\": %d, \"triggers\": %d, \
     \"rounds\": %d}\n\
     }\n"
    n_base model_facts n_batch (cold_wall *. 1000.) (delta_wall *. 1000.) speedup agree
    delta_stats.Tgd_chase.Chase.inserted delta_stats.Tgd_chase.Chase.derived
    delta_stats.Tgd_chase.Chase.nulls delta_stats.Tgd_chase.Chase.triggers_fired
    delta_stats.Tgd_chase.Chase.rounds;
  close_out oc;
  row "  wrote BENCH_incremental.json\n"

(* ------------------------------------------------------------------ *)
(* E20: durable store — cold recovery vs from-scratch re-chase, and the
   WAL append overhead on the add-facts hot path.                       *)

(* Recovery loads the snapshot near-verbatim (bulk column reads + one
   symbol remap pass) where a cold start must re-run the chase over the
   whole base instance; the gap is the point of persisting the
   materialization. The program is E19's chain (three datalog steps + one
   existential step), so models are ~4x their base and carry nulls. *)
let e20 ~quick () =
  section "E20 (durable store): snapshot recovery vs re-chase, WAL overhead on add-facts";
  let tgd name body head = Tgd.make ~name ~body ~head in
  let v = Term.var in
  let program =
    Program.make_exn ~name:"persist"
      [
        tgd "t0" [ Atom.of_strings "r0" [ v "X"; v "Y" ] ] [ Atom.of_strings "r1" [ v "X"; v "Y" ] ];
        tgd "t1" [ Atom.of_strings "r1" [ v "X"; v "Y" ] ] [ Atom.of_strings "r2" [ v "Y"; v "X" ] ];
        tgd "t2" [ Atom.of_strings "r2" [ v "X"; v "Y" ] ] [ Atom.of_strings "visible" [ v "X" ] ];
        tgd "t3" [ Atom.of_strings "visible" [ v "X" ] ] [ Atom.of_strings "profile" [ v "X"; v "Z" ] ];
      ]
  in
  let r0 = Symbol.intern "r0" in
  let rm_rf dir =
    if Sys.file_exists dir && Sys.is_directory dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  let null_free inst =
    Tgd_db.Instance.facts inst
    |> List.filter (fun (_, t) -> not (Tgd_db.Tuple.has_null t))
    |> List.sort compare
  in
  let make_base n =
    let base = Tgd_db.Instance.create () in
    for i = 0 to n - 1 do
      ignore
        (Tgd_db.Instance.add_fact base r0
           [|
             Tgd_db.Value.const (Printf.sprintf "c%d" (i mod (4 * n / 5)));
             Tgd_db.Value.const (Printf.sprintf "c%d" ((i * 7) mod (4 * n / 5)));
           |])
    done;
    base
  in
  let sizes = if quick then [ 2_500; 25_000 ] else [ 2_500; 25_000; 250_000 ] in
  let legs =
    List.map
      (fun n ->
        let base = make_base n in
        let model = Tgd_db.Instance.copy base in
        ignore (Tgd_chase.Chase.run program model);
        let model_facts = Tgd_db.Instance.cardinality model in
        let floor = Tgd_db.Instance.max_null model in
        Tgd_db.Instance.seal base;
        Tgd_db.Instance.seal model;
        let dir = Filename.temp_dir "tgd_bench_store" "" in
        let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
        ignore
          (Tgd_store.Store.checkpoint store ~name:"bench"
             {
               Tgd_store.Snapshot.epoch = 1;
               delta_epoch = 1;
               program_src = Tgd_parser.Printer.program_to_string program;
               instance = base;
               materialization = Some { Tgd_store.Snapshot.model; floor; complete = true };
             });
        Tgd_store.Store.close store;
        let snap_bytes =
          Array.fold_left
            (fun acc f ->
              if Filename.check_suffix f ".snap" then
                acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
              else acc)
            0 (Sys.readdir dir)
        in
        let k = if n >= 250_000 then 3 else 5 in
        (* Cold recovery: open the store and build a server from it — the
           exact `obda serve --data-dir` startup path. *)
        (* Collect between samples (outside the timed region): each cold
           recovery decodes multi-megabyte arrays whose garbage would
           otherwise pile up and bill later samples for earlier ones. *)
        let time_median_gc ~k f =
          let samples =
            List.init k (fun _ ->
                Gc.full_major ();
                let t0 = Unix.gettimeofday () in
                f ();
                Unix.gettimeofday () -. t0)
          in
          List.nth (List.sort compare samples) (k / 2)
        in
        let recovery_wall =
          time_median_gc ~k (fun () ->
              let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
              let server = Tgd_serve.Server.create ~store () in
              Tgd_serve.Server.shutdown server)
        in
        (* From-scratch alternative: no store, so the materialization must
           be re-chased from the base facts. *)
        let rechase_wall =
          time_median_gc ~k (fun () ->
              let m = Tgd_db.Instance.copy base in
              ignore (Tgd_chase.Chase.run program m))
        in
        (* Agreement: the recovered materialization is null-free-identical
           to the one that was persisted. *)
        let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync:false dir) in
        let server = Tgd_serve.Server.create ~store () in
        let agree, recovered_facts =
          match Tgd_serve.Registry.find (Tgd_serve.Server.registry server) "bench" with
          | Some entry -> (
            match entry.Tgd_serve.Registry.materialization with
            | Some m ->
              ( null_free m.Tgd_serve.Registry.model = null_free model
                && Tgd_db.Instance.cardinality entry.Tgd_serve.Registry.instance
                   = Tgd_db.Instance.cardinality base,
                Tgd_db.Instance.cardinality m.Tgd_serve.Registry.model )
            | None -> (false, 0))
          | None -> (false, 0)
        in
        Tgd_serve.Server.shutdown server;
        rm_rf dir;
        let speedup = rechase_wall /. recovery_wall in
        row "  base %7d  model %8d  snap %9d B  recover %8.1f ms  re-chase %8.1f ms  %5.1fx\n"
          n model_facts snap_bytes (recovery_wall *. 1000.) (rechase_wall *. 1000.) speedup;
        check (Printf.sprintf "recovered model identical (null-free) at %d facts" model_facts)
          ~expected:"yes"
          ~got:(if agree && recovered_facts = model_facts then "yes" else "no");
        (n, model_facts, snap_bytes, recovery_wall, rechase_wall, speedup, agree))
      sizes
  in
  (* The acceptance gate rides on the ~100k-fact model leg (25k base). *)
  (match List.find_opt (fun (n, _, _, _, _, _, _) -> n = 25_000) legs with
  | Some (_, _, _, _, _, speedup, _) ->
    check "recovery at ~100k facts at least 3x faster than re-chase" ~expected:"yes"
      ~got:(if speedup >= 3.0 then "yes" else "no")
  | None -> ());
  (* WAL overhead on the add-facts hot path: identical mutation streams
     against an in-memory server, a durable one without fsync, and a
     durable one with fsync-per-ack. *)
  let n_ops = 100 and per_op = 50 in
  let csvs =
    Array.init n_ops (fun op ->
        String.concat "\n"
          (List.init per_op (fun i -> Printf.sprintf "r0,w%d_%d,w%d_%d" op i op (i + 1))))
  in
  let source = "r0(X,Y) -> r1(X,Y)." in
  let run_ops server =
    (match
       Tgd_serve.Server.handle server
         (Tgd_serve.Protocol.Register_ontology
            { name = "wal"; source = Tgd_serve.Protocol.Inline source })
     with
    | Ok _ -> ()
    | Error (_, msg) -> failwith msg);
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun csv ->
        match
          Tgd_serve.Server.handle server
            (Tgd_serve.Protocol.Add_facts { name = "wal"; source = Tgd_serve.Protocol.Inline csv })
        with
        | Ok _ -> ()
        | Error (_, msg) -> failwith msg)
      csvs;
    (Unix.gettimeofday () -. t0) /. float_of_int n_ops
  in
  let with_server ~fsync ~durable f =
    if not durable then begin
      let server = Tgd_serve.Server.create () in
      Fun.protect ~finally:(fun () -> Tgd_serve.Server.shutdown server) (fun () -> f server)
    end
    else begin
      let dir = Filename.temp_dir "tgd_bench_wal" "" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let store = Result.get_ok (Tgd_store.Store.open_dir ~fsync dir) in
          let server = Tgd_serve.Server.create ~store () in
          Fun.protect ~finally:(fun () -> Tgd_serve.Server.shutdown server) (fun () -> f server))
    end
  in
  let none_s = with_server ~fsync:false ~durable:false run_ops in
  let wal_s = with_server ~fsync:false ~durable:true run_ops in
  let fsync_s = with_server ~fsync:true ~durable:true run_ops in
  row "  add-facts op (%d facts): none %.1f us   wal %.1f us   wal+fsync %.1f us\n" per_op
    (none_s *. 1e6) (wal_s *. 1e6) (fsync_s *. 1e6);
  let oc = open_out "BENCH_persistence.json" in
  Printf.fprintf oc "{\n  \"schema\": \"bench_persistence/v1\",\n  \"legs\": [\n";
  List.iteri
    (fun i (n, model_facts, snap_bytes, recovery, rechase, speedup, agree) ->
      Printf.fprintf oc
        "    {\"base_facts\": %d, \"model_facts\": %d, \"snapshot_bytes\": %d, \"recovery_ms\": \
         %.3f, \"rechase_ms\": %.3f, \"speedup\": %.2f, \"agree_null_free\": %b}%s\n"
        n model_facts snap_bytes (recovery *. 1000.) (rechase *. 1000.) speedup agree
        (if i = List.length legs - 1 then "" else ","))
    legs;
  Printf.fprintf oc
    "  ],\n\
    \  \"add_facts_overhead_us\": {\"facts_per_op\": %d, \"in_memory\": %.2f, \"wal\": %.2f, \
     \"wal_fsync\": %.2f}\n\
     }\n"
    per_op (none_s *. 1e6) (wal_s *. 1e6) (fsync_s *. 1e6);
  close_out oc;
  row "  wrote BENCH_persistence.json\n"

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks                                    *)

open Bechamel
open Toolkit

let bechamel_groups () =
  let stage f = Staged.stage f in
  let q_atomic p pred =
    let arity = Option.get (Program.arity_of p (Symbol.intern pred)) in
    let vars = List.init arity (fun i -> Term.var (Printf.sprintf "X%d" i)) in
    Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make (Symbol.intern pred) vars ]
  in
  let chain40 = Tgd_gen.Gen_tgd.chain ?name:None ~depth:40 in
  let star40 = Tgd_gen.Gen_tgd.wide_star ?name:None ~width:40 in
  let dlite40 =
    let rng = Tgd_gen.Rng.create 555 in
    Tgd_gen.Dl_lite.to_program (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:20 ~n_roles:10 ~n_axioms:40)
  in
  let uni = Tgd_gen.University.ontology in
  let rng = Tgd_gen.Rng.create 556 in
  let uni_data = Tgd_gen.University.generate_data rng ~scale:200 in
  let q1 = List.hd Tgd_gen.University.queries in
  let q1_rw = (Tgd_rewrite.Rewrite.ucq uni q1).Tgd_rewrite.Rewrite.ucq in
  let parse_src = Tgd_parser.Printer.program_to_string uni in
  let ex1_q =
    Cq.make ~name:"q" ~answer:[ Term.var "X" ]
      ~body:[ Atom.of_strings "r" [ Term.var "X"; Term.var "Y" ] ]
  in
  [
    Test.make_grouped ~name:"E6-swr-check"
      [
        Test.make ~name:"chain-40" (stage (fun () -> Tgd_core.Swr.check chain40));
        Test.make ~name:"star-40" (stage (fun () -> Tgd_core.Swr.check star40));
        Test.make ~name:"dl-lite-40" (stage (fun () -> Tgd_core.Swr.check dlite40));
      ];
    Test.make_grouped ~name:"E7-wr-check"
      [
        Test.make ~name:"example2" (stage (fun () -> Tgd_core.Wr.check Tgd_core.Paper_examples.example2));
        Test.make ~name:"example3" (stage (fun () -> Tgd_core.Wr.check Tgd_core.Paper_examples.example3));
        Test.make ~name:"chain-40" (stage (fun () -> Tgd_core.Wr.check chain40));
      ];
    Test.make_grouped ~name:"E8-rewrite"
      [
        Test.make ~name:"example1-atomic" (stage (fun () -> Tgd_rewrite.Rewrite.ucq Tgd_core.Paper_examples.example1 ex1_q));
        Test.make ~name:"university-q1" (stage (fun () -> Tgd_rewrite.Rewrite.ucq uni q1));
        Test.make ~name:"dl-lite-40-atomic" (stage (fun () -> Tgd_rewrite.Rewrite.ucq dlite40 (q_atomic dlite40 "a0")));
      ];
    Test.make_grouped ~name:"E8-answering"
      [
        Test.make ~name:"eval-ucq-q1" (stage (fun () -> Tgd_conformance.Eval.ucq uni_data q1_rw));
        Test.make ~name:"chase-uni-200"
          (stage (fun () ->
               let copy = Tgd_db.Instance.copy uni_data in
               Tgd_chase.Chase.run uni copy));
      ];
    (let deep = deep_hierarchy ~depth:120 in
     let qd =
       Cq.make ~name:"q" ~answer:[ Term.var "X" ]
         ~body:[ Atom.of_strings "a120" [ Term.var "X" ] ]
     in
     let deep_ucq = (Tgd_rewrite.Rewrite.ucq deep qd).Tgd_rewrite.Rewrite.ucq in
     let d1 = List.hd deep_ucq and d2 = List.hd (List.rev deep_ucq) in
     let p1 = Containment.precompute d1 and p2 = Containment.precompute d2 in
     Test.make_grouped ~name:"E14-containment"
       [
         Test.make ~name:"contained-filtered" (stage (fun () -> Containment.contained d1 d2));
         Test.make ~name:"contained-pre" (stage (fun () -> Containment.contained_pre p1 p2));
         Test.make ~name:"contained-reference"
           (stage (fun () -> Containment.contained_reference d1 d2));
         Test.make ~name:"minimize-deep-120"
           (stage (fun () -> Containment.minimize_ucq deep_ucq));
         Test.make ~name:"minimize-deep-120-reference"
           (stage (fun () -> Containment.minimize_ucq_reference deep_ucq));
       ]);
    Test.make_grouped ~name:"substrate"
      [
        Test.make ~name:"parse-university" (stage (fun () -> Tgd_parser.Parser.parse_string parse_src));
        Test.make ~name:"classify-university" (stage (fun () -> Tgd_core.Classifier.classify uni));
      ];
  ]

let run_bechamel () =
  section "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false () in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg [ instance ] group in
      let results = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some [ est ] ->
            if est > 1_000_000.0 then row "  %-44s %12.3f ms/run\n" name (est /. 1_000_000.0)
            else if est > 1_000.0 then row "  %-44s %12.3f us/run\n" name (est /. 1_000.0)
            else row "  %-44s %12.1f ns/run\n" name est
          | Some _ | None -> row "  %-44s (no estimate)\n" name)
        (List.sort compare rows))
    (bechamel_groups ())

(* ------------------------------------------------------------------ *)
(* E21: the Datalog rewriting target vs the UCQ target. Shared          *)
(* intensional patterns keep the program polynomial where the UCQ union *)
(* blows up, and Example 2 — which is NOT FO-rewritable, so no UCQ      *)
(* budget ever completes it — gets exact PTIME answers from its         *)
(* (recursive) Datalog program.                                         *)

type datalog_sample = {
  dl_name : string;
  dl_ms : float;
  dl_stats : Tgd_rewrite.Datalog_rw.stats;
  dl_nonrecursive : bool;
  dl_outcome : string;
}

(* Cold prepares on the served cold-query TBox (24 concepts, 8 roles, 48
   axioms): distinct atomic, path and two-path queries, each one a prepared
   cache miss's work. [auto] pays one pass over the rules to pick its
   backend on top of [ucq]'s rewriting. A first pass builds the program's
   rewriting view; the timed passes then count the symbols they intern. *)
type cold_sample = {
  cp_target : string;
  cp_prepares : int;
  cp_mean_ms : float;
  cp_symbols_per_prepare : float;
}

let cold_prepare_samples () =
  let program = Tgd_gen.Dl_lite.(to_program (cold_tbox ())) in
  let queries = Tgd_gen.Dl_lite.cold_queries 300 in
  let n = List.length queries in
  let gov () = Tgd_exec.Governor.unlimited () in
  List.map
    (fun target ->
      let pass () = List.iter (fun q -> ignore (Tgd_obda.Target.prepare ~gov target program q)) queries in
      pass ();
      let k = 3 in
      let s0 = Symbol.count () in
      let t = time_median ~k pass in
      {
        cp_target = Tgd_obda.Target.to_string target;
        cp_prepares = n;
        cp_mean_ms = t *. 1000. /. float_of_int n;
        cp_symbols_per_prepare = float_of_int (Symbol.count () - s0) /. float_of_int (k * n);
      })
    [ Tgd_obda.Target.Ucq; Tgd_obda.Target.Auto ]

let e21 (rw_samples, (min_disjuncts, min_engine_ms, min_reference_ms, min_speedup)) =
  section "E21 (rewrite): Datalog target — shared patterns vs UCQ unions";
  let module D = Tgd_rewrite.Datalog_rw in
  let v = Term.var in
  let atomic p pred =
    let arity = Option.get (Program.arity_of p (Symbol.intern pred)) in
    let vars = List.init arity (fun i -> v (Printf.sprintf "X%d" i)) in
    Cq.make ~name:"q" ~answer:vars ~body:[ Atom.make (Symbol.intern pred) vars ]
  in
  let dlite40 =
    let rng = Tgd_gen.Rng.create 555 in
    Tgd_gen.Dl_lite.to_program
      (Tgd_gen.Dl_lite.random_tbox rng ~n_concepts:20 ~n_roles:10 ~n_axioms:40)
  in
  let deep300 = deep_hierarchy ~depth:300 in
  let chain120 = Tgd_gen.Gen_tgd.chain ?name:None ~depth:120 in
  let q_deep = atomic deep300 "a300" in
  let workloads =
    [
      ("e2-budget-400", Tgd_core.Paper_examples.example2, Tgd_core.Paper_examples.example2_query);
      ("dl-lite-40-atomic", dlite40, atomic dlite40 "a0");
      ("deep-hierarchy-300", deep300, q_deep);
      ( "deep-role-chain-120",
        chain120,
        Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ Atom.of_strings "r120" [ v "X"; v "Y" ] ] );
    ]
  in
  let results =
    List.map
      (fun (name, p, q) ->
        let r = ref (D.rewrite p q) in
        let ms = time_median ~k:3 (fun () -> r := D.rewrite p q) *. 1000. in
        let r = !r in
        let sample =
          {
            dl_name = name;
            dl_ms = ms;
            dl_stats = r.D.stats;
            dl_nonrecursive = r.D.nonrecursive;
            dl_outcome =
              (match r.D.outcome with
              | D.Complete -> "complete"
              | D.Truncated d -> "truncated: " ^ Tgd_exec.Governor.diag_summary d);
          }
        in
        (sample, r))
      workloads
  in
  let samples = List.map fst results in
  let ucq_outcome name =
    match List.find_opt (fun s -> s.rw_name = name) rw_samples with
    | Some s -> s.rw_outcome
    | None -> "-"
  in
  row "  %-22s %10s %9s %7s %10s %-10s %-20s\n" "workload" "t_rewrite" "patterns" "rules"
    "recursive" "datalog" "ucq-outcome";
  List.iter
    (fun s ->
      row "  %-22s %8.2fms %9d %7d %10s %-10s %-20s\n" s.dl_name s.dl_ms s.dl_stats.D.patterns
        s.dl_stats.D.rules
        (if s.dl_nonrecursive then "no" else "yes")
        s.dl_outcome (ucq_outcome s.dl_name))
    samples;
  let outcome_of name = (List.find (fun s -> s.dl_name = name) samples).dl_outcome in
  let truncated s = String.length s >= 9 && String.sub s 0 9 = "truncated" in
  check "deep-hierarchy-300: Datalog backend complete" ~expected:"yes"
    ~got:(if outcome_of "deep-hierarchy-300" = "complete" then "yes" else "no");
  check "e2-budget-400: Datalog complete where the UCQ target truncates" ~expected:"yes"
    ~got:
      (if outcome_of "e2-budget-400" = "complete" && truncated (ucq_outcome "e2-budget-400") then
         "yes"
       else "no");
  (* Linear pattern growth on the hierarchy: one shared pattern per level
     (plus the goal) where the UCQ backend enumerates one disjunct each. *)
  let deep_dl = List.assoc "deep-hierarchy-300" (List.map (fun (s, r) -> (s.dl_name, r)) results) in
  check "deep-hierarchy-300: <= depth+2 shared patterns" ~expected:"yes"
    ~got:(if deep_dl.D.stats.D.patterns <= 302 then "yes" else "no");
  (* Differential: both backends must give the same certain answers. *)
  let null_free = List.filter (fun t -> not (Tgd_db.Tuple.has_null t)) in
  let tuples_equal l1 l2 =
    List.length l1 = List.length l2 && List.for_all2 Tgd_db.Tuple.equal l1 l2
  in
  let tuples_subset small big =
    List.for_all (fun t -> List.exists (Tgd_db.Tuple.equal t) big) small
  in
  let inst_deep =
    Tgd_db.Instance.of_atoms
      [
        Atom.of_strings "a0" [ Term.const "c0" ];
        Atom.of_strings "a150" [ Term.const "c150" ];
      ]
  in
  let deep_ucq = Tgd_rewrite.Rewrite.ucq deep300 q_deep in
  let via_ucq = null_free (Tgd_conformance.Eval.ucq inst_deep deep_ucq.Tgd_rewrite.Rewrite.ucq) in
  let via_datalog = Tgd_obda.Target.datalog_answers deep_dl inst_deep in
  check "deep-hierarchy-300: UCQ and Datalog answers agree" ~expected:"yes"
    ~got:(if tuples_equal via_ucq via_datalog && List.length via_ucq = 2 then "yes" else "no");
  (* Example 2, facts {t(c,a), r(c,d)}: the chase derives s(c,c,a) then
     r(a,_), so the boolean query r(a,X) is certain. The 400-CQ UCQ prefix
     is sound but need not find it; the Datalog target answers exactly. *)
  let inst_e2 =
    Tgd_db.Instance.of_atoms
      [
        Atom.of_strings "t" [ Term.const "c"; Term.const "a" ];
        Atom.of_strings "r" [ Term.const "c"; Term.const "d" ];
      ]
  in
  let e2_dl = List.assoc "e2-budget-400" (List.map (fun (s, r) -> (s.dl_name, r)) results) in
  let e2_datalog_answers = Tgd_obda.Target.datalog_answers e2_dl inst_e2 in
  let e2_ucq =
    Tgd_rewrite.Rewrite.ucq
      ~config:{ Tgd_rewrite.Rewrite.default_config with Tgd_rewrite.Rewrite.max_cqs = 400 }
      Tgd_core.Paper_examples.example2 Tgd_core.Paper_examples.example2_query
  in
  let e2_ucq_answers =
    null_free (Tgd_conformance.Eval.ucq inst_e2 e2_ucq.Tgd_rewrite.Rewrite.ucq)
  in
  check "e2: boolean entailment found exactly by the Datalog target" ~expected:"yes"
    ~got:(if e2_datalog_answers <> [] then "yes" else "no");
  check "e2: truncated UCQ answers under-approximate the Datalog target" ~expected:"yes"
    ~got:(if tuples_subset e2_ucq_answers e2_datalog_answers then "yes" else "no");
  let cold = cold_prepare_samples () in
  row "  %-22s %8s %14s %20s\n" "cold prepare" "queries" "mean/prepare" "symbols/prepare";
  List.iter
    (fun s ->
      row "  %-22s %8d %12.3fms %20.2f\n" s.cp_target s.cp_prepares s.cp_mean_ms
        s.cp_symbols_per_prepare)
    cold;
  let cold_of target = List.find (fun s -> s.cp_target = target) cold in
  check "cold prepares intern no symbol (ucq and auto)" ~expected:"yes"
    ~got:(if List.for_all (fun s -> s.cp_symbols_per_prepare = 0.) cold then "yes" else "no");
  (* [auto] adds one pass over 48 rules to each prepare; the bound leaves
     room for timer noise, and the classifier it replaced cost ~40x. *)
  check "auto cold prepare <= 2x ucq's" ~expected:"yes"
    ~got:(if (cold_of "auto").cp_mean_ms <= 2. *. (cold_of "ucq").cp_mean_ms then "yes" else "no");
  (* Combined trajectory file for regression tracking across PRs. *)
  let oc = open_out "BENCH_rewrite.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"bench_rewrite/v3\",\n";
  out "  \"domains\": %d,\n" (Tgd_exec.Pool.default_workers ());
  out "  \"workloads\": [\n";
  List.iteri
    (fun i s ->
      let st = s.rw_stats in
      out
        "    {\"name\": %S, \"wall_ms\": %.3f, \"outcome\": %S, \"generated\": %d, \"explored\": \
         %d, \"kept\": %d, \"max_depth\": %d, \"cqs_per_sec\": %.1f, \"containment_checks\": %d, \
         \"containment_pruned\": %d, \"hom_searches\": %d}%s\n"
        s.rw_name s.rw_ms s.rw_outcome st.Tgd_rewrite.Rewrite.generated
        st.Tgd_rewrite.Rewrite.explored st.Tgd_rewrite.Rewrite.kept
        st.Tgd_rewrite.Rewrite.max_depth
        (float_of_int st.Tgd_rewrite.Rewrite.generated /. (s.rw_ms /. 1000.))
        st.Tgd_rewrite.Rewrite.containment_checks st.Tgd_rewrite.Rewrite.containment_pruned
        st.Tgd_rewrite.Rewrite.hom_searches
        (if i = List.length rw_samples - 1 then "" else ","))
    rw_samples;
  out "  ],\n";
  out "  \"datalog_workloads\": [\n";
  List.iteri
    (fun i s ->
      out
        "    {\"name\": %S, \"wall_ms\": %.3f, \"outcome\": %S, \"patterns\": %d, \"rules\": %d, \
         \"base_rules\": %d, \"explored\": %d, \"nonrecursive\": %b}%s\n"
        s.dl_name s.dl_ms s.dl_outcome s.dl_stats.D.patterns s.dl_stats.D.rules
        s.dl_stats.D.base_rules s.dl_stats.D.explored s.dl_nonrecursive
        (if i = List.length samples - 1 then "" else ","))
    samples;
  out "  ],\n";
  out "  \"cold_prepare\": [\n";
  List.iteri
    (fun i s ->
      out
        "    {\"program\": \"dl-cold-tbox\", \"target\": %S, \"prepares\": %d, \"mean_ms\": %.4f, \
         \"symbols_per_prepare\": %.2f}%s\n"
        s.cp_target s.cp_prepares s.cp_mean_ms s.cp_symbols_per_prepare
        (if i = List.length cold - 1 then "" else ","))
    cold;
  out "  ],\n";
  out
    "  \"minimize_deep_hierarchy\": {\"disjuncts\": %d, \"engine_ms\": %.3f, \"reference_ms\": \
     %.3f, \"speedup\": %.2f}\n"
    min_disjuncts min_engine_ms min_reference_ms min_speedup;
  out "}\n";
  close_out oc;
  row "  wrote BENCH_rewrite.json\n"

(* Recovery wall-clock is dominated by bulk array allocation, which pays
   major-GC slices proportional to the live heap. E1-E19 leave a large one
   behind, and OCaml 5.1 has no compaction to shed it ([Gc.compact] is a
   major GC there), so E20 runs in a fresh child process of this binary,
   its output inline. *)
let e20_in_child ~quick =
  flush stdout;
  let args = Array.of_list (Sys.executable_name :: "e20" :: (if quick then [ "quick" ] else [])) in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> check "E20 child process exits cleanly" ~expected:"yes" ~got:"no"

let run_all ~quick =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  let rw = e14 () in
  e15 ();
  e16 ();
  e18 ();
  e19 ();
  e20_in_child ~quick;
  e21 rw;
  if not quick then run_bechamel ();
  Printf.printf "\nAll experiments done.\n"

let () =
  match Array.to_list Sys.argv with
  | _ :: "e20" :: rest -> e20 ~quick:(rest = [ "quick" ]) ()
  | args -> run_all ~quick:(List.nth_opt args 1 = Some "quick")
