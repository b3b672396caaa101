(* The end-to-end OBDA scenario (experiment E8): a LUBM-style university
   ontology over a plain relational database. Certain answers are computed
   two ways — UCQ rewriting evaluated on the raw data, and chase
   materialization — and must agree; we also time both to show where the
   rewriting approach pays off.

   Run with: dune exec examples/university_demo.exe [scale] *)

open Tgd_db

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let () =
  let scale = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 500 in
  let rng = Tgd_gen.Rng.create 2014 in
  let ontology = Tgd_gen.University.ontology in
  let data = Tgd_gen.University.generate_data rng ~scale in
  Format.printf "university ontology: %d rules; database: %d facts (scale %d)@."
    (Tgd_logic.Program.size ontology) (Instance.cardinality data) scale;

  let report = Tgd_core.Classifier.classify ontology in
  Format.printf "classification: swr=%b wr=%b sticky=%b weakly_acyclic=%b@."
    report.Tgd_core.Classifier.swr report.Tgd_core.Classifier.wr
    report.Tgd_core.Classifier.sticky report.Tgd_core.Classifier.weakly_acyclic;

  (* Chase once (shared by all queries), then evaluate each query. *)
  let (chased, t_chase) =
    time (fun () ->
        let copy = Instance.copy data in
        let stats = Tgd_chase.Chase.run ontology copy in
        (copy, stats))
  in
  let chased_inst, chase_stats = chased in
  Format.printf "@.chase: +%d facts, %d nulls, %d rounds in %.3fs@."
    chase_stats.Tgd_chase.Chase.derived chase_stats.Tgd_chase.Chase.nulls
    chase_stats.Tgd_chase.Chase.rounds t_chase;

  Format.printf "@.%-22s %9s %9s %10s %10s %8s@." "query" "disjuncts" "answers" "t_rewrite"
    "t_eval" "t_chase_eval";
  List.iter
    (fun q ->
      let rewriting, t_rw = time (fun () -> Tgd_rewrite.Rewrite.ucq ontology q) in
      let answers_rw, t_eval =
        time (fun () ->
            Par_eval.ucq data rewriting.Tgd_rewrite.Rewrite.ucq
            |> List.filter (fun t -> not (Tuple.has_null t)))
      in
      let answers_chase, t_ceval =
        time (fun () -> Par_eval.ucq chased_inst [ q ] |> List.filter (fun t -> not (Tuple.has_null t)))
      in
      let agree =
        List.length answers_rw = List.length answers_chase
        && List.for_all2 Tuple.equal answers_rw answers_chase
      in
      Format.printf "%-22s %9d %9d %9.3fs %9.3fs %7.3fs%s@." q.Tgd_logic.Cq.name
        (List.length rewriting.Tgd_rewrite.Rewrite.ucq)
        (List.length answers_rw) t_rw t_eval t_ceval
        (if agree then "" else "  DISAGREE!"))
    Tgd_gen.University.queries;
  Format.printf "@.(the chase column excludes the one-off %.3fs materialization cost)@." t_chase
