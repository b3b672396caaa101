(* Quickstart: define a tiny ontology, classify it, rewrite a query, and
   compute certain answers — the whole public API in one page.

   Run with: dune exec examples/quickstart.exe *)

open Tgd_logic

let () =
  (* 1. An ontology as text. [project(P)] says P is a project; every project
     has some member; members of projects are people. *)
  let source =
    {|
      [has_member] project(P) -> member(P, M).
      [member_person] member(P, M) -> person(M).
      [lead_member] leads(X, P), project(P) -> member(P, X).

      project(apollo).
      leads(grace, apollo).
      member(apollo, alan).

      who(X) :- person(X).
    |}
  in
  let doc =
    match Tgd_parser.Parser.parse_string ~filename:"quickstart" source with
    | Ok doc -> doc
    | Error e -> Fmt.failwith "%a" Tgd_parser.Parser.pp_error e
  in
  let program =
    match Tgd_parser.Parser.program_of_document ~name:"quickstart" doc with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let query = List.hd doc.Tgd_parser.Parser.queries in

  (* 2. Classify: which tractable classes does the ontology belong to? *)
  let report = Tgd_core.Classifier.classify program in
  Format.printf "== classification ==@.%a" Tgd_core.Classifier.pp report;
  (match Tgd_core.Classifier.fo_rewritable_witness report with
  | Some w -> Format.printf "FO-rewritable thanks to: %s@." w
  | None -> Format.printf "no FO-rewritability witness@.");

  (* 3. Rewrite the query into a UCQ, and show it as SQL. *)
  let rewriting = Tgd_rewrite.Rewrite.ucq program query in
  Format.printf "@.== UCQ rewriting of %s ==@.%a@." query.Cq.name Cq.pp_ucq
    rewriting.Tgd_rewrite.Rewrite.ucq;
  Format.printf "@.== as SQL ==@.%s;@." (Tgd_db.Sql.of_ucq rewriting.Tgd_rewrite.Rewrite.ucq);

  (* 4. Evaluate the rewriting over the plain database: certain answers
     without materialization. *)
  let db = Tgd_db.Instance.of_atoms doc.Tgd_parser.Parser.facts in
  let answers =
    Tgd_db.Par_eval.ucq db rewriting.Tgd_rewrite.Rewrite.ucq
    |> List.filter (fun t -> not (Tgd_db.Tuple.has_null t))
  in
  Format.printf "@.== certain answers (rewriting) ==@.";
  List.iter (fun t -> Format.printf "%a@." Tgd_db.Tuple.pp t) answers;

  (* 5. Cross-check with chase-based materialization. *)
  let via_chase = Tgd_chase.Certain.cq program db query in
  Format.printf "@.== certain answers (chase) ==@.";
  List.iter (fun t -> Format.printf "%a@." Tgd_db.Tuple.pp t) via_chase.Tgd_chase.Certain.answers;
  assert (List.for_all2 Tgd_db.Tuple.equal answers via_chase.Tgd_chase.Certain.answers);
  Format.printf "@.rewriting and chase agree.@."
