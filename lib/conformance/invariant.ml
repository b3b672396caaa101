open Tgd_logic

type outcome =
  | Pass
  | Fail of string
  | Skip of string

type t = {
  name : string;
  describe : string;
  check : Oracle.t -> Case.t -> outcome;
}

let outcome_to_string = function
  | Pass -> "pass"
  | Fail msg -> "FAIL: " ^ msg
  | Skip why -> "skip (" ^ why ^ ")"

(* ------------------------------------------------------------------ *)
(* Shared budgets. Same scale as the differential oracle of PR 2, which
   has agreed across thousands of seeded cases at these settings.       *)

let rewrite_config = { Tgd_rewrite.Rewrite.default_config with Tgd_rewrite.Rewrite.max_cqs = 3_000 }
let chase_rounds = 60
let chase_facts = 20_000
let termination_rounds = 300
let termination_facts = 60_000

(* The ungated invariants (metamorphic, serve, truncation) rewrite and chase
   arbitrary generated programs, including non-FO-rewritable ones whose
   rewriting saturates any budget; a tight budget keeps the sweep fast and
   budget hits degrade to skips, never wrong verdicts. The depth cap also
   bounds disjunct body width (each step adds at most one atom), which keeps
   the downstream join evaluation polynomial-ish on recursive datalog cases. *)
let bounded_rewrite_config =
  {
    Tgd_rewrite.Rewrite.default_config with
    Tgd_rewrite.Rewrite.max_cqs = 300;
    Tgd_rewrite.Rewrite.max_depth = 4;
  }

let bounded_chase_rounds = 6
let bounded_chase_facts = 4_000

(* ------------------------------------------------------------------ *)
(* Answer-list helpers (all answer lists are null-free, deduplicated and
   sorted — the Oracle.eval_ucq / Certain contracts).                   *)

let tuples_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 Tgd_db.Tuple.equal l1 l2

let tuples_subset small big =
  List.for_all (fun t -> List.exists (Tgd_db.Tuple.equal t) big) small

let show_tuples l =
  let shown = List.filteri (fun i _ -> i < 5) l in
  Printf.sprintf "%d tuple(s)%s" (List.length l)
    (if shown = [] then ""
     else
       ": "
       ^ String.concat " " (List.map (fun t -> Format.asprintf "%a" Tgd_db.Tuple.pp t) shown)
       ^ if List.length l > 5 then " ..." else "")

let complete (r : Tgd_rewrite.Rewrite.result) =
  match r.Tgd_rewrite.Rewrite.outcome with
  | Tgd_rewrite.Rewrite.Complete -> true
  | Tgd_rewrite.Rewrite.Truncated _ -> false

(* ------------------------------------------------------------------ *)
(* 1. Classifier subsumption lattice                                    *)

let check_subsumption (o : Oracle.t) (case : Case.t) =
  let r = o.Oracle.classify case.Case.program in
  let violations = ref [] in
  let claim cond msg = if cond then violations := msg :: !violations in
  claim (r.Tgd_core.Classifier.linear && not r.Tgd_core.Classifier.multilinear)
    "linear but not multilinear";
  claim (r.Tgd_core.Classifier.multilinear && not r.Tgd_core.Classifier.guarded)
    "multilinear but not guarded";
  claim
    (r.Tgd_core.Classifier.simple && r.Tgd_core.Classifier.linear
   && not r.Tgd_core.Classifier.swr)
    "simple linear but not SWR (Section 5 subsumption)";
  claim
    (r.Tgd_core.Classifier.simple
    && r.Tgd_core.Classifier.multilinear
    && not r.Tgd_core.Classifier.swr)
    "simple multilinear but not SWR (Section 5 subsumption)";
  claim (r.Tgd_core.Classifier.sticky && not r.Tgd_core.Classifier.sticky_join)
    "sticky but not sticky-join";
  claim (r.Tgd_core.Classifier.datalog && not r.Tgd_core.Classifier.weakly_acyclic)
    "datalog but not weakly acyclic";
  claim (r.Tgd_core.Classifier.swr && not r.Tgd_core.Classifier.simple)
    "SWR claimed on a non-simple set";
  claim
    (r.Tgd_core.Classifier.simple && r.Tgd_core.Classifier.swr
    && r.Tgd_core.Classifier.wr_established
    && not r.Tgd_core.Classifier.wr)
    "SWR but not WR (Section 6 subsumption)";
  (* A weak-acyclicity claim is a chase-termination promise; at fuzz-case
     scale the restricted chase of a genuinely WA set finishes orders of
     magnitude below this budget, so hitting it means the claim is wrong. *)
  if r.Tgd_core.Classifier.weakly_acyclic then begin
    let inst = Case.instance case in
    let stats =
      o.Oracle.chase_run ~max_rounds:termination_rounds ~max_facts:termination_facts
        case.Case.program inst
    in
    match stats.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Terminated -> ()
    | Tgd_chase.Chase.Truncated _ ->
      violations := "claimed weakly acyclic but the chase hit its budget" :: !violations
  end;
  match !violations with
  | [] -> Pass
  | vs -> Fail (String.concat "; " vs)

(* ------------------------------------------------------------------ *)
(* 2. Differential: rewrite∘eval ≡ chase certain answers on SWR cases   *)

let check_differential (o : Oracle.t) (case : Case.t) =
  let r = o.Oracle.classify case.Case.program in
  if not r.Tgd_core.Classifier.swr then Skip "not SWR-classified"
  else begin
    let rw = o.Oracle.rewrite ~config:rewrite_config case.Case.program case.Case.query in
    if not (complete rw) then Skip "rewriting budget hit"
    else begin
      let inst = Case.instance case in
      let via_rw = o.Oracle.eval_ucq inst rw.Tgd_rewrite.Rewrite.ucq in
      let cert =
        o.Oracle.certain_cq ~max_rounds:chase_rounds ~max_facts:chase_facts case.Case.program
          inst case.Case.query
      in
      if not cert.Tgd_chase.Certain.exact then Skip "chase budget hit"
      else if tuples_equal via_rw cert.Tgd_chase.Certain.answers then Pass
      else
        Fail
          (Printf.sprintf "rewriting gives %s but chase gives %s" (show_tuples via_rw)
             (show_tuples cert.Tgd_chase.Certain.answers))
    end
  end

(* ------------------------------------------------------------------ *)
(* 3. Metamorphic transforms                                            *)

let rename_term prefix = function
  | Term.Var v -> Term.var (prefix ^ Symbol.name v)
  | Term.Const _ as c -> c

let rename_cq prefix (q : Cq.t) =
  Cq.make ~name:q.Cq.name
    ~answer:(List.map (rename_term prefix) q.Cq.answer)
    ~body:(List.map (Atom.apply (rename_term prefix)) q.Cq.body)

(* A proper syntactic specialization: unify the two least variables. The
   image is contained in the original on every database. *)
let subsumed_variant (q : Cq.t) =
  match Symbol.Set.elements (Cq.vars q) with
  | v1 :: v2 :: _ ->
    let subst = function
      | Term.Var v when Symbol.equal v v1 -> Term.Var v2
      | t -> t
    in
    Cq.make ~name:(q.Cq.name ^ "_sub")
      ~answer:(List.map subst q.Cq.answer)
      ~body:(List.map (Atom.apply subst) q.Cq.body)
  | _ -> q (* a single-variable query: the variant is the query itself *)

let check_metamorphic (o : Oracle.t) (case : Case.t) =
  let p = case.Case.program and q = case.Case.query in
  let base = o.Oracle.rewrite ~config:bounded_rewrite_config p q in
  if not (complete base) then Skip "rewriting budget hit"
  else begin
    let inst = Case.instance case in
    let answers = o.Oracle.eval_ucq inst base.Tgd_rewrite.Rewrite.ucq in
    let failures = ref [] in
    let expect name got =
      if not (tuples_equal answers got) then
        failures :=
          Printf.sprintf "%s changed the answers (%s -> %s)" name (show_tuples answers)
            (show_tuples got)
          :: !failures
    in
    (* (a) consistent variable renaming: same canonical key, same answers. *)
    let renamed = rename_cq "R" q in
    if not (String.equal (o.Oracle.canon_key q) (o.Oracle.canon_key renamed)) then
      failures := "variable renaming changed the canonical cache key" :: !failures;
    let rw_renamed = o.Oracle.rewrite ~config:bounded_rewrite_config p renamed in
    if complete rw_renamed then
      expect "variable renaming" (o.Oracle.eval_ucq inst rw_renamed.Tgd_rewrite.Rewrite.ucq);
    (* (b) body atom reordering. *)
    let reordered =
      Cq.make ~name:q.Cq.name ~answer:q.Cq.answer ~body:(List.rev q.Cq.body)
    in
    if not (String.equal (o.Oracle.canon_key q) (o.Oracle.canon_key reordered)) then
      failures := "body reordering changed the canonical cache key" :: !failures;
    let rw_reordered = o.Oracle.rewrite ~config:bounded_rewrite_config p reordered in
    if complete rw_reordered then
      expect "body reordering" (o.Oracle.eval_ucq inst rw_reordered.Tgd_rewrite.Rewrite.ucq);
    (* (c) disjunct permutation of the rewriting. *)
    expect "disjunct permutation" (o.Oracle.eval_ucq inst (List.rev base.Tgd_rewrite.Rewrite.ucq));
    (* (d) union with a subsumed CQ. *)
    let q_sub = subsumed_variant q in
    if not (Containment.contained q_sub q) then
      failures := "containment engine rejects a syntactic specialization" :: !failures
    else begin
      let rw_union = o.Oracle.rewrite_union ~config:bounded_rewrite_config p [ q; q_sub ] in
      if complete rw_union then
        expect "union with a subsumed CQ"
          (o.Oracle.eval_ucq inst rw_union.Tgd_rewrite.Rewrite.ucq)
    end;
    (* (e) fact duplication: set semantics must absorb it. *)
    let doubled = Tgd_db.Instance.of_atoms (case.Case.facts @ case.Case.facts) in
    expect "fact duplication" (o.Oracle.eval_ucq doubled base.Tgd_rewrite.Rewrite.ucq);
    match !failures with
    | [] -> Pass
    | fs -> Fail (String.concat "; " fs)
  end

(* ------------------------------------------------------------------ *)
(* 4. Serve path vs direct evaluation                                   *)

let json_of_answers answers =
  Tgd_serve.Json.List
    (List.map
       (fun tup ->
         Tgd_serve.Json.List
           (Array.to_list
              (Array.map
                 (fun v ->
                   Tgd_serve.Json.String (Format.asprintf "%a" Tgd_db.Value.pp v))
                 tup)))
       answers)

let field name fields = List.assoc_opt name fields

let check_serve (o : Oracle.t) (case : Case.t) =
  let p = case.Case.program in
  (* The direct reference: same rewriting configuration as the server
     (single-domain minimization; identical structural limits). *)
  let config =
    { bounded_rewrite_config with Tgd_rewrite.Rewrite.domains = Some 1 }
  in
  let direct = o.Oracle.rewrite ~config p case.Case.query in
  if not (complete direct) then Skip "rewriting budget hit"
  else begin
    let inst = Case.instance case in
    let direct_json =
      Tgd_serve.Json.to_string
        (json_of_answers (o.Oracle.eval_ucq inst direct.Tgd_rewrite.Rewrite.ucq))
    in
    let server = Tgd_serve.Server.create ~config:bounded_rewrite_config () in
    let source =
      Format.asprintf "%a"
        Tgd_parser.Printer.document
        {
          Tgd_parser.Parser.rules = Program.tgds p;
          facts = case.Case.facts;
          queries = [];
          constraints = [];
        }
    in
    let query_src = Format.asprintf "%a" Tgd_parser.Printer.query case.Case.query in
    let register () =
      o.Oracle.serve_handle server
        (Tgd_serve.Protocol.Register_ontology
           { name = "fuzz"; source = Tgd_serve.Protocol.Inline source })
    in
    let execute () =
      o.Oracle.serve_handle server
        (Tgd_serve.Protocol.Execute { ontology = "fuzz"; query = query_src; budget = None; target = None })
    in
    let epoch_of fields =
      match field "epoch" fields with Some (Tgd_serve.Json.Int e) -> Some e | _ -> None
    in
    (* One run = register; execute (miss); execute (hit); re-register (epoch
       bump); execute (must miss: stale hit would serve an old epoch);
       execute (hit again). Answers must be byte-identical throughout. *)
    let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
    let step_execute ~label ~want_cached =
      let* fields = Result.map_error snd (execute ()) in
      match (field "truncated" fields, field "complete" fields) with
      | Some _, _ -> Error "__skip_truncated"
      | _, Some (Tgd_serve.Json.Bool false) -> Error "__skip_incomplete"
      | _ -> (
        match (field "answers" fields, field "cached" fields) with
        | Some answers, Some (Tgd_serve.Json.Bool cached) ->
          let serve_json = Tgd_serve.Json.to_string answers in
          if not (String.equal serve_json direct_json) then
            Error
              (Printf.sprintf "%s: serve answers %s differ from direct %s" label serve_json
                 direct_json)
          else if cached <> want_cached then
            Error
              (Printf.sprintf "%s: expected cached=%b, got %b%s" label want_cached cached
                 (if cached then " (stale prepared entry served)"
                  else " (prepared cache missed an identical resubmission)"))
          else Ok fields
        | _ -> Error (label ^ ": response is missing answers/cached fields"))
    in
    let outcome =
      let* reg1 = Result.map_error snd (register ()) in
      let* _ = step_execute ~label:"first execute" ~want_cached:false in
      let* _ = step_execute ~label:"warm execute" ~want_cached:true in
      let* reg2 = Result.map_error snd (register ()) in
      let* () =
        match (epoch_of reg1, epoch_of reg2) with
        | Some e1, Some e2 when e2 > e1 -> Ok ()
        | Some e1, Some e2 -> Error (Printf.sprintf "epoch not monotone: %d then %d" e1 e2)
        | _ -> Error "registration response is missing the epoch"
      in
      let* _ = step_execute ~label:"post-epoch execute" ~want_cached:false in
      let* _ = step_execute ~label:"re-warmed execute" ~want_cached:true in
      Ok ()
    in
    match outcome with
    | Ok () -> Pass
    | Error "__skip_truncated" -> Skip "serve run truncated by the server budget"
    | Error "__skip_incomplete" -> Skip "serve rewriting incomplete"
    | Error msg -> Fail msg
  end

(* ------------------------------------------------------------------ *)
(* 5. Parallel evaluation equals sequential evaluation                  *)

let check_eval_parallel (o : Oracle.t) (case : Case.t) =
  let rw = o.Oracle.rewrite ~config:bounded_rewrite_config case.Case.program case.Case.query in
  if not (complete rw) then Skip "rewriting budget hit"
  else begin
    let seq = o.Oracle.eval_ucq (Case.instance case) rw.Tgd_rewrite.Rewrite.ucq in
    (* Worker and partition counts are derived from the case seed so every
       replay exercises the same configuration. *)
    let workers = 2 + (case.Case.seed land 3) in
    let partitions = 1 + ((case.Case.seed lsr 2) land 7) in
    let par =
      o.Oracle.eval_ucq_par ~workers ~partitions (Case.instance case)
        rw.Tgd_rewrite.Rewrite.ucq
    in
    if tuples_equal seq par then Pass
    else
      Fail
        (Printf.sprintf "parallel evaluation (%d workers, %d partitions) gives %s but sequential gives %s"
           workers partitions (show_tuples par) (show_tuples seq))
  end

(* ------------------------------------------------------------------ *)
(* 6. Truncation soundness                                              *)

let check_truncation (o : Oracle.t) (case : Case.t) =
  let p = case.Case.program and q = case.Case.query in
  let inst = Case.instance case in
  let failures = ref [] in
  (* Rewriting: a budget-truncated UCQ must under-approximate the complete
     one. *)
  let full = o.Oracle.rewrite ~config:bounded_rewrite_config p q in
  (if complete full then begin
     let reference = o.Oracle.eval_ucq inst full.Tgd_rewrite.Rewrite.ucq in
     let tiny =
       o.Oracle.rewrite
         ~config:{ bounded_rewrite_config with Tgd_rewrite.Rewrite.max_cqs = 1 }
         p q
     in
     let truncated_answers = o.Oracle.eval_ucq inst tiny.Tgd_rewrite.Rewrite.ucq in
     if not (tuples_subset truncated_answers reference) then
       failures :=
         Printf.sprintf "truncated rewriting answers (%s) are not a subset of complete (%s)"
           (show_tuples truncated_answers) (show_tuples reference)
         :: !failures
   end);
  (* Chase: fewer rounds can only shrink the (monotone) answer set. *)
  let small = o.Oracle.certain_cq ~max_rounds:1 ~max_facts:bounded_chase_facts p inst q in
  let big = o.Oracle.certain_cq ~max_rounds:bounded_chase_rounds ~max_facts:bounded_chase_facts p inst q in
  if not (tuples_subset small.Tgd_chase.Certain.answers big.Tgd_chase.Certain.answers) then
    failures :=
      Printf.sprintf "1-round chase answers (%s) are not a subset of %d-round answers (%s)"
        (show_tuples small.Tgd_chase.Certain.answers)
        bounded_chase_rounds
        (show_tuples big.Tgd_chase.Certain.answers)
      :: !failures;
  match !failures with
  | [] -> Pass
  | fs -> Fail (String.concat "; " fs)

(* ------------------------------------------------------------------ *)
(* 7. Update sequences: delta-incremental chase equals from-scratch     *)

let us_rounds = 30
let us_facts = 6_000

let fact_compare (p1, t1) (p2, t2) =
  let c = Symbol.compare p1 p2 in
  if c <> 0 then c else Tgd_db.Tuple.compare t1 t2

let null_free_facts inst =
  Tgd_db.Instance.facts inst
  |> List.filter (fun (_, t) -> not (Tgd_db.Tuple.has_null t))
  |> List.sort_uniq fact_compare

let facts_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 (fun f1 f2 -> fact_compare f1 f2 = 0) l1 l2

let fact_of_atom (a : Atom.t) = (a.Atom.pred, Array.map Tgd_db.Value.of_term a.Atom.args)

(* The incremental model need not be isomorphic to the from-scratch one
   (trigger orders differ), but both are universal models of the same
   knowledge base, so they must be hom-equivalent — and their null-free
   parts, hence all certain answers, must coincide exactly. Hom-equivalence
   in both directions is the isomorphism-type-of-the-core check: each model,
   read as a boolean CQ with nulls as variables, maps into the other. The
   hom search is exponential in the worst case, so it only runs on models
   small enough to be cheap. *)
let hom_equiv_cap = 48

let check_update_sequence (o : Oracle.t) (case : Case.t) =
  match Gen_case.update_batches case with
  | [] -> Skip "the program declares no predicates to build batches from"
  | batches -> (
    let p = case.Case.program in
    let inc = Case.instance case in
    let base = o.Oracle.chase_run ~max_rounds:us_rounds ~max_facts:us_facts p inc in
    match base.Tgd_chase.Chase.outcome with
    | Tgd_chase.Chase.Truncated _ -> Skip "base chase budget hit"
    | Tgd_chase.Chase.Terminated ->
      let exception Stop of outcome in
      let applied = ref [] in
      let step i batch =
        let label msg = Printf.sprintf "batch %d: %s" (i + 1) msg in
        applied := !applied @ batch;
        let stats =
          o.Oracle.delta_apply ~max_rounds:us_rounds ~max_facts:us_facts p inc
            (List.map fact_of_atom batch)
        in
        (match stats.Tgd_chase.Chase.outcome with
        | Tgd_chase.Chase.Truncated _ -> raise (Stop (Skip "incremental chase budget hit"))
        | Tgd_chase.Chase.Terminated -> ());
        if not stats.Tgd_chase.Chase.consistent then
          (* Generated cases carry no EGDs, so this is unreachable today; a
             corpus case with EGDs skips rather than comparing the
             inconsistent marker states. *)
          raise (Stop (Skip "EGD violation during the update sequence"));
        let scratch = Tgd_db.Instance.of_atoms (case.Case.facts @ !applied) in
        let s = o.Oracle.chase_run ~max_rounds:us_rounds ~max_facts:us_facts p scratch in
        (match s.Tgd_chase.Chase.outcome with
        | Tgd_chase.Chase.Truncated _ -> raise (Stop (Skip "from-scratch chase budget hit"))
        | Tgd_chase.Chase.Terminated -> ());
        (* (a) certain answers of the case query coincide. *)
        let a_inc = o.Oracle.eval_ucq inc [ case.Case.query ] in
        let a_scratch = o.Oracle.eval_ucq scratch [ case.Case.query ] in
        if not (tuples_equal a_inc a_scratch) then
          raise
            (Stop
               (Fail
                  (label
                     (Printf.sprintf "incremental certain answers %s differ from from-scratch %s"
                        (show_tuples a_inc) (show_tuples a_scratch)))));
        (* (b) the null-free parts coincide exactly. *)
        if not (facts_equal (null_free_facts inc) (null_free_facts scratch)) then
          raise
            (Stop
               (Fail (label "null-free facts of the incremental and from-scratch models differ")));
        (* (c) hom-equivalence in both directions (size-capped). *)
        let atoms_inc = Tgd_db.Instance.to_atoms inc in
        let atoms_scratch = Tgd_db.Instance.to_atoms scratch in
        if
          List.length atoms_inc <= hom_equiv_cap
          && List.length atoms_scratch <= hom_equiv_cap
        then begin
          let hom src dst = Homomorphism.exists src (Homomorphism.target_of_atoms dst) in
          if not (hom atoms_inc atoms_scratch) then
            raise (Stop (Fail (label "no homomorphism incremental -> from-scratch model")));
          if not (hom atoms_scratch atoms_inc) then
            raise (Stop (Fail (label "no homomorphism from-scratch -> incremental model")))
        end
      in
      (try
         List.iteri step batches;
         Pass
       with Stop outcome -> outcome))

(* ------------------------------------------------------------------ *)
(* 8. Durability: persist -> recover -> re-query changes nothing        *)

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* One run drives a durable server through a seed-rotated mutation script
   (register, up to two insert batches, optionally materialize, with the
   explicit checkpoint placed nowhere / mid-script / at the end — so pure
   WAL replay, snapshot+tail, and pure snapshot restore all get coverage),
   then restarts on the same directory and demands the recovered server be
   observationally identical: byte-identical execute answers, equal
   epochs, equal null-free facts, and an equivalent materialization. *)
let check_durability (o : Oracle.t) (case : Case.t) =
  let p = case.Case.program in
  let source =
    Format.asprintf "%a" Tgd_parser.Printer.document
      {
        Tgd_parser.Parser.rules = Program.tgds p;
        facts = case.Case.facts;
        queries = [];
        constraints = [];
      }
  in
  let query_src = Format.asprintf "%a" Tgd_parser.Printer.query case.Case.query in
  let batches = List.filteri (fun i _ -> i < 2) (Gen_case.update_batches case) in
  let batch_csv batch = Tgd_db.Csv_io.save_string (Tgd_db.Instance.of_atoms batch) in
  let scenario = case.Case.seed mod 3 in
  let materialize = (case.Case.seed lsr 2) land 1 = 1 in
  let base_budget =
    {
      Tgd_exec.Budget.unlimited with
      Tgd_exec.Budget.chase_rounds = Some bounded_chase_rounds;
      chase_facts = Some bounded_chase_facts;
    }
  in
  let dir = Filename.temp_dir "tgd-durability" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
  let req server r = Result.map_error snd (o.Oracle.serve_handle server r) in
  let execute server =
    let* fields =
      req server
        (Tgd_serve.Protocol.Execute { ontology = "fuzz"; query = query_src; budget = None; target = None })
    in
    match (field "truncated" fields, field "complete" fields) with
    | Some _, _ -> Error "__skip_truncated"
    | _, Some (Tgd_serve.Json.Bool false) -> Error "__skip_incomplete"
    | _ -> (
      match field "answers" fields with
      | Some answers -> Ok (Tgd_serve.Json.to_string answers)
      | None -> Error "execute response is missing answers")
  in
  let with_server f =
    match Tgd_store.Store.open_dir ~fsync:false dir with
    | Error msg -> Error ("store open failed: " ^ msg)
    | Ok store ->
      let server =
        Tgd_serve.Server.create ~config:bounded_rewrite_config ~base_budget ~store ()
      in
      Fun.protect ~finally:(fun () -> Tgd_serve.Server.shutdown server) (fun () -> f server)
  in
  let snapshot server = Result.map ignore (req server (Tgd_serve.Protocol.Snapshot { name = Some "fuzz" })) in
  let entry_of server =
    match Tgd_serve.Registry.find (Tgd_serve.Server.registry server) "fuzz" with
    | Some e -> Ok e
    | None -> Error "entry missing from the registry"
  in
  let outcome =
    (* Phase 1: build durable state. *)
    let* answers1, entry1 =
      with_server (fun server ->
          let* _ =
            req server
              (Tgd_serve.Protocol.Register_ontology
                 { name = "fuzz"; source = Tgd_serve.Protocol.Inline source })
          in
          let* () = if scenario = 2 then snapshot server else Ok () in
          let* () =
            List.fold_left
              (fun acc batch ->
                let* () = acc in
                Result.map ignore
                  (req server
                     (Tgd_serve.Protocol.Add_facts
                        { name = "fuzz"; source = Tgd_serve.Protocol.Inline (batch_csv batch) })))
              (Ok ()) batches
          in
          let* () =
            if materialize then
              Result.map ignore (req server (Tgd_serve.Protocol.Materialize { name = "fuzz" }))
            else Ok ()
          in
          let* () = if scenario = 1 then snapshot server else Ok () in
          let* answers = execute server in
          let* entry = entry_of server in
          Ok (answers, entry))
    in
    (* Phase 2: recover into a fresh server and compare observables. *)
    with_server (fun server ->
        let* answers2 = execute server in
        let* entry2 = entry_of server in
        let expect what cond = if cond then Ok () else Error (what ^ " changed across recovery") in
        let* () =
          if String.equal answers1 answers2 then Ok ()
          else
            Error
              (Printf.sprintf "answers changed across recovery: %s, then %s" answers1 answers2)
        in
        let* () = expect "epoch" (entry1.Tgd_serve.Registry.epoch = entry2.Tgd_serve.Registry.epoch) in
        let* () =
          expect "delta_epoch"
            (entry1.Tgd_serve.Registry.delta_epoch = entry2.Tgd_serve.Registry.delta_epoch)
        in
        let* () =
          expect "null-free instance facts"
            (facts_equal
               (null_free_facts entry1.Tgd_serve.Registry.instance)
               (null_free_facts entry2.Tgd_serve.Registry.instance))
        in
        match (entry1.Tgd_serve.Registry.materialization, entry2.Tgd_serve.Registry.materialization)
        with
        | None, None -> Ok ()
        | Some m1, Some m2 ->
          let* () =
            expect "materialization null floor"
              (m1.Tgd_serve.Registry.floor = m2.Tgd_serve.Registry.floor)
          in
          let* () =
            expect "materialization completeness"
              (m1.Tgd_serve.Registry.complete = m2.Tgd_serve.Registry.complete)
          in
          expect "null-free model facts"
            (facts_equal
               (null_free_facts m1.Tgd_serve.Registry.model)
               (null_free_facts m2.Tgd_serve.Registry.model))
        | Some _, None -> Error "materialization lost across recovery"
        | None, Some _ -> Error "materialization appeared from nowhere across recovery")
  in
  match outcome with
  | Ok () -> Pass
  | Error "__skip_truncated" -> Skip "serve run truncated by the server budget"
  | Error "__skip_incomplete" -> Skip "serve rewriting incomplete"
  | Error msg -> Fail msg

(* ------------------------------------------------------------------ *)
(* 9. Rewriting targets agree: UCQ backend ≡ Datalog backend            *)

(* Pattern exploration visits the same piece-step space as the UCQ
   rewriter, so the caps mirror [bounded_rewrite_config]'s scale; hitting
   one degrades to a skip. *)
let bounded_datalog_config =
  { Tgd_rewrite.Datalog_rw.max_patterns = 2_000; Tgd_rewrite.Datalog_rw.max_body_atoms = 8 }

(* Both backends implement the same piece-rewriting theory, so whenever
   both report Complete their certain answers must coincide exactly — on
   any generated case, with no class gating: completeness of the
   terminated piece fixpoint does not depend on the classifier. *)
let check_rewrite_target (o : Oracle.t) (case : Case.t) =
  let p = case.Case.program and q = case.Case.query in
  let rw = o.Oracle.rewrite ~config:bounded_rewrite_config p q in
  if not (complete rw) then Skip "UCQ rewriting budget hit"
  else begin
    let dl = o.Oracle.rewrite_datalog ~config:bounded_datalog_config p q in
    match dl.Tgd_rewrite.Datalog_rw.outcome with
    | Tgd_rewrite.Datalog_rw.Truncated _ -> Skip "Datalog rewriting budget hit"
    | Tgd_rewrite.Datalog_rw.Complete ->
      let inst = Case.instance case in
      let via_ucq = o.Oracle.eval_ucq inst rw.Tgd_rewrite.Rewrite.ucq in
      let via_datalog = o.Oracle.datalog_answers dl inst in
      if tuples_equal via_ucq via_datalog then Pass
      else
        Fail
          (Printf.sprintf "UCQ target gives %s but Datalog target gives %s"
             (show_tuples via_ucq) (show_tuples via_datalog))
  end

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "subsumption";
      describe = "classifier subsumption lattice (linear/multilinear/sticky/WA/SWR/WR)";
      check = check_subsumption;
    };
    {
      name = "differential";
      describe = "rewrite-then-evaluate equals chase certain answers on SWR cases";
      check = check_differential;
    };
    {
      name = "metamorphic";
      describe = "renaming / reordering / permutation / subsumed-union / duplication";
      check = check_metamorphic;
    };
    {
      name = "serve";
      describe = "serve path byte-identical to direct evaluation across epochs and cache states";
      check = check_serve;
    };
    {
      name = "eval-parallel";
      describe = "morsel-parallel evaluation agrees with sequential evaluation";
      check = check_eval_parallel;
    };
    {
      name = "truncation";
      describe = "budget-truncated rewriting and chase answers under-approximate complete runs";
      check = check_truncation;
    };
    {
      name = "update-sequence";
      describe =
        "incremental chase equals from-scratch chase (answers, null-free facts, hom-equivalence) after every insert batch";
      check = check_update_sequence;
    };
    {
      name = "durability";
      describe =
        "persist (WAL and/or snapshot) then recover leaves answers, epochs, facts and materialization unchanged";
      check = check_durability;
    };
    {
      name = "rewrite-target";
      describe =
        "UCQ and Datalog rewriting backends give identical certain answers where both complete";
      check = check_rewrite_target;
    };
  ]

let find name = List.find_opt (fun inv -> String.equal inv.name name) all
