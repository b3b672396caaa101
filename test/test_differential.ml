(* Differential oracle: on random SWR ontologies with random data and random
   conjunctive queries, the two certain-answer pipelines must agree —

     rewrite-then-evaluate   (Rewrite.ucq + Eval.ucq over the raw data)
     chase-then-evaluate     (Certain.cq: materialize, evaluate, drop nulls)

   SWR guarantees FO-rewritability (the rewriting terminates), but NOT chase
   termination, so a case only counts when the rewriting is Complete AND the
   chase reached a fixpoint; the harness draws cases until [n_cases] have
   been compared. Seeded (override with TGDLIB_DIFF_SEED / TGDLIB_DIFF_CASES)
   and shrinking: a disagreement is minimized by dropping rules, then facts,
   to a fixed point before reporting. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval

let seed =
  match Sys.getenv_opt "TGDLIB_DIFF_SEED" with Some s -> int_of_string s | None -> 20140614

let n_cases =
  match Sys.getenv_opt "TGDLIB_DIFF_CASES" with Some s -> int_of_string s | None -> 200

let gen_config =
  {
    Tgd_gen.Gen_tgd.default_config with
    Tgd_gen.Gen_tgd.n_predicates = 4;
    max_arity = 2;
    n_rules = 4;
    max_body_atoms = 2;
    max_head_atoms = 1;
    existential_rate = 0.3;
  }

let random_swr_program rng =
  Tgd_gen.Gen_tgd.sample_in_class ~max_tries:200
    (fun p -> (Tgd_core.Swr.check p).Tgd_core.Swr.swr)
    (fun () -> Tgd_gen.Gen_tgd.random_simple_program rng gen_config)

(* Small random CQs over the program's signature: 1-2 atoms, 3 variables
   (collisions make joins interesting), each variable flipping a coin to be
   an answer variable. *)
let random_cq rng p =
  let preds = Program.predicates p in
  let n_atoms = 1 + Tgd_gen.Rng.int rng 2 in
  let term_of_var i = Term.var (Printf.sprintf "X%d" i) in
  let body =
    List.init n_atoms (fun _ ->
        let pred, arity = Tgd_gen.Rng.choose rng preds in
        Atom.make pred (List.init arity (fun _ -> term_of_var (Tgd_gen.Rng.int rng 3))))
  in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
  in
  let answer =
    List.filter (fun _ -> Tgd_gen.Rng.bool rng 0.5) vars |> List.map (fun v -> Term.Var v)
  in
  Cq.make ~name:"q" ~answer ~body

(* ------------------------------------------------------------------ *)
(* The two pipelines. [None] = budget hit, the case does not count.    *)

let rewrite_config = { Tgd_rewrite.Rewrite.default_config with max_cqs = 3_000 }

let certain_by_rewriting p inst q =
  let r = Tgd_rewrite.Rewrite.ucq ~config:rewrite_config p q in
  match r.Tgd_rewrite.Rewrite.outcome with
  | Tgd_rewrite.Rewrite.Truncated _ -> None
  | Tgd_rewrite.Rewrite.Complete ->
    Some
      (Eval.ucq inst r.Tgd_rewrite.Rewrite.ucq
      |> List.filter (fun t -> not (Tuple.has_null t)))

let certain_by_chase p inst q =
  let r = Tgd_chase.Certain.cq ~max_rounds:60 ~max_facts:20_000 p inst q in
  if r.Tgd_chase.Certain.exact then Some r.Tgd_chase.Certain.answers else None

let tuples_equal l1 l2 = List.length l1 = List.length l2 && List.for_all2 Tuple.equal l1 l2

(* Both lists are deduplicated and sorted (Eval.ucq / Certain contracts). *)
let disagreement p facts q =
  let inst = Instance.of_atoms facts in
  match (certain_by_rewriting p inst q, certain_by_chase p inst q) with
  | Some via_rw, Some via_chase ->
    if tuples_equal via_rw via_chase then `Agree (List.length via_rw)
    else `Disagree (via_rw, via_chase)
  | _ -> `Skip

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily drop rules, then facts, while the disagreement
   persists. Deterministic, so the minimal case is reproducible.       *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let shrink p facts q =
  let disagrees p facts =
    match disagreement p facts q with `Disagree _ -> true | `Agree _ | `Skip -> false
  in
  let rec drop_rules p =
    let tgds = Program.tgds p in
    let try_without i =
      match Program.make ~name:p.Program.name (drop_nth i tgds) with
      | Ok p' when disagrees p' facts -> Some p'
      | Ok _ | Error _ -> None
    in
    match List.find_map try_without (List.init (List.length tgds) Fun.id) with
    | Some p' -> drop_rules p'
    | None -> p
  in
  let p = drop_rules p in
  let rec drop_facts facts =
    let try_without i =
      let facts' = drop_nth i facts in
      if disagrees p facts' then Some facts' else None
    in
    match List.find_map try_without (List.init (List.length facts) Fun.id) with
    | Some facts' -> drop_facts facts'
    | None -> facts
  in
  (p, drop_facts facts)

let report_failure p facts q via_rw via_chase =
  let buf = Buffer.create 512 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "rewriting and chase disagree (shrunk witness):@.";
  Format.fprintf fmt "-- program:@.%s" (Tgd_parser.Printer.program_to_string p);
  Format.fprintf fmt "-- facts:@.";
  List.iter (fun a -> Format.fprintf fmt "  %a.@." Atom.pp a) facts;
  Format.fprintf fmt "-- query: %a@." Cq.pp q;
  Format.fprintf fmt "-- via rewriting (%d):" (List.length via_rw);
  List.iter (fun t -> Format.fprintf fmt " %a" Tuple.pp t) via_rw;
  Format.fprintf fmt "@.-- via chase (%d):" (List.length via_chase);
  List.iter (fun t -> Format.fprintf fmt " %a" Tuple.pp t) via_chase;
  Format.fprintf fmt "@.";
  Format.pp_print_flush fmt ();
  Alcotest.fail (Buffer.contents buf)

(* ------------------------------------------------------------------ *)

let test_differential () =
  let rng = Tgd_gen.Rng.create seed in
  let compared = ref 0 in
  let nonempty = ref 0 in
  let skipped = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 100 * n_cases in
  while !compared < n_cases && !attempts < max_attempts do
    incr attempts;
    match random_swr_program rng with
    | None -> incr skipped
    | Some p ->
      if Program.predicates p = [] then incr skipped
      else begin
        let inst =
          Tgd_gen.Gen_db.random_instance rng p ~facts_per_predicate:5 ~domain_size:4
        in
        let facts = Instance.to_atoms inst in
        let q = random_cq rng p in
        match disagreement p facts q with
        | `Agree n ->
          incr compared;
          if n > 0 then incr nonempty
        | `Skip -> incr skipped
        | `Disagree _ ->
          let p', facts' = shrink p facts q in
          (match disagreement p' facts' q with
          | `Disagree (via_rw, via_chase) -> report_failure p' facts' q via_rw via_chase
          | `Agree _ | `Skip ->
            (* The shrunk endpoint must still disagree by construction. *)
            Alcotest.fail "shrinking lost the disagreement (shrinker bug)")
      end
  done;
  Printf.printf "differential: %d cases compared (%d with non-empty answers), %d skipped, seed %d\n"
    !compared !nonempty !skipped seed;
  if !compared < n_cases then
    Alcotest.failf "only %d/%d cases compared after %d attempts (%d skipped)" !compared n_cases
      !attempts !skipped;
  (* Guard against a vacuous suite: a healthy generator produces plenty of
     cases whose certain answers are non-empty. *)
  if !nonempty * 5 < n_cases then
    Alcotest.failf "only %d/%d compared cases had non-empty answers — generator too weak"
      !nonempty !compared

let () =
  Alcotest.run "differential"
    [
      ( "chase-vs-rewrite",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random SWR cases agree (seed %d)" n_cases seed)
            `Slow test_differential;
        ] );
    ]
