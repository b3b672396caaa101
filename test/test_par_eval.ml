(* The parallel evaluation engine: Pool unit tests and the qcheck
   equivalence property — morsel-parallel evaluation must agree with
   sequential evaluation (answers and truncation flag) across worker counts
   (1, 2, 4 and the TGDLIB_DOMAINS-derived default), random answer-partition
   counts, and instances handed over sealed or unsealed: the engine seals
   an unsealed one itself and runs compiled either way. *)

open Tgd_logic
open Tgd_db
module Eval = Tgd_conformance.Eval

let v = Term.var
let c = Term.const
let vc s = Value.const s
let atom p args = Atom.of_strings p args

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_submit_drain () =
  let pool = Tgd_exec.Pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  for _ = 1 to 100 do
    match Tgd_exec.Pool.submit pool (fun () -> Atomic.incr hits) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "unbounded pool rejected a job"
  done;
  Tgd_exec.Pool.drain pool;
  Alcotest.(check int) "every job ran exactly once" 100 (Atomic.get hits);
  Tgd_exec.Pool.shutdown pool;
  (match Tgd_exec.Pool.submit pool (fun () -> ()) with
  | Error `Closed -> ()
  | Ok _ | Error (`Overloaded _) -> Alcotest.fail "closed pool accepted a job");
  (* Idempotent. *)
  Tgd_exec.Pool.shutdown pool

let test_pool_overload () =
  let pool = Tgd_exec.Pool.create ~workers:1 ~queue_bound:2 () in
  let release = Atomic.make false in
  let started = Atomic.make false in
  (match
     Tgd_exec.Pool.submit pool (fun () ->
         Atomic.set started true;
         while not (Atomic.get release) do
           Domain.cpu_relax ()
         done)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "blocking job rejected");
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  (* The single worker is blocked: two jobs fill the queue, the third is
     shed. *)
  let ran = Atomic.make 0 in
  let job () = Atomic.incr ran in
  (match Tgd_exec.Pool.submit pool job with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "queued job 1 rejected");
  (match Tgd_exec.Pool.submit pool job with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "queued job 2 rejected");
  (match Tgd_exec.Pool.submit pool job with
  | Error (`Overloaded d) -> Alcotest.(check int) "depth at shed time" 2 d
  | Ok _ | Error `Closed -> Alcotest.fail "expected overload shed");
  Atomic.set release true;
  Tgd_exec.Pool.drain pool;
  Alcotest.(check int) "admitted jobs all ran, the shed one did not" 2 (Atomic.get ran);
  Tgd_exec.Pool.shutdown pool

let test_pool_run_morsels () =
  let pool = Tgd_exec.Pool.create ~workers:3 () in
  let n = 100 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Tgd_exec.Pool.run_morsels pool ~n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "morsel %d ran once" i) 1 (Atomic.get h))
    hits;
  (* A raising morsel is re-raised in the caller after the batch settles. *)
  (match Tgd_exec.Pool.run_morsels pool ~n:20 (fun i -> if i = 7 then failwith "boom") with
  | () -> Alcotest.fail "expected the morsel exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "first failure wins" "boom" msg);
  Tgd_exec.Pool.shutdown pool;
  (* A closed pool degrades to caller-only execution but still completes. *)
  let count = Atomic.make 0 in
  Tgd_exec.Pool.run_morsels pool ~n:10 (fun _ -> Atomic.incr count);
  Alcotest.(check int) "batch completes on a closed pool" 10 (Atomic.get count)

(* Concurrent submitters racing drain and shutdown: every admitted job
   runs exactly once, rejected jobs never run, nothing deadlocks. *)
let test_pool_concurrent_submit_drain () =
  let pool = Tgd_exec.Pool.create ~workers:2 ~queue_bound:8 () in
  let executed = Atomic.make 0 in
  let admitted = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let submitters =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 200 do
              match Tgd_exec.Pool.submit pool (fun () -> Atomic.incr executed) with
              | Ok _ -> Atomic.incr admitted
              | Error (`Overloaded _) -> Atomic.incr rejected
              | Error `Closed -> Alcotest.fail "pool closed while open"
            done)
          ())
  in
  (* Drain races the submitters: it must return (momentary emptiness is
     enough) and never lose work. *)
  Tgd_exec.Pool.drain pool;
  List.iter Thread.join submitters;
  Tgd_exec.Pool.drain pool;
  Alcotest.(check int) "admitted jobs ran exactly once" (Atomic.get admitted)
    (Atomic.get executed);
  Alcotest.(check int) "every submission accounted for" 800
    (Atomic.get admitted + Atomic.get rejected);
  Tgd_exec.Pool.shutdown pool

(* Shutdown while jobs are queued and a drainer is blocked: admitted work
   still completes, the drainer returns, late submitters see [`Closed]. *)
let test_pool_shutdown_during_drain () =
  let pool = Tgd_exec.Pool.create ~workers:1 () in
  let executed = Atomic.make 0 in
  for _ = 1 to 50 do
    match Tgd_exec.Pool.submit pool (fun () -> Atomic.incr executed) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "unbounded pool rejected a job"
  done;
  let drainer = Thread.create (fun () -> Tgd_exec.Pool.drain pool) () in
  Tgd_exec.Pool.shutdown pool;
  Thread.join drainer;
  Alcotest.(check int) "admitted jobs survived shutdown" 50 (Atomic.get executed);
  (match Tgd_exec.Pool.submit pool (fun () -> ()) with
  | Error `Closed -> ()
  | Ok _ | Error (`Overloaded _) -> Alcotest.fail "closed pool accepted a job")

(* The core-count clamp: requesting absurd worker counts spawns at most
   one domain per core (observable via [size]), without changing queue
   semantics; TGDLIB_OVERSUBSCRIBE=1 is the explicit escape hatch. *)
let test_pool_core_clamp () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let pool = Tgd_exec.Pool.create ~workers:(cores + 13) () in
  Alcotest.(check int) "workers clamped to cores" cores (Tgd_exec.Pool.size pool);
  let hits = Atomic.make 0 in
  for _ = 1 to 20 do
    ignore (Tgd_exec.Pool.submit pool (fun () -> Atomic.incr hits))
  done;
  Tgd_exec.Pool.drain pool;
  Alcotest.(check int) "clamped pool is work-conserving" 20 (Atomic.get hits);
  Tgd_exec.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Deterministic end-to-end equivalence on a non-trivial join *)

let graph_instance n =
  let inst = Instance.create () in
  for i = 0 to n - 1 do
    ignore
      (Instance.add_fact inst (Symbol.intern "r")
         [| vc (Printf.sprintf "n%d" i); vc (Printf.sprintf "n%d" (i * 7 mod n)) |]);
    if i mod 3 = 0 then
      ignore (Instance.add_fact inst (Symbol.intern "s") [| vc (Printf.sprintf "n%d" i) |])
  done;
  inst

let join_query =
  Cq.make ~name:"q" ~answer:[ v "X" ] ~body:[ atom "r" [ v "X"; v "Y" ]; atom "s" [ v "Y" ] ]

(* An instance sealed before the call, and one the engine must seal. *)
let sealed_and_unsealed mk =
  let sealed = mk () in
  Instance.seal sealed;
  [ ("sealed", sealed); ("unsealed", mk ()) ]

let test_par_eval_join_equivalence () =
  let legs = sealed_and_unsealed (fun () -> graph_instance 2_000) in
  let reference = Eval.ucq (List.assoc "unsealed" legs) [ join_query ] in
  Alcotest.(check bool) "the join has answers" true (reference <> []);
  List.iter
    (fun (workers, partitions) ->
      List.iter
        (fun (leg, inst) ->
          let par = Par_eval.ucq ~workers ~min_tuples:1 ~partitions inst [ join_query ] in
          Alcotest.(check bool)
            (Printf.sprintf "workers=%d partitions=%d %s equals sequential" workers partitions
               leg)
            true
            (List.length par = List.length reference && List.for_all2 Tuple.equal par reference))
        legs)
    [ (1, 1); (2, 2); (2, 8); (4, 4); (4, 16); (Tgd_exec.Pool.default_workers (), 5) ]

let test_par_eval_shared_pool () =
  let inst = graph_instance 1_000 in
  Instance.seal inst;
  let reference = Eval.ucq inst [ join_query ] in
  let pool = Tgd_exec.Pool.create ~workers:4 () in
  Fun.protect ~finally:(fun () -> Tgd_exec.Pool.shutdown pool) @@ fun () ->
  for _ = 1 to 5 do
    let par = Par_eval.ucq ~pool ~min_tuples:1 inst [ join_query ] in
    Alcotest.(check bool) "pool-dispatched run equals sequential" true
      (List.length par = List.length reference && List.for_all2 Tuple.equal par reference)
  done

(* Rows inserted after a seal are sealed in by the evaluation itself: the
   answers include them, and the relation's block is current afterwards. *)
let test_par_eval_seals_pending_rows () =
  let inst = graph_instance 1_000 in
  Instance.seal inst;
  for i = 0 to 99 do
    ignore
      (Instance.add_fact inst (Symbol.intern "r")
         [| vc (Printf.sprintf "m%d" i); vc (Printf.sprintf "n%d" (3 * i)) |])
  done;
  let r = Option.get (Instance.relation inst (Symbol.intern "r")) in
  Alcotest.(check int) "pending before" 100 (Relation.pending r);
  let reference = Eval.ucq inst [ join_query ] in
  let par = Par_eval.ucq ~workers:2 ~min_tuples:1 inst [ join_query ] in
  Alcotest.(check bool) "the appended rows answer" true
    (List.exists (fun t -> Value.equal t.(0) (vc "m0")) reference);
  Alcotest.(check bool) "equals sequential" true
    (List.length par = List.length reference && List.for_all2 Tuple.equal par reference);
  Alcotest.(check int) "block covers every row" (Relation.cardinality r)
    (Columnar.nrows (Relation.block r))

(* Truncation semantics: a one-step eval budget trips both legs; an
   unlimited governor trips neither and the answers agree. *)
let test_par_eval_truncation_flag () =
  let legs = sealed_and_unsealed (fun () -> graph_instance 1_000) in
  let inst = List.assoc "sealed" legs in
  let tiny = { Tgd_exec.Budget.unlimited with Tgd_exec.Budget.eval_steps = Some 1 } in
  let gov_seq = Tgd_exec.Governor.create ~budget:tiny () in
  ignore (Eval.ucq ~gov:gov_seq inst [ join_query ]);
  List.iter
    (fun (leg, inst) ->
      let gov_par = Tgd_exec.Governor.create ~budget:tiny () in
      ignore (Par_eval.ucq ~gov:gov_par ~workers:4 ~min_tuples:1 inst [ join_query ]);
      Alcotest.(check bool)
        (Printf.sprintf "parallel (%s) trips the 1-step budget" leg)
        true
        (Tgd_exec.Governor.stopped gov_par <> None))
    legs;
  Alcotest.(check bool) "sequential trips the 1-step budget" true
    (Tgd_exec.Governor.stopped gov_seq <> None);
  let gov_free = Tgd_exec.Governor.create () in
  let par = Par_eval.ucq ~gov:gov_free ~workers:4 ~min_tuples:1 inst [ join_query ] in
  Alcotest.(check bool) "ungoverned parallel run completes" true
    (Tgd_exec.Governor.stopped gov_free = None);
  let reference = Eval.ucq inst [ join_query ] in
  Alcotest.(check bool) "ungoverned answers equal sequential" true
    (List.length par = List.length reference && List.for_all2 Tuple.equal par reference)

(* The eight University queries' UCQ rewritings on generated data: the
   compiled answers equal the boxed oracle's, in order and without
   duplicates, at one worker (a single flat buffer, no merge) and at
   three (hash partitions and a k-way merge). A Datalog goal, read by
   [Col_eval.cq] from a saturated copy, is checked the same way. *)
let university = lazy (Tgd_gen.University.generate_data (Tgd_gen.Rng.create 20140614) ~scale:300)

let strictly_sorted l =
  let rec go = function
    | a :: (b :: _ as rest) -> Tuple.compare a b < 0 && go rest
    | [ _ ] | [] -> true
  in
  go l

let check_answers name reference got =
  Alcotest.(check bool) (name ^ ": oracle's answers, strictly ascending") true
    (List.length got = List.length reference
    && List.for_all2 Tuple.equal got reference
    && strictly_sorted got)

let test_university_differential () =
  let inst = Lazy.force university in
  let ontology = Tgd_gen.University.ontology in
  List.iter
    (fun q ->
      let ucq = (Tgd_rewrite.Rewrite.ucq ontology q).Tgd_rewrite.Rewrite.ucq in
      let reference = Eval.ucq inst ucq in
      List.iter
        (fun (workers, partitions) ->
          check_answers
            (Printf.sprintf "%s workers=%d partitions=%d" q.Cq.name workers partitions)
            reference
            (Par_eval.ucq ~workers ~min_tuples:64 ~partitions inst ucq))
        [ (1, 1); (1, 4); (1, 7); (3, 1); (3, 4); (3, 7) ])
    Tgd_gen.University.queries

let test_university_datalog_goal () =
  let q = List.nth Tgd_gen.University.queries 4 in
  let dl = Tgd_rewrite.Datalog_rw.rewrite Tgd_gen.University.ontology q in
  let work = Instance.copy (Lazy.force university) in
  ignore (Tgd_chase.Chase.run ~keys:Tgd_chase.Chase.Datalog_keys dl.Tgd_rewrite.Datalog_rw.program work);
  let goal = Tgd_rewrite.Datalog_rw.goal_query dl in
  let got = Col_eval.cq work goal in
  Alcotest.(check bool) "the goal has answers" true (List.length got > 1_000);
  check_answers q.Cq.name (Eval.cq work goal) got

(* ------------------------------------------------------------------ *)
(* qcheck: parallel == sequential over random instances, queries,
   worker counts and partition counts *)

let signature = [ ("p", 2); ("q1", 1); ("r", 3) ]

let gen_pred = QCheck.Gen.oneofl signature
let gen_var = QCheck.Gen.map (fun i -> v (Printf.sprintf "X%d" i)) (QCheck.Gen.int_bound 4)
let gen_const = QCheck.Gen.map (fun i -> c (Printf.sprintf "c%d" i)) (QCheck.Gen.int_bound 9)
let gen_term = QCheck.Gen.frequency [ (3, gen_var); (1, gen_const) ]

let gen_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_term >>= fun args -> return (atom name args))

let gen_ground_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_const >>= fun args -> return (atom name args))

let gen_cq =
  QCheck.Gen.(
    int_range 1 3 >>= fun n ->
    list_repeat n gen_atom >>= fun body ->
    let vars =
      Symbol.Set.elements
        (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
    in
    (if vars = [] then return []
     else
       int_bound (min 2 (List.length vars - 1)) >>= fun k ->
       return (List.filteri (fun i _ -> i <= k) vars))
    >>= fun answer ->
    return (Cq.make ~name:"q" ~answer:(List.map (fun x -> Term.Var x) answer) ~body))

let gen_case =
  QCheck.Gen.(
    int_range 40 400 >>= fun nfacts ->
    list_repeat nfacts gen_ground_atom >>= fun facts ->
    int_range 1 2 >>= fun ndisj ->
    list_repeat ndisj gen_cq >>= fun ucq ->
    int_range 1 8 >>= fun partitions -> return (facts, ucq, partitions))

let arb_case =
  QCheck.make
    ~print:(fun (facts, ucq, partitions) ->
      Printf.sprintf "%d facts, %d partitions, ucq %s" (List.length facts) partitions
        (String.concat " | " (List.map Cq.to_string ucq)))
    gen_case

let prop_par_eval_equals_seq =
  QCheck.Test.make ~name:"parallel evaluation equals sequential (answers)" ~count:60 arb_case
    (fun (facts, ucq, partitions) ->
      let legs = sealed_and_unsealed (fun () -> Instance.of_atoms facts) in
      let reference = Eval.ucq (List.assoc "unsealed" legs) ucq in
      List.for_all
        (fun (_, inst) ->
          List.for_all
            (fun workers ->
              let par = Par_eval.ucq ~workers ~min_tuples:1 ~partitions inst ucq in
              List.length par = List.length reference
              && List.for_all2 Tuple.equal par reference)
            [ 1; 2; 4; Tgd_exec.Pool.default_workers () ])
        legs)

let prop_par_eval_truncates_like_seq =
  QCheck.Test.make ~name:"parallel evaluation truncates like sequential (1-step budget)"
    ~count:30 arb_case (fun (facts, ucq, partitions) ->
      let legs = sealed_and_unsealed (fun () -> Instance.of_atoms facts) in
      let tiny = { Tgd_exec.Budget.unlimited with Tgd_exec.Budget.eval_steps = Some 1 } in
      let gov_seq = Tgd_exec.Governor.create ~budget:tiny () in
      ignore (Eval.ucq ~gov:gov_seq (List.assoc "unsealed" legs) ucq);
      let seq_stopped = Tgd_exec.Governor.stopped gov_seq <> None in
      List.for_all
        (fun (_, inst) ->
          let gov_par = Tgd_exec.Governor.create ~budget:tiny () in
          ignore (Par_eval.ucq ~gov:gov_par ~workers:4 ~min_tuples:1 ~partitions inst ucq);
          seq_stopped = (Tgd_exec.Governor.stopped gov_par <> None))
        legs)

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "par_eval"
    [
      ( "pool",
        [
          Alcotest.test_case "submit / drain / shutdown" `Quick test_pool_submit_drain;
          Alcotest.test_case "overload shedding" `Quick test_pool_overload;
          Alcotest.test_case "run_morsels" `Quick test_pool_run_morsels;
          Alcotest.test_case "concurrent submit vs drain" `Quick
            test_pool_concurrent_submit_drain;
          Alcotest.test_case "shutdown during drain" `Quick test_pool_shutdown_during_drain;
          Alcotest.test_case "worker clamp to core count" `Quick test_pool_core_clamp;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "join across worker/partition grid" `Quick
            test_par_eval_join_equivalence;
          Alcotest.test_case "shared pool reuse" `Quick test_par_eval_shared_pool;
          Alcotest.test_case "truncation flag" `Quick test_par_eval_truncation_flag;
          Alcotest.test_case "pending rows sealed in" `Quick test_par_eval_seals_pending_rows;
          Alcotest.test_case "University queries against the oracle" `Quick
            test_university_differential;
          Alcotest.test_case "University Datalog goal against the oracle" `Quick
            test_university_datalog_goal;
        ] );
      ( "properties",
        List.map to_alcotest [ prop_par_eval_equals_seq; prop_par_eval_truncates_like_seq ] );
    ]
