(* Property tests for the incremental chase (Chase.run with a batch):
   incremental maintenance must agree with a from-scratch chase (the
   naive reference chase of the conformance harness) on every
   null-free fact (hence on certain answers), an empty delta must be a
   no-op, batches may be split or fused freely, and budget truncation must
   degrade soundly. Plus the parallel evaluator on unsealed instances and
   pending tails, which it seals itself, and the registry's data runs: N
   batches in one call leave exactly the state of N calls. *)

open Tgd_logic
open Tgd_gen

let rounds = 50
let facts_cap = 10_000

(* The facts cap is a gauge read at round ends, so it cannot stop a single
   round: a non-weakly-acyclic draw whose rule body is a cross product can
   discover millions of triggers in one round. Capping join-search steps
   truncates such a run (a vacuous case for every property below) instead
   of letting it exhaust memory. *)
let eval_steps_cap = 200_000

let bounded_gov () =
  let budget =
    {
      Tgd_exec.Budget.unlimited with
      Tgd_exec.Budget.chase_rounds = Some rounds;
      chase_facts = Some facts_cap;
      eval_steps = Some eval_steps_cap;
    }
  in
  Tgd_exec.Governor.create ~budget ()

(* ------------------------------------------------------------------ *)
(* Generators: seeded Tgd_gen programs, instances and insert batches.   *)

let free_config =
  {
    Gen_tgd.default_config with
    Gen_tgd.n_predicates = 4;
    max_arity = 2;
    n_rules = 4;
    max_body_atoms = 2;
    max_head_atoms = 1;
    existential_rate = 0.3;
  }

let datalog_program rng =
  Gen_tgd.random_simple_program rng { free_config with Gen_tgd.existential_rate = 0.0 }

(* Rotate through the families the incremental chase is specified for:
   simple linear (SWR), datalog (weakly acyclic), and the free generator
   with existentials (whose WA members dominate at this scale; non-WA draws
   are filtered by the termination assumption below). *)
let program_of_seed rng seed =
  match abs seed mod 3 with
  | 0 -> Gen_tgd.simple_linear rng ~n_rules:(2 + Rng.int rng 4) ~n_predicates:4 ~max_arity:2
  | 1 -> datalog_program rng
  | _ -> Gen_tgd.random_simple_program rng free_config

let base_instance rng p =
  Gen_db.random_instance rng p ~facts_per_predicate:(3 + Rng.int rng 3)
    ~domain_size:(3 + Rng.int rng 2)

let random_batch rng p ~size =
  let preds = Program.predicates p in
  if preds = [] then []
  else
    List.init size (fun _ ->
        let pred, arity = Rng.choose rng preds in
        ( pred,
          Array.init arity (fun _ ->
              Tgd_db.Value.const (Printf.sprintf "d%d" (Rng.int rng 6))) ))

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* ------------------------------------------------------------------ *)
(* Helpers *)

let fact_compare (p1, t1) (p2, t2) =
  let c = Symbol.compare p1 p2 in
  if c <> 0 then c else Tgd_db.Tuple.compare t1 t2

let all_facts inst = List.sort_uniq fact_compare (Tgd_db.Instance.facts inst)

let null_free inst =
  Tgd_db.Instance.facts inst
  |> List.filter (fun (_, t) -> not (Tgd_db.Tuple.has_null t))
  |> List.sort_uniq fact_compare

let facts_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 (fun a b -> fact_compare a b = 0) l1 l2

let facts_subset small big = List.for_all (fun f -> List.exists (fun g -> fact_compare f g = 0) big) small

let terminated = function Tgd_chase.Chase.Terminated -> true | Tgd_chase.Chase.Truncated _ -> false

(* Chase the base, then delta-apply the batch; in parallel chase base+batch
   from scratch with the naive reference chase. Returns [None] when any leg hit its budget (the property
   is then vacuous — qcheck assume). *)
let run_both p base batch =
  let inc = base in
  let s0 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) p inc in
  if not (terminated s0.Tgd_chase.Chase.outcome) then None
  else begin
    let scratch = Tgd_db.Instance.copy inc in
    List.iter (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact scratch pred t)) batch;
    let d = Tgd_chase.Chase.run ~gov:(bounded_gov ()) ~batch p inc in
    let s1 = Tgd_conformance.Naive_chase.run ~gov:(bounded_gov ()) p scratch in
    if terminated d.Tgd_chase.Chase.outcome && terminated s1.Tgd_chase.Chase.outcome then
      Some (d, inc, scratch)
    else None
  end

(* ------------------------------------------------------------------ *)
(* 1. Incremental equals from-scratch.                                  *)

(* Datalog invents no nulls, so the two models must coincide exactly —
   not just up to hom-equivalence. *)
let prop_datalog_exact =
  QCheck.Test.make ~name:"datalog: delta-apply equals from-scratch chase exactly" ~count:150
    arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = datalog_program rng in
      let base = base_instance rng p in
      let batch = random_batch rng p ~size:(1 + Rng.int rng 5) in
      match run_both p base batch with
      | None -> QCheck.assume_fail ()
      | Some (_, inc, scratch) -> facts_equal (all_facts inc) (all_facts scratch))

let prop_null_free_agree =
  QCheck.Test.make ~name:"SWR/WA/free: delta-apply agrees with from-scratch on null-free facts"
    ~count:150 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      let base = base_instance rng p in
      let batch = random_batch rng p ~size:(1 + Rng.int rng 5) in
      match run_both p base batch with
      | None -> QCheck.assume_fail ()
      | Some (_, inc, scratch) -> facts_equal (null_free inc) (null_free scratch))

(* ------------------------------------------------------------------ *)
(* 2. Empty delta is the identity.                                      *)

let prop_empty_delta =
  QCheck.Test.make ~name:"empty delta is a no-op" ~count:100 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      let base = base_instance rng p in
      let s0 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) p base in
      QCheck.assume (terminated s0.Tgd_chase.Chase.outcome);
      let before = all_facts base in
      let d = Tgd_chase.Chase.run ~batch:[] p base in
      terminated d.Tgd_chase.Chase.outcome
      && d.Tgd_chase.Chase.inserted = 0
      && d.Tgd_chase.Chase.derived = 0
      && d.Tgd_chase.Chase.nulls = 0
      && facts_equal before (all_facts base))

(* ------------------------------------------------------------------ *)
(* 3. Batch splitting commutes (up to the null-free part).              *)

let prop_batch_split =
  QCheck.Test.make ~name:"one batch vs the same batch split in two: same null-free facts"
    ~count:100 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      let base = base_instance rng p in
      let batch = random_batch rng p ~size:(2 + Rng.int rng 6) in
      let s0 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) p base in
      QCheck.assume (terminated s0.Tgd_chase.Chase.outcome);
      let fused = Tgd_db.Instance.copy base in
      let split = Tgd_db.Instance.copy base in
      let k = List.length batch / 2 in
      let first = List.filteri (fun i _ -> i < k) batch in
      let second = List.filteri (fun i _ -> i >= k) batch in
      let df = Tgd_chase.Chase.run ~gov:(bounded_gov ()) ~batch p fused in
      let d1 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) ~batch:first p split in
      let d2 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) ~batch:second p split in
      QCheck.assume
        (terminated df.Tgd_chase.Chase.outcome
        && terminated d1.Tgd_chase.Chase.outcome
        && terminated d2.Tgd_chase.Chase.outcome);
      facts_equal (null_free fused) (null_free split))

(* ------------------------------------------------------------------ *)
(* 4. Truncation under tight budgets is sound and honestly flagged.     *)

let tight_gov limit =
  let budget =
    {
      Tgd_exec.Budget.unlimited with
      Tgd_exec.Budget.chase_delta_triggers = Some limit;
      chase_rounds = Some rounds;
      chase_facts = Some facts_cap;
      eval_steps = Some eval_steps_cap;
    }
  in
  Tgd_exec.Governor.create ~budget ()

let prop_truncation_sound =
  QCheck.Test.make
    ~name:"tight chase.delta.triggers budget: Truncated flag agrees with the unbudgeted run"
    ~count:100
    QCheck.(pair arb_seed (int_range 0 6))
    (fun (seed, limit) ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      let base = base_instance rng p in
      let batch = random_batch rng p ~size:(1 + Rng.int rng 5) in
      let s0 = Tgd_chase.Chase.run ~gov:(bounded_gov ()) p base in
      QCheck.assume (terminated s0.Tgd_chase.Chase.outcome);
      let tight = Tgd_db.Instance.copy base in
      let free = Tgd_db.Instance.copy base in
      let dt = Tgd_chase.Chase.run ~gov:(tight_gov limit) ~batch p tight in
      let df = Tgd_chase.Chase.run ~gov:(bounded_gov ()) ~batch p free in
      QCheck.assume (terminated df.Tgd_chase.Chase.outcome);
      (* Soundness: whatever the budget allowed is entailed, so the tight
         run's null-free facts embed in the complete run's. Honesty: a
         Terminated claim under a tight budget must mean it really got
         everything. *)
      facts_subset (null_free tight) (null_free free)
      &&
      if terminated dt.Tgd_chase.Chase.outcome then
        facts_equal (null_free tight) (null_free free)
      else true)

(* ------------------------------------------------------------------ *)
(* 5. Parallel evaluation on unsealed / pending-append instances seals  *)
(*    them first, and so agrees with sequential evaluation.             *)

let random_cq rng p =
  let preds = Program.predicates p in
  let n_atoms = 1 + Rng.int rng 2 in
  let term_of_var i = Term.var (Printf.sprintf "X%d" i) in
  let body =
    List.init n_atoms (fun _ ->
        let pred, arity = Rng.choose rng preds in
        Atom.make pred (List.init arity (fun _ -> term_of_var (Rng.int rng 3))))
  in
  let vars =
    Symbol.Set.elements
      (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
  in
  let answer = List.filter (fun _ -> Rng.bool rng 0.5) vars |> List.map (fun v -> Term.Var v) in
  Cq.make ~name:"q" ~answer ~body

let tuples_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 Tgd_db.Tuple.equal l1 l2

let prop_par_unsealed_fallback =
  QCheck.Test.make
    ~name:"parallel UCQ on an unsealed instance falls back to sequential evaluation" ~count:80
    arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      QCheck.assume (Program.predicates p <> []);
      let inst = base_instance rng p in
      let ucq = List.init (1 + Rng.int rng 2) (fun _ -> random_cq rng p) in
      let seq = Tgd_conformance.Eval.ucq inst ucq in
      let workers = 2 + Rng.int rng 2 in
      let partitions = 1 + Rng.int rng 7 in
      (* The instance was never sealed, so the engine seals it itself
         before compiling; min_tuples:1 forces the morsel machinery even
         on these small relations. *)
      let par = Tgd_db.Par_eval.ucq ~workers ~min_tuples:1 ~partitions inst ucq in
      tuples_equal seq par)

let prop_par_pending_fallback =
  QCheck.Test.make
    ~name:"parallel UCQ after a post-seal append (pending tuples) equals sequential" ~count:80
    arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      QCheck.assume (Program.predicates p <> []);
      let inst = base_instance rng p in
      Tgd_db.Instance.seal inst;
      (* Appending after seal parks tuples in the relations' pending lists
         and the columnar view goes stale — exactly the state the delta
         chase leaves behind between re-seals. The engine must extend the
         blocks with the pending rows before it compiles. *)
      List.iter
        (fun (pred, t) -> ignore (Tgd_db.Instance.add_fact inst pred t))
        (random_batch rng p ~size:(1 + Rng.int rng 5));
      let ucq = List.init (1 + Rng.int rng 2) (fun _ -> random_cq rng p) in
      let seq = Tgd_conformance.Eval.ucq inst ucq in
      let par = Tgd_db.Par_eval.ucq ~workers:3 ~min_tuples:1 ~partitions:5 inst ucq in
      tuples_equal seq par)

(* ------------------------------------------------------------------ *)
(* 5. Registry data runs: one add_batches call over N batches leaves     *)
(*    exactly the state of N one-batch calls.                           *)

module Registry = Tgd_serve.Registry

(* Everything but the instance objects themselves, null labels included. *)
let registry_state reg =
  let show inst = Format.asprintf "%a" Tgd_db.Instance.pp inst in
  Option.map
    (fun (e : Registry.entry) ->
      ( e.Registry.delta_epoch,
        show e.Registry.instance,
        Option.map
          (fun (m : Registry.materialization) ->
            (show m.Registry.model, m.Registry.floor, m.Registry.complete))
          e.Registry.materialization ))
    (Registry.find reg "r")

let mutation_summary =
  List.map
    (Result.map (fun (m : Registry.mutation) ->
         ( m.Registry.added,
           Option.map
             (fun (d : Tgd_chase.Chase.stats) ->
               (d.Tgd_chase.Chase.nulls, d.Tgd_chase.Chase.derived, terminated d.Tgd_chase.Chase.outcome))
             m.Registry.delta )))

let prop_registry_run_equals_calls =
  QCheck.Test.make ~name:"registry: one add_batches call over N batches equals N calls"
    ~count:100 arb_seed (fun seed ->
      let rng = Rng.create seed in
      let p = program_of_seed rng seed in
      QCheck.assume (Program.predicates p <> []);
      let base = base_instance rng p in
      let materialize = Rng.bool rng 0.8 in
      let batches =
        List.init (2 + Rng.int rng 5) (fun _ -> random_batch rng p ~size:(1 + Rng.int rng 4))
      in
      let fresh () =
        let reg = Registry.create () in
        ignore (Registry.register reg ~name:"r" ~facts:base p);
        if materialize then ignore (Registry.materialize ~gov:(bounded_gov ()) reg ~name:"r");
        reg
      in
      let fused = fresh () and split = fresh () in
      let run =
        Registry.add_batches fused ~name:"r"
          (List.map (fun b -> ((fun () -> Some (bounded_gov ())), b)) batches)
      in
      let calls =
        List.concat_map
          (fun b -> Registry.add_batches split ~name:"r" [ ((fun () -> Some (bounded_gov ())), b) ])
          batches
      in
      mutation_summary run = mutation_summary calls
      && registry_state fused = registry_state split)

(* ------------------------------------------------------------------ *)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "delta_chase"
    [
      ("incremental-vs-scratch", List.map to_alcotest [ prop_datalog_exact; prop_null_free_agree ]);
      ("empty-delta", List.map to_alcotest [ prop_empty_delta ]);
      ("batch-split", List.map to_alcotest [ prop_batch_split ]);
      ("truncation", List.map to_alcotest [ prop_truncation_sound ]);
      ( "boxed-parallel",
        List.map to_alcotest [ prop_par_unsealed_fallback; prop_par_pending_fallback ] );
      ("registry-runs", List.map to_alcotest [ prop_registry_run_equals_calls ]);
    ]
