open Tgd_db
open Tgd_rewrite

type t =
  | Ucq
  | Datalog
  | Auto

let of_string = function
  | "ucq" -> Ok Ucq
  | "datalog" -> Ok Datalog
  | "auto" -> Ok Auto
  | s -> Error (Printf.sprintf "unknown rewriting target %S (expected ucq, datalog or auto)" s)

let to_string = function Ucq -> "ucq" | Datalog -> "datalog" | Auto -> "auto"

type artifact =
  | Ucq_rewriting of Rewrite.result
  | Datalog_rewriting of Datalog_rw.result

let artifact_kind = function Ucq_rewriting _ -> "ucq" | Datalog_rewriting _ -> "datalog"

let complete = function
  | Ucq_rewriting r -> (match r.Rewrite.outcome with Rewrite.Complete -> true | _ -> false)
  | Datalog_rewriting r -> (
    match r.Datalog_rw.outcome with Datalog_rw.Complete -> true | _ -> false)

let resolve target program =
  match target with
  | Ucq -> Ucq
  | Datalog -> Datalog
  | Auto ->
    (* Existential-free rule sets are plain Datalog: the UCQ rewriter
       unfolds recursion into an unbounded union while the Datalog target
       captures it finitely, so they dispatch to Datalog. Everything else
       starts on the UCQ path — when it truncates, [prepare] falls back to
       Datalog. *)
    if Tgd_classes.Datalog_class.check program then Datalog else Ucq

let prepare ?ucq_config ?datalog_config ~gov target program q =
  let run_ucq () = Ucq_rewriting (Rewrite.ucq ?config:ucq_config ~gov:(gov ()) program q) in
  let run_datalog () =
    Datalog_rewriting (Datalog_rw.rewrite ?config:datalog_config ~gov:(gov ()) program q)
  in
  match target with
  | Ucq -> run_ucq ()
  | Datalog -> run_datalog ()
  | Auto ->
    let first, second =
      match resolve Auto program with
      | Ucq -> (run_ucq, run_datalog)
      | Datalog | Auto -> (run_datalog, run_ucq)
    in
    let a = first () in
    if complete a then a
    else
      let b = second () in
      if complete b then b else a

let null_free = List.filter (fun t -> not (Tuple.has_null t))

let saturated_answers ?gov program inst goal =
  let work = Instance.copy inst in
  ignore (Tgd_chase.Chase.run ?gov ~keys:Tgd_chase.Chase.Datalog_keys program work);
  null_free (Col_eval.cq ?gov work goal)

(* Every Datalog artifact spells its intensional predicates the same way
   ([__dlr#1 ...], [__dlr#goal]), so an instance may hold a relation under
   one of those names, loaded as data. It must not seed the saturation:
   the artifact reads the instance without it. The exclusion goes by
   spelling, not by the artifact's rule heads, since a truncated run can
   leave an intensional predicate that heads no rule. *)
let without_intensional inst =
  let preds = Instance.predicates inst in
  if not (List.exists (fun (p, _) -> Datalog_rw.intensional p) preds) then inst
  else begin
    let work = Instance.create () in
    List.iter
      (fun (p, _) ->
        if not (Datalog_rw.intensional p) then
          Instance.install_relation work p (Option.get (Instance.relation inst p)))
      preds;
    work
  end

let datalog_answers ?gov (r : Datalog_rw.result) inst =
  let program = r.Datalog_rw.program in
  saturated_answers ?gov program (without_intensional inst) (Datalog_rw.goal_query r)

let answers ?gov ?pool ?workers artifact inst =
  match artifact with
  | Ucq_rewriting r -> null_free (Par_eval.ucq ?gov ?pool ?workers inst r.Rewrite.ucq)
  | Datalog_rewriting r -> datalog_answers ?gov r inst
