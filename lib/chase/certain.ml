open Tgd_db

type result = {
  answers : Tuple.t list;
  exact : bool;
  chase : Chase.stats;
}

let cq ?variant ?max_rounds ?max_facts ?gov ?pool ?eval_workers program inst q =
  let work = Instance.copy inst in
  let chase = Chase.run ?variant ?max_rounds ?max_facts ?gov program work in
  let answers =
    let workers =
      match (eval_workers, pool) with
      | Some w, _ -> w
      | None, Some p -> Tgd_exec.Pool.size p
      | None, None -> 1
    in
    Par_eval.ucq ?gov ?pool ~workers work [ q ]
    |> List.filter (fun t -> not (Tuple.has_null t))
  in
  let exact =
    (* Exact iff the chase reached a universal model AND the evaluation was
       not cut short by the governor afterwards. *)
    (match chase.Chase.outcome with Chase.Terminated -> true | Chase.Truncated _ -> false)
    && (match gov with None -> true | Some g -> Tgd_exec.Governor.stopped g = None)
  in
  { answers; exact; chase }
