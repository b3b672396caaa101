open Tgd_logic
open Tgd_exec

type outcome =
  | Complete
  | Truncated of Governor.diagnostics

type stats = {
  generated : int;
  explored : int;
  kept : int;
  max_depth : int;
  containment_checks : int;
  containment_pruned : int;
  hom_searches : int;
}

type result = {
  ucq : Cq.ucq;
  outcome : outcome;
  stats : stats;
}

type config = {
  max_cqs : int;
  max_depth : int;
  max_body_atoms : int;
  prune_subsumed : bool;
  domains : int option;
}

let default_config =
  { max_cqs = 20_000; max_depth = 1_000; max_body_atoms = 64; prune_subsumed = true; domains = None }

(* The final minimization fans out over a transient pool only when the
   union is large enough to pay for spawning it; the calling domain is
   the [domains]-th worker. *)
let minimize ~domains ~meters ucq =
  let d = match domains with Some d -> max 1 d | None -> Tgd_exec.Pool.default_workers () in
  if d > 1 && List.length ucq >= Containment.parallel_threshold then begin
    let pool = Tgd_exec.Pool.create ~workers:(d - 1) () in
    Fun.protect
      ~finally:(fun () -> Tgd_exec.Pool.shutdown pool)
      (fun () -> Containment.minimize_ucq ~pool ~meters ucq)
  end
  else Containment.minimize_ucq ~meters ucq

(* This run's containment counts so far, read off its governor's meters. *)
let containment_counts tele =
  ( Telemetry.get tele Budget.key_containment_checks,
    Telemetry.get tele Containment.key_pruned,
    Telemetry.get tele Containment.key_hom_searches )

(* A kept disjunct, carrying its precomputed containment state (fingerprint
   + frozen homomorphism target, built once); [alive] is cleared when a more
   general CQ retires it. *)
type entry = {
  cq : Cq.t;
  pre : Containment.pre;
  mutable alive : bool;
}

(* One-step operations (piece rewriting steps, factorizations) live in
   {!Step}, shared with the Datalog rewriter; the rules they read are the
   program's rewriting view. *)
let factorizations = Step.factorizations
let rewrite_steps = Step.rewrite_steps

let mentions_aux_pred aux_preds (q : Cq.t) =
  List.exists (fun (a : Atom.t) -> Symbol.Set.mem a.Atom.pred aux_preds) q.Cq.body

(* The kept set, bucketed by (answer arity, predicate-fingerprint word) so a
   candidate's subsumption scans only visit buckets whose fingerprints pass
   the subset pre-filter — impossible subsumers are never touched. *)
module Kept = struct
  (* Buckets are growable arrays scanned newest-first: a candidate generated
     at depth d+1 is most often subsumed by a recently added sibling, so the
     scan usually hits within the first few probes. *)
  type bucket = {
    mutable entries : entry array;
    mutable len : int;
  }

  type t = {
    buckets : ((int * int), bucket) Hashtbl.t;
    mutable all : entry list;  (* insertion order, newest first *)
  }

  let create () = { buckets = Hashtbl.create 64; all = [] }

  let key e = (Cq.arity e.cq, Fingerprint.pred_bits (Containment.fingerprint e.pre))

  let bucket_push b e =
    if b.len = Array.length b.entries then begin
      let bigger = Array.make (2 * b.len) e in
      Array.blit b.entries 0 bigger 0 b.len;
      b.entries <- bigger
    end;
    b.entries.(b.len) <- e;
    b.len <- b.len + 1

  let add t e =
    (match Hashtbl.find_opt t.buckets (key e) with
    | Some b -> bucket_push b e
    | None -> Hashtbl.add t.buckets (key e) { entries = Array.make 8 e; len = 1 });
    t.all <- e :: t.all

  exception Hit

  (* Does some live entry [e] with preds(e) ⊆ preds(candidate) satisfy [p]?
     (Necessary bucket condition for [candidate <= e].) *)
  let exists_possible_subsumer t ~arity ~bits p =
    try
      Hashtbl.iter
        (fun (ar, ebits) b ->
          if ar = arity && Fingerprint.subset_bits ebits bits then
            for i = b.len - 1 downto 0 do
              let e = b.entries.(i) in
              if e.alive && p e then raise Hit
            done)
        t.buckets;
      false
    with Hit -> true

  (* Visit every live entry [e] with preds(candidate) ⊆ preds(e).
     (Necessary bucket condition for [e <= candidate].) *)
  let iter_possible_subsumees t ~arity ~bits f =
    Hashtbl.iter
      (fun (ar, ebits) b ->
        if ar = arity && Fingerprint.subset_bits bits ebits then
          for i = b.len - 1 downto 0 do
            let e = b.entries.(i) in
            if e.alive then f e
          done)
      t.buckets

  (* Live CQs in insertion order. *)
  let survivors t = List.rev_map (fun e -> e.cq) (List.filter (fun e -> e.alive) t.all)

  let counts t =
    List.fold_left
      (fun (live, retired) e -> if e.alive then (live + 1, retired) else (live, retired + 1))
      (0, 0) t.all
end

let ucq ?(config = default_config) ?gov program q0 =
  let gov = match gov with Some g -> g | None -> Governor.unlimited () in
  let tele = Governor.telemetry gov in
  let view = Program.rewriting program in
  let q0 = Cq.canonical q0 in
  let meters = Containment.meters gov in
  let checks0, pruned0, homs0 = containment_counts tele in
  let generated = ref 1 in
  let explored = ref 0 in
  let max_depth_seen = ref 0 in
  let kept = Kept.create () in
  let seen : (Cq.t, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue : (int * entry) Queue.t = Queue.create () in
  (* Install a candidate: dedup by canonical form, prune by containment. *)
  let add depth c =
    let c = Cq.canonical c in
    if List.length c.Cq.body <= config.max_body_atoms && not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      incr generated;
      Governor.charge gov Budget.key_rewrite_cqs;
      let pre = Containment.precompute c in
      let arity = Cq.arity c in
      let bits = Fingerprint.pred_bits (Containment.fingerprint pre) in
      (* [c] is dropped if a kept disjunct subsumes it — unless they are
         equivalent and [c] has a strictly smaller body, in which case [c]
         replaces the bulkier form (e.g. a factorized self-join). *)
      let subsumed =
        config.prune_subsumed
        && Kept.exists_possible_subsumer kept ~arity ~bits (fun e ->
               Containment.contained_pre ~meters pre e.pre
               && not
                    (List.length c.Cq.body < List.length e.cq.Cq.body
                    && Containment.contained_pre ~meters e.pre pre))
      in
      if not subsumed then begin
        if config.prune_subsumed then
          Kept.iter_possible_subsumees kept ~arity ~bits (fun e ->
              if Containment.contained_pre ~meters e.pre pre then e.alive <- false);
        let entry = { cq = c; pre; alive = true } in
        Kept.add kept entry;
        Queue.add (depth, entry) queue
      end
    end
  in
  add 0 q0;
  (* The expansion loop is governed at its head: the config's structural
     limits latch a stop reason into the governor exactly like an external
     budget, so truncation is reported uniformly. Because the queue is
     breadth-first (depths are non-decreasing), halting at the first
     over-deep entry expands the same frontier the old drain-but-don't-
     expand loop did. *)
  while Governor.live gov && not (Queue.is_empty queue) do
    if !generated >= config.max_cqs then
      Governor.stop gov
        (Governor.Limit { counter = Budget.key_rewrite_cqs; limit = config.max_cqs });
    Telemetry.gauge tele "rewrite.queue" (Queue.length queue);
    if Governor.live gov then begin
      let depth, entry = Queue.pop queue in
      Governor.charge gov Budget.key_rewrite_expansions;
      (* A retired disjunct's expansions are covered by its subsumer. *)
      if entry.alive then begin
        incr explored;
        if depth > !max_depth_seen then max_depth_seen := depth;
        Governor.gauge gov Budget.key_rewrite_depth depth;
        if depth >= config.max_depth then
          Governor.stop gov
            (Governor.Limit { counter = Budget.key_rewrite_depth; limit = config.max_depth })
        else begin
          List.iter (add (depth + 1)) (rewrite_steps view entry.cq);
          List.iter (add (depth + 1)) (factorizations entry.cq)
        end
      end
    end
  done;
  let final =
    Kept.survivors kept
    |> List.filter (fun c -> not (mentions_aux_pred view.Program.aux c))
    |> minimize ~domains:config.domains ~meters
  in
  let checks1, pruned1, homs1 = containment_counts tele in
  Telemetry.set_counter tele "rewrite.generated" !generated;
  Telemetry.set_counter tele "rewrite.explored" !explored;
  let outcome =
    match Governor.stopped gov with
    | None -> Complete
    | Some _ ->
      (* At truncation, record how much of the rewriting survived: the
         kept/retired split of the subsumption set plus the minimized output
         size, so the diagnostics say what the partial UCQ looks like. *)
      let live, retired = Kept.counts kept in
      Telemetry.set_counter tele "rewrite.kept" live;
      Telemetry.set_counter tele "rewrite.retired" retired;
      Telemetry.set_counter tele "rewrite.minimized" (List.length final);
      Truncated (Option.get (Governor.diagnostics gov))
  in
  {
    ucq = final;
    outcome;
    stats =
      {
        generated = !generated;
        explored = !explored;
        kept = List.length final;
        max_depth = !max_depth_seen;
        containment_checks = checks1 - checks0;
        containment_pruned = pruned1 - pruned0;
        hom_searches = homs1 - homs0;
      };
  }

let ucq_of_union ?config ?gov program qs =
  (* Count the containment checks of the WHOLE union, not only per
     disjunct: the final cross-disjunct [minimize_ucq] below also burns
     checks, and summing the per-result counts alone used to lose them.
     Every count is metered on a governor of this call, so the totals are
     this union's alone. *)
  let results = List.map (ucq ?config ?gov program) qs in
  let domains = Option.bind config (fun c -> c.domains) in
  let gov = match gov with Some g -> g | None -> Governor.unlimited () in
  let tele = Governor.telemetry gov in
  let checks0, pruned0, homs0 = containment_counts tele in
  let combined =
    minimize ~domains ~meters:(Containment.meters gov) (List.concat_map (fun r -> r.ucq) results)
  in
  let checks1, pruned1, homs1 = containment_counts tele in
  let outcome =
    List.fold_left
      (fun acc r -> match acc with Truncated _ -> acc | Complete -> r.outcome)
      Complete results
  in
  (* [kept] is a property of the combined union: compute it once, not per
     folded result. *)
  let kept = List.length combined in
  let stats =
    List.fold_left
      (fun acc r ->
        {
          acc with
          generated = acc.generated + r.stats.generated;
          explored = acc.explored + r.stats.explored;
          max_depth = max acc.max_depth r.stats.max_depth;
          containment_checks = acc.containment_checks + r.stats.containment_checks;
          containment_pruned = acc.containment_pruned + r.stats.containment_pruned;
          hom_searches = acc.hom_searches + r.stats.hom_searches;
        })
      {
        generated = 0;
        explored = 0;
        kept;
        max_depth = 0;
        containment_checks = checks1 - checks0;
        containment_pruned = pruned1 - pruned0;
        hom_searches = homs1 - homs0;
      }
      results
  in
  { ucq = combined; outcome; stats }
