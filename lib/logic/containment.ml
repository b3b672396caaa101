(* [q1 <= q2] iff there is a homomorphism from q2 into q1 frozen, mapping the
   answer tuple of q2 onto the answer tuple of q1 position-wise.

   The NP-hard homomorphism search is guarded by sound O(1) pre-filters
   (arity, predicate/constant fingerprints — see {!Fingerprint}); callers on
   the hot path precompute a {!pre} per CQ so the frozen target index and the
   fingerprint are built once instead of per check. A run counts its checks
   on its own governor ({!meters}), which makes the filter's hit rate
   observable per run. *)

type meters = {
  m_checks : Tgd_exec.Governor.meter;
  m_pruned : Tgd_exec.Governor.meter;
  m_hom_searches : Tgd_exec.Governor.meter;
}

let key_pruned = "containment.pruned"
let key_hom_searches = "containment.hom_searches"

let meters gov =
  {
    m_checks = Tgd_exec.Governor.meter gov Tgd_exec.Budget.key_containment_checks;
    m_pruned = Tgd_exec.Governor.meter gov key_pruned;
    m_hom_searches = Tgd_exec.Governor.meter gov key_hom_searches;
  }

let count meter = function Some m -> Tgd_exec.Governor.tick (meter m) | None -> ()

(* Seed the mapping with answer-position constraints. *)
let seed_answers a2 a1 =
  let rec seed m a2 a1 =
    match a2, a1 with
    | [], [] -> Some m
    | t2 :: rest2, t1 :: rest1 -> (
      match t2 with
      | Term.Const _ -> if Term.equal t2 t1 then seed m rest2 rest1 else None
      | Term.Var v -> (
        match Symbol.Map.find_opt v m with
        | Some t -> if Term.equal t t1 then seed m rest2 rest1 else None
        | None -> seed (Symbol.Map.add v t1 m) rest2 rest1))
    | [], _ :: _ | _ :: _, [] -> None
  in
  seed Symbol.Map.empty a2 a1

(* The full search: [q1 <= q2] given q1's frozen target. *)
let hom_contained target (q1 : Cq.t) (q2 : Cq.t) =
  match seed_answers q2.Cq.answer q1.Cq.answer with
  | None -> false
  | Some init -> Homomorphism.exists ~init q2.Cq.body target

let contained_reference q1 q2 =
  Cq.arity q1 = Cq.arity q2 && hom_contained (Homomorphism.target_of_atoms q1.Cq.body) q1 q2

type pre = {
  cq : Cq.t;
  arity : int;
  fp : Fingerprint.t;
  target : Homomorphism.target;
  source : Homomorphism.source;
      (* ordering data for this CQ's body as the mapped (sub) side; its
         bound variables are exactly the answer variables, which is what
         [seed_answers] binds *)
}

let precompute cq =
  let answer_vars = Cq.answer_vars cq in
  {
    cq;
    arity = Cq.arity cq;
    fp = Fingerprint.of_body cq.Cq.body;
    target = Homomorphism.target_of_atoms cq.Cq.body;
    source =
      Homomorphism.source_of_atoms
        ~is_bound:(fun v -> Symbol.Set.mem v answer_vars)
        cq.Cq.body;
  }

let fingerprint p = p.fp

let contained_pre ?meters p1 p2 =
  count (fun m -> m.m_checks) meters;
  if p1.arity <> p2.arity || not (Fingerprint.may_map ~sub:p2.fp ~sup:p1.fp) then begin
    count (fun m -> m.m_pruned) meters;
    false
  end
  else begin
    count (fun m -> m.m_hom_searches) meters;
    match seed_answers p2.cq.Cq.answer p1.cq.Cq.answer with
    | None -> false
    | Some init -> Homomorphism.exists ~source:p2.source ~init p2.cq.Cq.body p1.target
  end

let contained q1 q2 =
  if
    Cq.arity q1 <> Cq.arity q2
    || not
         (Fingerprint.may_map
            ~sub:(Fingerprint.of_body q2.Cq.body)
            ~sup:(Fingerprint.of_body q1.Cq.body))
  then false
  else hom_contained (Homomorphism.target_of_atoms q1.Cq.body) q1 q2

let equivalent q1 q2 = contained q1 q2 && contained q2 q1

let ucq_contained u1 u2 = List.for_all (fun q1 -> List.exists (fun q2 -> contained q1 q2) u2) u1

(* Visiting larger bodies first makes the smaller of two equivalent
   disjuncts the survivor. *)
let sort_for_minimize ucq =
  List.stable_sort
    (fun q1 q2 -> Int.compare (List.length q2.Cq.body) (List.length q1.Cq.body))
    ucq

let minimize_ucq_reference ucq =
  (* The original sequential sweep, kept as the semantic reference: [q] is
     redundant iff contained in some other disjunct that survives. *)
  let ucq = sort_for_minimize ucq in
  let rec loop kept = function
    | [] -> List.rev kept
    | q :: rest ->
      let subsumed_by q' = (not (q == q')) && contained_reference q q' in
      if List.exists subsumed_by kept || List.exists subsumed_by rest then loop kept rest
      else loop (q :: kept) rest
  in
  loop [] ucq

let parallel_threshold = 64

let minimize_ucq ?pool ?meters ucq =
  match sort_for_minimize ucq with
  | [] -> []
  | [ q ] -> [ q ]
  | sorted ->
    (* Two independent passes, each embarrassingly parallel per disjunct.
       They compute exactly the reference sweep's survivor set:
       - pass 1 discards q_i iff some later q_j subsumes it (the reference's
         scan of the unprocessed suffix sees every later disjunct);
       - pass 2 discards a pass-1 survivor q_i iff some earlier pass-1
         survivor q_j subsumes it. A pass-1 survivor discarded in pass 2 is
         subsumed by an earlier kept disjunct, which by transitivity also
         subsumes q_i, so using pass-1 survival (not final survival) for the
         earlier disjuncts accepts exactly the same set. *)
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let pres = Array.map precompute arr in
    let le i j = (not (arr.(i) == arr.(j))) && contained_pre ?meters pres.(i) pres.(j) in
    let run f =
      match pool with
      | Some p when n >= parallel_threshold -> Tgd_exec.Pool.run_morsels p ~n f
      | Some _ | None ->
        for i = 0 to n - 1 do
          f i
        done
    in
    let sub_later = Array.make n false in
    run (fun i ->
        let rec scan j = j < n && (le i j || scan (j + 1)) in
        sub_later.(i) <- scan (i + 1));
    let discarded = Array.make n false in
    run (fun i ->
        if not sub_later.(i) then begin
          let rec scan j = j >= 0 && ((not sub_later.(j)) && le i j || scan (j - 1)) in
          discarded.(i) <- scan (i - 1)
        end);
    let out = ref [] in
    for i = n - 1 downto 0 do
      if not (sub_later.(i) || discarded.(i)) then out := arr.(i) :: !out
    done;
    !out
