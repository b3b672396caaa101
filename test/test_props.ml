(* Property-based tests (qcheck) on the core data structures and invariants:
   unification, containment, evaluation vs homomorphisms, chase vs datalog,
   SCC vs reachability, canonicalization invariance. *)

open Tgd_logic

let v = Term.var
let c = Term.const

(* ------------------------------------------------------------------ *)
(* Generators *)

(* A small fixed signature so that random atoms collide often enough to
   make unification and joins interesting: p/2, q/1, r/3. *)
let signature = [ ("p", 2); ("q", 1); ("r", 3) ]

let gen_pred = QCheck.Gen.oneofl signature

let gen_var = QCheck.Gen.map (fun i -> v (Printf.sprintf "X%d" i)) (QCheck.Gen.int_bound 4)
let gen_const = QCheck.Gen.map (fun i -> c (Printf.sprintf "c%d" i)) (QCheck.Gen.int_bound 3)

let gen_term = QCheck.Gen.frequency [ (3, gen_var); (1, gen_const) ]

let gen_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_term >>= fun args -> return (Atom.of_strings name args))

let gen_ground_atom =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    list_repeat arity gen_const >>= fun args -> return (Atom.of_strings name args))

let gen_body = QCheck.Gen.(int_range 1 4 >>= fun n -> list_repeat n gen_atom)

let gen_cq =
  QCheck.Gen.(
    gen_body >>= fun body ->
    let vars = Symbol.Set.elements (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body) in
    (if vars = [] then return []
     else
       int_bound (min 2 (List.length vars - 1)) >>= fun k ->
       return (List.filteri (fun i _ -> i <= k) vars))
    >>= fun answer_vars -> return (Cq.make ~name:"q" ~answer:(List.map (fun x -> Term.Var x) answer_vars) ~body))

let gen_instance_atoms = QCheck.Gen.(int_range 5 30 >>= fun n -> list_repeat n gen_ground_atom)

let arb_atom = QCheck.make ~print:Atom.to_string gen_atom
let arb_atom_pair = QCheck.make ~print:(fun (a, b) -> Atom.to_string a ^ " ~ " ^ Atom.to_string b) QCheck.Gen.(pair gen_atom gen_atom)
let arb_cq = QCheck.make ~print:Cq.to_string gen_cq
let arb_cq_pair =
  QCheck.make
    ~print:(fun (a, b) -> Cq.to_string a ^ " vs " ^ Cq.to_string b)
    QCheck.Gen.(pair gen_cq gen_cq)

(* ------------------------------------------------------------------ *)
(* Unification properties *)

let prop_mgu_unifies =
  QCheck.Test.make ~name:"mgu application makes atoms equal" ~count:500 arb_atom_pair
    (fun (a1, a2) ->
      match Unify.mgu a1 a2 with
      | None -> QCheck.assume_fail ()
      | Some s -> Atom.equal (Subst.apply_atom s a1) (Subst.apply_atom s a2))

let prop_unifiable_symmetric =
  QCheck.Test.make ~name:"unifiability is symmetric" ~count:500 arb_atom_pair (fun (a1, a2) ->
      Unify.unifiable a1 a2 = Unify.unifiable a2 a1)

let prop_mgu_idempotent =
  QCheck.Test.make ~name:"mgu application is idempotent" ~count:500 arb_atom_pair
    (fun (a1, a2) ->
      match Unify.mgu a1 a2 with
      | None -> QCheck.assume_fail ()
      | Some s ->
        let once = Subst.apply_atom s a1 in
        Atom.equal once (Subst.apply_atom s once))

let prop_self_unifiable =
  QCheck.Test.make ~name:"every atom unifies with itself" ~count:200 arb_atom (fun a ->
      Unify.unifiable a a)

(* ------------------------------------------------------------------ *)
(* Containment properties *)

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment is reflexive" ~count:200 arb_cq (fun q ->
      Containment.contained q q)

let prop_containment_transitive_witness =
  QCheck.Test.make ~name:"containment is transitive" ~count:200
    (QCheck.make QCheck.Gen.(triple gen_cq gen_cq gen_cq))
    (fun (q1, q2, q3) ->
      if Containment.contained q1 q2 && Containment.contained q2 q3 then
        Containment.contained q1 q3
      else QCheck.assume_fail ())

let prop_canonical_equivalent =
  QCheck.Test.make ~name:"canonical form is equivalent to the query" ~count:200 arb_cq (fun q ->
      Containment.equivalent q (Cq.canonical q))

let prop_extra_atom_contained =
  QCheck.Test.make ~name:"adding a body atom specialises" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_cq gen_atom))
    (fun (q, extra) ->
      let q' = Cq.make ~name:"q'" ~answer:q.Cq.answer ~body:(extra :: q.Cq.body) in
      Containment.contained q' q)

let prop_contained_matches_reference =
  (* The filtered/cached engine must agree with the seed implementation. *)
  QCheck.Test.make ~name:"filtered containment agrees with reference" ~count:1000 arb_cq_pair
    (fun (q1, q2) ->
      Containment.contained q1 q2 = Containment.contained_reference q1 q2
      &&
      let p1 = Containment.precompute q1 and p2 = Containment.precompute q2 in
      Containment.contained_pre p1 p2 = Containment.contained_reference q1 q2)

let prop_minimize_matches_reference =
  QCheck.Test.make ~name:"minimize_ucq equals the reference sweep" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) gen_cq))
    (fun ucq ->
      let ar = Cq.arity (List.hd ucq) in
      let ucq = List.filter (fun q -> Cq.arity q = ar) ucq in
      let m = Containment.minimize_ucq ucq in
      let r = Containment.minimize_ucq_reference ucq in
      List.length m = List.length r && List.for_all2 Cq.equal m r)

let prop_minimize_preserves =
  QCheck.Test.make ~name:"minimize_ucq preserves UCQ semantics" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 5) gen_cq))
    (fun ucq ->
      (* All queries in the union must share an arity for this to be a UCQ;
         restrict to the arity of the first. *)
      let ar = Cq.arity (List.hd ucq) in
      let ucq = List.filter (fun q -> Cq.arity q = ar) ucq in
      let m = Containment.minimize_ucq ucq in
      Containment.ucq_contained m ucq && Containment.ucq_contained ucq m)

(* ------------------------------------------------------------------ *)
(* Planner: Join_plan against a verbatim copy of the planner as it was
   before the prepare/order split (test/join_plan_reference.ml). The one
   rule added since, an atom with every position fixed goes before any
   atom that binds, is the only difference allowed. *)

type plan_case = {
  body : Atom.t list;
  sizes : int array;
  init : Symbol.t list;
  forced : int;
}

let gen_plan_case =
  QCheck.Gen.(
    let var = map (fun i -> v (Printf.sprintf "X%d" i)) (int_bound 7) in
    let term = frequency [ (4, var); (1, gen_const) ] in
    let atom =
      gen_pred >>= fun (name, arity) ->
      list_repeat arity term >>= fun args -> return (Atom.of_strings name args)
    in
    int_range 1 8 >>= fun n ->
    list_repeat n atom >>= fun body ->
    array_repeat n (int_bound 5) >>= fun sizes ->
    list_repeat 8 bool >>= fun bits ->
    int_range (-1) (n - 1) >>= fun forced ->
    let init =
      List.concat (List.mapi (fun i b -> if b then [ Symbol.intern (Printf.sprintf "X%d" i) ] else []) bits)
    in
    return { body; sizes; init; forced })

let print_plan_case pc =
  Printf.sprintf "%s sizes=[%s] init={%s} forced=%d"
    (String.concat ", " (List.map Atom.to_string pc.body))
    (String.concat ";" (Array.to_list (Array.map string_of_int pc.sizes)))
    (String.concat "," (List.map Symbol.name pc.init))
    pc.forced

(* Does a plan, given as (index, atom, binds anything) per step, ever place
   an atom that binds while another atom waits with every position fixed?
   The forced atom is exempt. *)
let defers_a_check pc steps =
  let bound = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.replace bound x ()) pc.init;
  let fixed (a : Atom.t) =
    Array.for_all (function Term.Const _ -> true | Term.Var x -> Hashtbl.mem bound x) a.Atom.args
  in
  let rec go = function
    | [] -> false
    | (index, (atom : Atom.t), binds) :: later ->
      (binds && index <> pc.forced && List.exists (fun (_, a, _) -> fixed a) later)
      || begin
           Array.iter (function Term.Var x -> Hashtbl.replace bound x () | Term.Const _ -> ()) atom.Atom.args;
           go later
         end
  in
  go steps

let prop_join_plan_matches_reference =
  QCheck.Test.make ~name:"Join_plan.make equals the reference planner" ~count:2000
    (QCheck.make ~print:print_plan_case gen_plan_case)
    (fun pc ->
      let init v = List.exists (Symbol.equal v) pc.init in
      let arg = function
        | Join_plan_reference.Const c -> Join_plan.Const c
        | Join_plan_reference.Bind x -> Join_plan.Bind x
        | Join_plan_reference.Check x -> Join_plan.Check x
      in
      let reference =
        Array.to_list
          (Array.map
             (fun (s : Join_plan_reference.step) -> (s.index, s.atom, s.probe, Array.map arg s.args))
             (Join_plan_reference.make ~init ~forced:pc.forced ~sizes:pc.sizes pc.body))
      in
      let plan =
        Array.to_list
          (Array.map
             (fun (s : Join_plan.step) -> (s.index, s.atom, s.probe, s.args))
             (Join_plan.make ~init ~forced:pc.forced ~sizes:pc.sizes pc.body))
      in
      let shape =
        List.map (fun (index, atom, _, args) ->
            (index, atom, Array.exists (function Join_plan.Bind _ -> true | _ -> false) args))
      in
      if defers_a_check pc (shape reference) then not (defers_a_check pc (shape plan))
      else plan = reference)

(* The homomorphism search memoizes orders by the sizes' dense ranks:
   ranks must choose the order the raw sizes choose. *)
let prop_ranked_sizes_same_order =
  QCheck.Test.make ~name:"ranked sizes choose the raw sizes' order" ~count:2000
    (QCheck.make ~print:print_plan_case
       QCheck.Gen.(
         gen_plan_case >>= fun pc ->
         array_repeat (Array.length pc.sizes) (oneof [ int_bound 5; int_bound 1_000_000 ])
         >>= fun sizes -> return { pc with sizes }))
    (fun pc ->
      let p = Join_plan.prepare ~init:(fun v -> List.exists (Symbol.equal v) pc.init) pc.body in
      Join_plan.order ~forced:pc.forced ~sizes:pc.sizes p
      = Join_plan.order ~forced:pc.forced ~sizes:(Join_plan.ranks pc.sizes) p)

(* ------------------------------------------------------------------ *)
(* Evaluation vs homomorphism cross-validation *)

let prop_eval_matches_homomorphisms =
  QCheck.Test.make ~name:"Eval.cq agrees with the homomorphism search" ~count:100
    (QCheck.make QCheck.Gen.(pair gen_cq gen_instance_atoms))
    (fun (q, facts) ->
      let inst = Tgd_db.Instance.of_atoms facts in
      let via_eval = Tgd_conformance.Eval.cq inst q in
      (* Independent implementation: enumerate homomorphisms over the atom
         list and build answer tuples. *)
      let target = Homomorphism.target_of_atoms facts in
      let acc = ref [] in
      Homomorphism.iter
        (fun m ->
          let tuple =
            Array.of_list
              (List.map
                 (fun t ->
                   match t with
                   | Term.Const cst -> Tgd_db.Value.Const cst
                   | Term.Var var -> (
                     match Symbol.Map.find_opt var m with
                     | Some (Term.Const cst) -> Tgd_db.Value.Const cst
                     | Some (Term.Var _) | None -> failwith "non-ground image"))
                 q.Cq.answer)
          in
          acc := tuple :: !acc)
        q.Cq.body target;
      let via_hom = List.sort_uniq Tgd_db.Tuple.compare !acc in
      List.length via_eval = List.length via_hom
      && List.for_all2 Tgd_db.Tuple.equal via_eval via_hom)

(* ------------------------------------------------------------------ *)
(* Compiled evaluation against the boxed oracle *)

(* An instance is built by a random sequence of writes: inserts (values
   include nulls), seals, copy-on-write copies (the copy's first write
   freezes the original's tail) and EGD-style substitutions. A random
   query then runs compiled — optionally with some variables bound and
   one atom forced over given rows — and more rows are inserted between
   its compile and its run. It must report exactly the matches, with
   multiplicity, that the oracle [Eval.bindings] finds on the instance as
   it was at the compile. *)
type write =
  | Ins of Symbol.t * Tgd_db.Tuple.t
  | Seal
  | Copy
  | Subst of int * Tgd_db.Value.t

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Tgd_db.Value.const (Printf.sprintf "c%d" i)) (int_bound 3));
        (1, map (fun n -> Tgd_db.Value.Null (n + 1)) (int_bound 2));
      ])

let gen_fact =
  QCheck.Gen.(
    gen_pred >>= fun (name, arity) ->
    map (fun vs -> (Symbol.intern name, Array.of_list vs)) (list_repeat arity gen_value))

let gen_write =
  QCheck.Gen.(
    frequency
      [
        (10, map (fun (p, t) -> Ins (p, t)) gen_fact);
        (1, return Seal);
        (1, return Copy);
        (1, map2 (fun n v -> Subst (n + 1, v)) (int_bound 2) gen_value);
      ])

let show_write = function
  | Ins (p, t) -> Format.asprintf "+%s%a" (Symbol.name p) Tgd_db.Tuple.pp t
  | Seal -> "seal"
  | Copy -> "copy"
  | Subst (n, v) -> Printf.sprintf "_n%d:=%s" n (Tgd_db.Value.to_string v)

let apply_write inst = function
  | Ins (p, t) -> ignore (Tgd_db.Instance.add_fact inst p t); inst
  | Seal -> Tgd_db.Instance.seal inst; inst
  | Copy -> Tgd_db.Instance.copy inst
  | Subst (n, v) ->
    ignore (Tgd_db.Instance.substitute inst ~from_:(Tgd_db.Value.Null n) ~to_:v);
    inst

let gen_compiled_case =
  QCheck.Gen.(
    list_size (int_range 0 40) gen_write >>= fun writes ->
    gen_cq >>= fun q ->
    let vars = Symbol.Set.elements (Cq.vars q) in
    list_repeat (List.length vars) (opt ~ratio:0.3 gen_value) >>= fun bound ->
    let bound = List.filter_map (fun (x, v) -> Option.map (fun v -> (x, v)) v) (List.combine vars bound) in
    opt ~ratio:0.4
      (int_bound (List.length q.Cq.body - 1) >>= fun i ->
       let a = List.nth q.Cq.body i in
       map
         (fun ts -> (i, List.map (fun (_, t) -> t) ts))
         (list_size (int_bound 5)
            (oneof [ map (fun vs -> (a.Atom.pred, Array.of_list vs)) (list_repeat (Atom.arity a) gen_value); gen_fact ])))
    >>= fun forced ->
    list_size (int_bound 8) (map (fun (p, t) -> Ins (p, t)) gen_fact) >>= fun later ->
    return (writes, q, bound, forced, later))

let print_compiled_case (writes, q, bound, forced, later) =
  Printf.sprintf "writes [%s]; query %s; bound [%s]; forced %s; later [%s]"
    (String.concat "; " (List.map show_write writes))
    (Cq.to_string q)
    (String.concat "; "
       (List.map (fun (x, v) -> Symbol.name x ^ "=" ^ Tgd_db.Value.to_string v) bound))
    (match forced with
    | None -> "none"
    | Some (i, ts) ->
      Printf.sprintf "atom %d over [%s]" i
        (String.concat "; " (List.map (Format.asprintf "%a" Tgd_db.Tuple.pp) ts)))
    (String.concat "; " (List.map show_write later))

let prop_compiled_matches_oracle =
  QCheck.Test.make ~name:"compiled evaluation reports the oracle's matches" ~count:500
    (QCheck.make ~print:print_compiled_case gen_compiled_case)
    (fun (writes, q, bound, forced, later) ->
      let inst = List.fold_left apply_write (Tgd_db.Instance.create ()) writes in
      let answer lookup =
        Array.of_list
          (List.map
             (function Term.Const k -> Tgd_db.Value.Const k | Term.Var x -> lookup x)
             q.Cq.answer)
      in
      let expected = ref [] in
      let init = List.fold_left (fun m (x, v) -> Symbol.Map.add x v m) Symbol.Map.empty bound in
      Tgd_conformance.Eval.bindings ~init ?forced inst q.Cq.body (fun env ->
          expected := answer (fun x -> Symbol.Map.find x env) :: !expected);
      (* The compiled side scans the forced rows as one coded block of the
         atom's arity. *)
      let forced =
        Option.map
          (fun (i, ts) ->
            let arity = Atom.arity (List.nth q.Cq.body i) in
            let ts = List.filter (fun t -> Array.length t = arity) ts in
            let col j = Array.of_list (List.map (fun t -> Tgd_db.Value.code t.(j)) ts) in
            let cols = Array.init arity col in
            (i, Result.get_ok (Tgd_db.Columnar.of_columns ~arity ~nrows:(List.length ts) cols)))
          forced
      in
      let plan = Tgd_db.Col_eval.compile ~bound:(List.map fst bound) ?forced inst q in
      let inst = List.fold_left apply_write inst later in
      ignore inst;
      let got = ref [] in
      Tgd_db.Col_eval.iter
        ~bound:(Array.of_list (List.map (fun (_, v) -> Tgd_db.Value.code v) bound))
        plan
        (fun codes -> got := Array.map Tgd_db.Value.decode codes :: !got);
      let sort = List.sort Tgd_db.Tuple.compare in
      List.equal Tgd_db.Tuple.equal (sort !expected) (sort !got))

(* ------------------------------------------------------------------ *)
(* Relation against a reference list of rows                           *)

(* Two handles, [a] and [b], start as an empty relation and its copy;
   later copies make [b] a {!Relation.copy} of [a]. A write to a shared handle first replaces it
   by a private copy, as {!Instance} does. The reference is each side's
   rows as a list in the order the relation must iterate them: inserts
   append, a seal keeps the order, a substitution keeps the untouched
   rows and appends the rewritten ones that are new. *)
type rel_op =
  | R_ins of bool * Tgd_db.Tuple.t (* [true]: side [b] *)
  | R_mem of bool * Tgd_db.Tuple.t
  | R_copy
  | R_seal of bool
  | R_subst of bool * int * Tgd_db.Value.t

let show_rel_op = function
  | R_ins (b, t) -> Format.asprintf "%s+%a" (if b then "b" else "a") Tgd_db.Tuple.pp t
  | R_mem (b, t) -> Format.asprintf "%s?%a" (if b then "b" else "a") Tgd_db.Tuple.pp t
  | R_copy -> "b:=copy a"
  | R_seal b -> if b then "b seal" else "a seal"
  | R_subst (b, n, v) ->
    Printf.sprintf "%s _n%d:=%s" (if b then "b" else "a") n (Tgd_db.Value.to_string v)

let gen_rel_op =
  QCheck.Gen.(
    let tuple = map (fun (x, y) -> [| x; y |]) (pair gen_value gen_value) in
    frequency
      [
        (8, map2 (fun b t -> R_ins (b, t)) bool tuple);
        (3, map2 (fun b t -> R_mem (b, t)) bool tuple);
        (1, return R_copy);
        (2, map (fun b -> R_seal b) bool);
        (2, map3 (fun b n v -> R_subst (b, n + 1, v)) bool (int_bound 2) gen_value);
      ])

let prop_relation_matches_reference =
  QCheck.Test.make ~name:"Relation = reference rows under copy-on-write" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_rel_op ops))
       QCheck.Gen.(list_size (int_bound 40) gen_rel_op))
    (fun ops ->
      let module R = Tgd_db.Relation in
      let first = R.create ~arity:2 in
      let rel = [| first; R.copy first |] and model = [| []; [] |] in
      let side b = if b then 1 else 0 in
      let own i = if R.shared rel.(i) then rel.(i) <- R.copy rel.(i) in
      let has i t = List.exists (Tgd_db.Tuple.equal t) model.(i) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (function
          | R_ins (b, t) ->
            let i = side b in
            let fresh = not (has i t) in
            if fresh then begin
              own i;
              model.(i) <- model.(i) @ [ t ]
            end;
            if fresh || not (R.shared rel.(i)) then expect (R.insert rel.(i) t = fresh)
          | R_mem (b, t) -> expect (R.mem rel.(side b) t = has (side b) t)
          | R_copy ->
            rel.(1) <- R.copy rel.(0);
            model.(1) <- model.(0)
          | R_seal b ->
            let i = side b in
            if R.pending rel.(i) > 0 then own i;
            R.seal rel.(i);
            expect (R.pending rel.(i) = 0)
          | R_subst (b, n, v) ->
            let i = side b and from_ = Tgd_db.Value.Null n in
            if R.mentions rel.(i) from_ then own i;
            let touched, kept =
              List.partition (Array.exists (Tgd_db.Value.equal from_)) model.(i)
            in
            let fresh =
              List.fold_left
                (fun acc t ->
                  let t' = Array.map (fun x -> if Tgd_db.Value.equal x from_ then v else x) t in
                  if List.exists (Tgd_db.Tuple.equal t') (kept @ acc) then acc else acc @ [ t' ])
                [] touched
            in
            model.(i) <- kept @ fresh;
            let got = R.substitute rel.(i) ~from_ ~to_:v in
            expect (List.map (Array.map Tgd_db.Value.decode) got = fresh))
        ops;
      (* Each side iterates its rows exactly once, in row order, and its
         probes agree. *)
      Array.iteri
        (fun i r ->
          expect (R.to_list r = model.(i));
          expect (R.cardinality r = List.length model.(i));
          List.iter (fun t -> expect (R.mem r t)) model.(i);
          List.iter
            (fun v ->
              expect
                (R.lookup r ~pos:1 v
                = List.filter (fun t -> Tgd_db.Value.equal t.(1) v) model.(i)))
            [ Tgd_db.Value.const "c0"; Tgd_db.Value.Null 1 ])
        rel;
      !ok)

(* ------------------------------------------------------------------ *)
(* Chase vs Datalog on existential-free programs *)

let gen_datalog_rule =
  QCheck.Gen.(
    gen_body >>= fun body ->
    let vars =
      Symbol.Set.elements
        (List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty body)
    in
    gen_pred >>= fun (name, arity) ->
    (* head arguments drawn from body variables (or constants if none) *)
    list_repeat arity (if vars = [] then gen_const else QCheck.Gen.map (fun i -> Term.Var (List.nth vars (i mod List.length vars))) (int_bound 10))
    >>= fun args -> return (Tgd.make ?name:None ~body ~head:[ Atom.of_strings name args ]))

let gen_datalog_program =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    list_repeat n gen_datalog_rule >>= fun rules -> return (Program.make_exn rules))

let prop_chase_equals_datalog =
  QCheck.Test.make ~name:"restricted chase = datalog saturation (no existentials)" ~count:60
    (QCheck.make QCheck.Gen.(pair gen_datalog_program gen_instance_atoms))
    (fun (p, facts) ->
      let i1 = Tgd_db.Instance.of_atoms facts in
      let i2 = Tgd_db.Instance.of_atoms facts in
      let gov =
        Tgd_exec.Governor.create
          ~budget:
            {
              Tgd_exec.Budget.unlimited with
              Tgd_exec.Budget.chase_rounds = Some 100;
              chase_facts = Some 50_000;
            }
          ()
      in
      (* The naive reference chase against the production loop's Datalog
         path, so the two sides share no fixpoint code. *)
      let stats = Tgd_conformance.Naive_chase.run ~gov p i1 in
      ignore (Tgd_chase.Chase.run ~keys:Tgd_chase.Chase.Datalog_keys p i2);
      stats.Tgd_chase.Chase.outcome = Tgd_chase.Chase.Terminated
      && Tgd_db.Instance.cardinality i1 = Tgd_db.Instance.cardinality i2
      && List.for_all
           (fun (pred, t) ->
             match Tgd_db.Instance.relation i2 pred with
             | None -> false
             | Some rel -> Tgd_db.Relation.mem rel t)
           (Tgd_db.Instance.facts i1))

(* ------------------------------------------------------------------ *)
(* Graph properties *)

let gen_graph =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_size (int_range 0 16) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun edges ->
    return (n, edges))

let prop_scc_is_mutual_reachability =
  QCheck.Test.make ~name:"same SCC iff mutually reachable" ~count:200
    (QCheck.make
       ~print:(fun (n, e) ->
         Printf.sprintf "n=%d edges=%s" n
           (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) e)))
       gen_graph)
    (fun (n, edges) ->
      let g = Tgd_graph.Int_digraph.make ~n ~edges:(Array.of_list edges) in
      let comp, _ = Tgd_graph.Int_digraph.scc g in
      let reach = Array.init n (fun i -> Tgd_graph.Int_digraph.reachable g i) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let mutual = reach.(i).(j) && reach.(j).(i) in
          if (comp.(i) = comp.(j)) <> mutual then ok := false
        done
      done;
      !ok)

let prop_simple_cycles_within_scc =
  QCheck.Test.make ~name:"every simple cycle stays inside one SCC" ~count:200
    (QCheck.make gen_graph)
    (fun (n, edges) ->
      let g = Tgd_graph.Int_digraph.make ~n ~edges:(Array.of_list edges) in
      let comp, _ = Tgd_graph.Int_digraph.scc g in
      Tgd_graph.Int_digraph.simple_cycles ~limit:500 g
      |> List.for_all (fun cycle ->
             List.for_all
               (fun e ->
                 let s, d = Tgd_graph.Int_digraph.edge g e in
                 comp.(s) = comp.(d))
               cycle))

(* ------------------------------------------------------------------ *)
(* P-node canonicalization invariance *)

let prop_p_node_renaming_invariant =
  QCheck.Test.make ~name:"P-node canonical form is renaming-invariant" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_atom (int_bound 1000)))
    (fun (sigma, salt) ->
      (* Rename all variables through a salted injective map. *)
      let rename t =
        match t with
        | Term.Const _ -> t
        | Term.Var x -> Term.var (Printf.sprintf "R%d_%s" salt (Symbol.name x))
      in
      let sigma' = Atom.apply rename sigma in
      let n1 = Tgd_core.P_node.canonicalize ~sigma ~context:[ sigma ] ~tracked:None in
      let n2 = Tgd_core.P_node.canonicalize ~sigma:sigma' ~context:[ sigma' ] ~tracked:None in
      Tgd_core.P_node.equal n1 n2)

(* ------------------------------------------------------------------ *)
(* Parser robustness and round-tripping *)

let prop_parser_never_crashes =
  QCheck.Test.make ~name:"parser returns Ok/Error, never raises" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      match Tgd_parser.Parser.parse_string s with Ok _ | Error _ -> true)

let prop_parser_structured_noise =
  (* Noise built from the grammar's own token shapes finds deeper paths than
     raw bytes. *)
  let token =
    QCheck.Gen.oneofl
      [ "p"; "q1"; "X"; "Y2"; "_w"; "("; ")"; "["; "]"; ","; "."; "->"; ":-"; "\"lit\"";
        "falsum"; "%c\n"; " " ]
  in
  let gen = QCheck.Gen.(map (String.concat "") (list_size (int_range 0 25) token)) in
  QCheck.Test.make ~name:"parser survives token soup" ~count:500
    (QCheck.make ~print:(fun s -> s) gen)
    (fun s -> match Tgd_parser.Parser.parse_string s with Ok _ | Error _ -> true)

let prop_program_roundtrip =
  (* Any generated simple program survives print -> parse with the same
     rendering. *)
  QCheck.Test.make ~name:"program print/parse round-trip" ~count:60
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let rng = Tgd_gen.Rng.create seed in
      let p =
        Tgd_gen.Gen_tgd.random_program ~name:"rt" rng
          { Tgd_gen.Gen_tgd.default_config with n_rules = 4; constant_rate = 0.2 }
      in
      let text = Tgd_parser.Printer.program_to_string p in
      match Tgd_parser.Parser.parse_string text with
      | Error _ -> false
      | Ok doc -> (
        match Tgd_parser.Parser.program_of_document ~name:"rt" doc with
        | Error _ -> false
        | Ok p' -> String.equal text (Tgd_parser.Printer.program_to_string p')))

(* ------------------------------------------------------------------ *)
(* OBDA: unfolding vs materialization *)

let prop_unfold_equals_materialize =
  (* For random single-atom-source mappings and random source data,
     evaluating the unfolded query equals querying the materialized ABox. *)
  QCheck.Test.make ~name:"mapping unfolding = ABox materialization" ~count:60
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let rng = Tgd_gen.Rng.create seed in
      (* source schema: s0/2, s1/3; ontology schema: o0/1, o1/2 *)
      let src_pred = [ ("s0", 2); ("s1", 3) ] in
      let tgt_pred = [ ("o0", 1); ("o1", 2) ] in
      let var i = Term.var (Printf.sprintf "V%d" i) in
      let random_mapping k =
        let sname, sarity = List.nth src_pred (Tgd_gen.Rng.int rng 2) in
        let tname, tarity = List.nth tgt_pred (Tgd_gen.Rng.int rng 2) in
        let source = [ Atom.of_strings sname (List.init sarity var) ] in
        (* target arguments are randomly chosen source variables *)
        let target = Atom.of_strings tname (List.init tarity (fun _ -> var (Tgd_gen.Rng.int rng sarity))) in
        Tgd_obda.Mapping.make ~name:(Printf.sprintf "pm%d" k) ~source ~target
      in
      let mappings = List.init 4 random_mapping in
      let source_db =
        let inst = Tgd_db.Instance.create () in
        for _ = 1 to 20 do
          let sname, sarity = List.nth src_pred (Tgd_gen.Rng.int rng 2) in
          let t =
            Array.init sarity (fun _ -> Tgd_db.Value.const (Printf.sprintf "d%d" (Tgd_gen.Rng.int rng 5)))
          in
          ignore (Tgd_db.Instance.add_fact inst (Symbol.intern sname) t)
        done;
        inst
      in
      let abox = Tgd_obda.Mapping.materialize mappings source_db in
      let queries =
        [
          Cq.make ~name:"p1" ~answer:[ var 0 ] ~body:[ Atom.of_strings "o0" [ var 0 ] ];
          Cq.make ~name:"p2" ~answer:[ var 0 ]
            ~body:[ Atom.of_strings "o1" [ var 0; var 1 ] ];
          Cq.make ~name:"p3" ~answer:[ var 0 ]
            ~body:[ Atom.of_strings "o0" [ var 0 ]; Atom.of_strings "o1" [ var 0; var 1 ] ];
        ]
      in
      List.for_all
        (fun q ->
          let via_unfold = Tgd_conformance.Eval.ucq source_db (Tgd_obda.Unfold.cq mappings q) in
          let via_abox = Tgd_conformance.Eval.cq abox q in
          List.length via_unfold = List.length via_abox
          && List.for_all2 Tgd_db.Tuple.equal via_unfold via_abox)
        queries)

(* ------------------------------------------------------------------ *)
(* Rewriting determinism across domain counts *)

let canonical_set ucq = List.sort Cq.compare (List.map Cq.canonical ucq)

let equal_canonical_sets u1 u2 =
  let s1 = canonical_set u1 and s2 = canonical_set u2 in
  List.length s1 = List.length s2 && List.for_all2 Cq.equal s1 s2

let test_rewrite_domain_determinism () =
  (* The UCQ produced by the rewriting engine must not depend on how many
     domains minimize the kept set. *)
  let cases =
    List.map (fun q -> (Tgd_gen.University.ontology, q)) Tgd_gen.University.queries
    @ [
        ( Tgd_core.Paper_examples.example1,
          Cq.make ~name:"q" ~answer:[ v "X" ]
            ~body:[ Atom.of_strings "r" [ v "X"; v "Y" ] ] );
        ( Tgd_core.Paper_examples.example3,
          Cq.make ~name:"q" ~answer:[ v "X" ]
            ~body:[ Atom.of_strings "s" [ v "X"; v "Y"; v "Z" ] ] );
      ]
  in
  List.iter
    (fun (p, q) ->
      let run d =
        let config = { Tgd_rewrite.Rewrite.default_config with domains = Some d } in
        (Tgd_rewrite.Rewrite.ucq ~config p q).Tgd_rewrite.Rewrite.ucq
      in
      let sequential = run 1 and parallel = run 4 in
      Alcotest.(check bool)
        (Printf.sprintf "domains=1 and domains=4 agree on %s" q.Cq.name)
        true
        (equal_canonical_sets sequential parallel))
    cases

(* ------------------------------------------------------------------ *)
(* Rng properties *)

let prop_rng_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let g = Tgd_gen.Rng.create seed in
      let x = Tgd_gen.Rng.int g bound in
      x >= 0 && x < bound)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "unification",
        List.map to_alcotest
          [ prop_mgu_unifies; prop_unifiable_symmetric; prop_mgu_idempotent; prop_self_unifiable ]
      );
      ( "containment",
        List.map to_alcotest
          [
            prop_containment_reflexive;
            prop_containment_transitive_witness;
            prop_canonical_equivalent;
            prop_extra_atom_contained;
            prop_contained_matches_reference;
            prop_minimize_matches_reference;
            prop_minimize_preserves;
          ] );
      ( "rewrite-determinism",
        [ Alcotest.test_case "domains=1 vs domains=4" `Quick test_rewrite_domain_determinism ] );
      ( "planner",
        List.map to_alcotest [ prop_join_plan_matches_reference; prop_ranked_sizes_same_order ] );
      ( "evaluation",
        List.map to_alcotest [ prop_eval_matches_homomorphisms; prop_compiled_matches_oracle ] );
      ("relation", List.map to_alcotest [ prop_relation_matches_reference ]);
      ("chase", List.map to_alcotest [ prop_chase_equals_datalog ]);
      ( "graphs",
        List.map to_alcotest [ prop_scc_is_mutual_reachability; prop_simple_cycles_within_scc ] );
      ("p-node", List.map to_alcotest [ prop_p_node_renaming_invariant ]);
      ( "parser",
        List.map to_alcotest
          [ prop_parser_never_crashes; prop_parser_structured_noise; prop_program_roundtrip ] );
      ("obda", List.map to_alcotest [ prop_unfold_equals_materialize ]);
      ("rng", List.map to_alcotest [ prop_rng_bounds ]);
    ]
