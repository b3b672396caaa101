open Tgd_logic
open Tgd_exec

type outcome =
  | Complete
  | Truncated of Governor.diagnostics

type stats = {
  patterns : int;
  rules : int;
  base_rules : int;
  explored : int;
  affected : int;
  oversize_dropped : int;
}

type result = {
  program : Program.t;
  goal : Symbol.t;
  arity : int;
  nonrecursive : bool;
  outcome : outcome;
  stats : stats;
}

type config = {
  max_patterns : int;
  max_body_atoms : int;
}

let default_config = { max_patterns = 50_000; max_body_atoms = 64 }

let key_body_atoms = "rewrite.datalog.body_atoms"

(* Predicate positions, 0-based. *)
module Pos = struct
  type t = Symbol.t * int

  let compare (p, i) (q, j) =
    match Symbol.compare p q with 0 -> Int.compare i j | c -> c
end

module Pos_set = Set.Make (Pos)

(* The affected positions of a rule set (Cali–Gottlob–Kifer): the least set
   containing every existential head position, closed under propagation — a
   frontier variable whose body occurrences are all affected exports its
   head positions. In any chase, only affected positions can hold labeled
   nulls; every other position is constant-valued. *)
let affected_positions rules =
  let head_positions keep acc (r : Tgd.t) =
    List.fold_left
      (fun acc (h : Atom.t) ->
        let acc = ref acc in
        Array.iteri
          (fun i t ->
            match t with
            | Term.Var v when keep r v -> acc := Pos_set.add (h.Atom.pred, i) !acc
            | _ -> ())
          h.Atom.args;
        !acc)
      acc r.Tgd.head
  in
  let base =
    List.fold_left
      (head_positions (fun r v -> Symbol.Set.mem v (Tgd.existential_head_vars r)))
      Pos_set.empty rules
  in
  let body_all_affected aff (r : Tgd.t) v =
    List.for_all
      (fun (a : Atom.t) ->
        let ok = ref true in
        Array.iteri
          (fun i t ->
            match t with
            | Term.Var u when Symbol.equal u v ->
              if not (Pos_set.mem (a.Atom.pred, i) aff) then ok := false
            | _ -> ())
          a.Atom.args;
        !ok)
      r.Tgd.body
  in
  let rec fix aff =
    let aff' =
      List.fold_left
        (head_positions (fun r v -> Symbol.Set.mem v (Tgd.frontier r) && body_all_affected aff r v))
        aff rules
    in
    if Pos_set.cardinal aff' = Pos_set.cardinal aff then aff else fix aff'
  in
  fix base

(* Split a CQ body into components connected through null-capable variables:
   open variables all of whose occurrences sit at affected positions (the
   only variables a chase match may send to a labeled null). Variables
   occurring at some unaffected position are constant-valued in every chase
   match, so certain answers distribute over the components as a join on
   them — the decomposition that keeps the pattern space polynomial.

   Returns each component's atoms together with its bound variables: the
   component variables that are answer variables of the parent or shared
   with a sibling component, sorted for a deterministic intensional
   signature. *)
let decompose ~affected ~answer_vars (body : Atom.t list) =
  let atoms = Array.of_list body in
  let n = Array.length atoms in
  let all_affected : (Symbol.t, bool) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (a : Atom.t) ->
      Array.iteri
        (fun i t ->
          match t with
          | Term.Var v ->
            let here = Pos_set.mem (a.Atom.pred, i) affected in
            let prev = Option.value ~default:true (Hashtbl.find_opt all_affected v) in
            Hashtbl.replace all_affected v (prev && here)
          | Term.Const _ -> ())
        a.Atom.args)
    atoms;
  let null_capable v =
    (not (Symbol.Set.mem v answer_vars))
    && Option.value ~default:false (Hashtbl.find_opt all_affected v)
  in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  let anchor : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (a : Atom.t) ->
      Symbol.Set.iter
        (fun v ->
          if null_capable v then
            match Hashtbl.find_opt anchor v with
            | Some j -> union i j
            | None -> Hashtbl.add anchor v i)
        (Atom.vars a))
    atoms;
  let groups : (int, Atom.t list) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  for i = n - 1 downto 0 do
    let r = find i in
    (match Hashtbl.find_opt groups r with
    | Some g -> Hashtbl.replace groups r (atoms.(i) :: g)
    | None ->
      Hashtbl.add groups r [ atoms.(i) ];
      order := r :: !order)
  done;
  let comps =
    List.map
      (fun r ->
        let atoms = Hashtbl.find groups r in
        let vars =
          List.fold_left (fun s a -> Symbol.Set.union s (Atom.vars a)) Symbol.Set.empty atoms
        in
        (atoms, vars))
      (List.rev !order)
  in
  let occurrences : (Symbol.t, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, vars) ->
      Symbol.Set.iter
        (fun v ->
          Hashtbl.replace occurrences v
            (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences v)))
        vars)
    comps;
  List.map
    (fun (atoms, vars) ->
      let bound =
        Symbol.Set.filter
          (fun v ->
            Symbol.Set.mem v answer_vars
            || Option.value ~default:0 (Hashtbl.find_opt occurrences v) > 1)
          vars
      in
      (atoms, Symbol.Set.elements bound))
    comps

(* Pattern predicates are numbered per run, [__dlr#1 ... __dlr#k], so runs
   reuse spellings and interning is bounded by the largest program. Each
   artifact saturates its own copy of the instance, so two artifacts that
   share a spelling never meet. *)
let prefix = "__dlr#"
let pattern_pred = Symbol.numbered prefix
let goal_pred = Symbol.intern (prefix ^ "goal")
let intensional p = String.starts_with ~prefix (Symbol.name p)

let rewrite ?(config = default_config) ?gov program q0 =
  let gov = match gov with Some g -> g | None -> Governor.unlimited () in
  let tele = Governor.telemetry gov in
  let view = Program.rewriting program in
  let aux_preds = view.Program.aux in
  let affected = affected_positions view.Program.rules in
  (* Canonical pattern CQ (answer = bound variables) -> intensional symbol. *)
  let table : (Cq.t, Symbol.t) Hashtbl.t = Hashtbl.create 64 in
  let queue : (Symbol.t * Cq.t) Queue.t = Queue.create () in
  let emitted = ref [] in
  let n_rules = ref 0 in
  let n_base = ref 0 in
  let n_patterns = ref 0 in
  let explored = ref 0 in
  let dropped = ref 0 in
  let mentions_aux body =
    List.exists (fun (a : Atom.t) -> Symbol.Set.mem a.Atom.pred aux_preds) body
  in
  let emit_rule ~name ~body ~head =
    (* A step that reproduces its own pattern yields the tautology
       [p(x) :- p(x)]; skip rules whose head recurs in the body. *)
    if not (List.exists (Atom.equal head) body) then begin
      emitted := Tgd.make ~name ~body ~head:[ head ] :: !emitted;
      incr n_rules;
      Governor.charge gov Budget.key_rewrite_datalog_rules
    end
  in
  let install (sub : Cq.t) =
    let canon = Cq.canonical sub in
    match Hashtbl.find_opt table canon with
    | Some sym -> sym
    | None ->
      incr n_patterns;
      let sym = pattern_pred !n_patterns in
      Hashtbl.add table canon sym;
      Governor.charge gov Budget.key_rewrite_datalog_patterns;
      (* The extensional match of the pattern itself. Patterns over auxiliary
         predicates (single-head normalization artifacts) can never match
         data; their base rule is omitted. *)
      if not (mentions_aux canon.Cq.body) then begin
        incr n_base;
        emit_rule
          ~name:(Printf.sprintf "%s:base" (Symbol.name sym))
          ~body:canon.Cq.body
          ~head:(Atom.make sym canon.Cq.answer)
      end;
      Queue.add (sym, canon) queue;
      sym
  in
  (* Decompose a derived CQ into component patterns and emit
     [head_sym(answer) :- idb_C1(bound1), ..., idb_Cm(boundm)]. *)
  let emit_for ~name ~head_sym (c : Cq.t) =
    if List.length c.Cq.body > config.max_body_atoms then incr dropped
    else begin
      let comps = decompose ~affected ~answer_vars:(Cq.answer_vars c) c.Cq.body in
      let body =
        List.map
          (fun (atoms, bound) ->
            let answer = List.map (fun v -> Term.Var v) bound in
            let sym = install (Cq.make ?name:None ~answer ~body:atoms) in
            Atom.make sym answer)
          comps
      in
      emit_rule ~name ~body ~head:(Atom.make head_sym c.Cq.answer)
    end
  in
  let q0 = Cq.canonical q0 in
  let goal = goal_pred in
  emit_for ~name:(Printf.sprintf "%s:goal" (Symbol.name goal)) ~head_sym:goal q0;
  while Governor.live gov && not (Queue.is_empty queue) do
    if !n_patterns >= config.max_patterns then
      Governor.stop gov
        (Governor.Limit
           { counter = Budget.key_rewrite_datalog_patterns; limit = config.max_patterns });
    Telemetry.gauge tele "rewrite.datalog.queue" (Queue.length queue);
    if Governor.live gov then begin
      let sym, cq = Queue.pop queue in
      incr explored;
      let seen : (Cq.t, unit) Hashtbl.t = Hashtbl.create 16 in
      let consider c =
        let c = Cq.canonical c in
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          emit_for ~name:(Printf.sprintf "%s:step" (Symbol.name sym)) ~head_sym:sym c
        end
      in
      List.iter consider (Step.rewrite_steps view cq);
      List.iter consider (Step.factorizations cq)
    end
  done;
  (* An oversize derived CQ was dropped rather than decomposed: the program
     is still sound but may be incomplete — report it as a truncation so no
     caller mistakes the output for an exact rewriting. *)
  if !dropped > 0 && Governor.live gov then
    Governor.stop gov (Governor.Limit { counter = key_body_atoms; limit = config.max_body_atoms });
  let tgds = List.rev !emitted in
  let program = Program.make_exn ~name:"datalog-rewriting" tgds in
  (* Cycle check on the intensional dependency graph. *)
  let idb = Symbol.Table.create 64 in
  Hashtbl.iter (fun _ sym -> Symbol.Table.replace idb sym ()) table;
  Symbol.Table.replace idb goal ();
  let deps = Symbol.Table.create 64 in
  List.iter
    (fun (r : Tgd.t) ->
      let h = (List.hd r.Tgd.head).Atom.pred in
      let ds =
        List.fold_left
          (fun s (a : Atom.t) ->
            if Symbol.Table.mem idb a.Atom.pred then Symbol.Set.add a.Atom.pred s else s)
          Symbol.Set.empty r.Tgd.body
      in
      let prev = Option.value ~default:Symbol.Set.empty (Symbol.Table.find_opt deps h) in
      Symbol.Table.replace deps h (Symbol.Set.union prev ds))
    tgds;
  let state = Symbol.Table.create 64 in
  let rec has_cycle sym =
    match Symbol.Table.find_opt state sym with
    | Some 1 -> true
    | Some _ -> false
    | None ->
      Symbol.Table.replace state sym 1;
      let ds = Option.value ~default:Symbol.Set.empty (Symbol.Table.find_opt deps sym) in
      let cyclic = Symbol.Set.exists has_cycle ds in
      Symbol.Table.replace state sym 2;
      cyclic
  in
  let nonrecursive = not (Symbol.Table.fold (fun sym () acc -> acc || has_cycle sym) idb false) in
  Telemetry.set_counter tele "rewrite.datalog.patterns" !n_patterns;
  Telemetry.set_counter tele "rewrite.datalog.rules" !n_rules;
  let outcome =
    match Governor.stopped gov with
    | None -> Complete
    | Some _ -> Truncated (Option.get (Governor.diagnostics gov))
  in
  {
    program;
    goal;
    arity = Cq.arity q0;
    nonrecursive;
    outcome;
    stats =
      {
        patterns = !n_patterns;
        rules = !n_rules;
        base_rules = !n_base;
        explored = !explored;
        affected = Pos_set.cardinal affected;
        oversize_dropped = !dropped;
      };
  }

let goal_query r =
  let answer = List.init r.arity (fun i -> Term.Var (Cq.canonical_var i)) in
  Cq.make ~name:"goal" ~answer ~body:[ Atom.make r.goal answer ]

let pp ppf r =
  Format.fprintf ppf "@[<v>goal: %a/%d%s@,%a@]" Symbol.pp r.goal r.arity
    (if r.nonrecursive then " (nonrecursive)" else " (recursive)")
    Program.pp r.program
