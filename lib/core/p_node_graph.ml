open Tgd_logic

type label = {
  s : bool;
  m : bool;
  d : bool;
  i : bool;
}

module Label = struct
  type t = label

  let equal = ( = )

  let pp ppf l =
    let tags =
      (if l.s then [ "s" ] else [])
      @ (if l.m then [ "m" ] else [])
      @ (if l.d then [ "d" ] else [])
      @ if l.i then [ "i" ] else []
    in
    Format.pp_print_string ppf (String.concat "," tags)
end

module G = Tgd_graph.Digraph.Make (P_node) (Label)

type result = {
  graph : G.t;
  complete : bool;
}

(* Concrete variable names for canonical node variables; the rules come
   from the program's rewriting view, whose variables are all in the
   reserved pool ([#v0], ...), so these fixed names cannot be captured. *)
let z_var = Term.var "_z"

let concrete_term = function
  | P_atom.Z -> z_var
  | P_atom.X i -> Term.var (Printf.sprintf "_x%d" i)
  | P_atom.C c -> Term.Const c

let concrete_atom (a : P_atom.t) = Atom.make a.P_atom.pred (Array.to_list (Array.map concrete_term a.P_atom.args))

let node_vars context_atoms =
  List.fold_left (fun acc a -> Symbol.Set.union acc (Atom.vars a)) Symbol.Set.empty context_atoms

(* Occurrence positions of [v] in the node: [`In_sigma j] (0-based) or
   [`In_context]. One instance of sigma inside the context is skipped. *)
let occurrences ~sigma_c ~ctx_c v =
  let acc = ref [] in
  Array.iteri
    (fun j t -> match t with
      | Term.Var v' when Symbol.equal v v' -> acc := `In_sigma j :: !acc
      | Term.Var _ | Term.Const _ -> ())
    sigma_c.Atom.args;
  let sigma_skipped = ref false in
  List.iter
    (fun (a : Atom.t) ->
      if (not !sigma_skipped) && Atom.equal a sigma_c then sigma_skipped := true
      else if Symbol.Set.mem v (Atom.vars a) then acc := `In_context :: !acc)
    ctx_c;
  !acc

(* Admissibility of the unifier [s] of [sigma_c] with [alpha] for rule [r]:
   validate every existential head variable's class. *)
let admissible ~sigma_c ~ctx_c (r : Tgd.t) (alpha : Atom.t) s =
  let walk_var v = Subst.walk s (Term.Var v) in
  let frontier = Tgd.frontier r in
  let ex_heads = Symbol.Set.elements (Tgd.existential_head_vars r) in
  let nvars = node_vars ctx_c in
  let class_ok y =
    let rep = walk_var y in
    match rep with
    | Term.Const _ -> false
    | Term.Var _ ->
      let in_class v = Term.equal (walk_var v) rep in
      (not (Symbol.Set.exists in_class frontier))
      && (not (List.exists (fun y' -> (not (Symbol.equal y y')) && in_class y') ex_heads))
      && Symbol.Set.for_all
           (fun v ->
             if not (in_class v) then true
             else
               (* Every occurrence of [v] must be inside sigma, at a
                  position whose head term joins the class. *)
               List.for_all
                 (function
                   | `In_context -> false
                   | `In_sigma j -> (
                     match alpha.Atom.args.(j) with
                     | Term.Const _ -> false
                     | Term.Var hv -> Term.equal (walk_var hv) rep))
                 (occurrences ~sigma_c ~ctx_c v))
           nvars
  in
  List.for_all class_ok ex_heads

(* Syntactic per-body-atom flags of rule [r]. *)
let missing_flag (r : Tgd.t) (beta : Atom.t) =
  not (Symbol.Set.subset (Tgd.frontier r) (Atom.vars beta))

let isolated_flag (r : Tgd.t) (beta : Atom.t) =
  let others =
    List.filter (fun b -> not (b == beta)) r.Tgd.body
    |> List.fold_left (fun acc b -> Symbol.Set.union acc (Atom.vars b)) Symbol.Set.empty
  in
  let bad = Symbol.Set.union (Tgd.frontier r) others in
  Symbol.Set.is_empty (Symbol.Set.inter (Atom.vars beta) bad)

(* All edges produced by applying [r] (single-head) to node [u]. Returns
   (label, target node) pairs. *)
let apply_rule u (r : Tgd.t) =
  let alpha = match r.Tgd.head with [ a ] -> a | _ -> assert false in
  let sigma_c = concrete_atom u.P_node.atom in
  let ctx_c = List.map concrete_atom u.P_node.context in
  match Unify.mgu sigma_c alpha with
  | None -> []
  | Some s ->
    if not (admissible ~sigma_c ~ctx_c r alpha s) then []
    else begin
      let body_s = Subst.apply_atoms s r.Tgd.body in
      (* Followed variables: the continuation of z (if still free and
         unshared) and the fresh existential body variables. *)
      let continuation =
        if not (P_atom.has_z u.P_node.atom) then None
        else
          match Subst.walk s z_var with
          | Term.Const _ -> None
          | Term.Var w ->
            let shared =
              Symbol.Set.exists
                (fun v ->
                  (not (Symbol.equal v (match z_var with Term.Var z -> z | _ -> assert false)))
                  && Term.equal (Subst.walk s (Term.Var v)) (Term.Var w))
                (node_vars ctx_c)
            in
            if shared then None else Some w
      in
      let new_existentials = Symbol.Set.elements (Tgd.existential_body_vars r) in
      let followed = (match continuation with None -> [] | Some w -> [ w ]) @ new_existentials in
      let atoms_containing w =
        List.filter (fun (b : Atom.t) -> Symbol.Set.mem w (Atom.vars b)) body_s
      in
      let s_flag = List.exists (fun w -> List.length (atoms_containing w) >= 2) followed in
      let u_unbounded = P_node.unbounded_count u in
      let edges = ref [] in
      List.iter2
        (fun (beta0 : Atom.t) (beta_s : Atom.t) ->
          let m = missing_flag r beta0 in
          let i = isolated_flag r beta0 in
          let emit tracked =
            let v = P_node.canonicalize ~sigma:beta_s ~context:body_s ~tracked in
            let d = P_node.unbounded_count v > u_unbounded in
            edges := ({ s = s_flag; m; d; i }, v) :: !edges
          in
          (* Untracked abstraction of the generated atom. *)
          emit None;
          (* Tracked abstractions: one per followed variable present. *)
          List.iter
            (fun w -> if Symbol.Set.mem w (Atom.vars beta_s) then emit (Some w))
            followed)
        r.Tgd.body body_s;
      List.rev !edges
    end

let build ?(max_nodes = 50_000) p =
  let rules = (Program.rewriting p).Program.rules in
  let g = G.create () in
  let pending = Queue.create () in
  let discovered = P_node.Tbl.create 256 in
  let complete = ref true in
  let discover node =
    if not (P_node.Tbl.mem discovered node) then begin
      if P_node.Tbl.length discovered >= max_nodes then complete := false
      else begin
        P_node.Tbl.add discovered node ();
        G.add_node g node;
        Queue.add node pending
      end
    end
  in
  (* Initial nodes: the generic all-distinct-variables atom of every head
     predicate, with itself as context and nothing tracked. *)
  List.iter
    (fun (r : Tgd.t) ->
      List.iter
        (fun (a : Atom.t) ->
          let vars = List.mapi (fun i _ -> Term.var (Printf.sprintf "_g%d" i)) (Atom.args a) in
          let generic = Atom.make a.Atom.pred vars in
          discover (P_node.canonicalize ~sigma:generic ~context:[ generic ] ~tracked:None))
        r.Tgd.head)
    rules;
  while not (Queue.is_empty pending) do
    let u = Queue.pop pending in
    List.iter
      (fun r ->
        List.iter
          (fun (label, v) ->
            discover v;
            (* Do not add edges to nodes dropped by the budget. *)
            if P_node.Tbl.mem discovered v then G.add_edge g u label v)
          (apply_rule u r))
      rules
  done;
  { graph = g; complete = !complete }

let edge_list g =
  G.edges g
  |> List.map (fun (e : G.edge) ->
         ( P_node.to_string e.G.src,
           P_node.to_string e.G.dst,
           Format.asprintf "%a" Label.pp e.G.label ))
  |> List.sort compare
