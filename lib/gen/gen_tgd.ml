open Tgd_logic

type config = {
  n_predicates : int;
  max_arity : int;
  n_rules : int;
  max_body_atoms : int;
  max_head_atoms : int;
  existential_rate : float;
  constant_rate : float;
  repeat_rate : float;
  n_constants : int;
}

let default_config =
  {
    n_predicates = 6;
    max_arity = 3;
    n_rules = 8;
    max_body_atoms = 3;
    max_head_atoms = 1;
    existential_rate = 0.3;
    constant_rate = 0.0;
    repeat_rate = 0.0;
    n_constants = 3;
  }

(* A fixed predicate universe: p0..p{n-1}, arity chosen per predicate from a
   deterministic stream of the generator.

   The declared signature is explicit and first-class: every generator that
   emits atoms is closed over one signature value, so a predicate can never
   appear at two arities inside a generated workload. Before this was
   enforced, each call re-rolled the arities for the same interned symbols,
   and composing two draws (a program from one call, facts or extra rules
   from another) produced arity conflicts that only surfaced deep inside
   [Instance.relation_for] at load or eval time. *)
type signature = (Symbol.t * int) list

let signature rng cfg =
  List.init cfg.n_predicates (fun i ->
      (Symbol.intern (Printf.sprintf "p%d" i), 1 + Rng.int rng cfg.max_arity))

let closed_over sg p =
  List.for_all
    (fun (pred, arity) ->
      match List.assoc_opt pred sg with Some declared -> declared = arity | None -> false)
    (Program.predicates p)

let predicates ?signature:sg rng cfg =
  match sg with Some s -> Array.of_list s | None -> Array.of_list (signature rng cfg)

let var i = Term.var (Printf.sprintf "Y%d" i)

let random_rule rng cfg preds name =
  let next_var = ref 0 in
  let fresh_var () =
    incr next_var;
    var !next_var
  in
  let body_vars = ref [] in
  let body_atom () =
    let pred, arity = Rng.choose_array rng preds in
    let in_atom = ref [] in
    let args =
      List.init arity (fun _ ->
          if cfg.constant_rate > 0.0 && Rng.bool rng cfg.constant_rate then
            Term.const (Printf.sprintf "c%d" (Rng.int rng cfg.n_constants))
          else if !in_atom <> [] && Rng.bool rng cfg.repeat_rate then Rng.choose rng !in_atom
          else if !body_vars <> [] && Rng.bool rng 0.5 then Rng.choose rng !body_vars
          else begin
            let v = fresh_var () in
            body_vars := v :: !body_vars;
            v
          end)
    in
    List.iter
      (fun t -> match t with Term.Var _ -> in_atom := t :: !in_atom | Term.Const _ -> ())
      args;
    Atom.make pred args
  in
  let n_body = 1 + Rng.int rng cfg.max_body_atoms in
  let body = List.init n_body (fun _ -> body_atom ()) in
  let head_atom () =
    let pred, arity = Rng.choose_array rng preds in
    let args =
      List.init arity (fun _ ->
          if Rng.bool rng cfg.existential_rate || !body_vars = [] then fresh_var ()
          else Rng.choose rng !body_vars)
    in
    Atom.make pred args
  in
  let n_head = 1 + Rng.int rng cfg.max_head_atoms in
  let head = List.init n_head (fun _ -> head_atom ()) in
  Tgd.make ~name ~body ~head

let random_program ?(name = "random") ?signature:sg rng cfg =
  let preds = predicates ?signature:sg rng cfg in
  let rules =
    List.init cfg.n_rules (fun i -> random_rule rng cfg preds (Printf.sprintf "r%d" (i + 1)))
  in
  let p = Program.make_exn ~name rules in
  (match sg with
  | Some sg -> assert (closed_over sg p)
  | None -> ());
  p

let random_simple_program ?(name = "random_simple") ?signature:sg rng cfg =
  let cfg = { cfg with constant_rate = 0.0; repeat_rate = 0.0; max_head_atoms = 1 } in
  (* Reject rules with repeated variables inside an atom (the free generator
     can still repeat a body variable across positions of one atom through
     the body-variable pool). *)
  let preds = predicates ?signature:sg rng cfg in
  let rec simple_rule i =
    let r = random_rule rng cfg preds (Printf.sprintf "r%d" i) in
    if Tgd.is_simple r then r else simple_rule i
  in
  let rules = List.init cfg.n_rules (fun i -> simple_rule (i + 1)) in
  Program.make_exn ~name rules

let simple_linear ?(name = "linear") ?signature:sg rng ~n_rules ~n_predicates ~max_arity =
  let preds =
    match sg with
    | Some s -> Array.of_list s
    | None ->
      Array.init n_predicates (fun i ->
          (Symbol.intern (Printf.sprintf "p%d" i), 1 + Rng.int rng max_arity))
  in
  let rule i =
    let bp, ba = Rng.choose_array rng preds in
    let hp, ha = Rng.choose_array rng preds in
    let body_args = List.init ba (fun j -> var (j + 1)) in
    let head_args =
      List.init ha (fun j ->
          if Rng.bool rng 0.5 && ba > 0 then var (1 + Rng.int rng ba) else var (100 + j))
    in
    (* Enforce simplicity: distinct variables per atom. Frontier positions
       reuse body variables; the fallback vars 100+j are existential. *)
    let dedupe args =
      let seen = Hashtbl.create 8 in
      List.mapi
        (fun j t ->
          match t with
          | Term.Var v when not (Hashtbl.mem seen v) ->
            Hashtbl.add seen v ();
            t
          | Term.Var _ -> var (200 + j)
          | Term.Const _ -> t)
        args
    in
    Tgd.make ~name:(Printf.sprintf "r%d" i) ~body:[ Atom.make bp body_args ]
      ~head:[ Atom.make hp (dedupe head_args) ]
  in
  Program.make_exn ~name (List.init n_rules (fun i -> rule (i + 1)))

let simple_multilinear ?(name = "multilinear") rng ~n_rules ~n_predicates ~arity =
  let preds = Array.init n_predicates (fun i -> Symbol.intern (Printf.sprintf "m%d" i)) in
  let vars = List.init arity (fun j -> var (j + 1)) in
  let rule i =
    let n_body = 1 + Rng.int rng 3 in
    let body =
      List.init n_body (fun _ -> Atom.make (Rng.choose_array rng preds) (Rng.shuffle rng vars))
    in
    let head_pred = Rng.choose_array rng preds in
    (* Head: a subset of body variables in shuffled order, padded with
       existentials, all distinct. *)
    let head_args =
      List.mapi
        (fun j v -> if Rng.bool rng 0.7 then v else var (100 + j))
        (Rng.shuffle rng vars)
    in
    Tgd.make ~name:(Printf.sprintf "r%d" i) ~body ~head:[ Atom.make head_pred head_args ]
  in
  Program.make_exn ~name (List.init n_rules (fun i -> rule (i + 1)))

let sample_in_class ?(max_tries = 1_000) accept draw =
  let rec loop k =
    if k >= max_tries then None
    else
      let p = draw () in
      if accept p then Some p else loop (k + 1)
  in
  loop 0

let chain ?(name = "chain") ~depth =
  let rule i =
    Tgd.make
      ~name:(Printf.sprintf "c%d" i)
      ~body:[ Atom.of_strings (Printf.sprintf "r%d" i) [ var 1; var 2 ] ]
      ~head:[ Atom.of_strings (Printf.sprintf "r%d" (i + 1)) [ var 1; var 3 ] ]
  in
  Program.make_exn ~name (List.init depth (fun i -> rule i))

let wide_star ?(name = "star") ~width =
  let rule i =
    Tgd.make
      ~name:(Printf.sprintf "s%d" i)
      ~body:
        [
          Atom.of_strings "hub" [ var 1 ];
          Atom.of_strings (Printf.sprintf "spoke%d" i) [ var 1; var 2 ];
        ]
      ~head:[ Atom.of_strings (Printf.sprintf "out%d" i) [ var 2; var 3 ] ]
  in
  Program.make_exn ~name (List.init width (fun i -> rule i))
