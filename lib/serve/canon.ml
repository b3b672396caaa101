open Tgd_logic

type t = {
  cq : Cq.t;
  key : string;
  hash : int;
  exact : bool;
}

let max_exact_existentials = 8

(* Unambiguous renderings: constants are length-prefixed (a constant spelled
   "v3" can never collide with variable id 3), variables render by their
   canonical id. *)
let render_name s = string_of_int (String.length s) ^ ":" ^ s

let render_term assign t =
  match t with
  | Term.Const c -> "c" ^ render_name (Symbol.name c)
  | Term.Var v -> (
    match Symbol.Table.find_opt assign v with
    | Some id -> "v" ^ string_of_int id
    | None -> "?")

let render_atom assign (a : Atom.t) =
  "p" ^ render_name (Symbol.name a.Atom.pred) ^ "("
  ^ String.concat "," (Array.to_list (Array.map (render_term assign) a.Atom.args))
  ^ ")"

let render_body assign body =
  String.concat ";" (List.sort_uniq compare (List.map (render_atom assign) body))

(* Exhaustive lexicographic-minimum labeling of the existential variables.
   The answer variables are pre-assigned (answer-tuple order is
   significant), so only the existential order is searched: |E|! leaves,
   bounded by [max_exact_existentials]. *)
let search_exact assign next_id evars body =
  let best : (string * Symbol.t list) option ref = ref None in
  let rec go order_rev remaining =
    if Symbol.Set.is_empty remaining then begin
      let rendered = render_body assign body in
      match !best with
      | Some (b, _) when b <= rendered -> ()
      | _ -> best := Some (rendered, List.rev order_rev)
    end
    else
      Symbol.Set.iter
        (fun v ->
          Symbol.Table.replace assign v !next_id;
          incr next_id;
          go (v :: order_rev) (Symbol.Set.remove v remaining);
          decr next_id;
          Symbol.Table.remove assign v)
        remaining
  in
  go [] (Symbol.Set.of_list evars);
  match !best with
  | Some (_, order) -> order
  | None -> [] (* no existential variables *)

(* Greedy fallback beyond the exact bound: iterated color refinement, then
   repeatedly assign the next id to the unassigned variable with the least
   (occurrence profile, color). Deterministic; invariant under renaming
   except when truly tied profiles hide an asymmetry. *)
let search_greedy assign next_id evars body =
  let profile v =
    body
    |> List.filter (fun (a : Atom.t) -> Symbol.Set.mem v (Atom.vars a))
    |> List.map (fun (a : Atom.t) ->
           let args =
             Array.to_list
               (Array.map
                  (fun t ->
                    match t with
                    | Term.Var w when Symbol.equal w v -> "self"
                    | t -> render_term assign t)
                  a.Atom.args)
           in
           "p" ^ render_name (Symbol.name a.Atom.pred) ^ "(" ^ String.concat "," args ^ ")")
    |> List.sort compare |> String.concat ";"
  in
  let colors = Symbol.Table.create 16 in
  List.iter (fun v -> Symbol.Table.replace colors v (profile v)) evars;
  for _round = 1 to 3 do
    let next_colors =
      List.map
        (fun v ->
          let neighbor_colors =
            body
            |> List.filter (fun (a : Atom.t) -> Symbol.Set.mem v (Atom.vars a))
            |> List.concat_map (fun (a : Atom.t) ->
                   Symbol.Set.elements (Atom.vars a)
                   |> List.filter_map (fun w ->
                          if Symbol.equal w v then None
                          else Symbol.Table.find_opt colors w))
            |> List.sort compare
          in
          (v, Symbol.Table.find colors v ^ "|" ^ String.concat "," neighbor_colors))
        evars
    in
    List.iter (fun (v, c) -> Symbol.Table.replace colors v c) next_colors
  done;
  let remaining = ref (Symbol.Set.of_list evars) in
  let order = ref [] in
  while not (Symbol.Set.is_empty !remaining) do
    let candidates =
      Symbol.Set.elements !remaining
      |> List.map (fun v -> ((profile v, Symbol.Table.find colors v), v))
      |> List.sort compare
    in
    let _, v = List.hd candidates in
    Symbol.Table.replace assign v !next_id;
    incr next_id;
    order := v :: !order;
    remaining := Symbol.Set.remove v !remaining
  done;
  List.rev !order

let of_cq (q : Cq.t) =
  let assign = Symbol.Table.create 16 in
  let next_id = ref 0 in
  (* Answer variables first, in answer-tuple order: forced, no search. *)
  List.iter
    (fun t ->
      match t with
      | Term.Var v when not (Symbol.Table.mem assign v) ->
        Symbol.Table.replace assign v !next_id;
        incr next_id
      | _ -> ())
    q.Cq.answer;
  let evars = Symbol.Set.elements (Cq.existential_vars q) in
  let exact = List.length evars <= max_exact_existentials in
  let order =
    if exact then search_exact assign next_id evars q.Cq.body
    else search_greedy assign next_id evars q.Cq.body
  in
  (* Re-apply the winning order (search_exact backtracked it away). *)
  List.iter
    (fun v ->
      if not (Symbol.Table.mem assign v) then begin
        Symbol.Table.replace assign v !next_id;
        incr next_id
      end)
    order;
  let key =
    "a("
    ^ String.concat "," (List.map (render_term assign) q.Cq.answer)
    ^ ")|" ^ render_body assign q.Cq.body
  in
  let rename t =
    match t with
    | Term.Const _ -> t
    | Term.Var v -> Term.Var (Symbol.intern (Printf.sprintf "V%d" (Symbol.Table.find assign v)))
  in
  let body =
    List.map (Atom.apply rename) q.Cq.body |> List.sort_uniq Atom.compare
  in
  let cq = Cq.make ~name:q.Cq.name ~answer:(List.map rename q.Cq.answer) ~body in
  { cq; key; hash = Hashtbl.hash key; exact }
