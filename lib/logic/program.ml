type rewriting = {
  rules : Tgd.t list;
  by_head : Tgd.t list Symbol.Map.t;
  aux : Symbol.Set.t;
}

(* Built on first use and published with one atomic write, like
   [Columnar]'s index slots: domains that race on a fresh program each
   build a view, one is kept, and every caller reads the kept one. A
   [Lazy.t] would raise when two domains force it at once. *)
type slot = rewriting option Atomic.t

type t = {
  name : string;
  tgds : Tgd.t list;
  slot : slot;
}

let signature tgds =
  let sigs = Symbol.Table.create 32 in
  let check_atom rule_name a =
    let n = Atom.arity a in
    match Symbol.Table.find_opt sigs a.Atom.pred with
    | None ->
      Symbol.Table.add sigs a.Atom.pred n;
      Ok ()
    | Some n' ->
      if n = n' then Ok ()
      else
        Error
          (Printf.sprintf "predicate %s used with arities %d and %d (rule %s)"
             (Symbol.name a.Atom.pred) n' n rule_name)
  in
  let rec check_all = function
    | [] -> Ok sigs
    | (r : Tgd.t) :: rest ->
      let rec atoms = function
        | [] -> check_all rest
        | a :: more -> (
          match check_atom r.Tgd.name a with Ok () -> atoms more | Error _ as e -> e)
      in
      atoms (r.Tgd.body @ r.Tgd.head)
  in
  check_all tgds

let make ?(name = "P") tgds =
  match signature tgds with
  | Ok _ -> Ok { name; tgds; slot = Atomic.make None }
  | Error e -> Error e

let make_exn ?name tgds =
  match make ?name tgds with Ok p -> p | Error e -> invalid_arg ("Program.make: " ^ e)

let tgds p = p.tgds
let size p = List.length p.tgds

let predicates p =
  match signature p.tgds with
  | Error _ -> assert false (* checked at construction *)
  | Ok sigs ->
    Symbol.Table.fold (fun pred arity acc -> (pred, arity) :: acc) sigs []
    |> List.sort (fun (p1, _) (p2, _) -> Symbol.compare p1 p2)

let arity_of p pred = List.assoc_opt pred (predicates p)

let constants p =
  List.fold_left (fun acc r -> Symbol.Set.union acc (Tgd.constants r)) Symbol.Set.empty p.tgds

let max_arity p = List.fold_left (fun acc (_, n) -> max acc n) 0 (predicates p)

let is_simple p = List.for_all Tgd.is_simple p.tgds

let rules_with_head_pred p pred =
  List.filter (fun r -> List.exists (fun a -> Symbol.equal a.Atom.pred pred) r.Tgd.head) p.tgds

let single_head_normalize p =
  { name = p.name; tgds = Tgd.single_head_normalize p.tgds; slot = Atomic.make None }

let build_rewriting p =
  let normalized = single_head_normalize p in
  let rules = List.map Tgd.rename_to_pool normalized.tgds in
  let by_head =
    List.fold_left
      (fun m (r : Tgd.t) ->
        match r.Tgd.head with
        | [ h ] ->
          Symbol.Map.update h.Atom.pred
            (fun rs -> Some (r :: Option.value ~default:[] rs))
            m
        | [] | _ :: _ :: _ -> assert false (* single-head normalized *))
      Symbol.Map.empty rules
  in
  let original =
    List.fold_left (fun acc (q, _) -> Symbol.Set.add q acc) Symbol.Set.empty (predicates p)
  in
  let aux =
    List.fold_left
      (fun acc (q, _) -> if Symbol.Set.mem q original then acc else Symbol.Set.add q acc)
      Symbol.Set.empty (predicates normalized)
  in
  { rules; by_head; aux }

let rewriting p =
  match Atomic.get p.slot with
  | Some v -> v
  | None ->
    let v = build_rewriting p in
    if Atomic.compare_and_set p.slot None (Some v) then v else Option.get (Atomic.get p.slot)

let pp ppf p =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Tgd.pp)
    p.tgds
