open Tgd_logic

(* R2 depends on R1 when body(R2), read as a boolean query, has a piece
   unifier with some single-head fragment of R1. The fragments come from
   the program's rewriting view, renamed into the pool so that they share
   no variable with the query: a rule splits into one fragment per head
   atom plus a link when it has several heads. Auxiliary-predicate
   fragments cannot unify with body(R2), as their predicate is fresh. *)
let unifies fragments (r2 : Tgd.t) =
  let q = Cq.make ~name:"dep" ~answer:[] ~body:r2.Tgd.body in
  List.exists (fun frag -> Tgd_rewrite.Piece.all_pooled q frag <> []) fragments

let depends ~on:r1 r2 = unifies (List.map Tgd.rename_to_pool (Tgd.single_head_normalize [ r1 ])) r2

let graph p =
  let rules = Program.tgds p in
  let rec split pooled = function
    | [] -> []
    | (r : Tgd.t) :: rest ->
      let n = match r.Tgd.head with [ _ ] -> 1 | head -> 1 + List.length head in
      let mine = List.filteri (fun i _ -> i < n) pooled in
      (r, mine) :: split (List.filteri (fun i _ -> i >= n) pooled) rest
  in
  let fragments = split (Program.rewriting p).Program.rules rules in
  List.concat_map
    (fun (r1, frags) ->
      List.filter_map
        (fun (r2 : Tgd.t) -> if unifies frags r2 then Some (r1.Tgd.name, r2.Tgd.name) else None)
        rules)
    fragments

let acyclic p =
  let rules = Program.tgds p in
  let ids = Hashtbl.create 16 in
  List.iteri (fun i (r : Tgd.t) -> Hashtbl.replace ids r.Tgd.name i) rules;
  let edges =
    graph p |> List.map (fun (a, b) -> (Hashtbl.find ids a, Hashtbl.find ids b)) |> Array.of_list
  in
  let g = Tgd_graph.Int_digraph.make ~n:(max (List.length rules) 1) ~edges in
  let comp, _ = Tgd_graph.Int_digraph.scc g in
  not (Array.exists (fun (s, d) -> comp.(s) = comp.(d)) edges)
