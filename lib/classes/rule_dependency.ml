open Tgd_logic

let depends ~on:(r1 : Tgd.t) (r2 : Tgd.t) =
  (* Read body(R2) as a boolean query and look for a piece unifier with any
     single-head fragment of R1, renamed into the pool so that it shares no
     variable with the query. *)
  let q = Cq.make ~name:"dep" ~answer:[] ~body:r2.Tgd.body in
  let fragments = List.map Tgd.rename_to_pool (Tgd.single_head_normalize [ r1 ]) in
  (* Auxiliary-predicate fragments cannot unify with body(R2): their
     predicate is fresh. Piece.all_pooled returns [] for them naturally. *)
  List.exists (fun frag -> Tgd_rewrite.Piece.all_pooled q frag <> []) fragments

let graph p =
  let rules = Program.tgds p in
  List.concat_map
    (fun r1 ->
      List.filter_map
        (fun r2 -> if depends ~on:r1 r2 then Some (r1.Tgd.name, r2.Tgd.name) else None)
        rules)
    rules

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
