module type NODE = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

module type LABEL = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

module Make (N : NODE) (L : LABEL) = struct
  module Tbl = Hashtbl.Make (N)

  type edge = {
    src : N.t;
    label : L.t;
    dst : N.t;
  }

  type t = {
    ids : int Tbl.t;
    mutable node_list : N.t list; (* reversed insertion order *)
    mutable n : int;
    mutable edge_list : (int * L.t * int) list; (* reversed insertion order *)
    mutable m : int;
    seen : (int * int, L.t list) Hashtbl.t; (* labels already present per (src, dst) *)
  }

  let create () =
    { ids = Tbl.create 64; node_list = []; n = 0; edge_list = []; m = 0; seen = Hashtbl.create 64 }

  let node_id g v =
    match Tbl.find_opt g.ids v with
    | Some i -> i
    | None ->
      let i = g.n in
      Tbl.add g.ids v i;
      g.node_list <- v :: g.node_list;
      g.n <- g.n + 1;
      i

  let add_node g v = ignore (node_id g v)

  let add_edge g src label dst =
    let s = node_id g src and d = node_id g dst in
    let labels = Option.value ~default:[] (Hashtbl.find_opt g.seen (s, d)) in
    if not (List.exists (L.equal label) labels) then begin
      Hashtbl.replace g.seen (s, d) (label :: labels);
      g.edge_list <- (s, label, d) :: g.edge_list;
      g.m <- g.m + 1
    end

  let nodes g = List.rev g.node_list
  let n_nodes g = g.n
  let n_edges g = g.m

  let node_array g =
    match g.node_list with
    | [] -> [||]
    | first :: _ ->
      let arr = Array.make g.n first in
      List.iteri (fun i v -> arr.(g.n - 1 - i) <- v) g.node_list;
      arr

  let edge_array g = Array.of_list (List.rev g.edge_list)

  let edges g =
    let names = node_array g in
    List.rev_map (fun (s, l, d) -> { src = names.(s); label = l; dst = names.(d) }) g.edge_list

  let succ g v =
    match Tbl.find_opt g.ids v with
    | None -> []
    | Some i ->
      let names = node_array g in
      List.filter_map
        (fun (s, l, d) -> if s = i then Some (l, names.(d)) else None)
        (List.rev g.edge_list)

  let to_int_graph g =
    let earr = edge_array g in
    let ig = Int_digraph.make ~n:(max g.n 1) ~edges:(Array.map (fun (s, _, d) -> (s, d)) earr) in
    (ig, earr)

  let cyclic_scc_edge_labels_filtered ~keep g =
    let ig, earr = to_int_graph g in
    let label_of i = let _, l, _ = earr.(i) in l in
    let edge_ok i = keep (label_of i) in
    Int_digraph.scc_internal_edges ~edge_ok ig
    |> List.map (fun (_, es) -> List.map label_of es)

  let cyclic_scc_edge_labels g = cyclic_scc_edge_labels_filtered ~keep:(fun _ -> true) g

  let simple_cycles ?limit ?max_steps ?(keep = fun _ -> true) g =
    let ig, earr = to_int_graph g in
    let names = node_array g in
    let edge_ok i = keep (let _, l, _ = earr.(i) in l) in
    Int_digraph.simple_cycles ?limit ?max_steps ~edge_ok ig
    |> List.map
         (List.map (fun i ->
              let s, l, d = earr.(i) in
              { src = names.(s); label = l; dst = names.(d) }))

  let dot_escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then begin
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
        end
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_dot ?(name = "g") g =
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "digraph \"%s\" {\n" (dot_escape name);
    Array.iteri
      (fun i v ->
        Printf.bprintf buf "  n%d [label=\"%s\"];\n" i (dot_escape (Format.asprintf "%a" N.pp v)))
      (node_array g);
    List.iter
      (fun (s, l, d) ->
        Printf.bprintf buf "  n%d -> n%d [label=\"%s\"];\n" s d
          (dot_escape (Format.asprintf "%a" L.pp l)))
      (List.rev g.edge_list);
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end
