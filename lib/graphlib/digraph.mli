(** Directed labeled multigraphs over arbitrary hashable node types.

    A thin layer over {!Int_digraph}: nodes are interned to dense integer
    ids on insertion, so all algorithms run on arrays. *)

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

module Make (N : NODE) (L : LABEL) : sig
  type t

  type edge = {
    src : N.t;
    label : L.t;
    dst : N.t;
  }

  val create : unit -> t
  val add_node : t -> N.t -> unit

  val add_edge : t -> N.t -> L.t -> N.t -> unit
  (** Endpoints are added as nodes if absent. Duplicate (src, label, dst)
      triples are kept once. *)

  val nodes : t -> N.t list
  (** In insertion order. *)

  val edges : t -> edge list
  val succ : t -> N.t -> (L.t * N.t) list
  val n_nodes : t -> int
  val n_edges : t -> int

  val cyclic_scc_edge_labels : t -> L.t list list
  (** For every strongly connected component containing at least one edge,
      the labels of its internal edges (with duplicates, one per edge). The
      acyclicity conditions of the paper are decided on top of this: a
      "cycle containing an X-edge and a Y-edge" exists iff some component's
      label multiset mentions both. *)

  val cyclic_scc_edge_labels_filtered : keep:(L.t -> bool) -> t -> L.t list list
  (** Same, but edges whose label fails [keep] are removed from the graph
      before the component decomposition (used to forbid i-edges in cycles). *)

  val simple_cycles : ?limit:int -> ?max_steps:int -> ?keep:(L.t -> bool) -> t -> edge list list
  (** Exact simple-cycle enumeration (capped); see {!Int_digraph.simple_cycles}. *)

  val to_dot : ?name:string -> t -> string
  (** Graphviz rendering; node ids are derived from [N.pp]. *)
end
