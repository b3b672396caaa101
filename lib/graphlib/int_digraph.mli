(** Directed multigraphs over integer vertices [0..n-1], and the graph
    algorithms used by the acyclicity conditions.

    Edges are identified by their index in the edge array so that callers can
    attach labels and express label constraints on cycles. *)

type t

val make : n:int -> edges:(int * int) array -> t
(** [make ~n ~edges] builds a graph with vertices [0..n-1]; each [(u, v)]
    pair is one directed edge. Parallel edges and self-loops are allowed.
    Raises [Invalid_argument] if an endpoint is out of range. *)

val edge : t -> int -> int * int

val scc : ?edge_ok:(int -> bool) -> t -> int array * int
(** Tarjan strongly connected components, iterative. Returns the component
    id of every vertex and the number of components. Edges for which
    [edge_ok] is false are ignored (default: all edges allowed). Component
    ids are in reverse topological order of the condensation. *)

val scc_internal_edges : ?edge_ok:(int -> bool) -> t -> (int * int list) list
(** For every strongly connected component that contains at least one cycle
    (i.e. has an internal edge), the component id together with the indices
    of the edges joining two vertices of that component. *)

val simple_cycles : ?limit:int -> ?max_steps:int -> ?edge_ok:(int -> bool) -> t -> int list list
(** Enumerate simple cycles as lists of edge indices. The enumeration stops
    after [limit] cycles (default 10_000) or [max_steps] search steps
    (default 1_000_000); it is exact when neither cap is hit. Each simple
    cycle is produced exactly once, rooted at its minimal vertex. *)

val reachable : t -> int -> bool array
(** Vertices reachable from a source (including the source itself). *)
