(** Weakly Recursive TGDs (Definition 8): a set [P] of TGDs is WR if the
    P-node graph of [P] has no cycle that contains a d-edge, an m-edge and
    an s-edge while containing no i-edge.

    As for SWR, "cycle" is decided per strongly connected component after
    removing i-edges (closed-walk reading), with an exact simple-cycle
    cross-check available. When the graph construction hits its node budget
    the verdict is reported as not established ([complete = false]) and [wr]
    is conservatively [false]. *)

open Tgd_logic

type verdict = {
  dangerous : bool;
  wr : bool;
  complete : bool;
  graph : P_node_graph.result;
}

val check : ?max_nodes:int -> Program.t -> verdict

val check_exact : ?limit:int -> P_node_graph.G.t -> bool option
(** Simple-cycle reading of Definition 8 by bounded enumeration:
    [Some true] if a simple i-edge-free cycle carries d, m and s; [Some
    false] if the exhaustive enumeration finds none; [None] on budget
    exhaustion. *)
