(** A conformance fuzz case: one (TGD set, instance, CQ) triple, with the
    metadata needed to reproduce it.

    Cases serialize to the repository's ontology text format (rules, ground
    facts, one query) prefixed by [%]-comment metadata lines, so a shrunk
    failing case checked into [test/corpus/] is read back by the standard
    parser and replayed forever after by [dune runtest] — and can also be
    inspected (or classified, rewritten, chased) by the [obda] CLI
    directly. *)

open Tgd_logic

type t = {
  label : string;  (** generator bias family (["linear"], ["free"], ...) *)
  seed : int;  (** the derived per-case seed; [0] for handcrafted cases *)
  program : Program.t;
  facts : Atom.t list;  (** ground atoms: the extensional instance *)
  query : Cq.t;
}

val make : ?label:string -> ?seed:int -> program:Program.t -> facts:Atom.t list -> Cq.t -> t

val instance : t -> Tgd_db.Instance.t
(** A fresh mutable instance holding the case's facts. *)

val to_string : t -> string
(** The corpus rendering: metadata comments, rules, facts, query. *)

val of_string : ?filename:string -> string -> (t, string) result
(** Inverse of {!to_string}; also accepts any parseable ontology document
    with exactly one query (metadata lines are optional). *)

val save : t -> path:string -> unit
val load : string -> (t, string) result
