(** Negative constraints (denial constraints): [body -> falsum].

    DL-Lite and OBDA systems pair positive inclusions (our TGDs) with
    negative ones (disjointness); query answering is meaningful only over
    consistent data. Consistency reduces to boolean query answering: the
    data violates [body -> falsum] iff the certain answer to the boolean CQ
    [() :- body] is yes, which we decide by FO-rewriting the body and
    evaluating over the raw instance. *)

open Tgd_logic
open Tgd_db

type t = private {
  name : string;
  body : Atom.t list;
}

val make : ?name:string -> Atom.t list -> t
(** Raises [Invalid_argument] on an empty body. *)

type violation = {
  constraint_ : t;
  witness : Cq.t;  (** the rewritten disjunct that matched the data *)
}

type verdict = {
  consistent : bool;
  violations : violation list;
  complete : bool;  (** [false] if some constraint rewriting was truncated *)
}

val check :
  ?config:Tgd_rewrite.Rewrite.config ->
  ?unfold:(Cq.ucq -> Cq.ucq) ->
  Program.t ->
  t list ->
  Instance.t ->
  verdict
(** Rewrite every constraint body under the TGDs, pass the rewriting
    through [unfold] (default: unchanged; {!Obda_system} unfolds it through
    its mappings onto the sources) and evaluate over the instance. When
    [complete] is [false] the verdict "consistent" is only a failure to
    find a violation within the rewriting budget. *)
