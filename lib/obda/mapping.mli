(** GAV mapping assertions: the layer the paper places between the ontology
    and the data sources ("an additional layer of information between the
    ontology and the data sources is needed as a way of relating the two
    layers through mapping assertions", Section 1).

    A mapping assertion [m : phi(x) ~> p(x)] pairs a conjunctive query
    [phi] over the {e source} schema with a single atom over the
    {e ontology} schema; evaluating [phi] over the source database and
    instantiating the target atom populates the ontology's virtual ABox. *)

open Tgd_logic
open Tgd_db

type t = private {
  name : string;
  source : Atom.t list;  (** body over the source schema *)
  target : Atom.t;  (** atom over the ontology schema *)
}

val make : ?name:string -> source:Atom.t list -> target:Atom.t -> t
(** Raises [Invalid_argument] if the source is empty or the target mentions
    a variable that does not occur in the source (unsafe mapping). *)

val for_pred : t list -> Symbol.t -> t list
(** Mappings whose target has the given predicate. *)

val materialize : t list -> Instance.t -> Instance.t
(** The virtual ABox, materialized: evaluate every mapping's source query
    over the source instance and collect the instantiated target atoms into
    a fresh instance over the ontology schema. *)

val rename_apart : t -> t
val pp : Format.formatter -> t -> unit
