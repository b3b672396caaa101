(** The fuzzing loop: generate, check, shrink, persist, summarize.

    Everything is deterministic in [(seed, cases)]: the case stream comes
    from {!Gen_case.case}, the invariant registry runs in a fixed order, and
    the summary contains no wall-clock data — running the same seed twice
    yields byte-identical {!summary_to_string} output. *)

type failure = {
  invariant : string;
  message : string;
  original : Case.t;
  shrunk : Case.t;  (** equal to [original] when shrinking is disabled *)
  corpus_file : string option;  (** where the shrunk case was persisted *)
}

type summary = {
  seed : int;
  cases : int;
  checks : int;  (** total invariant applications, skips included *)
  passed : int;
  skipped : int;
  failed : int;
  per_invariant : (string * (int * int * int)) list;  (** name -> (pass, skip, fail) *)
  failures : failure list;
}

val run :
  ?oracle:Oracle.t ->
  ?invariants:Invariant.t list ->
  ?corpus_dir:string ->
  ?shrink:bool ->
  ?stop_after:int ->
  ?on_case:(int -> Case.t -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  summary
(** Sweep cases [0..cases-1] of stream [seed]. Each failure is shrunk (unless
    [~shrink:false]) with "still fails the same invariant" as the
    reproduction predicate, and written to [corpus_dir] when given. The sweep
    stops early once [stop_after] failures have been collected. *)

val replay :
  ?oracle:Oracle.t -> ?invariants:Invariant.t list -> dir:string -> unit -> summary
(** Run the registry over every [*.case] file in [dir] (sorted by name).
    Unreadable or unparsable files are reported as failures of the pseudo
    invariant ["corpus"]. *)

val summary_to_string : summary -> string
(** Deterministic multi-line report: per-invariant table plus one block per
    failure (label, seed, message, shrunk size, corpus file). *)
