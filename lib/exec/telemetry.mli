(** Structured per-run telemetry: named counters, peak gauges and phase
    timings, collected by the engines while a {!Governor} supervises the
    run, and serializable as JSON.

    A record is safe to share across domains: counters and peak gauges are
    [Atomic.t] cells (adds use [fetch_and_add], peaks a CAS-max loop), so
    concurrent workers charging one sink never lose updates — totals are
    exact. The record's mutex guards only the key->cell tables and the
    float-valued phase table. *)

type t

val create : unit -> t

(** {1 Counters} *)

val add : t -> string -> int -> int
(** [add t key n] increments counter [key] by [n] and returns the new
    value. *)

val counter : t -> string -> int Atomic.t
(** The cell behind counter [key], created at [0] if absent (so the key
    then shows in {!counters}). Adding to it is {!add} without the lock and
    the key lookup; a caller may keep it for the length of a run. *)

val get : t -> string -> int
(** Current value of a counter ([0] if never charged). *)

val set_counter : t -> string -> int -> unit
(** Overwrite a counter with an absolute value (used to mirror externally
    accumulated statistics into the run record). *)

(** {1 Peak gauges} *)

val gauge : t -> string -> int -> unit
(** [gauge t key v] records [v] as the new peak for [key] if it exceeds the
    stored one. *)

val peak : t -> string -> int
(** Current peak ([0] if never gauged). *)

(** {1 Phase timings} *)

val add_span : t -> string -> float -> unit
(** Add [seconds] to a phase's accumulated time. *)

(** {1 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by key. *)

val peaks : t -> (string * int) list
val phases : t -> (string * float) list

val merge_into : into:t -> t -> unit
(** Fold one record into an aggregate sink: counters and phases are added,
    peaks are maxed. Used by the serving layer to accumulate per-request
    telemetry into a server-wide record; safe to call concurrently from
    several domains (the source is snapshotted first, so the two records'
    locks are never held together). *)

val to_json_fields : t -> string
(** The record's contents as the JSON fragment
    ["\"counters\": {...}, \"peaks\": {...}, \"phases\": {...}"] — spliced
    into a larger object by {!Governor.report_json}. *)

val json_string : string -> string
(** JSON string literal with escaping (shared by the CLI emitters). *)
