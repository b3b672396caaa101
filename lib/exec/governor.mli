(** The run governor: one per execution (a chase, a rewriting, a certain-
    answer computation), combining a {!Budget}, an optional external
    cancellation signal, a wall-clock deadline and a {!Telemetry} record.

    The contract with the engines is cooperative: every potentially
    unbounded loop polls {!live} at its head and charges its work through
    {!charge}/{!gauge}, or through a {!meter} where the work is one join
    node or one fired trigger. The governor never raises into engine code — once a
    limit, the deadline or cancellation trips, it latches a {!stop_reason},
    {!live} starts returning [false], and the engine winds down, returning a
    typed partial result whose [Truncated] payload is {!diagnostics}. A
    stopped governor stays stopped: reuse across runs is intentional
    (shared-budget pipelines) but a fresh run wants a fresh governor. *)

type stop_reason =
  | Deadline of float  (** the configured wall-clock budget, seconds *)
  | Cancelled  (** the external cancellation callback returned [true] *)
  | Limit of {
      counter : string;  (** which budget counter tripped *)
      limit : int;
    }

val stop_reason_to_string : stop_reason -> string

type diagnostics = {
  reason : stop_reason;
  wall_s : float;  (** elapsed wall-clock when the snapshot was taken *)
  counters : (string * int) list;
  peaks : (string * int) list;
  phases : (string * float) list;
}
(** What a truncated run hands back: why it stopped and how far it got. *)

val diag_summary : diagnostics -> string
(** One-line human rendering of the stop reason, e.g.
    ["budget: chase.triggers limit 1000 reached"]. *)

val pp_diagnostics : Format.formatter -> diagnostics -> unit

type t

val create : ?budget:Budget.t -> ?cancel:(unit -> bool) -> ?telemetry:Telemetry.t -> unit -> t
(** A fresh governor. [cancel] is polled periodically from loop heads — it
    must be cheap and thread-safe. The deadline clock starts now. *)

val unlimited : unit -> t
(** [create ()]: never stops on its own, still collects telemetry. *)

val telemetry : t -> Telemetry.t

val live : t -> bool
(** [true] while the run may continue. Polls the deadline and the
    cancellation callback once every 64 calls of [live] and {!tick}
    together, so loop heads can call it unconditionally. *)

val charge : ?n:int -> t -> string -> unit
(** [charge g key] adds [n] (default 1) to counter [key] and stops the run
    if the budget's limit for [key] is reached ([value >= limit]). Each call
    takes the telemetry lock, looks the key up twice (cell and limit) and
    reads the clock, so it belongs at coarse sites: per round, per CQ, per
    pattern. Per-node and per-trigger work goes through a {!meter}. *)

(** {1 Meters} *)

type meter
(** A counter key bound to one governor, with its budget limit looked up
    once. Made once per call or run and ticked in the hot loop. *)

val meter : t -> string -> meter
(** [meter g key] resolves [key]'s budget limit. The counter itself is
    created by the first {!tick}, so a meter that never ticks adds no key
    to the telemetry. *)

val tick : ?n:int -> meter -> unit
(** [tick m] is [charge g key] for the meter's key without the lock, the
    key lookups or the clock read: one [Atomic.fetch_and_add] on the
    counter, the same [value >= limit] stop as {!charge}, so counts and the
    point where a counter budget stops the run are exact. The deadline and
    the cancellation callback are polled on {!live}'s stride, so a loop
    that only ticks still stops on them. Safe from several domains at
    once. *)

val gauge : t -> string -> int -> unit
(** Record a peak gauge and stop the run if it exceeds the budget's limit
    ([value > limit] — a gauge at its limit is still within budget). *)

val stop : t -> stop_reason -> unit
(** Latch a stop reason (first one wins). Used by engines that enforce
    their own structural limits and by external supervisors. *)

val stopped : t -> stop_reason option

val diagnostics : t -> diagnostics option
(** [Some] iff the governor has stopped; the snapshot reflects the
    telemetry at call time, so engines may record final counts (kept /
    retired disjuncts, facts materialized) just before taking it. *)

val report_json : ?run:string -> ?extra:(string * string) list -> t -> string
(** The full run record as one JSON object:
    [{"run": ..., "outcome": "complete" | "truncated", "reason": ...,
      "wall_s": ..., "counters": {...}, "peaks": {...}, "phases": {...}}].
    [extra] appends raw pre-rendered JSON fields (the value string is
    spliced verbatim). *)
