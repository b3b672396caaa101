(** The chase: saturate an instance with the TGDs, inventing labeled nulls
    for existential head variables, and with the EGDs, merging equated
    nulls. This is the one fixpoint loop of the library: from-scratch
    materialization, incremental maintenance of a materialized model under
    an insert batch, and Datalog saturation for the rewriting target all
    run {!run}.

    Both the oblivious chase (fire every trigger once) and the restricted
    a.k.a. standard chase (fire only triggers whose head is not already
    satisfied) are provided. The chase proceeds in breadth-first
    semi-naive rounds, which makes it fair: every trigger is eventually
    considered, so when the run terminates the result is a universal model
    of [(P, D)] and certain answers coincide with the null-free answers
    over it.

    Under the Unique Name Assumption (Section 3 of the paper), an EGD that
    equates two distinct constants is a hard failure — the data is
    inconsistent with the dependencies. Equating a labeled null with
    anything merges the two values across the instance.

    The chase need not terminate outside the weakly-acyclic classes, so the
    loop is governed: a {!Tgd_exec.Governor} is polled at the round head
    {e and} at every trigger application, and trigger/round/fact work is
    charged against its budget. When the governor stops (budget, deadline,
    or external cancellation) the run winds down cooperatively and reports
    [Truncated] with the governor's diagnostics — a sound
    under-approximation, never a hang, never an exception. *)

open Tgd_db
open Tgd_exec

type variant =
  | Oblivious
  | Restricted

type outcome =
  | Terminated  (** fixpoint reached: the instance is a universal model *)
  | Truncated of Governor.diagnostics
      (** a budget, the deadline or cancellation stopped the run first; the
          diagnostics carry how far it got (rounds, triggers fired, facts) *)

type violation = {
  egd : Egd.t;
  v1 : Value.t;
  v2 : Value.t;  (** the two distinct constants that were equated *)
}

type stats = {
  outcome : outcome;
      (** [Terminated] iff the fixpoint was reached within budget (a hard
          EGD violation also ends the run as [Terminated], with
          [consistent = false]) *)
  rounds : int;  (** TGD rounds run *)
  inserted : int;  (** batch facts that were new to the instance *)
  derived : int;  (** facts added by trigger firing *)
  nulls : int;  (** fresh nulls invented (numbered above the floor) *)
  triggers_fired : int;
  merges : int;  (** EGD merges performed *)
  consistent : bool;  (** [false] iff a hard EGD violation surfaced *)
  violation : violation option;
}

(** Which budget keys a run charges. *)
type keys =
  | Chase_keys
      (** materialization: a run without [batch] charges [chase.triggers],
          one with [batch] charges [chase.delta.triggers] and gauges
          [chase.delta.facts]; both charge [chase.rounds] and gauge
          [chase.facts] *)
  | Datalog_keys
      (** Datalog answering: only [rewrite.datalog.facts] is gauged (facts
          derived so far), and a run without [gov] is unbounded *)

val run :
  ?variant:variant ->
  ?max_rounds:int ->
  ?max_facts:int ->
  ?gov:Governor.t ->
  ?null_floor:int ->
  ?egds:Egd.t list ->
  ?batch:Instance.fact list ->
  ?keys:keys ->
  Tgd_logic.Program.t ->
  Instance.t ->
  stats
(** Mutates the instance. Defaults: [Restricted], no EGDs, [Chase_keys],
    [max_rounds = 1_000], [max_facts = 1_000_000].

    Without [batch] the first TGD round searches the whole instance, and so
    does the first EGD pass. With [batch] the run extends an instance that
    is already a chase fixpoint for [program] (and EGD-stable for [egds]):
    it inserts the batch, and the inserted facts seed both trigger
    discovery and the EGD violation search, so the sealed bulk is never
    rescanned. On a non-fixpoint the batch run is still sound but may miss
    triggers that do not touch the batch. Every later round is the same in
    both modes: a TGD round seeded by the previous round's new facts, then
    EGD merges seeded by them, the facts a merge rewrote joining the next
    frontier.

    Rules without existential head variables fire as their body matches
    are found, without a trigger record or satisfaction check (adding a
    fact is already idempotent); such a match counts as a fired trigger
    when it adds a fact.

    Every search runs compiled ({!Tgd_db.Col_eval}) over the rows as they
    were when it began. A row a firing inserts meanwhile is in the round's
    new facts, so the next round finds every match that uses it: no match
    is lost. The restricted check compiles when it runs, so it sees every
    fact inserted before it.

    Invented nulls are numbered above [null_floor] (default:
    {!Instance.max_null}[ inst], scanned on the first invention), so
    chasing an instance that already holds nulls never reuses their labels;
    callers that keep a materialization alive across batches thread the
    floor through to skip the scan. When [gov] is supplied it takes over
    budgeting entirely ([max_rounds]/[max_facts] are ignored — configure
    the governor's {!Tgd_exec.Budget} instead) and the run's counters land
    in its telemetry under the keys chosen by [keys], plus [eval.steps] for
    the join search, which the governor also bounds, and [egd.merges]. *)
