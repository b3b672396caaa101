(** Per-run resource budgets for the governed execution layer.

    A budget is a bag of optional limits, one per named counter plus a
    wall-clock deadline. [None] means unlimited. Engines charge their
    counters through a {!Governor}; the governor compares each counter
    against the budget and flips into the stopped state when a limit is
    reached, at which point every loop that polls the governor winds down
    cooperatively. *)

type t = {
  chase_rounds : int option;  (** breadth-first chase rounds *)
  chase_facts : int option;  (** total facts in the chased instance (gauge) *)
  chase_triggers : int option;  (** trigger applications fired *)
  chase_delta_triggers : int option;
      (** trigger applications fired while extending a chased instance by
          an insert batch ({!Tgd_chase.Chase.run} with [batch]) *)
  chase_delta_facts : int option;
      (** facts added by an insert-batch chase run (gauge) *)
  rewrite_cqs : int option;  (** candidate CQs generated by the rewriter *)
  rewrite_expansions : int option;  (** rewrite queue pops (expansions) *)
  rewrite_depth : int option;  (** rewriting depth reached (gauge) *)
  rewrite_datalog_patterns : int option;
      (** intensional patterns installed by the Datalog rewriter
          ({!Tgd_rewrite.Datalog_rw}) *)
  rewrite_datalog_rules : int option;
      (** Datalog rules emitted by the Datalog rewriter *)
  rewrite_datalog_facts : int option;
      (** facts derived while saturating a rewritten Datalog program
          (gauge) *)
  containment_checks : int option;  (** containment checks attempted *)
  eval_steps : int option;  (** join-search steps during evaluation *)
  deadline_s : float option;  (** wall-clock budget for the run, seconds *)
}

val unlimited : t
(** Every field [None]: the governor never stops on its own. *)

(** {1 Counter keys}

    The canonical counter names, shared by budgets, telemetry and
    diagnostics. *)

val key_chase_rounds : string
val key_chase_facts : string
val key_chase_triggers : string
val key_chase_delta_triggers : string
val key_chase_delta_facts : string
val key_rewrite_cqs : string
val key_rewrite_expansions : string
val key_rewrite_depth : string
val key_rewrite_datalog_patterns : string
val key_rewrite_datalog_rules : string
val key_rewrite_datalog_facts : string
val key_containment_checks : string
val key_eval_steps : string

val limit : t -> string -> int option
(** The limit configured for a counter key, if any. Unknown keys are
    unlimited. *)

val of_string : ?base:t -> string -> (t, string) result
(** Parse a comma-separated budget spec such as
    ["chase.rounds=100,rewrite.cqs=5000,deadline=2.5"]. Each key is either a
    canonical counter name (dots optional: [chase.rounds] or [rounds]) or
    [deadline] (float seconds). Unknown keys and malformed values yield
    [Error]. Starts from [base] (default {!unlimited}) so a spec only
    overrides what it mentions. *)

val to_string : t -> string
(** Round-trips through {!of_string}; [""] for {!unlimited}. *)
