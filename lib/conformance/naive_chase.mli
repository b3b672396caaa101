(** A deliberately naive restricted chase: the conformance harness's
    reference for {!Tgd_chase.Chase.run}.

    Every round recomputes every trigger of every rule over the whole
    instance with {!Eval.bindings} — no delta seeding, no fired-key
    table, no inline firing of existential-free rules — and fires, in
    discovery order, each trigger whose head is not yet satisfied. It stops
    at the first round that fires nothing. Sharing no loop with the
    production chase is the point: the update-sequence invariant compares
    the production batch run against this from-scratch chase, so a bug in
    the production frontier discipline cannot hide on both sides. *)

val run : gov:Tgd_exec.Governor.t -> Tgd_logic.Program.t -> Tgd_db.Instance.t -> Tgd_chase.Chase.stats
(** Mutates the instance. Nulls are numbered above
    {!Tgd_db.Instance.max_null}. Charges [chase.rounds], [chase.triggers]
    and [eval.steps] and gauges [chase.facts]; a run the governor stops
    before a round fires nothing reports [Truncated]. [inserted] and
    [merges] are always 0. *)
