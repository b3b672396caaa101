(** Polynomial-size Datalog rewriting (the Gottlob–Schwentick direction).

    The UCQ rewriter ({!Rewrite}) materializes every reachable rewriting as
    a separate disjunct, so families of subqueries that differ only in one
    local step multiply out: a depth-[n] concept hierarchy yields [n+1]
    disjuncts, and queries over non-FO-rewritable rule sets never terminate
    at all. This module emits the same rewriting closure as a {e Datalog
    program} instead: each distinct subquery {e pattern} becomes one shared
    intensional predicate, and each one-step rewriting becomes one rule, so
    common subqueries are represented once no matter how many rewriting
    paths reach them.

    {2 Construction}

    The rewriter first computes the {e affected positions} of the rule set
    (Calì–Gottlob–Kifer): the least set of predicate positions containing
    every existential head position and closed under frontier propagation.
    In any chase, labeled nulls can only appear at affected positions;
    every other position is constant-valued.

    A derived CQ is then {e decomposed}: its body atoms are grouped into
    components connected through {e null-capable} variables — open
    variables all of whose occurrences sit at affected positions. Variables
    occurring at an unaffected position are constant-valued in every chase
    match, so certain answers distribute over the components as a join on
    them, and no piece unifier can ever merge such a variable into an
    existential class (all occurrences of an existentially unified variable
    must unify into affected positions). Each component, with its shared
    and answer variables as the bound tuple, is memoized as a pattern: an
    intensional predicate with a {e base rule} matching the component
    extensionally, explored breadth-first for further rewriting steps
    ({!Step}), each step emitting one rule from the decomposition of its
    result.

    The emitted program may be recursive: the least fixpoint of the rules
    equals the (possibly infinite) union of reachable rewritings, so
    queries with no finite UCQ rewriting — e.g. the paper's example 2 —
    are answered {e exactly} by semi-naive evaluation
    ([Tgd_obda.Target.datalog_answers], which saturates with the chase's
    fixpoint loop) in polynomial data complexity. The
    {!result.nonrecursive} flag reports whether the intensional dependency
    graph is acyclic (a stratified, nonrecursive program in the
    Gottlob–Schwentick sense).

    {2 Governance}

    Pattern installation charges {!Tgd_exec.Budget.key_rewrite_datalog_patterns}
    and rule emission {!Tgd_exec.Budget.key_rewrite_datalog_rules}; the
    structural {!config} limits latch {!Tgd_exec.Governor} stops exactly
    like external budgets. Truncation is {e sound}: base rules are emitted
    when a pattern is installed, so an interrupted exploration only loses
    answers, it never invents them. *)

open Tgd_logic
open Tgd_exec

type outcome =
  | Complete  (** the exploration reached a fixpoint; the program is exact *)
  | Truncated of Governor.diagnostics
      (** a budget, deadline or structural limit stopped the exploration;
          the program is a sound under-approximation *)

type stats = {
  patterns : int;  (** intensional patterns installed *)
  rules : int;  (** rules emitted (base + step + goal) *)
  base_rules : int;  (** extensional base rules among them *)
  explored : int;  (** patterns whose step relation was expanded *)
  affected : int;  (** affected positions of the normalized rule set *)
  oversize_dropped : int;
      (** derived CQs dropped for exceeding [max_body_atoms]; non-zero
          forces a [Truncated] outcome *)
}

type result = {
  program : Program.t;
      (** the emitted Datalog program: existential-free TGDs over the input
          signature plus the intensional predicates [__dlr#1 ... __dlr#k],
          numbered per run in installation order *)
  goal : Symbol.t;  (** the goal predicate [__dlr#goal], holding the query's answers *)
  arity : int;  (** arity of the goal predicate (the query's arity) *)
  nonrecursive : bool;
      (** whether the intensional dependency graph is acyclic *)
  outcome : outcome;
  stats : stats;
}

type config = {
  max_patterns : int;  (** structural cap on installed patterns *)
  max_body_atoms : int;  (** derived CQs above this size are dropped *)
}

val default_config : config
(** [{ max_patterns = 50_000; max_body_atoms = 64 }]. *)

val rewrite : ?config:config -> ?gov:Governor.t -> Program.t -> Cq.t -> result
(** [rewrite program q] compiles the certain-answer problem for [q] under
    [program] into a Datalog program: for every instance [I], the goal
    relation of the saturated program over [I] equals the certain answers
    of [q] — exactly when the outcome is [Complete], as a sound subset when
    [Truncated]. The rules come from the program's rewriting view
    ({!Tgd_logic.Program.rewriting}), built once per program; [q] may
    mention predicates outside the program's signature.

    Every run spells its predicates the same way, so a run interns at most
    the pattern names no earlier run needed. The program and the query must
    mention no predicate spelled [__dlr#...]; parsed input never does,
    since the lexer reads [#] as the start of a comment. Data may
    ([Tgd_obda.Target.datalog_answers] leaves such relations out of the
    saturation). *)

val intensional : Symbol.t -> bool
(** Whether the predicate is spelled like an artifact's intensional
    predicate, [__dlr#...]. Every intensional predicate of every run is,
    including those that head no rule (a pattern a truncated run never
    explored, or a goal whose query was too large to decompose); no
    predicate of the program or the query is. *)

val goal_query : result -> Cq.t
(** The trivial query [goal(V0, ..., Vn-1)] reading the goal relation of a
    saturated instance back out through {!Tgd_db.Col_eval.cq} — deduplicated,
    sorted, boolean-aware. *)

val pp : Format.formatter -> result -> unit
(** Prints the goal predicate and the emitted rules. *)
