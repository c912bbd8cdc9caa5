(** CDCL SAT solver.

    A conflict-driven clause-learning solver in the post-GRASP/Chaff
    architecture: two-watched-literal propagation, first-UIP conflict
    analysis with clause minimization, VSIDS variable activities, phase
    saving, Luby restarts, and activity-based learnt-clause deletion.

    The solver is {e incremental}: clauses may be added between [solve]
    calls (each [add_clause] first backtracks to decision level 0), and
    [solve] accepts assumptions — literals treated as pseudo-decisions
    below all real decisions — which is how the all-solutions engines
    probe satisfiability of partial assignments while keeping every
    learnt clause.

    {b The Sat trail.} A [Sat] answer leaves the model's trail in
    place. {!block} adds a clause that this trail falsifies and
    backjumps only to the clause's assertion level; the next [solve]
    under the {e same} assumptions continues from the kept prefix
    instead of re-deciding the whole assignment. Every other call
    returns to the root first: {!add_clause}, {!load}, a [solve] with
    different assumptions, and every [Unsat] or [Unknown] answer. A
    [solve] repeated after [Sat] with nothing in between returns the
    same model at once.

    Clause storage is a flat {!Arena}: all literals live in one
    contiguous int array, a clause is an integer offset, and watcher
    lists are flat vectors of (clause, blocker-literal) pairs. Learnt-DB
    reduction only marks clauses dead; when more than 20% of the arena
    is dead, a copying collection compacts it and relocates every
    watcher and reason reference. *)

type t

(** [Unknown] is only returned by budgeted [solve] calls: the resource
    budget ran out (deadline, conflict/decision/propagation limit, or
    cancellation) before the question was decided. The solver is left
    at decision level 0 with all learnt clauses intact, so a later call
    — with a fresh budget — resumes from the accumulated knowledge. *)
type result = Sat | Unsat | Unknown

val create : unit -> t

(** [new_var t] allocates a fresh variable and returns it. *)
val new_var : t -> Lit.var

(** [nvars t] is the number of allocated variables. *)
val nvars : t -> int

(** [ensure_vars t n] allocates variables until [nvars t >= n]. *)
val ensure_vars : t -> int -> unit

(** [add_clause t lits] adds a clause over existing variables. The solver
    backtracks to level 0 first; tautologies are dropped, duplicate and
    root-level-false literals removed. Returns [false] iff the clause
    makes the formula trivially unsatisfiable at the root (the solver is
    then permanently unsat). *)
val add_clause : t -> Lit.t list -> bool

(** [block t lits] adds [lits] as a permanent problem clause, like
    {!add_clause}, but keeps the trail of the last [Sat] answer when
    that trail falsifies every literal of [lits] — the blocking clause
    of an all-solutions loop. The clause watches its two highest-level
    literals. If the highest level is unique, the solver backjumps to
    the second-highest level and asserts the highest literal there with
    the clause as its reason; on a tie it backjumps to one level below
    the highest. A following [solve] under the same assumptions resumes
    from that prefix.

    When there is no kept trail, or [lits] is not all-false under it,
    or at most one of its literals lies above the root, [block] is
    exactly {!add_clause}. Same return contract as {!add_clause}. *)
val block : t -> Lit.t list -> bool

(** [load t cnf] allocates [cnf]'s variables and adds all its clauses. *)
val load : t -> Cnf.t -> bool

(** [solve ?assumptions ?budget ?trace t] decides satisfiability of the
    clause set under the given assumption literals. Learnt clauses
    persist across calls. A [Sat] answer keeps its trail (see {!block});
    the next call resumes from it under the same assumptions and starts
    from the root otherwise.

    [budget] makes the call interruptible: conflicts, decisions and
    propagations are charged against it as they happen and the deadline
    / cancellation flag is polled at every conflict and every batch of
    decisions; on exhaustion the call returns [Unknown] (see {!result}).
    Without a budget, [solve] never returns [Unknown]. The same budget
    may be shared by many [solve] calls — charges accumulate — which is
    how the all-solutions engines bound a whole enumeration.

    [trace] receives {!Ps_util.Trace} events: a [Restart] per restart, a
    [Reduce_db] per learnt-DB reduction, and a [Solve] when the call
    finishes. *)
val solve :
  ?assumptions:Lit.t list ->
  ?budget:Ps_util.Budget.t ->
  ?trace:Ps_util.Trace.sink ->
  t ->
  result

(** [model_value t v] is the value of [v] in the satisfying assignment
    found by the last [solve] call that returned [Sat].
    Raises [Invalid_argument] if the last call did not return [Sat]. *)
val model_value : t -> Lit.var -> bool

(** [model t] is the full satisfying assignment of the last [Sat] answer. *)
val model : t -> bool array

(** [okay t] is [false] once the clause set is unsatisfiable at the root. *)
val okay : t -> bool

(** Root-level value of a variable, if it is fixed by unit propagation at
    decision level 0. *)
val root_value : t -> Lit.var -> bool option

(** Solver statistics: ["conflicts"], ["decisions"], ["propagations"],
    ["restarts"], ["learnt"], ["deleted"], ["solve_calls"],
    ["minimized_lits"], ["reduce_dbs"], ["watcher_visits"],
    ["blocker_skips"] (watcher visits resolved by the blocker literal
    alone, without touching clause memory), ["arena_words"],
    ["arena_bytes"], ["arena_live_words"], ["arena_gcs"],
    ["arena_gc_words"] (cumulative words reclaimed by compaction). *)
val stats : t -> Ps_util.Stats.t

(** [n_clauses t] is the number of live problem clauses (excluding learnt). *)
val n_clauses : t -> int

(** [n_learnts t] is the number of live learnt clauses. *)
val n_learnts : t -> int

(** [n_conflicts t] is the number of conflicts since {!create}: the
    ["conflicts"] statistic without building the {!stats} table. *)
val n_conflicts : t -> int

(** [unsat_core t] — after [solve ~assumptions] returned [Unsat]: a
    subset of the assumptions that already makes the clauses
    unsatisfiable (not necessarily minimal; empty when the clause set is
    unsatisfiable on its own). *)
val unsat_core : t -> Lit.t list

(** {2 Introspection and testing hooks}

    These expose internal machinery for white-box tests and debugging;
    no engine should depend on them. *)

(** Checks the watcher/arena invariants: every clause list entry is a
    live arena block, the arena's live blocks are exactly the registered
    clauses, every watcher references a live clause through the negation
    of one of its two watched literals, and every clause is watched
    exactly twice. Returns [Error msg] describing the first violation. *)
val check_watches : t -> (unit, string) Stdlib.result

(** [dbg_assignment t v] is [Some (value, decision level)] for an
    assigned variable, [None] for an unassigned one — the trail as the
    solver holds it now. *)
val dbg_assignment : t -> Lit.var -> (bool * int) option

(** Force a learnt-DB reduction (normally triggered by the learnt-clause
    cap during search). May trigger an arena collection. *)
val dbg_reduce_db : t -> unit

(** Force an arena collection regardless of the wasted-space trigger. *)
val dbg_gc : t -> unit

(** Set the VSIDS bump increment (to exercise the rescale path). *)
val dbg_set_var_inc : t -> float -> unit

(** Current arena length in words (live + dead). *)
val arena_words : t -> int

(** Number of arena collections performed so far. *)
val arena_gcs : t -> int
