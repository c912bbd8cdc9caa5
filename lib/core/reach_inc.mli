(** Incremental frame-to-frame backward reachability.

    A fixpoint that rebuilt its SAT problem per frame would pay, at
    {e every} frame: a target-block graft, a Tseitin encoding of the
    transition cone, a fresh solver, and — most expensively — the loss
    of every learnt clause the previous frame derived. A session pays
    none of these:

    - the transition-relation CNF (the cone of {e all} next-state nets)
      is encoded {e once} at {!create} into one persistent
      {!Ps_sat.Solver};
    - each frame's frontier constraint ("the next state lies in the
      current frontier") is never a clause: the frame runs one
      {e sweep} per frontier cube, with the cube's next-state literals
      as the [solve] assumptions, so a frame adds no variable and
      nothing that would need retracting;
    - states already reached are excluded by {e permanent} blocking
      clauses over the state variables, added only for the cubes a
      frame discovers (earlier frames' blocks persist, so no frame ever
      re-blocks the accumulated reached set);
    - learnt clauses survive every frame boundary: they are implied by
      the transition CNF and the blocking clauses, never by an
      assumption.

    A sweep is lifted blocking all-SAT over the state variables. Each
    model is lifted by justifying the frontier cube's assumed next-state
    nets through the netlist ({!Ps_allsat.Lifting.justify}) with the
    model's inputs held: only the state bits the justification needs
    stay fixed, so every state of the lifted cube steps into the
    frontier cube. The cube is blocked with {!Ps_sat.Solver.block} the
    moment it is found — sound, because every state in it is reached
    once the frame ends — and the sweep's next solve (under the same
    assumptions) continues from the blocking clause's assertion level.
    A lifted cube joins the fresh set minus the states reached before
    the frame; a cube with no fixed bit blocks everything, and every
    later sweep is Unsat at once. Each frame thus emits {e lifted cubes}
    covering [Pre(frontier) \ reached]; the reached set, layers and step
    counts equal the BDD oracle's ({!Reach.backward} [~engine:E_bdd];
    the differential suite checks this on hundreds of random circuits).
    Use {!Reach.backward} for the drop-in interface, or drive frames one
    at a time with {!create}/{!frame}. *)

(** Per-frame statistics, in frame order. *)
type frame = {
  index : int;              (** 1-based frame number *)
  frontier_cubes : int;     (** frontier cubes, one sweep each *)
  new_cubes : int;          (** lifted cubes found: one per model, each
                                holding at least one new state, so at
                                most [frontier_states] *)
  blocking_clauses : int;   (** blocking clauses added {e this} frame,
                                one per lifted cube (equals
                                [new_cubes]); never grows with the total
                                reached set *)
  sat_calls : int;          (** solve calls: models plus one unsat
                                answer per sweep *)
  conflicts : int;          (** conflicts spent inside this frame *)
  learnts_start : int;      (** learnt clauses alive when the frame began:
                                knowledge inherited from earlier frames *)
  frontier_states : float;  (** states newly added by this frame *)
  total_states : float;     (** |reached| after this frame: the previous
                                total plus [frontier_states] *)
  time_s : float;
}

type result = {
  frames : frame list;
  fixpoint : bool;          (** [false] only when [max_steps] stopped it *)
  total_states : float;
  reached : Ps_bdd.Bdd.t;   (** over state variables [0 .. nstate-1] *)
  man : Ps_bdd.Bdd.man;
  layers : Ps_bdd.Bdd.t list;
      (** cumulative, [List.hd] = the target set *)
  time_s : float;
}

(** A running session. *)
type t

(** [create ?trace circuit target] encodes the transition cone and
    blocks the target cubes (the initial reached set), which are the
    first frontier. Raises [Invalid_argument] when the circuit has no latches
    (as {!Reach.backward}).

    [store] persists the session into a durable solution log
    ({!Ps_store.Store}): the target's canonical cubes and a
    [frame = 0] checkpoint at creation, then each frame's fresh-set
    cubes and a per-frame checkpoint carrying the frame statistics.
    [resume] rebuilds a killed session from a recovered log instead:
    every recovered cube is re-blocked permanently, the reached set /
    layers / frame records are reconstructed bit-identically (at the
    set level), and the next {!frame} call runs frame [n+1]. Raises
    [Invalid_argument] when the log does not match the circuit/target
    ({!Session_store.check_resume}). *)
val create :
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  t

(** [frame ?on_cube t] runs one fixpoint frame: enumerate
    [Pre(frontier) \ reached], one sweep per frontier cube, and extend
    the reached set. Returns [false] when the fixpoint was already
    reached (no frame was run). [on_cube frontier_cube lits] sees each
    lifted cube as it is blocked, as (state bit, value) literals, with
    the frontier cube whose sweep found it. *)
val frame :
  ?on_cube:(Ps_allsat.Cube.t -> (int * bool) list -> unit) -> t -> bool

(** [fixpoint_reached t] — is the frontier empty? *)
val fixpoint_reached : t -> bool

(** [result t] packages the session's current state (callable at any
    point; [fixpoint] reflects {!fixpoint_reached}). *)
val result : t -> result

(** [solver t] is the persistent solver (for stats inspection; mutating
    it voids the session's invariants). *)
val solver : t -> Ps_sat.Solver.t

(** [run ?max_steps ?trace circuit target] drives a fresh session to the
    fixpoint (or [max_steps] frames, default 1000). With [resume],
    frames replayed from the log count toward [max_steps], so an
    interrupted-and-resumed run stops at the same total frame count as
    an uninterrupted one. *)
val run :
  ?max_steps:int ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  result
