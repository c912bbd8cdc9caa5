(** Backward reachability: iterated preimage to a fixpoint.

    [R0 = T], [R(k+1) = R(k) ∪ Pre(frontier)] with [frontier = the states
    added in step k]; terminates when no new states appear (guaranteed —
    the state space is finite). The reached set is maintained as a BDD
    over the state variables regardless of the per-step engine, so the
    SAT engines and the native BDD engine are directly comparable. *)

(** The per-step preimage method. [E_incremental] is different in kind:
    instead of rebuilding the transition CNF and a fresh solver at every
    frame, it drives a persistent {!Reach_inc} session (one CNF, one
    solver, frontier cubes posed as assumptions, learnt clauses
    surviving frame to frame). Its results are bit-identical to the
    rebuild-per-frame engines'. *)
type engine = E_sds | E_sds_dynamic | E_blocking_lift | E_bdd | E_incremental

val engine_name : engine -> string

type step = {
  index : int;              (** 1-based preimage step *)
  frontier_states : float;  (** states newly added by this step *)
  total_states : float;     (** |R| after this step *)
  frontier_cubes : int;     (** cubes handed to the next step's target *)
  time_s : float;
}

type result = {
  engine : engine;
  steps : step list;        (** in order; empty when [T] is already closed *)
  fixpoint : bool;          (** [false] only when [max_steps] stopped it *)
  total_states : float;
  reached : Ps_bdd.Bdd.t;   (** over state variables [0 .. nstate-1] *)
  man : Ps_bdd.Bdd.man;
  layers : Ps_bdd.Bdd.t list;
      (** [layers] element [i] = states within backward distance [i]
          ([List.hd layers] is the target set itself) *)
  time_s : float;
}

(** [backward ?engine ?incremental ?max_steps ?trace circuit target]
    runs the fixpoint. Default engine [E_sds], default [max_steps] 1000.

    [~incremental:true] forces the {!Reach_inc} session regardless of
    [engine] (equivalent to [~engine:E_incremental]); the result's
    [engine] field is then [E_incremental].

    [trace] receives a {!Ps_util.Trace.Frame_start} /
    {!Ps_util.Trace.Frame_done} pair per fixpoint frame (from either
    path — the rebuild-per-frame baseline reports [learnts = 0] and
    [blocked = 0], since nothing persists across its frames) plus the
    underlying solver events.

    [store] persists the fixpoint into a durable solution log: the
    target's canonical cubes under a [frame = 0] checkpoint, then each
    frame's fresh-set cubes under a per-frame checkpoint — see
    {!Session_store}. [resume] instead replays a recovered log
    (rebuilding reached set, layers and steps bit-identically at the
    set level) and continues the fixpoint from the frame after the last
    checkpoint; replayed frames count toward [max_steps], so a killed
    and resumed run ends at the same total frame count as an
    uninterrupted one. Raises [Invalid_argument] when the log does not
    match the circuit/target. *)
val backward :
  ?engine:engine ->
  ?incremental:bool ->
  ?max_steps:int ->
  ?trace:Ps_util.Trace.sink ->
  ?store:Ps_store.Store.writer ->
  ?resume:Ps_store.Store.recovered ->
  Ps_circuit.Netlist.t ->
  Ps_allsat.Cube.t list ->
  result

(** [mem r state_bits] — is the state in the reached set? *)
val mem : result -> bool array -> bool

(** [trace r circuit ~from] extracts a witness: the input vectors (one
    per cycle, in {!Ps_circuit.Netlist.inputs} order) driving the
    circuit from [from] into the target set, following the distance
    layers strictly inward — so the trace has minimal length. [None]
    when [from] is not in the reached set. The extraction makes one SAT
    call per step. *)
val trace :
  result -> Ps_circuit.Netlist.t -> from:bool array -> bool array list option
