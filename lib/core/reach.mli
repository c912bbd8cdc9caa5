(** Backward reachability: iterated preimage to a fixpoint.

    [R0 = T], [R(k+1) = R(k) ∪ Pre(frontier)] with [frontier = the states
    added in step k]; terminates when no new states appear (guaranteed —
    the state space is finite). The reached set is a BDD over the state
    variables on either engine, so the two are directly comparable. *)

(** The fixpoint engine. [E_incremental] drives a {!Reach_inc} session:
    one transition CNF and one solver for the whole run, frontier cubes
    posed as assumptions, every model lifted to a justified cube and
    blocked for good. [E_bdd] is the independent oracle: each frame's
    preimage comes from {!Bdd_engine}, with no SAT solver and nothing
    carried from frame to frame. Both give the same steps, reached set
    and layers. *)
type engine = E_bdd | E_incremental

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
    runs the fixpoint. Default engine [E_incremental], default
    [max_steps] 1000. [~incremental:true] forces the session whatever
    [engine] says.

    [trace] receives a {!Ps_util.Trace.Frame_start} /
    {!Ps_util.Trace.Frame_done} pair per session frame plus the
    underlying solver events; the BDD oracle emits none.

    [store] persists the session into a durable solution log: the
    target's canonical cubes under a [frame = 0] checkpoint, then each
    frame's fresh-set cubes under a per-frame checkpoint — see
    {!Session_store}. [resume] instead rebuilds the session from a
    recovered log (reached set, layers and steps bit-identical at the
    set level) and continues the fixpoint from the frame after the last
    checkpoint; replayed frames count toward [max_steps], so a killed
    and resumed run ends at the same total frame count as an
    uninterrupted one. Raises [Invalid_argument] when the log does not
    match the circuit/target, and when [store] or [resume] is given to
    the BDD oracle. *)
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
