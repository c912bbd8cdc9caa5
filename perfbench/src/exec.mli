(** One query through the program's public entry points, and the
    independent oracle that judges its answer. *)

type prepared = {
  kind : Workload.kind;
  query : Workload.query;
  instance : Preimage.Instance.t option;  (** one-step workloads only *)
}

(** [prepare k q] is the set-up of one query: [Instance.make] for the
    one-step workloads, nothing for the reach workloads. *)
val prepare : Workload.kind -> Workload.query -> prepared

(** [instance p] is the prepared instance. Raises [Invalid_argument] on a
    reach query. *)
val instance : prepared -> Preimage.Instance.t

(** What a query returned, reduced to what the oracle checks. *)
type answer = {
  solutions : float;  (** projected solutions, or reached states *)
  steps : int;  (** fixpoint steps; [0] for one-step queries *)
  complete : bool;  (** exhaustive enumeration / fixpoint reached *)
  cubes : int;  (** cubes of the result (see [cover_cubes]) *)
  certified : (unit, string) result;  (** [certify]: the log verified *)
}

(** The records a traced run reads counters from. *)
type detail = {
  engine : Preimage.Engine.result option;
  store : Ps_store.Store.stats option;
  verify : Ps_store.Verify.report option;
}

(** How a run is observed: the trace sink handed to the program, a span
    wrapper around each call into a layer, and a wrapper for the
    {!Ps_allsat.Run.sink} the [certify] pipeline passes in. *)
type obs = {
  trace : Ps_util.Trace.sink;
  span : 'a. string -> (unit -> 'a) -> 'a;
  wrap : Ps_allsat.Run.sink -> Ps_allsat.Run.sink;
}

(** No tracing, no spans, no wrapping. *)
val quiet : obs

(** [one_step_answer ?certified ~cubes r] is the answer of an engine run. *)
val one_step_answer :
  ?certified:(unit, string) result -> cubes:int -> Preimage.Engine.result -> answer

(** [run ?obs ~deadline_s ~log p] answers one query under a per-query
    [Ps_util.Budget] deadline (where the entry point takes one). [log] is
    the scratch path of the [certify] store log, removed afterwards. *)
val run : ?obs:obs -> deadline_s:float -> log:string -> prepared -> answer * detail

type expected

(** [oracle p] computes the expected answer with the BDD engines:
    [Bdd_engine] for one-step queries, [Reach.backward ~engine:E_bdd]
    for reach queries. *)
val oracle : prepared -> expected

(** [check a e] accepts a complete answer that agrees with the oracle
    (and, for [certify], whose log verified). *)
val check : answer -> expected -> (unit, string) result
