(** The traced run's observer: it counts trace events, times the store
    sink, opens spans for frames and shards, and sums the counters of
    the result records a query returns. *)

type t = {
  spans : Spans.t;
  engine_stats : Ps_util.Stats.t;  (** summed engine {!Ps_util.Stats} bags *)
  lock : Mutex.t;
  mutable engine_cubes : int;
  mutable solves : int;  (** [Solve] events *)
  mutable unsat : int;  (** of which unsat *)
  mutable restarts : int;
  mutable reduce_dbs : int;
  mutable gcs : int;
  mutable cube_fixed : int;  (** Σ [fixed] over [Cube] events *)
  mutable cube_width : int;  (** Σ [width] over [Cube] events *)
  mutable frame : int option;  (** open frame span *)
  mutable frames : int;
  mutable learnts : int;  (** Σ [learnts] over [Frame_start] events *)
  mutable new_states : int;
  mutable blocked : int;
  mutable frame_sat_calls : int;
  mutable frame_conflicts : int;
  shards : (string, int) Hashtbl.t;  (** open shard spans by prefix *)
  mutable sink_s : float;  (** time inside the wrapped store sink *)
  mutable offered : int;  (** [on_cube] calls *)
  mutable store_bytes : int;
  mutable store_kept : int;
  mutable store_subsumed : int;
  mutable store_checkpoints : int;
  mutable verify_sat_calls : int;
  mutable verify_cubes : int;
}

val create : unit -> t

(** [observer t] is the {!Exec.obs} that feeds [t]. *)
val observer : t -> Exec.obs

(** [record t d] adds the counters of one query's result records. *)
val record : t -> Exec.detail -> unit
