(** Glue between the reachability fixpoints and the durable solution
    store ({!Ps_store.Store}).

    A persisted reachability session is a sequence of {e frame}
    checkpoints: the cubes logged before the [frame = 0] checkpoint are
    the canonical cubes of the target set; the cubes between the
    [frame = n-1] and [frame = n] checkpoints are the canonical cubes
    of frame [n]'s {e fresh} set ([Pre(frontier) \ reached]); each
    frame checkpoint carries the frame's step statistics. Canonical
    here means [Bdd.iter_cubes] order of the set's BDD, which makes a
    resumed session's reached set, layers and steps reconstruct
    bit-identically. *)

(** One reconstructed frame: its checkpoint and the fresh-set cubes
    logged for it (frame 0's cubes are the target set). *)
type rframe = {
  ck : Ps_store.Store.checkpoint;
  cubes : Ps_allsat.Cube.t list;
}

(** [frames_of_recovered r] segments the recovered cube stream by
    ["frame"] checkpoint, in frame order. Cubes logged under
    intervening non-frame checkpoints (e.g. ["resume"]) roll into the
    next frame. *)
val frames_of_recovered : Ps_store.Store.recovered -> rframe list

(** Checkpoint stat accessors; missing keys read as [0] / [0.]. *)
val int_stat : Ps_store.Store.checkpoint -> string -> int

val float_stat : Ps_store.Store.checkpoint -> string -> float

(** [bdd_of_cubes man cubes] is the union of the cubes as a BDD. *)
val bdd_of_cubes : Ps_bdd.Bdd.man -> Ps_allsat.Cube.t list -> Ps_bdd.Bdd.t

(** [cubes_of_bdd f ~width] is [f]'s canonical cube list: one cube per
    [Bdd.iter_cubes] path over variables [0 .. width-1], in that order.
    {!bdd_of_cubes} of the result is [f]. *)
val cubes_of_bdd : Ps_bdd.Bdd.t -> width:int -> Ps_allsat.Cube.t list

(** [persist_frame store ~frame ~cubes ~ints ~floats] appends the
    frame's cubes and its ["frame"] checkpoint; no-op on [None]. *)
val persist_frame :
  Ps_store.Store.writer option ->
  frame:int ->
  cubes:Ps_allsat.Cube.t list ->
  ints:(string * int) list ->
  floats:(string * float) list ->
  unit

(** [check_resume r ~nstate ~target] validates a recovered log against
    the session being resumed: the widths must agree and the log's
    frame-0 set must equal [target] (as BDDs in [man]). Returns the
    frame list. Raises [Invalid_argument] on mismatch or when the log
    has no frame-0 checkpoint. *)
val check_resume :
  Ps_store.Store.recovered ->
  man:Ps_bdd.Bdd.man ->
  nstate:int ->
  target:Ps_bdd.Bdd.t ->
  rframe list
