module Trace = Ps_util.Trace
module Stats = Ps_util.Stats
module Run = Ps_allsat.Run

type t = {
  spans : Spans.t;
  engine_stats : Stats.t;
  lock : Mutex.t;
  mutable engine_cubes : int;
  mutable solves : int;
  mutable unsat : int;
  mutable restarts : int;
  mutable reduce_dbs : int;
  mutable gcs : int;
  mutable cube_fixed : int;
  mutable cube_width : int;
  mutable frame : int option;
  mutable frames : int;
  mutable learnts : int;
  mutable new_states : int;
  mutable blocked : int;
  mutable frame_sat_calls : int;
  mutable frame_conflicts : int;
  shards : (string, int) Hashtbl.t;
  mutable sink_s : float;
  mutable offered : int;
  mutable store_bytes : int;
  mutable store_kept : int;
  mutable store_subsumed : int;
  mutable store_checkpoints : int;
  mutable verify_sat_calls : int;
  mutable verify_cubes : int;
}

let create () =
  {
    spans = Spans.create ();
    engine_stats = Stats.create ();
    lock = Mutex.create ();
    engine_cubes = 0;
    solves = 0;
    unsat = 0;
    restarts = 0;
    reduce_dbs = 0;
    gcs = 0;
    cube_fixed = 0;
    cube_width = 0;
    frame = None;
    frames = 0;
    learnts = 0;
    new_states = 0;
    blocked = 0;
    frame_sat_calls = 0;
    frame_conflicts = 0;
    shards = Hashtbl.create 64;
    sink_s = 0.0;
    offered = 0;
    store_bytes = 0;
    store_kept = 0;
    store_subsumed = 0;
    store_checkpoints = 0;
    verify_sat_calls = 0;
    verify_cubes = 0;
  }

(* Worker domains emit through the engine's locked sink, so events are
   already serialized when they reach this callback. *)
let on_event t ~time_s:_ (ev : Trace.event) =
  match ev with
  | Trace.Solve { result; _ } ->
    t.solves <- t.solves + 1;
    if result = "unsat" then t.unsat <- t.unsat + 1
  | Trace.Restart _ -> t.restarts <- t.restarts + 1
  | Trace.Reduce_db _ -> t.reduce_dbs <- t.reduce_dbs + 1
  | Trace.Gc _ -> t.gcs <- t.gcs + 1
  | Trace.Cube { fixed; width; _ } ->
    t.cube_fixed <- t.cube_fixed + fixed;
    t.cube_width <- t.cube_width + width
  | Trace.Frame_start { learnts; _ } ->
    t.frames <- t.frames + 1;
    t.learnts <- t.learnts + learnts;
    t.frame <-
      Some (Spans.start t.spans ~name:"frame" ~parent:(Spans.current t.spans))
  | Trace.Frame_done { new_cubes; blocked; sat_calls; conflicts; _ } ->
    t.new_states <- t.new_states + new_cubes;
    t.blocked <- t.blocked + blocked;
    t.frame_sat_calls <- t.frame_sat_calls + sat_calls;
    t.frame_conflicts <- t.frame_conflicts + conflicts;
    Option.iter (Spans.finish t.spans) t.frame;
    t.frame <- None
  | Trace.Shard_start { shard; _ } ->
    Hashtbl.replace t.shards shard
      (Spans.start t.spans ~name:"shard" ~parent:(Spans.current t.spans))
  | Trace.Shard_done { shard; _ } -> (
    match Hashtbl.find_opt t.shards shard with
    | Some id ->
      Hashtbl.remove t.shards shard;
      Spans.finish t.spans id
    | None -> ())
  | _ -> ()

(* [on_shard] runs on worker domains concurrently, hence the lock. *)
let timed_sink t (s : Run.sink) =
  let account ~offered f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.protect t.lock (fun () ->
        t.sink_s <- t.sink_s +. dt;
        t.offered <- t.offered + offered)
  in
  {
    Run.on_cube = (fun c -> account ~offered:1 (fun () -> s.Run.on_cube c));
    on_shard =
      (fun ~prefix ~cubes ->
        account ~offered:0 (fun () -> s.Run.on_shard ~prefix ~cubes));
  }

let observer t =
  {
    Exec.trace = Trace.callback (on_event t);
    span = (fun name f -> Spans.with_span t.spans name f);
    wrap = timed_sink t;
  }

let record t (d : Exec.detail) =
  Option.iter
    (fun (r : Preimage.Engine.result) ->
      Stats.merge ~into:t.engine_stats (Preimage.Engine.stats r);
      t.engine_cubes <- t.engine_cubes + r.Preimage.Engine.n_cubes)
    d.Exec.engine;
  Option.iter
    (fun (s : Ps_store.Store.stats) ->
      t.store_bytes <- t.store_bytes + s.Ps_store.Store.bytes;
      t.store_kept <- t.store_kept + s.Ps_store.Store.cubes;
      t.store_subsumed <- t.store_subsumed + s.Ps_store.Store.subsumed_on_write;
      t.store_checkpoints <- t.store_checkpoints + s.Ps_store.Store.checkpoints)
    d.Exec.store;
  Option.iter
    (fun (v : Ps_store.Verify.report) ->
      t.verify_sat_calls <- t.verify_sat_calls + v.Ps_store.Verify.sat_calls;
      t.verify_cubes <- t.verify_cubes + v.Ps_store.Verify.cubes)
    d.Exec.verify
