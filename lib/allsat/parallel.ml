module Budget = Ps_util.Budget
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace

(* Guiding-path parallel enumeration.

   The projection space is partitioned into disjoint prefix cubes
   (guiding paths): every assignment of the first [depth] projection
   positions is one shard, and the union of the shards' solution sets is
   exactly the full solution set — no overlap, no coordination beyond
   the work queue. Each shard runs an ordinary sequential enumeration
   (any engine) in its own solver instance on a pool of OCaml 5
   domains.

   The queue starts with the [2^split_depth] guiding paths. A shard
   whose enumeration yields [resplit_threshold] cubes before completing
   is replaced by its two children (the prefix extended by the next
   projection position), so a skewed solution distribution deepens the
   partition only where the mass is. The shard tree this builds is a
   function of the problem alone — never of the worker count or the
   scheduling — which is what makes merged results reproducible across
   [jobs].

   What an overflowing shard already found is either discarded (the
   children redo it) or, under [run_retaining], kept in the merge under
   the shard's own prefix and handed to every child whose prefix it
   meets, for the child to block before it enumerates. Retention also
   makes a probe affordable: without an explicit [split_depth],
   [run_retaining] starts with the whole space as one probe shard
   capped at [probe_cubes] cubes. A query that fits is answered by a
   single solver with an unpinned cover, and no domain is spawned; a
   probe that overflows keeps its cubes and fans out to the guiding
   paths. [run] never probes, since an overflowed probe would be
   wasted work there.

   The merged cube list is deterministic: shard results are sorted by
   prefix (lexicographic, which is also enumeration order; an
   overflowed parent's ['-'] sorts before its children) and each
   shard's cubes are re-anchored under its prefix. *)

type shard_runner =
  prefix:Cube.t ->
  limit:int option ->
  budget:Budget.t option ->
  trace:Trace.sink ->
  Run.t

(* [blocked] holds the kept cubes of overflowed ancestors that meet
   [prefix]; it is always empty when overflowed work is discarded. *)
type task = { prefix : Cube.t; depth : int; blocked : Cube.t list }

(* One shard run that made it into the merge: its cubes re-anchored
   under its prefix, and whether it overflowed and was split (only
   retained when the caller asked for retention). *)
type kept = { task : task; run : Run.t; anchored : Cube.t list; split : bool }

(* What one worker did with one task. *)
type processed =
  | Kept of kept
  | Split of kept option  (* children enqueued; the run if retained *)
  | Dropped               (* cancelled before it ran *)

(* [extend prefix ~from ~upto] assigns positions [from..upto-1] of
   [prefix] every possible way, position [from] varying slowest. *)
let rec extend prefix ~from ~upto =
  if from >= upto then [ prefix ]
  else
    List.concat_map
      (fun v -> extend (Cube.set prefix from v) ~from:(from + 1) ~upto)
      [ Cube.False; Cube.True ]

let guiding_paths ~width ~depth =
  if depth < 0 || depth > width then invalid_arg "Parallel.guiding_paths";
  extend (Cube.make width) ~from:0 ~upto:depth

(* [re_anchor ~prefix ~depth cube] writes the shard prefix back into the
   first [depth] positions of an emitted cube. Shard enumerations leave
   those positions don't-care (SDS searches below the prefix; lifting
   may drop them), and a cube is only guaranteed sound {e inside} its
   shard — re-anchoring restores both disjointness across shards and
   soundness of the lifted cubes. Positions the shard did fix always
   agree with the prefix, so overwriting is the identity there. *)
let re_anchor ~prefix ~depth cube =
  if depth = 0 then cube
  else begin
    let p = Cube.to_string prefix and c = Cube.to_string cube in
    Cube.of_string
      (String.sub p 0 depth ^ String.sub c depth (String.length c - depth))
  end

let default_split_depth width = min width 4

(* The probe's cube cap. An overflowing probe runs alone while the other
   domains idle, so the cap is kept small; it is still large enough that
   the lifted covers of typical small queries complete in one solver. *)
let probe_cubes = 128

(* When overflowed work is discarded the threshold errs high: it only
   exists to break up pathologically skewed shards, not to balance
   mildly uneven ones. *)
let default_resplit_threshold = 8192

let run_tree ~retain ?(jobs = 1) ?split_depth
    ?(resplit_threshold = default_resplit_threshold) ?max_split_depth ?limit
    ?budget ?(trace = Trace.null) ?sink ~width ~run_shard () =
  if jobs < 1 then invalid_arg "Parallel.run: jobs must be >= 1";
  if resplit_threshold < 1 then
    invalid_arg "Parallel.run: resplit_threshold must be >= 1";
  (match limit with
  | Some l when l < 0 -> invalid_arg "Parallel.run: negative limit"
  | _ -> ());
  (* Without an explicit depth, a retaining run starts with the whole
     space as one probe task (depth 0) that fans out to [split_depth]
     only if it overflows. *)
  let probe = retain && split_depth = None in
  let split_depth =
    match split_depth with
    | None -> default_split_depth width
    | Some d ->
      if d < 0 then invalid_arg "Parallel.run: negative split_depth";
      min d width
  in
  let max_split_depth =
    match max_split_depth with
    | None -> min width (split_depth + 6)
    | Some d -> min width (max d split_depth)
  in
  let trace = Trace.locked trace in
  (* Work queue of shards. [pending] counts queued + in-flight tasks;
     workers exit when it reaches zero. *)
  let queue : task Queue.t = Queue.create () in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let pending = ref 0 in
  let results : kept list ref = ref [] in
  let n_run = ref 0 in
  let n_resplits = ref 0 in
  let n_dropped = ref 0 in
  let domains = ref [] in
  let spawned = ref false in
  let first_exn = ref None in
  (* One domain tripping the budget (or the global cube cap) flips this
     flag; every other worker drains the queue and stops promptly.
     In-flight shard runs stop on their own — they share the same
     atomic budget. *)
  let stop_requested = Atomic.make false in
  let total_cubes = Atomic.make 0 in
  let budget_tripped () =
    match budget with Some b -> Budget.check b <> None | None -> false
  in
  (* A task's cube cap (overflowing it splits the task) and the depth
     its children are cut at. The probe is the only task shallower than
     [split_depth]. *)
  let cap task =
    if task.depth < split_depth then Some probe_cubes
    else if task.depth < max_split_depth then Some resplit_threshold
    else None
  in
  let child_depth task =
    if task.depth < split_depth then split_depth else task.depth + 1
  in
  let shard_limit task =
    match (cap task, limit) with
    | None, l -> l
    | Some c, Some l -> Some (min l c)
    | Some c, None -> Some c
  in
  let is_budget_stop : Run.stopped -> bool = function
    | #Budget.stop -> true
    | `Complete | `CubeLimit -> false
  in
  (* Counts [cubes] towards the global cap and records them durably
     (distinct prefixes, so concurrent calls from different workers
     never collide — see Run.sink). *)
  let commit shard_name cubes =
    let n = List.length cubes in
    let total = n + Atomic.fetch_and_add total_cubes n in
    (match limit with
    | Some l when total >= l -> Atomic.set stop_requested true
    | _ -> ());
    Option.iter (fun s -> s.Run.on_shard ~prefix:shard_name ~cubes) sink
  in
  let process task =
    if Atomic.get stop_requested || budget_tripped () then begin
      Atomic.set stop_requested true;
      Dropped
    end
    else begin
      let shard_name = Cube.to_string task.prefix in
      if not (Trace.is_null trace) then
        Trace.emit trace
          (Trace.Shard_start { shard = shard_name; depth = task.depth });
      let r : Run.t =
        run_shard ~blocked:task.blocked ~prefix:task.prefix
          ~limit:(shard_limit task) ~budget ~trace
      in
      let n_cubes = List.length r.Run.cubes in
      let split =
        r.Run.stopped = `CubeLimit
        && match cap task with Some c -> n_cubes >= c | None -> false
      in
      if not (Trace.is_null trace) then
        Trace.emit trace
          (Trace.Shard_done
             {
               shard = shard_name;
               cubes = n_cubes;
               conflicts = Stats.get r.Run.stats "conflicts";
               stopped =
                 (if split then "resplit" else Run.stopped_name r.Run.stopped);
             });
      let keep () =
        let anchored =
          List.map (re_anchor ~prefix:task.prefix ~depth:task.depth) r.Run.cubes
        in
        commit shard_name anchored;
        { task; run = r; anchored; split }
      in
      if split then Split (if retain then Some (keep ()) else None)
      else begin
        if is_budget_stop r.Run.stopped then Atomic.set stop_requested true;
        Kept (keep ())
      end
    end
  in
  let children task kept =
    let inherited =
      match kept with Some k -> k.anchored @ task.blocked | None -> []
    in
    List.map
      (fun prefix ->
        {
          prefix;
          depth = child_depth task;
          blocked = List.filter (Cube.intersects prefix) inherited;
        })
      (extend task.prefix ~from:task.depth ~upto:(child_depth task))
  in
  (* Extra domains join only once the queue first holds more than one
     task, so a run that stays one shard spawns nothing. Until then the
     calling domain is the only worker, so it is always the one that
     spawns, and it joins them at the end. If the runtime refuses a
     domain, the pool simply stays smaller. Called with [mutex] held. *)
  let rec spawn_if_needed () =
    if (not !spawned) && Queue.length queue > 1 then begin
      spawned := true;
      let rec spawn k =
        if k > 0 then
          match Domain.spawn worker with
          | d ->
            domains := d :: !domains;
            spawn (k - 1)
          | exception Failure _ -> ()
      in
      spawn (jobs - 1)
    end
  and worker () =
    let running = ref true in
    while !running do
      Mutex.lock mutex;
      let rec take () =
        if !pending = 0 then None
        else if Atomic.get stop_requested && not (Queue.is_empty queue) then begin
          (* Drop everything not yet started; in-flight tasks finish
             (promptly — they observe the same budget/flag). *)
          let n = Queue.length queue in
          Queue.clear queue;
          n_dropped := !n_dropped + n;
          pending := !pending - n;
          if !pending = 0 then Condition.broadcast cond;
          if !pending = 0 then None else take ()
        end
        else
          match Queue.take_opt queue with
          | Some t -> Some t
          | None ->
            Condition.wait cond mutex;
            take ()
      in
      let task = take () in
      Mutex.unlock mutex;
      match task with
      | None -> running := false
      | Some task ->
        let outcome =
          match process task with
          | outcome -> outcome
          | exception e ->
            Mutex.lock mutex;
            if !first_exn = None then first_exn := Some e;
            Mutex.unlock mutex;
            Atomic.set stop_requested true;
            Dropped
        in
        Mutex.lock mutex;
        (match outcome with
        | Kept k ->
          incr n_run;
          results := k :: !results
        | Split kept ->
          incr n_resplits;
          Option.iter (fun k -> results := k :: !results) kept;
          List.iter
            (fun t ->
              Queue.add t queue;
              incr pending;
              Condition.signal cond)
            (children task kept);
          spawn_if_needed ()
        | Dropped -> incr n_dropped);
        decr pending;
        if !pending = 0 then Condition.broadcast cond;
        Mutex.unlock mutex
    done
  in
  let seed_depth = if probe then 0 else split_depth in
  Mutex.lock mutex;
  List.iter
    (fun prefix ->
      Queue.add { prefix; depth = seed_depth; blocked = [] } queue;
      incr pending)
    (guiding_paths ~width ~depth:seed_depth);
  spawn_if_needed ();
  Mutex.unlock mutex;
  (* The calling domain is worker 0, so jobs=1 spawns nothing and runs
     the shards inline. *)
  worker ();
  List.iter Domain.join !domains;
  (match !first_exn with Some e -> raise e | None -> ());
  (* Deterministic merge: shards sorted by prefix = enumeration order
     of the partition; within a shard, discovery order is preserved. *)
  let sorted =
    List.sort (fun a b -> Cube.compare a.task.prefix b.task.prefix) !results
  in
  let cubes = List.concat_map (fun k -> k.anchored) sorted in
  let truncated, cubes =
    match limit with
    | Some l when List.length cubes > l -> (true, List.filteri (fun i _ -> i < l) cubes)
    | _ -> (false, cubes)
  in
  Run.emit_cubes sink cubes;
  let stats = Stats.sum (List.map (fun k -> k.run.Run.stats) sorted) in
  Stats.add stats "shards" !n_run;
  Stats.add stats "shard_resplits" !n_resplits;
  Stats.add stats "shards_dropped" !n_dropped;
  Stats.add stats "par_jobs" jobs;
  Stats.add stats "par_domains" (List.length !domains);
  List.iter
    (fun k -> Stats.set_max stats "shard_cubes_max" (List.length k.anchored))
    sorted;
  let stopped : Run.stopped =
    match (match budget with Some b -> Budget.stopped b | None -> None) with
    | Some s -> (s :> Run.stopped)
    | None ->
      if
        truncated || !n_dropped > 0
        || List.exists
             (fun k -> (not k.split) && k.run.Run.stopped <> `Complete)
             sorted
      then `CubeLimit
      else `Complete
  in
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name stopped });
  { Run.cubes; graph = None; stats; stopped }

let run ?jobs ?split_depth ?resplit_threshold ?max_split_depth ?limit ?budget
    ?trace ?sink ~width ~(run_shard : shard_runner) () =
  run_tree ~retain:false ?jobs ?split_depth ?resplit_threshold
    ?max_split_depth ?limit ?budget ?trace ?sink ~width
    ~run_shard:(fun ~blocked:_ -> run_shard)
    ()

let run_retaining ?jobs ?split_depth ?resplit_threshold ?max_split_depth
    ?limit ?budget ?trace ?sink ~width
    ~(run_shard : blocked:Cube.t list -> shard_runner) () =
  run_tree ~retain:true ?jobs ?split_depth ?resplit_threshold
    ?max_split_depth ?limit ?budget ?trace ?sink ~width ~run_shard ()
