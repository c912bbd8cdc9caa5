module A = Ps_allsat
module Sg = A.Solution_graph
module Run = A.Run
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type method_ = Sds | SdsDynamic | SdsNoMemo | Blocking | BlockingLift

let method_name = function
  | Sds -> "sds"
  | SdsDynamic -> "sds-dynamic"
  | SdsNoMemo -> "sds-nomemo"
  | Blocking -> "blocking"
  | BlockingLift -> "blocking-lift"

let all_methods = [ Sds; SdsDynamic; SdsNoMemo; Blocking; BlockingLift ]

let sds_variant = function
  | Sds -> Some A.Sds.Sds
  | SdsDynamic -> Some A.Sds.SdsDynamic
  | SdsNoMemo -> Some A.Sds.SdsNoMemo
  | Blocking | BlockingLift -> None

type result = {
  method_ : method_;
  run : Run.t;
  solutions : float;
  n_cubes : int;
  graph_nodes : int option;
  time_s : float;
}

let cubes r = r.run.Run.cubes
let graph r = r.run.Run.graph
let stats r = r.run.Run.stats
let stopped r = r.run.Run.stopped
let complete r = Run.complete r.run

let solution_count_of_cubes width cubes =
  let man = Sg.new_man ~width in
  let g =
    List.fold_left
      (fun acc c -> Sg.union acc (Sg.of_cube man c))
      (Sg.zero man) cubes
  in
  Sg.count_models g

let now () = Unix.gettimeofday ()

let run_sds ?limit ?budget ?sink ~trace ~method_ instance =
  let solver = Instance.solver instance in
  let variant =
    match sds_variant method_ with Some v -> v | None -> assert false
  in
  let t0 = now () in
  let r =
    A.Sds.search
      ~config:(A.Sds.config variant)
      ?limit ?budget ~trace ?sink ~netlist:instance.Instance.augmented
      ~root:instance.Instance.root ~proj_nets:instance.Instance.proj_nets
      ~solver ()
  in
  let time_s = now () -. t0 in
  let graph = match r.Run.graph with Some g -> g | None -> assert false in
  let solutions =
    (* dynamic decisions build a free graph: count by paths *)
    match variant with
    | A.Sds.SdsDynamic -> Sg.count_models_paths graph
    | A.Sds.Sds | A.Sds.SdsNoMemo -> Sg.count_models graph
  in
  {
    method_;
    run = r;
    solutions;
    n_cubes = List.length r.Run.cubes;
    graph_nodes = Some (Sg.size graph);
    time_s;
  }

let run_blocking ?limit ?budget ?sink ~trace ~lift instance =
  let solver = Instance.solver instance in
  let lift_fn = if lift then Some (Instance.lift instance) else None in
  let t0 = now () in
  let r =
    A.Blocking.enumerate ?limit ?budget ~trace ?sink ?lift:lift_fn solver
      instance.Instance.proj
  in
  let time_s = now () -. t0 in
  let cubes = r.Run.cubes in
  let width = A.Project.width instance.Instance.proj in
  let solutions =
    if lift then solution_count_of_cubes width cubes
    else float_of_int (List.length cubes)
  in
  {
    method_ = (if lift then BlockingLift else Blocking);
    run = r;
    solutions;
    n_cubes = List.length cubes;
    graph_nodes = None;
    time_s;
  }

(* Guiding-path sharding: every shard builds a fresh solver for the same
   instance, confined to its prefix cube. The SDS engines take the prefix
   natively (ternary seeding + assumptions — unit clauses alone would be
   unsound for them, the simulator would not see them); the blocking
   engines take it as unit clauses, plus one blocking clause per cube an
   overflowed ancestor shard already found ([blocked]). *)
let shard_runner ~method_ instance ~blocked ~prefix ~limit ~budget ~trace =
  let solver = Instance.solver instance in
  match sds_variant method_ with
  | Some variant ->
    A.Sds.search
      ~config:(A.Sds.config variant)
      ?limit ?budget ~trace ~prefix ~netlist:instance.Instance.augmented
      ~root:instance.Instance.root ~proj_nets:instance.Instance.proj_nets
      ~solver ()
  | None ->
    let proj = instance.Instance.proj in
    List.iter
      (fun lit -> ignore (Ps_sat.Solver.add_clause solver [ lit ]))
      (A.Project.lits_of_cube proj prefix);
    List.iter
      (fun c ->
        ignore (Ps_sat.Solver.add_clause solver (A.Project.blocking_clause proj c)))
      blocked;
    let lift_fn =
      if method_ = BlockingLift then Some (Instance.lift instance) else None
    in
    A.Blocking.enumerate ?limit ?budget ~trace ?lift:lift_fn solver proj

(* The partition follows what sharding costs each engine. Lifted blocking
   covers get unpinned by a probe: a query that fits stays one shard,
   and an overflowed probe's cubes are kept and blocked in its children.
   Plain blocking enumerates minterms, which pinning cannot inflate and
   a shard's smaller blocking-clause database makes cheaper from the
   first model, so it seeds the guiding paths at once (a serial probe
   would only delay them) and keeps re-split work. SDS cannot see
   blocking clauses: fixed guiding paths, overflowed shards redone. *)
let run_parallel ~jobs ?limit ?budget ?sink ~trace ~method_ instance =
  let width = A.Project.width instance.Instance.proj in
  let t0 = now () in
  let r =
    match method_ with
    | Sds | SdsDynamic | SdsNoMemo ->
      A.Parallel.run ~jobs ?limit ?budget ~trace ?sink ~width
        ~run_shard:(shard_runner ~method_ instance ~blocked:[])
        ()
    | Blocking ->
      A.Parallel.run_retaining ~jobs
        ~split_depth:(A.Parallel.default_split_depth width)
        ?limit ?budget ~trace ?sink ~width
        ~run_shard:(shard_runner ~method_ instance)
        ()
    | BlockingLift ->
      A.Parallel.run_retaining ~jobs ?limit ?budget ~trace ?sink ~width
        ~run_shard:(shard_runner ~method_ instance)
        ()
  in
  let time_s = now () -. t0 in
  let cubes = r.Run.cubes in
  let solutions =
    (* Re-anchored cubes are pairwise disjoint except for lifted ones,
       which may overlap within a shard. *)
    match method_ with
    | BlockingLift -> solution_count_of_cubes width cubes
    | Sds | SdsDynamic | SdsNoMemo | Blocking ->
      List.fold_left (fun acc c -> acc +. A.Cube.minterm_count c) 0.0 cubes
  in
  {
    method_;
    run = r;
    solutions;
    n_cubes = List.length cubes;
    graph_nodes = None;
    time_s;
  }

let run ?budget ?(trace = Trace.null) ?limit ?jobs ?sink method_ instance =
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Phase { engine = method_name method_; phase = "start" });
  let r =
    match jobs with
    | Some jobs ->
      run_parallel ~jobs ?limit ?budget ?sink ~trace ~method_ instance
    | None -> (
      match method_ with
      | Sds | SdsDynamic | SdsNoMemo ->
        run_sds ?limit ?budget ?sink ~trace ~method_ instance
      | Blocking ->
        run_blocking ?limit ?budget ?sink ~trace ~lift:false instance
      | BlockingLift ->
        run_blocking ?limit ?budget ?sink ~trace ~lift:true instance)
  in
  if not (Trace.is_null trace) then
    Trace.emit trace
      (Trace.Phase { engine = method_name method_; phase = "done" });
  r
