module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube
module T = Ps_circuit.Transition
module Ss = Session_store

type engine = E_sds | E_sds_dynamic | E_blocking_lift | E_bdd | E_incremental

let engine_name = function
  | E_sds -> "sds"
  | E_sds_dynamic -> "sds-dynamic"
  | E_blocking_lift -> "blocking-lift"
  | E_bdd -> "bdd"
  | E_incremental -> "incremental"

type step = {
  index : int;
  frontier_states : float;
  total_states : float;
  frontier_cubes : int;
  time_s : float;
}

type result = {
  engine : engine;
  steps : step list;
  fixpoint : bool;
  total_states : float;
  reached : B.t;
  man : B.man;
  layers : B.t list;
  time_s : float;
}

(* One rebuild-per-frame preimage; besides the preimage BDD, reports the
   frame's SAT calls and conflicts (0/0 for the native BDD engine) so the
   baseline emits the same per-frame trace events as the session. *)
let preimage_of_cubes engine circuit frontier_cubes man ~width =
  let instance = Instance.make circuit frontier_cubes in
  let of_engine m =
    let r = Engine.run m instance in
    let s = Engine.stats r in
    ( Check.result_bdd man r ~width,
      Ps_util.Stats.get s "solve_calls",
      Ps_util.Stats.get s "conflicts" )
  in
  match engine with
  | E_sds -> of_engine Engine.Sds
  | E_sds_dynamic -> of_engine Engine.SdsDynamic
  | E_blocking_lift -> of_engine Engine.BlockingLift
  | E_bdd ->
    let r = Bdd_engine.run instance in
    (Check.preimage_bdd_in man r instance, 0, 0)
  | E_incremental -> assert false (* dispatched to Reach_inc in [backward] *)

let step_of_frame (f : Reach_inc.frame) =
  {
    index = f.Reach_inc.index;
    frontier_states = f.Reach_inc.frontier_states;
    total_states = f.Reach_inc.total_states;
    frontier_cubes = f.Reach_inc.frontier_cubes;
    time_s = f.Reach_inc.time_s;
  }

let backward_incremental ~max_steps ~trace ?store ?resume circuit target =
  let r = Reach_inc.run ~max_steps ~trace ?store ?resume circuit target in
  {
    engine = E_incremental;
    steps = List.map step_of_frame r.Reach_inc.frames;
    fixpoint = r.Reach_inc.fixpoint;
    total_states = r.Reach_inc.total_states;
    reached = r.Reach_inc.reached;
    man = r.Reach_inc.man;
    layers = r.Reach_inc.layers;
    time_s = r.Reach_inc.time_s;
  }

let backward ?(engine = E_sds) ?(incremental = false) ?(max_steps = 1000)
    ?(trace = Ps_util.Trace.null) ?store ?resume circuit target =
  if incremental || engine = E_incremental then
    backward_incremental ~max_steps ~trace ?store ?resume circuit target
  else begin
  let t_start = Unix.gettimeofday () in
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  if nstate = 0 then invalid_arg "Reach.backward: circuit has no latches";
  let man = B.new_man ~nvars:nstate in
  let count f = B.count_models ~nvars:nstate f in
  let reached = ref (Ss.bdd_of_cubes man target) in
  let frontier = ref !reached in
  let layers = ref [ !reached ] in
  let steps = ref [] in
  let index = ref 0 in
  let fixpoint = ref false in
  let count0 = B.count_models ~nvars:nstate !reached in
  (match resume with
  | None ->
    let target_cubes = Ss.cubes_of_bdd !reached ~width:nstate in
    Ss.persist_frame store ~frame:0 ~cubes:target_cubes
      ~ints:[ ("frontier_cubes", List.length target_cubes) ]
      ~floats:
        [
          ("frontier_states", count0);
          ("total_states", count0);
          ("time_s", 0.0);
        ]
  | Some r ->
    (* Replay the log's frames: rebuild reached/layers/frontier from the
       per-frame canonical cubes and the step records from the frame
       checkpoints, then continue the fixpoint where the killed run
       stopped. *)
    List.iter
      (fun (f : Ss.rframe) ->
        let ck = f.Ss.ck in
        if ck.Ps_store.Store.frame > 0 then begin
          let fresh = Ss.bdd_of_cubes man f.Ss.cubes in
          reached := B.bor !reached fresh;
          layers := !reached :: !layers;
          frontier := fresh;
          index := ck.Ps_store.Store.frame;
          steps :=
            {
              index = ck.Ps_store.Store.frame;
              frontier_states = Ss.float_stat ck "frontier_states";
              total_states = Ss.float_stat ck "total_states";
              frontier_cubes = Ss.int_stat ck "frontier_cubes";
              time_s = Ss.float_stat ck "time_s";
            }
            :: !steps
        end)
      (Ss.check_resume r ~man ~nstate ~target:!reached));
  while (not !fixpoint) && !index < max_steps do
    if B.is_zero !frontier then fixpoint := true
    else begin
      incr index;
      let t0 = Unix.gettimeofday () in
      let frontier_cubes = Ss.cubes_of_bdd !frontier ~width:nstate in
      Ps_util.Trace.emit trace
        (Ps_util.Trace.Frame_start
           {
             index = !index;
             frontier_cubes = List.length frontier_cubes;
             learnts = 0 (* rebuild-per-frame: every frame starts cold *);
           });
      let pre, sat_calls, conflicts =
        preimage_of_cubes engine circuit frontier_cubes man ~width:nstate
      in
      let fresh = B.band pre (B.bnot !reached) in
      reached := B.bor !reached fresh;
      layers := !reached :: !layers;
      frontier := fresh;
      let step =
        {
          index = !index;
          frontier_states = count fresh;
          total_states = count !reached;
          frontier_cubes = List.length frontier_cubes;
          time_s = Unix.gettimeofday () -. t0;
        }
      in
      steps := step :: !steps;
      Ss.persist_frame store ~frame:!index
        ~cubes:(Ss.cubes_of_bdd fresh ~width:nstate)
        ~ints:[ ("frontier_cubes", step.frontier_cubes) ]
        ~floats:
          [
            ("frontier_states", step.frontier_states);
            ("total_states", step.total_states);
            ("time_s", step.time_s);
          ];
      if not (Ps_util.Trace.is_null trace) then
        Ps_util.Trace.emit trace
          (Ps_util.Trace.Frame_done
             {
               index = !index;
               new_cubes = List.length (Ss.cubes_of_bdd fresh ~width:nstate);
               blocked = 0 (* no session: nothing persists across frames *);
               sat_calls;
               conflicts;
             });
      if B.is_zero fresh then fixpoint := true
    end
  done;
  {
    engine;
    steps = List.rev !steps;
    fixpoint = !fixpoint;
    total_states = count !reached;
    reached = !reached;
    man;
    layers = List.rev !layers;
    time_s = Unix.gettimeofday () -. t_start;
  }
  end

let mem r state_bits = B.eval r.reached state_bits

(* Witness extraction: from a state at backward distance d, one SAT call
   per step finds inputs whose successor lies within distance d-1. *)
let trace r circuit ~from =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  if Array.length from <> nstate then invalid_arg "Reach.trace: bad state width";
  if not (mem r from) then None
  else begin
    let layers = Array.of_list r.layers in
    let depth_of s =
      let rec find i = if B.eval layers.(i) s then i else find (i + 1) in
      find 0
    in
    let module Solver = Ps_sat.Solver in
    let module Lit = Ps_sat.Lit in
    let trace = ref [] in
    let state = ref (Array.copy from) in
    let d = ref (depth_of from) in
    while !d > 0 do
      let closer = Ss.cubes_of_bdd layers.(!d - 1) ~width:nstate in
      let inst = Instance.make ~include_inputs:true circuit closer in
      let solver = Instance.solver inst in
      let assumptions =
        List.init nstate (fun i ->
            Lit.make tr.T.state_nets.(i) !state.(i))
      in
      (match Solver.solve ~assumptions solver with
      | Solver.Unsat | Solver.Unknown ->
        (* cannot happen: the state is in layer d = Pre(layer d-1) ∪ ...,
           and an unbudgeted solve never returns Unknown *)
        assert false
      | Solver.Sat ->
        let inputs =
          Array.map (fun net -> Solver.model_value solver net) tr.T.input_nets
        in
        let _, next = Ps_circuit.Sim.step circuit ~inputs ~state:!state in
        trace := inputs :: !trace;
        state := next;
        d := depth_of next)
    done;
    Some (List.rev !trace)
  end
