module B = Ps_bdd.Bdd
module T = Ps_circuit.Transition
module Ss = Session_store

type engine = E_bdd | E_incremental

let engine_name = function E_bdd -> "bdd" | E_incremental -> "incremental"

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

let of_session (r : Reach_inc.result) =
  let step (f : Reach_inc.frame) =
    {
      index = f.Reach_inc.index;
      frontier_states = f.Reach_inc.frontier_states;
      total_states = f.Reach_inc.total_states;
      frontier_cubes = f.Reach_inc.frontier_cubes;
      time_s = f.Reach_inc.time_s;
    }
  in
  {
    engine = E_incremental;
    steps = List.map step r.Reach_inc.frames;
    fixpoint = r.Reach_inc.fixpoint;
    total_states = r.Reach_inc.total_states;
    reached = r.Reach_inc.reached;
    man = r.Reach_inc.man;
    layers = r.Reach_inc.layers;
    time_s = r.Reach_inc.time_s;
  }

(* The independent oracle: the same fixpoint with every frame's preimage
   computed by Bdd_engine from the frontier's canonical cubes — no SAT
   solver, and nothing carried from frame to frame. *)
let backward_bdd ~max_steps circuit target =
  let t_start = Unix.gettimeofday () in
  let nstate = Array.length (T.of_netlist circuit).T.state_nets in
  if nstate = 0 then invalid_arg "Reach.backward: circuit has no latches";
  let man = B.new_man ~nvars:nstate in
  let count f = B.count_models ~nvars:nstate f in
  let rec go index reached frontier layers steps =
    if B.is_zero frontier || index >= max_steps then
      (B.is_zero frontier, reached, layers, steps)
    else begin
      let t0 = Unix.gettimeofday () in
      let cubes = Ss.cubes_of_bdd frontier ~width:nstate in
      let instance = Instance.make circuit cubes in
      let pre = Check.preimage_bdd_in man (Bdd_engine.run instance) instance in
      let fresh = B.band pre (B.bnot reached) in
      let reached = B.bor reached fresh in
      let step =
        {
          index = index + 1;
          frontier_states = count fresh;
          total_states = count reached;
          frontier_cubes = List.length cubes;
          time_s = Unix.gettimeofday () -. t0;
        }
      in
      go (index + 1) reached fresh (reached :: layers) (step :: steps)
    end
  in
  let target = Ss.bdd_of_cubes man target in
  let fixpoint, reached, layers, steps = go 0 target target [ target ] [] in
  {
    engine = E_bdd;
    steps = List.rev steps;
    fixpoint;
    total_states = count reached;
    reached;
    man;
    layers = List.rev layers;
    time_s = Unix.gettimeofday () -. t_start;
  }

let backward ?(engine = E_incremental) ?(incremental = false)
    ?(max_steps = 1000) ?trace ?store ?resume circuit target =
  if incremental || engine = E_incremental then
    of_session (Reach_inc.run ~max_steps ?trace ?store ?resume circuit target)
  else if Option.is_some store || Option.is_some resume then
    invalid_arg "Reach.backward: only the incremental engine keeps a store"
  else backward_bdd ~max_steps circuit target

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
