module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube
module N = Ps_circuit.Netlist
module T = Ps_circuit.Transition
module Tseitin = Ps_circuit.Tseitin
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Trace = Ps_util.Trace
module Ss = Session_store
module Lifting = Ps_allsat.Lifting

type frame = {
  index : int;
  frontier_cubes : int;
  new_cubes : int;
  blocking_clauses : int;
  sat_calls : int;
  conflicts : int;
  learnts_start : int;
  frontier_states : float;
  total_states : float;
  time_s : float;
}

type result = {
  frames : frame list;
  fixpoint : bool;
  total_states : float;
  reached : B.t;
  man : B.man;
  layers : B.t list;
  time_s : float;
}

type t = {
  circuit : N.t;
  tr : T.t;
  nstate : int;
  solver : Solver.t;
  man : B.man;
  mutable reached : B.t;
  mutable frontier : B.t;
  mutable layers : B.t list;   (* reverse order *)
  mutable frames : frame list; (* reverse order *)
  mutable index : int;
  mutable total_states : float; (* |reached| *)
  trace : Trace.sink;
  store : Ps_store.Store.writer option;
  t_start : float;
  marks : Lifting.marks;
  state_pos : int array;        (* net -> state bit, -1 off the state nets *)
}

(* A permanent blocking clause over the state variables excludes one cube
   of reached states, given as (state bit, value) literals, from every
   later preimage enumeration. A frame blocks only cubes holding at
   least one state it discovers, so the clause-set growth is bounded by
   |backward reachable set| — never by (frames × reached), the
   quadratic blow-up of re-blocking per frame. *)
let block_states t lits =
  ignore
    (Solver.block t.solver
       (List.map (fun (pos, v) -> Lit.make t.tr.T.state_nets.(pos) (not v)) lits))

let create ?(trace = Trace.null) ?store ?resume circuit target =
  let tr = T.of_netlist circuit in
  let nstate = Array.length tr.T.state_nets in
  if nstate = 0 then invalid_arg "Reach_inc.create: circuit has no latches";
  (* One transition-relation CNF for the whole session: the cone of every
     next-state net, encoded once into a persistent solver. *)
  let cone = N.cone circuit (Array.to_list tr.T.next_nets) in
  let solver = Solver.create () in
  ignore (Solver.load solver (Tseitin.encode ~cone circuit));
  Solver.ensure_vars solver (N.num_nets circuit);
  let man = B.new_man ~nvars:nstate in
  let reached = Ss.bdd_of_cubes man target in
  let t =
    {
      circuit;
      tr;
      nstate;
      solver;
      man;
      reached;
      frontier = reached;
      layers = [ reached ];
      frames = [];
      index = 0;
      total_states = B.count_models ~nvars:nstate reached;
      trace;
      store;
      t_start = Unix.gettimeofday ();
      marks = Lifting.marks circuit;
      state_pos =
        (let a = Array.make (N.num_nets circuit) (-1) in
         Array.iteri (fun pos net -> a.(net) <- pos) tr.T.state_nets;
         a);
    }
  in
  (match resume with
  | None ->
    (* The target set is reached from the start: block its cubes now,
       and persist them as frame 0 of the session log. *)
    let target_cubes = Ss.cubes_of_bdd reached ~width:nstate in
    List.iter (fun c -> block_states t (Cube.to_list c)) target_cubes;
    Ss.persist_frame store ~frame:0 ~cubes:target_cubes
      ~ints:[ ("frontier_cubes", List.length target_cubes) ]
      ~floats:
        [
          ("frontier_states", t.total_states);
          ("total_states", t.total_states);
          ("time_s", 0.0);
        ]
  | Some r ->
    (* Resuming a killed session: rebuild the reached set, layers and
       frame records from the log's frame checkpoints, block *every*
       recovered cube permanently, and pick up at the next frame. *)
    let frames =
      Ss.check_resume r ~man ~nstate ~target:reached
    in
    List.iter
      (fun (f : Ss.rframe) ->
        List.iter (fun c -> block_states t (Cube.to_list c)) f.Ss.cubes;
        if f.Ss.ck.Ps_store.Store.frame > 0 then begin
          let fresh = Ss.bdd_of_cubes man f.Ss.cubes in
          t.reached <- B.bor t.reached fresh;
          t.layers <- t.reached :: t.layers;
          t.frontier <- fresh;
          t.index <- f.Ss.ck.Ps_store.Store.frame;
          let ck = f.Ss.ck in
          t.frames <-
            {
              index = ck.Ps_store.Store.frame;
              frontier_cubes = Ss.int_stat ck "frontier_cubes";
              new_cubes = Ss.int_stat ck "new_cubes";
              blocking_clauses = Ss.int_stat ck "blocking_clauses";
              sat_calls = Ss.int_stat ck "sat_calls";
              conflicts = Ss.int_stat ck "conflicts";
              learnts_start = Ss.int_stat ck "learnts_start";
              frontier_states = Ss.float_stat ck "frontier_states";
              total_states = Ss.float_stat ck "total_states";
              time_s = Ss.float_stat ck "time_s";
            }
            :: t.frames
        end)
      frames;
    t.total_states <- B.count_models ~nvars:nstate t.reached);
  t

let fixpoint_reached t = B.is_zero t.frontier

let solver t = t.solver

(* Enumerate the fresh states of one frontier cube: lifted blocking
   all-SAT over the state variables under the cube's next-state literals
   as assumptions. Each model is lifted by justifying the assumed
   next-state nets with the inputs held at their model values: the state
   bits the justification leaves free are dropped, so every state of the
   lifted cube steps into the frontier cube, and is reached once the
   frame ends. The cube is blocked at once and for good; the next solve
   resumes from the blocking clause's assertion level. A model's state
   satisfies every earlier blocking clause, so each lifted cube holds at
   least one state no earlier cube held. [on_cube] sees each lifted cube
   as (state bit, value) literals. *)
let sweep t cube ~on_cube =
  let fixed = Cube.to_list cube in
  let roots = List.map (fun (pos, _) -> t.tr.T.next_nets.(pos)) fixed in
  let assumptions =
    List.map (fun (pos, v) -> Lit.make t.tr.T.next_nets.(pos) v) fixed
  in
  let value net = Solver.model_value t.solver net in
  let calls = ref 0 in
  let exhausted = ref false in
  while not !exhausted do
    incr calls;
    match Solver.solve ~assumptions ~trace:t.trace t.solver with
    | Solver.Unsat -> exhausted := true
    | Solver.Unknown -> assert false (* unbudgeted solve *)
    | Solver.Sat ->
      let lits =
        List.fold_left
          (fun acc net ->
            let pos = t.state_pos.(net) in
            if pos < 0 then acc else (pos, value net) :: acc)
          []
          (Lifting.justify ~marks:t.marks t.circuit ~roots ~value)
      in
      on_cube lits;
      block_states t lits
  done;
  !calls

let frame ?(on_cube = fun _ _ -> ()) t =
  if fixpoint_reached t then false
  else begin
    t.index <- t.index + 1;
    let t0 = Unix.gettimeofday () in
    let frontier_cubes = Ss.cubes_of_bdd t.frontier ~width:t.nstate in
    let learnts_start = Solver.n_learnts t.solver in
    let conflicts0 = Solver.n_conflicts t.solver in
    Trace.emit t.trace
      (Trace.Frame_start
         {
           index = t.index;
           frontier_cubes = List.length frontier_cubes;
           learnts = learnts_start;
         });
    (* One sweep per frontier cube. A state in the preimage of two cubes
       is covered by the first sweep and blocked before the second
       starts. A lifted cube may also cover states reached before this
       frame, so it joins the fresh set minus those — except a full
       minterm: it satisfied every blocking clause, so it is unreached. *)
    let fresh = ref (B.zero t.man) in
    let unreached = lazy (B.bnot t.reached) in
    let new_cubes = ref 0 in
    let add lits =
      incr new_cubes;
      let c = B.cube t.man lits in
      let c =
        if List.length lits = t.nstate then c else B.band c (Lazy.force unreached)
      in
      fresh := B.bor !fresh c
    in
    let sat_calls =
      List.fold_left
        (fun n c ->
          n + sweep t c ~on_cube:(fun lits -> on_cube c lits; add lits))
        0 frontier_cubes
    in
    let conflicts = Solver.n_conflicts t.solver - conflicts0 in
    let fresh = !fresh in
    let frontier_states = B.count_models ~nvars:t.nstate fresh in
    t.reached <- B.bor t.reached fresh;
    t.layers <- t.reached :: t.layers;
    t.frontier <- fresh;
    (* [fresh] is disjoint from the old reached set (a full minterm is
       unreached, a wider cube is cut by it), so the total is a sum,
       exact below 2^53. *)
    t.total_states <- t.total_states +. frontier_states;
    let frame_rec =
      {
        index = t.index;
        frontier_cubes = List.length frontier_cubes;
        new_cubes = !new_cubes;
        blocking_clauses = !new_cubes;
        sat_calls;
        conflicts;
        learnts_start;
        frontier_states;
        total_states = t.total_states;
        time_s = Unix.gettimeofday () -. t0;
      }
    in
    t.frames <- frame_rec :: t.frames;
    (* Frame boundary = durability boundary: the fresh set's canonical
       cubes followed by the frame checkpoint, so a killed session
       resumes exactly here. *)
    if Option.is_some t.store then
      Ss.persist_frame t.store ~frame:t.index
        ~cubes:(Ss.cubes_of_bdd fresh ~width:t.nstate)
        ~ints:
          [
            ("frontier_cubes", frame_rec.frontier_cubes);
            ("new_cubes", frame_rec.new_cubes);
            ("blocking_clauses", frame_rec.blocking_clauses);
            ("sat_calls", frame_rec.sat_calls);
            ("conflicts", frame_rec.conflicts);
            ("learnts_start", frame_rec.learnts_start);
          ]
        ~floats:
          [
            ("frontier_states", frame_rec.frontier_states);
            ("total_states", frame_rec.total_states);
            ("time_s", frame_rec.time_s);
          ];
    Trace.emit t.trace
      (Trace.Frame_done
         {
           index = t.index;
           new_cubes = !new_cubes;
           blocked = !new_cubes;
           sat_calls;
           conflicts;
         });
    true
  end

let result t =
  {
    frames = List.rev t.frames;
    fixpoint = fixpoint_reached t;
    total_states = t.total_states;
    reached = t.reached;
    man = t.man;
    layers = List.rev t.layers;
    time_s = Unix.gettimeofday () -. t.t_start;
  }

let run ?(max_steps = 1000) ?trace ?store ?resume circuit target =
  let t = create ?trace ?store ?resume circuit target in
  (* [t.index] counts frames over the whole session, including frames
     replayed from a resumed log — so max_steps means the same thing
     for an interrupted-and-resumed run as for an uninterrupted one. *)
  while (not (fixpoint_reached t)) && t.index < max_steps do
    ignore (frame t)
  done;
  result t
