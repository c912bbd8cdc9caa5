module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate
module Sim = Ps_circuit.Sim
module Solver = Ps_sat.Solver
module Lit = Ps_sat.Lit
module Stats = Ps_util.Stats
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace
module Sg = Solution_graph

type decision = Static | Dynamic

type variant = Sds | SdsDynamic | SdsNoMemo

let variant_name = function
  | Sds -> "sds"
  | SdsDynamic -> "sds-dynamic"
  | SdsNoMemo -> "sds-nomemo"

type config = {
  use_memo : bool;
  use_sat : bool;
  decision : decision;
}

let config ?use_memo ?(use_sat = true) variant =
  let memo_default, decision =
    match variant with
    | Sds -> (true, Static)
    | SdsDynamic -> (true, Dynamic)
    | SdsNoMemo -> (false, Static)
  in
  { use_memo = Option.value use_memo ~default:memo_default; use_sat; decision }

let default_config = config Sds

type result = Run.t

(* Signature encoding: each visited net as the varint of
   [(net lsl 2) lor tri]. A varint is self-delimiting, so the
   concatenation is prefix-free and two keys are equal exactly when they
   list the same (net, value) sequence. *)
let tri_code = function G.F -> 0 | G.T -> 1 | G.X -> 2

let rec add_varint buf x =
  if x < 0x80 then Buffer.add_char buf (Char.unsafe_chr x)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (x land 0x7f lor 0x80));
    add_varint buf (x lsr 7)
  end

let search ?(config = default_config) ?limit ?budget ?(trace = Trace.null)
    ?sink ?prefix ~netlist ~root ~proj_nets ~solver () =
  let n = Array.length proj_nets in
  let nnets = N.num_nets netlist in
  let pos_of_net = Array.make nnets (-1) in
  Array.iteri
    (fun i net ->
      if net < 0 || net >= nnets then invalid_arg "Sds.search: bad projection net";
      (* The simulator decides projection nets as leaves; a gate's value
         is the function of its fanins, not a free choice. *)
      (match N.driver netlist net with
      | N.Gate _ ->
        invalid_arg "Sds.search: projection net is not an input or a latch"
      | N.Input | N.Latch _ -> ());
      if pos_of_net.(net) >= 0 then
        invalid_arg "Sds.search: duplicate projection net";
      pos_of_net.(net) <- i)
    proj_nets;
  let man = Sg.new_man ~width:n in
  let stats = Stats.create () in
  let assumption_stack = ref [] in
  (* A guiding-path prefix confines the whole search to one disjoint
     subcube of the projection space: the prefix positions are seeded
     into the ternary environment and the assumption stack exactly as if
     [branch] had decided them, and the recursion starts below them. The
     returned graph therefore only holds paths over the remaining
     positions — {!Parallel} re-attaches the prefix at merge time. *)
  let env = Array.make nnets G.X in
  let start_depth =
    match prefix with
    | None -> 0
    | Some p ->
      if Cube.width p <> n then invalid_arg "Sds.search: prefix width mismatch";
      let lits = Cube.to_list p in
      List.iteri
        (fun i (pos, _) ->
          if pos <> i then
            invalid_arg
              "Sds.search: prefix must fix a contiguous run of leading \
               positions")
        lits;
      List.iter
        (fun (pos, v) ->
          let net = proj_nets.(pos) in
          env.(net) <- (if v then G.T else G.F);
          assumption_stack :=
            (if v then Lit.pos net else Lit.neg net) :: !assumption_stack)
        lits;
      List.length lits
  in
  (* One full simulation here; below, every decision is propagated
     through its fanout and undone on backtrack. *)
  let sim = Sim.Trail.create netlist ~env in
  let values = Sim.Trail.values sim in
  (* Justification-frontier signature: the residual solution set below a
     search node is determined by the sub-DAG of X-valued gates still
     observable from the root, together with the values of their
     immediate fanins. The DFS serializes exactly that — nets whose value
     can no longer reach the root (e.g. behind a controlling input) are
     excluded, so residual-equivalent nodes produced by different
     prefixes collide in the memo table. This is the success-driven
     learning of the paper.

     As a by-product the DFS reports the first still-X projected leaf it
     meets — the [Dynamic] decision heuristic: branch on a variable the
     objective can still see (any variable outside the frontier is a
     don't-care here). With dynamic decisions the graph is a {e free}
     BDD (per-path variable orders), which is exactly the
     representation the original solver built from its search tree. *)
  let visited = Array.make nnets (-1) in
  let visit_epoch = ref 0 in
  let sig_buf = Buffer.create 256 in
  let candidate = ref (-1) in
  let signature () =
    incr visit_epoch;
    let epoch = !visit_epoch in
    Buffer.clear sig_buf;
    candidate := -1;
    let rec mark net =
      if visited.(net) <> epoch then begin
        visited.(net) <- epoch;
        let v = values.(net) in
        add_varint sig_buf ((net lsl 2) lor tri_code v);
        if v = G.X then begin
          match N.driver netlist net with
          | N.Gate (_, fanins) -> Array.iter mark fanins
          | N.Input | N.Latch _ ->
            if !candidate = -1 && pos_of_net.(net) >= 0 then candidate := net
        end
      end
    in
    mark root;
    Buffer.contents sig_buf
  in
  (* Static keys include the depth (the branch variable is a function of
     the depth); dynamic keys are the signature alone (the branch
     variable is a function of the signature), which shares subgraphs
     across depths too. *)
  let memo : (int * string, Sg.t) Hashtbl.t = Hashtbl.create 1024 in
  let n_search_nodes = ref 0 in
  let n_memo_hits = ref 0 in
  let n_ternary = ref 0 in
  let n_sat_calls = ref 0 in
  let n_model_hits = ref 0 in
  let n_unsat_prunes = ref 0 in
  (* Anytime interruption: once [stop] is set, every pending subtree
     resolves to the 0-terminal without further work, so the recursion
     unwinds into a {e valid under-approximation} — the paths completed
     so far — instead of raising. Truncated nodes are never memoized. *)
  let stop : Run.stopped option ref = ref None in
  (* Paths closed so far = committed cubes; drives the uniform [limit]. *)
  let paths_done = ref 0.0 in
  let commit node = paths_done := !paths_done +. Sg.count_paths node in
  let over_limit () =
    match limit with
    | None -> false
    | Some l -> !paths_done >= float_of_int l
  in
  let check_stop () =
    if !stop = None then begin
      (match budget with
      | Some b ->
        (match Budget.check b with
        | Some s -> stop := Some (s :> Run.stopped)
        | None -> ())
      | None -> ());
      if !stop = None && over_limit () then stop := Some `CubeLimit
    end;
    !stop <> None
  in
  (* The projected part of the models Sat probes returned on the current
     DFS path, at most one per node, innermost last; a node drops its
     own when it returns. The search adds no clause to [solver], so each
     of them still satisfies the formula, and a probe whose assumptions
     all hold in one of them is Sat without a solver call. *)
  let path_models = Array.make_matrix (n + 1) n false in
  let n_path_models = ref 0 in
  let rec holds model = function
    | [] -> true
    | l :: rest -> model.(pos_of_net.(Lit.var l)) = Lit.sign l && holds model rest
  in
  let rec path_model_satisfies assumptions i =
    i >= 0
    && (holds path_models.(i) assumptions || path_model_satisfies assumptions (i - 1))
  in
  let sat_probe () =
    let assumptions = !assumption_stack in
    if path_model_satisfies assumptions (!n_path_models - 1) then begin
      incr n_model_hits;
      Solver.Sat
    end
    else begin
      incr n_sat_calls;
      let r = Solver.solve ~assumptions ?budget ~trace solver in
      if r = Solver.Sat then begin
        let m = path_models.(!n_path_models) in
        for i = 0 to n - 1 do
          m.(i) <- Solver.model_value solver proj_nets.(i)
        done;
        incr n_path_models
      end;
      r
    end
  in
  let branch net k recurse =
    let pos = pos_of_net.(net) in
    let mark = Sim.Trail.mark sim in
    Sim.Trail.assign sim net false;
    assumption_stack := Lit.neg net :: !assumption_stack;
    let lo = recurse (k + 1) in
    commit lo;
    Sim.Trail.undo sim mark;
    Sim.Trail.assign sim net true;
    assumption_stack := Lit.pos net :: List.tl !assumption_stack;
    let hi = recurse (k + 1) in
    commit hi;
    Sim.Trail.undo sim mark;
    assumption_stack := List.tl !assumption_stack;
    (* The parent's paths are exactly lo's + hi's, both already
       committed — withdraw them so the ancestors' commits don't double
       count. *)
    paths_done := !paths_done -. Sg.count_paths lo -. Sg.count_paths hi;
    Sg.mk man ~level:pos ~lo ~hi
  in
  let rec go k =
    if check_stop () then Sg.zero man
    else begin
      incr n_search_nodes;
      match values.(root) with
      | G.T ->
        incr n_ternary;
        Sg.one man
      | G.F ->
        incr n_ternary;
        Sg.zero man
      | G.X ->
        let sig_ = signature () in
        let branch_net =
          match config.decision with
          | Static -> if k = n then -1 else proj_nets.(k)
          | Dynamic -> !candidate
        in
        let key =
          if config.use_memo then
            Some ((match config.decision with Static -> k | Dynamic -> -1), sig_)
          else None
        in
        let cached =
          match key with Some key -> Hashtbl.find_opt memo key | None -> None
        in
        (match cached with
        | Some node ->
          incr n_memo_hits;
          if not (Trace.is_null trace) then
            Trace.emit trace (Trace.Memo_hit { depth = k; hits = !n_memo_hits });
          node
        | None ->
          let models_below = !n_path_models in
          let node =
            if branch_net = -1 then begin
              (* No projected variable can influence the objective anymore:
                 the remaining question is purely over the unprojected
                 inputs — one satisfiability probe decides the subtree. *)
              match sat_probe () with
              | Solver.Sat -> Sg.one man
              | Solver.Unsat ->
                incr n_unsat_prunes;
                Sg.zero man
              | Solver.Unknown ->
                ignore (check_stop ());
                if !stop = None then
                  stop := Some (Run.stopped_of_budget budget ~default:`Cancelled);
                Sg.zero man
            end
            else if
              config.use_sat
              && (match sat_probe () with
                 | Solver.Unsat ->
                   incr n_unsat_prunes;
                   true
                 | Solver.Sat -> false
                 | Solver.Unknown ->
                   ignore (check_stop ());
                   if !stop = None then
                     stop :=
                       Some (Run.stopped_of_budget budget ~default:`Cancelled);
                   true)
            then Sg.zero man
            else branch branch_net k go
          in
          n_path_models := models_below;
          (* A subtree finished under an active stop is truncated:
             caching it would poison complete reruns of the same
             signature. *)
          (match key with
          | Some key when !stop = None -> Hashtbl.add memo key node
          | _ -> ());
          node)
    end
  in
  let graph = go start_depth in
  let stopped = match !stop with Some s -> s | None -> `Complete in
  Stats.add stats "search_nodes" !n_search_nodes;
  Stats.add stats "memo_hits" !n_memo_hits;
  Stats.add stats "ternary_decides" !n_ternary;
  Stats.add stats "sat_calls" !n_sat_calls;
  Stats.add stats "model_hits" !n_model_hits;
  Stats.add stats "unsat_prunes" !n_unsat_prunes;
  Stats.add stats "graph_nodes" (Sg.size graph);
  Stats.merge ~into:stats (Solver.stats solver);
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Stopped { reason = Run.stopped_name stopped });
  let cubes = Sg.cubes graph in
  (* SDS materializes cubes only when the graph is complete, so the sink
     receives the disjoint path cover in one burst at the end. *)
  Run.emit_cubes sink cubes;
  { Run.cubes; graph = Some graph; stats; stopped }
