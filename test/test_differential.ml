(* Differential all-SAT oracle suite.

   Hundreds of seeded random instances, three families:

   - random sequential netlists (Ps_gen.Random_seq) turned into preimage
     instances: all five SAT engines plus the BDD baseline must agree
     (BDD equality via Check.engines_agree), match the brute-force
     truth-table oracle when the cone is small enough, and produce the
     same canonicalized (minterm-expanded) solution set;

   - random CNF / projection pairs (Ps_util.Rng-driven): blocking
     enumeration — sequential and guiding-path parallel — against a
     brute-force truth-table enumerator over all total assignments;

   - backward-reachability fixpoints: the incremental session
     (Reach_inc: one solver, one assumption sweep per frontier cube,
     lifted cubes) against the BDD oracle — reached set, layers,
     fixpoint flag and every per-step statistic must be bit-identical,
     and no session frame may find a state twice.

   The netlist families are {e shrinking}: a failing random instance is
   greedily minimized (fewer gates, fewer inputs/latches, fewer/looser
   target cubes — while the mismatch persists) and reported as a
   reproducible OCaml literal, so a differential failure arrives already
   reduced instead of as a 60-gate haystack.

   Every check message carries the instance seed, so a failure is
   reproducible in isolation. Set PS_DIFF_LONG=1 for the extended sweep
   (more seeds, bigger cones). *)

module I = Preimage.Instance
module E = Preimage.Engine
module Ch = Preimage.Check
module A = Ps_allsat
module Cube = A.Cube
module Cnf = Ps_sat.Cnf
module Solver = Ps_sat.Solver
module R = Ps_util.Rng

let long = Sys.getenv_opt "PS_DIFF_LONG" <> None

let n_circuit_seeds = if long then 360 else 120
let n_cnf_seeds = if long then 240 else 80
let n_reach_seeds = if long then 500 else 200

(* Canonical solution set: sorted minterm strings over the projection. *)
let minterm_set width cubes =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun c ->
      Cube.iter_minterms c (fun bits ->
          let s =
            String.init width (fun i -> if bits.(i) then '1' else '0')
          in
          Hashtbl.replace tbl s ()))
    cubes;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

(* --- shrinkable witnesses ----------------------------------------------- *)

(* A witness fully determines a random-netlist differential instance:
   the generator spec plus the target cubes (positional notation) and
   the instance flags. Shrinking rewrites the witness — never the
   netlist directly — so every reduction step is itself reproducible
   from the printed literal. *)
type witness = {
  w_spec : Ps_gen.Random_seq.spec;
  w_target : string list; (* cube per row, width = n_latches *)
  w_include_inputs : bool;
  w_negate : bool;
}

let witness_to_ocaml w =
  let s = w.w_spec in
  Printf.sprintf
    "{ w_spec = { Ps_gen.Random_seq.n_inputs = %d; n_latches = %d; n_gates = \
     %d; max_arity = %d; xor_share = %g; seed = %d }; w_target = [ %s ]; \
     w_include_inputs = %b; w_negate = %b }"
    s.Ps_gen.Random_seq.n_inputs s.Ps_gen.Random_seq.n_latches
    s.Ps_gen.Random_seq.n_gates s.Ps_gen.Random_seq.max_arity
    s.Ps_gen.Random_seq.xor_share s.Ps_gen.Random_seq.seed
    (String.concat "; " (List.map (Printf.sprintf "%S") w.w_target))
    w.w_include_inputs w.w_negate

let witness_circuit w = Ps_gen.Random_seq.generate w.w_spec
let witness_target w = List.map Cube.of_string w.w_target

(* Shrink candidates, most aggressive first: halve/decrement the gate
   count, drop an input or a latch (truncating the target rows with the
   latch), clear the instance flags, drop a target cube, loosen a fixed
   target literal to don't-care. All candidates respect the generator's
   minimums (>= 1 input/latch/gate, >= 1 target cube). *)
let shrink_candidates w =
  let s = w.w_spec in
  let spec_shrinks =
    List.concat
      [
        (if s.Ps_gen.Random_seq.n_gates > 1 then
           [
             { w with w_spec = { s with Ps_gen.Random_seq.n_gates = s.Ps_gen.Random_seq.n_gates / 2 } };
             { w with w_spec = { s with Ps_gen.Random_seq.n_gates = s.Ps_gen.Random_seq.n_gates - 1 } };
           ]
         else []);
        (if s.Ps_gen.Random_seq.n_inputs > 1 then
           [ { w with w_spec = { s with Ps_gen.Random_seq.n_inputs = s.Ps_gen.Random_seq.n_inputs - 1 } } ]
         else []);
        (if s.Ps_gen.Random_seq.n_latches > 1 then
           [
             {
               w with
               w_spec = { s with Ps_gen.Random_seq.n_latches = s.Ps_gen.Random_seq.n_latches - 1 };
               w_target =
                 List.map (fun t -> String.sub t 0 (String.length t - 1)) w.w_target;
             };
           ]
         else []);
      ]
  in
  let flag_shrinks =
    (if w.w_include_inputs then [ { w with w_include_inputs = false } ] else [])
    @ if w.w_negate then [ { w with w_negate = false } ] else []
  in
  let cube_drops =
    if List.length w.w_target > 1 then
      List.mapi
        (fun i _ -> { w with w_target = List.filteri (fun j _ -> j <> i) w.w_target })
        w.w_target
    else []
  in
  let literal_loosenings =
    List.concat
      (List.mapi
         (fun i t ->
           List.concat
             (List.init (String.length t) (fun j ->
                  if t.[j] = '-' then []
                  else
                    [
                      {
                        w with
                        w_target =
                          List.mapi
                            (fun i' t' ->
                              if i' = i then
                                String.mapi (fun j' c -> if j' = j then '-' else c) t'
                              else t')
                            w.w_target;
                      };
                    ])))
         w.w_target)
  in
  spec_shrinks @ flag_shrinks @ cube_drops @ literal_loosenings

(* Greedy shrink: adopt the first candidate that still fails and
   restart from it; stop at a local minimum (or after [max_checks]
   property evaluations — differential re-runs are not free). *)
let shrink ?(max_checks = 300) prop w0 msg0 =
  let checks = ref 0 in
  let rec go w msg =
    let rec try_candidates = function
      | [] -> (w, msg, true)
      | c :: rest ->
        if !checks >= max_checks then (w, msg, false)
        else begin
          incr checks;
          match prop c with
          | Some msg' -> go c msg'
          | None -> try_candidates rest
        end
    in
    let w', msg', minimal = try_candidates (shrink_candidates w) in
    (w', msg', minimal)
  in
  go w0 msg0

let fail_shrunk ~family ~seed prop w msg =
  let w', msg', minimal = shrink prop w msg in
  Alcotest.failf
    "%s seed %d: %s@\n\
     shrunk witness (%s): %s@\n\
     shrunk failure: %s"
    family seed msg
    (if minimal then "1-minimal" else "shrink budget exhausted")
    (witness_to_ocaml w') msg'

(* --- random netlist family --------------------------------------------- *)

let random_target rng ~bits =
  let ncubes = 1 + R.int rng 2 in
  List.init ncubes (fun _ ->
      let c = ref (Cube.make bits) in
      for i = 0 to bits - 1 do
        (* fix with probability 3/4: loose enough for many solutions,
           tight enough for structure *)
        match R.int rng 4 with
        | 0 -> ()
        | k ->
          c :=
            Cube.set !c i (if k land 1 = 1 then Cube.True else Cube.False)
      done;
      !c)

(* Same derivation recipe (and rng consumption order) as the historical
   corpus, now reified as a witness so failures can shrink. *)
let circuit_witness seed =
  let rng = R.create ~seed:(0x5EED + seed) in
  let n_inputs = 2 + R.int rng 3 in
  let n_latches = 3 + R.int rng 3 in
  let spec =
    {
      Ps_gen.Random_seq.n_inputs;
      n_latches;
      n_gates = 10 + R.int rng (if long then 50 else 25);
      max_arity = 3;
      xor_share = 0.2;
      seed = (seed * 7919) + 11;
    }
  in
  let target = random_target rng ~bits:n_latches in
  let include_inputs = R.int rng 3 = 0 in
  let negate = R.int rng 4 = 0 in
  {
    w_spec = spec;
    w_target = List.map Cube.to_string target;
    w_include_inputs = include_inputs;
    w_negate = negate;
  }

let instance_of_witness w =
  I.make ~include_inputs:w.w_include_inputs ~negate:w.w_negate
    (witness_circuit w) (witness_target w)

(* The engine cross-check as a property: [None] = all oracles agree. *)
let check_engines w =
  let inst = instance_of_witness w in
  let width = A.Project.width inst.I.proj in
  let exception Mismatch of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt in
  try
    let results = List.map (fun m -> E.run m inst) E.all_methods in
    (* BDD-equality across all five engines + the BDD baseline *)
    (match Ch.engines_agree inst results with
    | Ok _ -> ()
    | Error msg -> fail "%s" msg);
    (* exhaustive truth-table oracle (states-only projections) *)
    if not inst.I.include_inputs then
      List.iter
        (fun r ->
          if not (Ch.matches_brute_force inst r) then
            fail "%s disagrees with brute force" (E.method_name r.E.method_))
        results;
    (* canonicalized cube sets agree cube-for-minterm, not just as BDDs *)
    let reference = minterm_set width (E.cubes (List.hd results)) in
    List.iter
      (fun r ->
        if minterm_set width (E.cubes r) <> reference then
          fail "%s minterm set differs from %s" (E.method_name r.E.method_)
            (E.method_name (List.hd results).E.method_))
      results;
    (* guiding-path parallel agrees with sequential for a sample method *)
    let method_ =
      List.nth E.all_methods
        (w.w_spec.Ps_gen.Random_seq.seed mod List.length E.all_methods)
    in
    let par = E.run ~jobs:2 method_ inst in
    if minterm_set width (E.cubes par) <> reference then
      fail "parallel %s minterm set differs" (E.method_name method_);
    None
  with Mismatch m -> Some m

let run_circuit_seed seed =
  let w = circuit_witness seed in
  match check_engines w with
  | None -> ()
  | Some msg -> fail_shrunk ~family:"circuit" ~seed check_engines w msg

let test_circuits () =
  for seed = 0 to n_circuit_seeds - 1 do
    run_circuit_seed seed
  done

(* --- random CNF family -------------------------------------------------- *)

let cnf_instance seed =
  let rng = R.create ~seed:(0xC4F + seed) in
  let nvars = 4 + R.int rng (if long then 8 else 6) in
  let nclauses = nvars + R.int rng (2 * nvars) in
  let cnf = Helpers.random_cnf rng ~nvars ~nclauses ~max_len:3 in
  let k = 1 + R.int rng nvars in
  let vars = Array.init nvars (fun v -> v) in
  R.shuffle rng vars;
  (cnf, A.Project.of_vars (Array.sub vars 0 k))

let brute_force_projected cnf proj =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun model ->
      Hashtbl.replace tbl
        (Cube.to_string (A.Project.cube_of_model proj model))
        ())
    (Cnf.brute_force_models cnf);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let enumerate_cnf ?jobs cnf proj =
  let fresh_solver () =
    let s = Solver.create () in
    ignore (Solver.load s cnf);
    s
  in
  match jobs with
  | None -> A.Blocking.enumerate (fresh_solver ()) proj
  | Some jobs ->
    A.Parallel.run ~jobs ~width:(A.Project.width proj)
      ~run_shard:(fun ~prefix ~limit ~budget ~trace ->
        let s = fresh_solver () in
        List.iter
          (fun lit -> ignore (Solver.add_clause s [ lit ]))
          (A.Project.lits_of_cube proj prefix);
        A.Blocking.enumerate ?limit ?budget ~trace s proj)
      ()

let run_cnf_seed seed =
  let cnf, proj = cnf_instance seed in
  let width = A.Project.width proj in
  let oracle = brute_force_projected cnf proj in
  let seq = enumerate_cnf cnf proj in
  if seq.A.Run.stopped <> `Complete then
    Alcotest.failf "cnf seed %d: sequential run not complete" seed;
  if minterm_set width seq.A.Run.cubes <> oracle then
    Alcotest.failf "cnf seed %d: blocking differs from truth table" seed;
  let par = enumerate_cnf ~jobs:2 cnf proj in
  if par.A.Run.stopped <> `Complete then
    Alcotest.failf "cnf seed %d: parallel run not complete" seed;
  if minterm_set width par.A.Run.cubes <> oracle then
    Alcotest.failf "cnf seed %d: parallel blocking differs from truth table"
      seed

let test_cnfs () =
  for seed = 0 to n_cnf_seeds - 1 do
    run_cnf_seed seed
  done

(* --- incremental session vs BDD reachability ------------------------------ *)

module Reach = Preimage.Reach
module B = Ps_bdd.Bdd

(* Canonical reached set: sorted minterm strings over the state bits
   (each result owns its BDD manager, so handles cannot be compared
   directly). *)
let reached_minterms (r : Reach.result) ~nstate =
  let acc = ref [] in
  B.iter_cubes r.Reach.reached ~nvars:nstate (fun path ->
      let rec expand i prefix =
        if i = nstate then acc := prefix :: !acc
        else
          match path.(i) with
          | Some b -> expand (i + 1) (prefix ^ if b then "1" else "0")
          | None ->
            expand (i + 1) (prefix ^ "0");
            expand (i + 1) (prefix ^ "1")
      in
      expand 0 "");
  List.sort compare !acc

let reach_witness seed =
  let rng = R.create ~seed:(0xAEAC + seed) in
  let n_latches = 3 + R.int rng 3 in
  let spec =
    {
      Ps_gen.Random_seq.n_inputs = 1 + R.int rng 3;
      n_latches;
      n_gates = 8 + R.int rng (if long then 40 else 22);
      max_arity = 3;
      xor_share = 0.25;
      seed = (seed * 6841) + 5;
    }
  in
  let target = random_target rng ~bits:n_latches in
  {
    w_spec = spec;
    w_target = List.map Cube.to_string target;
    w_include_inputs = false;
    w_negate = false;
  }

(* The incremental session must be bit-identical to the BDD oracle:
   reached set, layer count, fixpoint flag, and every per-step statistic
   (frontier/total state counts, frontier cube counts). *)
let check_reach w =
  let circuit = witness_circuit w in
  let target = witness_target w in
  let nstate = w.w_spec.Ps_gen.Random_seq.n_latches in
  let base = Reach.backward ~engine:Reach.E_bdd circuit target in
  let inc = Reach.backward ~incremental:true circuit target in
  if base.Reach.fixpoint <> inc.Reach.fixpoint then
    Some
      (Printf.sprintf "fixpoint differs: baseline %b, incremental %b"
         base.Reach.fixpoint inc.Reach.fixpoint)
  else if List.length base.Reach.steps <> List.length inc.Reach.steps then
    Some
      (Printf.sprintf "step count differs: baseline %d, incremental %d"
         (List.length base.Reach.steps)
         (List.length inc.Reach.steps))
  else if List.length base.Reach.layers <> List.length inc.Reach.layers then
    Some
      (Printf.sprintf "layer count differs: baseline %d, incremental %d"
         (List.length base.Reach.layers)
         (List.length inc.Reach.layers))
  else if
    reached_minterms base ~nstate <> reached_minterms inc ~nstate
  then Some "reached sets differ"
  else
    let mismatch =
      List.find_opt
        (fun ((a : Reach.step), (b : Reach.step)) ->
          a.Reach.index <> b.Reach.index
          || a.Reach.frontier_states <> b.Reach.frontier_states
          || a.Reach.total_states <> b.Reach.total_states
          || a.Reach.frontier_cubes <> b.Reach.frontier_cubes)
        (List.combine base.Reach.steps inc.Reach.steps)
    in
    match mismatch with
    | Some ((a : Reach.step), (b : Reach.step)) ->
      Some
        (Printf.sprintf
           "step %d differs: baseline (+%g, total %g, %d cubes) vs \
            incremental (+%g, total %g, %d cubes)"
           a.Reach.index a.Reach.frontier_states a.Reach.total_states
           a.Reach.frontier_cubes b.Reach.frontier_states b.Reach.total_states
           b.Reach.frontier_cubes)
    | None ->
      (* Every sweep ends in one Unsat answer, so the solve calls are
         the lifted cubes plus the frontier cubes. Each lifted cube holds
         a state no earlier cube held (the model's own), so there are
         never more cubes than fresh states — and none exactly when the
         frame adds no state. A session that re-finds a reached state
         breaks the bound on frames where the others add one state. *)
      let module RI = Preimage.Reach_inc in
      List.find_opt
        (fun (f : RI.frame) ->
          f.RI.sat_calls <> f.RI.new_cubes + f.RI.frontier_cubes
          || float_of_int f.RI.new_cubes > f.RI.frontier_states
          || (f.RI.new_cubes = 0) <> (f.RI.frontier_states = 0.0))
        (RI.run circuit target).RI.frames
      |> Option.map (fun (f : RI.frame) ->
             Printf.sprintf
               "session frame %d: %d solve calls, %d lifted cubes for %g fresh \
                states (%d frontier cubes)"
               f.RI.index f.RI.sat_calls f.RI.new_cubes f.RI.frontier_states
               f.RI.frontier_cubes)

let run_reach_seed seed =
  let w = reach_witness seed in
  match check_reach w with
  | None -> ()
  | Some msg -> fail_shrunk ~family:"reach" ~seed check_reach w msg

let test_reach () =
  for seed = 0 to n_reach_seeds - 1 do
    run_reach_seed seed
  done

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        [
          Alcotest.test_case
            (Printf.sprintf "random netlists (%d seeds)" n_circuit_seeds)
            `Quick test_circuits;
          Alcotest.test_case
            (Printf.sprintf "random cnf/projection (%d seeds)" n_cnf_seeds)
            `Quick test_cnfs;
          Alcotest.test_case
            (Printf.sprintf "incremental reach vs baseline (%d seeds)"
               n_reach_seeds)
            `Quick test_reach;
        ] );
    ]
