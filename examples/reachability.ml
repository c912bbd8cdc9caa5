(* Backward reachability: which states can ever reach a bad state?

   We take the traffic-light controller and ask: from which states can
   the protocol reach the "both roads green" configuration? (The answer
   over the full 4-bit state space exposes unreachable-but-encodable
   states — exactly what backward reachability is used for in
   verification.) The fixpoint runs on the incremental SAT session, then
   again on the BDD oracle, and the results are compared.

   Run with: dune exec examples/reachability.exe *)

module R = Preimage.Reach

let run_engine circuit target engine =
  let r = R.backward ~engine circuit target in
  Format.printf "engine=%-13s steps=%d total_states=%g fixpoint=%b time=%.3fs@."
    (R.engine_name engine) (List.length r.R.steps) r.R.total_states r.R.fixpoint
    r.R.time_s;
  List.iter
    (fun s ->
      Format.printf "  step %2d: +%-6g states (total %-6g, %d target cubes, %.4fs)@."
        s.R.index s.R.frontier_states s.R.total_states s.R.frontier_cubes
        s.R.time_s)
    r.R.steps;
  r

let () =
  let circuit = Ps_gen.Fsm.traffic () in
  Format.printf "Traffic-light controller: %a@." Ps_circuit.Netlist.pp circuit;
  (* State bits (creation order): p0 p1 t0 t1. "Both green" would need
     phase 00 (NS green) and phase 10 (EW green) at once - impossible by
     construction; instead ask for the EW-green phase with a full timer:
     p0=0 p1=1 t0=1 t1=1. *)
  let target = Ps_gen.Targets.of_strings [ "0111" ] in
  Format.printf "Target: %a@.@." Ps_gen.Targets.pp target;
  let r_sat = run_engine circuit target R.E_incremental in
  Format.printf "@.";
  let r_bdd = run_engine circuit target R.E_bdd in
  (* The reached sets must be identical BDDs over the same variable
     order; compare by counting and by membership sampling. *)
  Format.printf "@.SAT and BDD fixpoints agree on size: %b@."
    (r_sat.R.total_states = r_bdd.R.total_states);
  let bits = Array.make 4 false in
  let agree = ref true in
  for code = 0 to 15 do
    for i = 0 to 3 do
      bits.(i) <- (code lsr i) land 1 = 1
    done;
    if R.mem r_sat bits <> R.mem r_bdd bits then agree := false
  done;
  Format.printf "SAT and BDD fixpoints agree pointwise: %b@." !agree
