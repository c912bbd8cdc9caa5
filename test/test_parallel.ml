(* Tests for guiding-path parallel enumeration: determinism across
   worker counts, cross-domain cancellation, global budget enforcement,
   and the dynamic re-splitting machinery. *)

module I = Preimage.Instance
module E = Preimage.Engine
module Ch = Preimage.Check
module A = Ps_allsat
module Cube = A.Cube
module Par = A.Parallel
module Run = A.Run
module Budget = Ps_util.Budget
module Stats = Ps_util.Stats
module Trace = Ps_util.Trace
module T = Ps_gen.Targets
module N = Ps_circuit.Netlist
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Canonical view of a solution set: the sorted list of minterm
   strings. Engines (and shardings) may decompose the set into
   different cubes; the minterm set is the invariant. *)
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

let cube_strings cubes = List.map Cube.to_string cubes

(* --- guiding paths ------------------------------------------------------ *)

let test_guiding_paths () =
  let paths = Par.guiding_paths ~width:5 ~depth:3 in
  check_int "count" 8 (List.length paths);
  check_bool "sorted strictly" true
    (let rec ok = function
       | a :: (b :: _ as tl) -> Cube.compare a b < 0 && ok tl
       | _ -> true
     in
     ok paths);
  List.iter
    (fun p ->
      check_int "fixes the split positions" 3 (Cube.num_fixed p);
      check_int "width" 5 (Cube.width p))
    paths;
  (* pairwise disjoint, and together they cover the whole space *)
  let rec pairs = function
    | [] -> []
    | x :: tl -> List.map (fun y -> (x, y)) tl @ pairs tl
  in
  List.iter
    (fun (a, b) -> check_bool "disjoint" false (Cube.intersects a b))
    (pairs paths);
  check_int "cover"
    (1 lsl 5)
    (int_of_float
       (List.fold_left (fun acc p -> acc +. Cube.minterm_count p) 0.0 paths));
  match Par.guiding_paths ~width:4 ~depth:0 with
  | [ p ] -> check_int "depth 0 = whole space" 0 (Cube.num_fixed p)
  | _ -> Alcotest.fail "depth 0 must yield one shard"

(* --- determinism across jobs ------------------------------------------- *)

let determinism_instances () =
  [
    ( "counter8",
      I.make (Ps_gen.Counters.binary ~bits:8 ()) (T.upper_half ~bits:8) );
    ( "random-seq",
      let spec =
        {
          Ps_gen.Random_seq.n_inputs = 3;
          n_latches = 7;
          n_gates = 60;
          max_arity = 3;
          xor_share = 0.25;
          seed = 42;
        }
      in
      let c = Ps_gen.Random_seq.generate spec in
      I.make c (T.random ~bits:7 ~ncubes:2 ~density:0.6 (R.create ~seed:7)) );
    (* 256 lifted cubes, one per preimage minterm of bits 0..8: more
       than the BlockingLift probe holds, so every method shards *)
    ( "lfsr10-parity",
      let c =
        Ps_gen.Lfsr.fibonacci ~bits:10 ~taps:(Ps_gen.Lfsr.default_taps 10) ()
      in
      let names = Array.of_list (List.map (N.name c) (N.latches c)) in
      let expr = String.concat "^" (List.init 9 (fun i -> names.(i + 1))) in
      I.make c (T.of_expr ~bits:10 ~names expr) );
  ]

let test_jobs_determinism () =
  List.iter
    (fun (name, inst) ->
      let width = A.Project.width inst.I.proj in
      List.iter
        (fun method_ ->
          let mname = E.method_name method_ in
          let seq = E.run method_ inst in
          let reference = E.run ~jobs:1 method_ inst in
          List.iter
            (fun jobs ->
              let r = E.run ~jobs method_ inst in
              Alcotest.(check (list string))
                (Printf.sprintf "%s/%s: jobs=%d cube list = jobs=1" name mname
                   jobs)
                (cube_strings (E.cubes reference))
                (cube_strings (E.cubes r));
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s: jobs=%d solution count" name mname jobs)
                seq.E.solutions r.E.solutions;
              check_bool
                (Printf.sprintf "%s/%s: jobs=%d complete" name mname jobs)
                true (E.complete r))
            [ 2; 4 ];
          (* sharded and sequential decompose differently; the minterm
             sets must still match *)
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: parallel minterms = sequential" name mname)
            (minterm_set width (E.cubes seq))
            (minterm_set width (E.cubes reference));
          (* same seed, same jobs: bit-identical rerun *)
          let again = E.run ~jobs:2 method_ inst in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: rerun is bit-identical" name mname)
            (cube_strings (E.cubes (E.run ~jobs:2 method_ inst)))
            (cube_strings (E.cubes again)))
        E.all_methods)
    (determinism_instances ())

(* --- cross-domain cancellation ----------------------------------------- *)

(* Every minterm of every returned cube must be a real solution: a
   truncated parallel run is an under-approximation, never garbage. *)
let check_sound inst cubes =
  let oracle = Ch.brute_force_objective inst in
  List.iter
    (fun c ->
      Cube.iter_minterms c (fun bits ->
          let code =
            Array.to_list bits
            |> List.mapi (fun i b -> if b then 1 lsl i else 0)
            |> List.fold_left ( + ) 0
          in
          check_bool "cube minterm is a solution" true oracle.(code)))
    cubes

let test_cancel_from_other_domain () =
  (* all 2^12 states are in the preimage: plenty of work to interrupt *)
  let inst =
    I.make (Ps_gen.Counters.binary ~bits:12 ()) [ Cube.make 12 ]
  in
  let flag = Budget.cancel_flag () in
  let budget = Budget.make ~cancel_with:flag () in
  let seen_cube = Atomic.make false in
  let trace =
    Trace.callback (fun ~time_s:_ ev ->
        match ev with Trace.Cube _ -> Atomic.set seen_cube true | _ -> ())
  in
  (* the canceller runs on its own domain and trips the shared flag as
     soon as any worker has produced a first cube *)
  let canceller =
    Domain.spawn (fun () ->
        while not (Atomic.get seen_cube) do
          Domain.cpu_relax ()
        done;
        Budget.cancel flag)
  in
  let r = E.run ~jobs:2 ~budget ~trace E.Blocking inst in
  Domain.join canceller;
  check_bool "stopped cancelled" true (E.stopped r = `Cancelled);
  check_bool "budget records the stop" true (Budget.stopped budget = Some `Cancelled);
  check_bool "partial" true (r.E.n_cubes < 1 lsl 12);
  check_sound inst (E.cubes r)

(* --- global budget across shards --------------------------------------- *)

let test_global_conflict_budget () =
  let inst =
    I.make (Ps_gen.Counters.binary ~bits:10 ()) [ Cube.make 10 ]
  in
  let full = E.run ~jobs:1 E.Blocking inst in
  let total_conflicts = Stats.get (E.stats full) "conflicts" in
  check_bool "run is complete" true (E.complete full);
  (* the blocking enumeration of 2^10 minterms conflicts against its own
     blocking clauses; if this workload ever stops conflicting the test
     below would be vacuous *)
  check_bool "workload produces conflicts" true (total_conflicts >= 8);
  let cap = total_conflicts / 2 in
  let budget = Budget.make ~conflicts:cap () in
  let r = E.run ~jobs:4 ~budget E.Blocking inst in
  check_bool "stopped on conflicts" true (E.stopped r = `Conflicts);
  (* globally enforced: total spend across all shards stays within the
     polling grain of the cap (each in-flight solver may overshoot by
     one decision batch before its next poll) *)
  let slack = 4 * 256 in
  check_bool
    (Printf.sprintf "conflicts %d within cap %d + slack"
       (Budget.conflicts_spent budget) cap)
    true
    (Budget.conflicts_spent budget <= cap + slack);
  check_bool "under-approximation" true (r.E.n_cubes < full.E.n_cubes);
  (* truncated cubes are a subset of the full solution set *)
  let full_set = minterm_set 10 (E.cubes full) in
  List.iter
    (fun m -> check_bool "cube in full set" true (List.mem m full_set))
    (minterm_set 10 (E.cubes r));
  check_sound inst (E.cubes r)

(* --- dynamic re-splitting ----------------------------------------------- *)

(* Synthetic shard runner over a known solution set (all 2^6 minterms):
   enumerate the minterms below the prefix, honouring [limit] — exactly
   the contract of a real engine, with none of the cost. *)
let synthetic_run_shard ~prefix ~limit ~budget:_ ~trace:_ =
  let all = ref [] in
  Cube.iter_minterms prefix (fun bits ->
      all := Cube.of_assignment (Array.copy bits) :: !all);
  let all = List.rev !all in
  let cubes, stopped =
    match limit with
    | Some l when List.length all > l ->
      (List.filteri (fun i _ -> i < l) all, `CubeLimit)
    | _ -> (all, `Complete)
  in
  { Run.cubes; graph = None; stats = Stats.create (); stopped }

let test_resplit () =
  let events = ref [] in
  let trace =
    Trace.callback (fun ~time_s:_ ev ->
        match ev with
        | Trace.Shard_start _ | Trace.Shard_done _ ->
          events := ev :: !events
        | _ -> ())
  in
  let r =
    Par.run ~jobs:2 ~split_depth:0 ~resplit_threshold:4 ~max_split_depth:6
      ~trace ~width:6 ~run_shard:synthetic_run_shard ()
  in
  check_bool "complete" true (r.Run.stopped = `Complete);
  check_int "all 64 minterms" 64 (List.length r.Run.cubes);
  Alcotest.(check (list string))
    "all minterms present"
    (List.map Cube.to_string (Par.guiding_paths ~width:6 ~depth:6))
    (minterm_set 6 r.Run.cubes);
  (* shards are merged in prefix order (within a shard: discovery order) *)
  check_bool "shard groups sorted" true
    (let prefix4 c = String.sub (Cube.to_string c) 0 4 in
     let rec ok = function
       | a :: (b :: _ as tl) -> prefix4 a <= prefix4 b && ok tl
       | _ -> true
     in
     ok r.Run.cubes);
  (* the root and every internal shard re-split: 1 + 2 + 4 + 8 = 15;
     the 16 depth-4 shards hold exactly 4 minterms each and complete *)
  check_int "resplits" 15 (Stats.get r.Run.stats "shard_resplits");
  check_int "kept shards" 16 (Stats.get r.Run.stats "shards");
  check_int "no drops" 0 (Stats.get r.Run.stats "shards_dropped");
  let starts, resplit_dones =
    List.fold_left
      (fun (s, rd) ev ->
        match ev with
        | Trace.Shard_start _ -> (s + 1, rd)
        | Trace.Shard_done { stopped = "resplit"; _ } -> (s, rd + 1)
        | _ -> (s, rd))
      (0, 0) !events
  in
  check_int "shard_start events" 31 starts;
  check_int "resplit shard_done events" 15 resplit_dones

let test_parallel_limit () =
  (* the global cube cap truncates deterministically, in prefix order *)
  let r =
    Par.run ~jobs:2 ~split_depth:2 ~limit:10 ~width:6
      ~run_shard:synthetic_run_shard ()
  in
  check_bool "stopped on limit" true (r.Run.stopped = `CubeLimit);
  check_int "exactly limit cubes" 10 (List.length r.Run.cubes);
  let full =
    Par.run ~jobs:1 ~split_depth:2 ~width:6 ~run_shard:synthetic_run_shard ()
  in
  (* prefix-sorted merge makes the truncation a prefix of the full list *)
  List.iteri
    (fun i c ->
      if i < 10 then
        Alcotest.(check string)
          "truncation is a prefix" (Cube.to_string c)
          (Cube.to_string (List.nth r.Run.cubes i)))
    full.Run.cubes

let test_shard_exception_propagates () =
  let boom _ = failwith "shard failure" in
  match
    Par.run ~jobs:2 ~split_depth:2 ~width:4
      ~run_shard:(fun ~prefix ~limit:_ ~budget:_ ~trace:_ -> boom prefix)
      ()
  with
  | _ -> Alcotest.fail "expected the shard exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "shard failure" msg

(* --- probe before sharding ------------------------------------------------ *)

(* A lifted query whose cover fits the probe runs as one shard on one
   solver: no domain is spawned and the cover is exactly the unsharded
   one. Plain blocking and SDS never probe: they seed the 16 guiding
   paths at once. *)
let test_probe_single_shard () =
  let inst =
    I.make (Ps_gen.Counters.binary ~bits:8 ()) (T.upper_half ~bits:8)
  in
  let seq = E.run E.BlockingLift inst in
  List.iter
    (fun jobs ->
      let r = E.run ~jobs E.BlockingLift inst in
      let st = E.stats r in
      check_int (Printf.sprintf "jobs=%d: one shard" jobs) 1
        (Stats.get st "shards");
      check_int (Printf.sprintf "jobs=%d: no split" jobs) 0
        (Stats.get st "shard_resplits");
      check_int (Printf.sprintf "jobs=%d: no domain spawned" jobs) 0
        (Stats.get st "par_domains");
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: cube list = unsharded" jobs)
        (cube_strings (E.cubes seq))
        (cube_strings (E.cubes r)))
    [ 2; 4 ];
  List.iter
    (fun method_ ->
      let st = E.stats (E.run ~jobs:2 method_ inst) in
      check_int
        (Printf.sprintf "%s: 16 guiding paths" (E.method_name method_))
        16 (Stats.get st "shards"))
    [ E.Blocking; E.Sds ]

(* A 12-bit LFSR whose target is the parity of bits 3..11: the preimage
   is the parity of bits 2..10, 256 lifted cubes that leave bits 0, 1
   and 11 free — more than the probe holds, and wide across the prefix
   positions, so the kept probe cubes meet several children each. *)
let parity_instance () =
  let c = Ps_gen.Lfsr.fibonacci ~bits:12 ~taps:(Ps_gen.Lfsr.default_taps 12) () in
  let names = Array.of_list (List.map (N.name c) (N.latches c)) in
  let expr = String.concat "^" (List.init 9 (fun i -> names.(i + 3))) in
  I.make c (T.of_expr ~bits:12 ~names expr)

(* The lifted probe overflows: its cubes are kept, blocked in the 16
   guiding-path children, and never enumerated twice. *)
let test_probe_overflow_retained () =
  let inst = parity_instance () in
  let seq = E.run E.BlockingLift inst in
  check_int "256 unsharded cubes" 256 seq.E.n_cubes;
  let reference = E.run ~jobs:1 E.BlockingLift inst in
  List.iter
    (fun jobs ->
      let r = E.run ~jobs E.BlockingLift inst in
      let st = E.stats r in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d cube list = jobs=1" jobs)
        (cube_strings (E.cubes reference))
        (cube_strings (E.cubes r));
      check_bool (Printf.sprintf "jobs=%d complete" jobs) true (E.complete r);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jobs=%d solution count" jobs)
        seq.E.solutions r.E.solutions;
      (* the kept probe sorts first, and it is the unsharded solver's
         first 128 cubes *)
      let first n cubes = List.filteri (fun i _ -> i < n) (cube_strings cubes) in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d probe cubes kept" jobs)
        (first 128 (E.cubes seq))
        (first 128 (E.cubes r));
      (* no cube overlaps another: nothing was enumerated twice *)
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jobs=%d cubes are disjoint" jobs)
        r.E.solutions
        (List.fold_left (fun acc c -> acc +. Cube.minterm_count c) 0.0
           (E.cubes r));
      check_int (Printf.sprintf "jobs=%d probe split once" jobs) 1
        (Stats.get st "shard_resplits");
      check_int (Printf.sprintf "jobs=%d 16 guiding paths" jobs) 16
        (Stats.get st "shards");
      check_int
        (Printf.sprintf "jobs=%d domains spawned" jobs)
        (jobs - 1)
        (Stats.get st "par_domains"))
    [ 1; 2; 4 ];
  Alcotest.(check (list string))
    "minterms = sequential"
    (minterm_set 12 (E.cubes seq))
    (minterm_set 12 (E.cubes reference))

(* count12 upper-half has 2,049 solutions. Plain blocking shards at once
   into the 16 guiding paths, the same tree for every jobs. *)
let test_plain_blocking_guiding_paths () =
  let inst =
    I.make (Ps_gen.Counters.binary ~bits:12 ()) (T.upper_half ~bits:12)
  in
  let seq = E.run E.Blocking inst in
  check_bool "2049 solutions" true (seq.E.solutions = 2049.0);
  let reference = E.run ~jobs:1 E.Blocking inst in
  List.iter
    (fun jobs ->
      let r = E.run ~jobs E.Blocking inst in
      let st = E.stats r in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d cube list = jobs=1" jobs)
        (cube_strings (E.cubes reference))
        (cube_strings (E.cubes r));
      check_bool (Printf.sprintf "jobs=%d complete" jobs) true (E.complete r);
      (* minterm cubes: no minterm enumerated twice *)
      check_bool
        (Printf.sprintf "jobs=%d n_cubes = solutions" jobs)
        true
        (float_of_int r.E.n_cubes = seq.E.solutions
        && r.E.solutions = seq.E.solutions);
      check_int (Printf.sprintf "jobs=%d 16 guiding paths" jobs) 16
        (Stats.get st "shards");
      check_int
        (Printf.sprintf "jobs=%d domains spawned" jobs)
        (jobs - 1)
        (Stats.get st "par_domains"))
    [ 1; 2; 4 ];
  Alcotest.(check (list string))
    "minterms = sequential"
    (minterm_set 12 (E.cubes seq))
    (minterm_set 12 (E.cubes reference))

(* Retention through the synthetic runner: every split keeps what it
   found and its children skip those minterms, so each minterm appears
   exactly once however deep the tree grows. *)
let test_retaining_resplit () =
  let run_shard ~blocked ~prefix ~limit ~budget ~trace =
    let r = synthetic_run_shard ~prefix ~limit:None ~budget ~trace in
    let fresh =
      List.filter
        (fun c -> not (List.exists (fun b -> Cube.intersects b c) blocked))
        r.Run.cubes
    in
    let cubes, stopped =
      match limit with
      | Some l when List.length fresh > l ->
        (List.filteri (fun i _ -> i < l) fresh, `CubeLimit)
      | _ -> (fresh, `Complete)
    in
    { r with Run.cubes; stopped }
  in
  List.iter
    (fun jobs ->
      let r =
        Par.run_retaining ~jobs ~split_depth:0 ~resplit_threshold:4
          ~max_split_depth:6 ~width:6 ~run_shard ()
      in
      check_bool "complete" true (r.Run.stopped = `Complete);
      check_int "each minterm once" 64 (List.length r.Run.cubes);
      Alcotest.(check (list string))
        "all minterms present"
        (List.map Cube.to_string (Par.guiding_paths ~width:6 ~depth:6))
        (minterm_set 6 r.Run.cubes))
    [ 1; 2 ]

let () =
  Alcotest.run "parallel"
    [
      ( "guiding paths",
        [ Alcotest.test_case "split/disjoint/cover" `Quick test_guiding_paths ]
      );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/4 identical, seq-equivalent" `Quick
            test_jobs_determinism;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cancel from another domain" `Quick
            test_cancel_from_other_domain;
        ] );
      ( "budget",
        [
          Alcotest.test_case "global conflict budget" `Quick
            test_global_conflict_budget;
        ] );
      ( "re-splitting",
        [
          Alcotest.test_case "threshold re-split" `Quick test_resplit;
          Alcotest.test_case "global cube limit" `Quick test_parallel_limit;
          Alcotest.test_case "shard exception" `Quick
            test_shard_exception_propagates;
          Alcotest.test_case "retained re-split" `Quick test_retaining_resplit;
        ] );
      ( "probe",
        [
          Alcotest.test_case "small query is one shard" `Quick
            test_probe_single_shard;
          Alcotest.test_case "overflow keeps the probe's cubes" `Quick
            test_probe_overflow_retained;
          Alcotest.test_case "plain blocking seeds the guiding paths" `Quick
            test_plain_blocking_guiding_paths;
        ] );
    ]
