(* The repository benchmark: one workload, one seed, one closed-loop
   client. See perfbench/README.md for the workloads, the metrics and
   what each per-layer metric is expected to move. *)

module W = Perfbench.Workload
module Exec = Perfbench.Exec
module Probe = Perfbench.Probe
module Spans = Perfbench.Spans
module Stats = Ps_util.Stats
module Engine = Preimage.Engine

let now = Unix.gettimeofday
let deadline_s = 10.0
let setup_reps = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Nearest-rank percentile: at least [(1 - p) * n] samples lie above the
   returned value's rank. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  fi kb /. 1024.0

(* --- set-up ---------------------------------------------------------- *)

type setup = {
  prepared : Exec.prepared array;
  setup_s : float;
  make_s : float;
  cnf_clauses : int;
}

let setup kind ~seed =
  (* Only the last repetition's queries are kept: holding all of them
     would multiply the heap, which OCaml does not give back. The count
     is fixed, so the heap the timed loop starts from does not depend on
     host speed. *)
  let rec repeat i times =
    Gc.full_major ();
    let t0 = now () in
    let qs = W.generate kind ~seed in
    let t1 = now () in
    let ps = List.map (Exec.prepare kind) qs in
    let t2 = now () in
    let times = (t2 -. t0, t2 -. t1) :: times in
    if i = setup_reps then (ps, times) else repeat (i + 1) times
  in
  let prepared, times = repeat 1 [] in
  let prepared = Array.of_list prepared in
  let cnf_clauses =
    Array.fold_left
      (fun acc p ->
        match p.Exec.instance with
        | Some i -> acc + Ps_sat.Cnf.nclauses i.Preimage.Instance.cnf
        | None -> acc)
      0 prepared
  in
  {
    prepared;
    setup_s = median (List.map fst times);
    make_s = (if W.one_step kind then median (List.map snd times) else 0.0);
    cnf_clauses;
  }

(* --- the closed loop ---------------------------------------------------- *)

type outcome = {
  index : int;
  latency_s : float;
  answer : (Exec.answer, string) result;
}

type pass = { pass_s : float; outcomes : outcome list }

let log_path out = Filename.concat out (Printf.sprintf "store-%d.log" (Unix.getpid ()))

let run_pass ?probe ~out prepared =
  let obs = match probe with Some p -> Probe.observer p | None -> Exec.quiet in
  let log = log_path out in
  let t_pass = now () in
  let outcomes =
    Array.to_list
      (Array.mapi
         (fun index p ->
           Option.iter (fun pr -> Spans.set_query pr.Probe.spans index) probe;
           let t0 = now () in
           let answer =
             match
               obs.Exec.span "query" (fun () -> Exec.run ~obs ~deadline_s ~log p)
             with
             | a, detail ->
               Option.iter (fun pr -> Probe.record pr detail) probe;
               Ok a
             | exception e -> Error (Printexc.to_string e)
           in
           { index; latency_s = now () -. t0; answer })
         prepared)
  in
  { pass_s = now () -. t_pass; outcomes }

(* Passes repeat while the next one is expected to fit in [seconds];
   [min_passes] always run. *)
let run_passes ~seconds ~min_passes ~pass =
  let t0 = now () in
  let rec go i acc =
    let elapsed = now () -. t0 in
    let last = match acc with (_, p) :: _ -> p.pass_s | [] -> 0.0 in
    if i >= min_passes && elapsed +. last > seconds then List.rev acc
    else go (i + 1) ((i, pass i) :: acc)
  in
  go 0 []

(* --- oracle ---------------------------------------------------------------- *)

type verdicts = { attempted : int; failed : int; wrong : int; first_error : string option }

(* A query fails when it raises, stops incomplete, misses the deadline
   or disagrees with the oracle; only raising and disagreeing make the
   run incorrect. *)
let judge prepared outcomes =
  let expected = Array.map (fun p -> lazy (Exec.oracle p)) prepared in
  List.fold_left
    (fun v (o : outcome) ->
      let failure =
        match o.answer with
        | Error e -> Some (true, "raised " ^ e)
        | Ok a when not a.Exec.complete -> Some (false, "stopped incomplete")
        | Ok a -> (
          match Exec.check a (Lazy.force expected.(o.index)) with
          | Error e -> Some (true, e)
          | Ok () when o.latency_s > deadline_s ->
            Some (false, Printf.sprintf "took %.3f s, over the deadline" o.latency_s)
          | Ok () -> None)
      in
      let v = { v with attempted = v.attempted + 1 } in
      match failure with
      | None -> v
      | Some (wrong, msg) ->
        let where = W.describe prepared.(o.index).Exec.query in
        {
          v with
          failed = v.failed + 1;
          wrong = v.wrong + Bool.to_int wrong;
          first_error =
            (if v.first_error = None then Some (Printf.sprintf "query %s: %s" where msg)
             else v.first_error);
        })
    { attempted = 0; failed = 0; wrong = 0; first_error = None }
    outcomes

(* --- output ---------------------------------------------------------------- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let emit_result ~verdicts metrics =
  List.iter
    (fun (name, unit_, v) -> Printf.printf "metric %-34s %s %s\n" name (json_num v) unit_)
    metrics;
  Printf.printf "fail_frac %s ratio (%d failed of %d attempted)\n"
    (json_num (ratio (fi verdicts.failed) (fi (max 1 verdicts.attempted))))
    verdicts.failed verdicts.attempted;
  Option.iter (Printf.printf "first failure: %s\n") verdicts.first_error;
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (verdicts.wrong = 0) verdicts.attempted verdicts.failed body

(* --- end-to-end metrics (untraced) ---------------------------------------- *)

let end_to_end ~setup ~passes ~rss =
  let latencies =
    List.concat_map (fun (_, p) -> List.map (fun o -> o.latency_s) p.outcomes) passes
  in
  let first = snd (List.hd passes) in
  let cover =
    List.fold_left
      (fun acc o -> match o.answer with Ok a -> acc + a.Exec.cubes | Error _ -> acc)
      0 first.outcomes
  in
  Printf.printf "samples: %d queries over %d passes of %d; pass seconds:%s\n"
    (List.length latencies) (List.length passes) (Array.length setup.prepared)
    (String.concat "" (List.map (fun (_, p) -> Printf.sprintf " %.3f" p.pass_s) passes));
  [
    ("setup_s", "s", setup.setup_s);
    ("wall_s", "s", mean (List.map (fun (_, p) -> p.pass_s) passes));
    ("query_p50_ms", "ms", 1000.0 *. percentile 0.5 latencies);
    ("query_p90_ms", "ms", 1000.0 *. percentile 0.9 latencies);
    ("peak_rss_mb", "MB", rss);
    ("cover_cubes", "count", fi cover);
  ]

(* --- parallel baseline (certify, traced run) ------------------------------- *)

type sweep = { mutable sweep_s : float; mutable sweep_cubes : int }

(* The certify enumeration alone (no store), unsharded and sequential,
   sharded on one domain, and sharded on two, query by query in turn so
   host drift hits the three alike. *)
let parallel_baseline prepared =
  let fresh () = { sweep_s = 0.0; sweep_cubes = 0 } in
  let seq = fresh () and j1 = fresh () and j2 = fresh () in
  let outcomes = ref [] in
  Array.iteri
    (fun index p ->
      List.iter
        (fun (jobs, sw) ->
          let budget = Ps_util.Budget.make ~timeout_s:deadline_s () in
          let t0 = now () in
          let answer =
            match Engine.run ~budget ?jobs Engine.BlockingLift (Exec.instance p) with
            | r ->
              sw.sweep_cubes <- sw.sweep_cubes + r.Engine.n_cubes;
              Ok (Exec.one_step_answer ~cubes:r.Engine.n_cubes r)
            | exception e -> Error (Printexc.to_string e)
          in
          let dt = now () -. t0 in
          sw.sweep_s <- sw.sweep_s +. dt;
          outcomes := { index; latency_s = dt; answer } :: !outcomes)
        [ (None, seq); (Some 1, j1); (Some 2, j2) ])
    prepared;
  Printf.printf "parallel baseline (BlockingLift enumeration only):\n";
  List.iter
    (fun (label, sw) -> Printf.printf "  %-22s %8.3f s %9d cubes\n" label sw.sweep_s sw.sweep_cubes)
    [ ("unsharded, sequential", seq); ("sharded, jobs=1", j1); ("sharded, jobs=2", j2) ];
  ((seq, j1, j2), !outcomes)

(* --- per-layer metrics (traced) --------------------------------------------- *)

let per_layer kind ~setup ~(probe : Probe.t) ~overhead ~baseline =
  let of_baseline f = match baseline with Some b -> f b | None -> 0.0 in
  let sp = probe.Probe.spans in
  let st name = fi (Stats.get probe.Probe.engine_stats name) in
  let engine_s = Spans.total sp "engine.run" in
  let is k = kind = k in
  let blocking = is W.Allsat_dense || is W.Certify in
  let reach = is W.Reach_deep || is W.Reach_wide in
  let frames = fi probe.Probe.frames in
  let frame_ms = List.map (fun d -> 1000.0 *. d) (Spans.durations sp "frame") in
  let shard_ms = List.map (fun d -> 1000.0 *. d) (Spans.durations sp "shard") in
  let jobs = if is W.Certify then 2.0 else 1.0 in
  let conflicts = if reach then fi probe.Probe.frame_conflicts else st "conflicts" in
  let models = fi probe.Probe.engine_cubes in
  let when_ b x = if b then x else 0.0 in
  [
    ("instance.make_s", "s", setup.make_s);
    ("instance.cnf_clauses", "count", fi setup.cnf_clauses);
    ("solver.sat_calls", "count", fi probe.Probe.solves);
    ("solver.conflicts", "count", conflicts);
    ("solver.decisions", "count", st "decisions");
    ("solver.propagations", "count", st "propagations");
    ("solver.props_per_s", "1/s", ratio (st "propagations") engine_s);
    ("solver.restarts", "count", fi probe.Probe.restarts);
    ("solver.reduce_dbs", "count", fi probe.Probe.reduce_dbs);
    ("solver.arena_gcs", "count", fi probe.Probe.gcs);
    ("solver.blocker_skip_frac", "ratio", ratio (st "blocker_skips") (st "watcher_visits"));
    ("solver.unsat_frac", "ratio", ratio (fi probe.Probe.unsat) (fi probe.Probe.solves));
    ("blocking.enumerate_s", "s", when_ blocking engine_s);
    ("blocking.us_per_model", "us", when_ blocking (1e6 *. ratio engine_s models));
    ("blocking.conflicts_per_model", "count", when_ blocking (ratio conflicts models));
    ("sds.search_s", "s", when_ (is W.Preimage_sds) engine_s);
    ("sds.search_nodes", "count", st "search_nodes");
    ("sds.memo_hits", "count", st "memo_hits");
    ("sds.memo_hit_frac", "ratio", ratio (st "memo_hits") (st "search_nodes"));
    ("sds.ternary_decide_frac", "ratio", ratio (st "ternary_decides") (st "search_nodes"));
    ( "sds.unsat_prune_frac", "ratio",
      when_ (is W.Preimage_sds) (ratio (st "unsat_prunes") (st "sat_calls")) );
    ("sds.graph_nodes", "count", st "graph_nodes");
    ( "sds.us_per_node", "us",
      when_ (is W.Preimage_sds) (1e6 *. ratio engine_s (st "search_nodes")) );
    ("reach.frames", "count", frames);
    ("reach.frame_s", "s", Spans.total sp "frame");
    ("reach.frame_p50_ms", "ms", percentile 0.5 frame_ms);
    ("reach.frame_p90_ms", "ms", percentile 0.9 frame_ms);
    ("reach.between_frames_s", "s", Spans.self_total sp "reach.backward");
    ("reach.learnts_carried", "count", ratio (fi probe.Probe.learnts) frames);
    ("reach.new_states", "count", fi probe.Probe.new_states);
    ( "reach.sat_calls_per_new_state", "ratio",
      ratio (fi probe.Probe.frame_sat_calls) (fi probe.Probe.new_states) );
    ("reach.blocked_per_frame", "count", ratio (fi probe.Probe.blocked) frames);
    ("reach.conflicts", "count", when_ reach conflicts);
    ( "lifting.free_frac", "ratio",
      if probe.Probe.cube_width = 0 then 0.0
      else 1.0 -. ratio (fi probe.Probe.cube_fixed) (fi probe.Probe.cube_width) );
    ("parallel.shards", "count", st "shards");
    ("parallel.resplits", "count", st "shard_resplits");
    ("parallel.shard_p50_ms", "ms", percentile 0.5 shard_ms);
    ("parallel.shard_max_ms", "ms", percentile 1.0 shard_ms);
    ( "parallel.busy_frac", "ratio",
      when_ (is W.Certify) (ratio (Spans.total sp "shard") (jobs *. engine_s)) );
    ( "parallel.speedup_vs_unsharded", "ratio",
        of_baseline (fun (seq, _, j2) -> ratio seq.sweep_s j2.sweep_s) );
      ( "parallel.speedup_vs_sharded_j1", "ratio",
        of_baseline (fun (_, j1, j2) -> ratio j1.sweep_s j2.sweep_s) );
      ( "parallel.cube_inflation", "ratio",
        of_baseline (fun (seq, _, j2) -> ratio (fi j2.sweep_cubes) (fi seq.sweep_cubes)) );
      ( "parallel.recommended_domains", "count",
        when_ (is W.Certify) (fi (Domain.recommended_domain_count ())) );
      ("store.sink_s", "s", probe.Probe.sink_s);
      ("store.cubes_offered", "count", fi probe.Probe.offered);
      ( "store.subsumed_frac", "ratio",
        ratio (fi probe.Probe.store_subsumed) (fi probe.Probe.offered) );
      ( "store.bytes_per_cube", "B",
        ratio (fi probe.Probe.store_bytes) (fi probe.Probe.store_kept) );
      ("store.checkpoints", "count", fi probe.Probe.store_checkpoints);
      ("store.finalize_s", "s", Spans.total sp "store.finalize");
      ("store.recover_s", "s", Spans.total sp "store.recover");
      ("verify.run_s", "s", Spans.total sp "verify.run");
      ("verify.sat_calls", "count", fi probe.Probe.verify_sat_calls);
      ( "verify.us_per_cube", "us",
        1e6 *. ratio (Spans.total sp "verify.run") (fi probe.Probe.verify_cubes) );
      ("trace.overhead_frac", "ratio", overhead);
    ]

(* --- main ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref ".perfbench" and nproc = ref "unknown" and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated queries");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--out", Arg.Set_string out, "DIR scratch logs and span files");
      ("--nproc", Arg.Set_string nproc, "N host CPU count, recorded with the result");
      ("--commit", Arg.Set_string commit, "ID source revision, recorded with the result");
    ]
  in
  let usage = "pbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let kind =
    match W.of_name !workload with
    | Some k -> k
    | None ->
      Printf.eprintf "pbench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map W.name W.all));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "pbench: --trace is 0 or 1"; exit 2);
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  Printf.printf
    "facts: {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \
     \"nproc\": %S, \"recommended_domains\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"queries\": %d, \"deadline_s\": %s, \"setup_reps\": %d}\n%!"
    (W.name kind) !seed (json_num !seconds) !trace !nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit (W.size kind)
    (json_num deadline_s) setup_reps;
  let setup = setup kind ~seed:!seed in
  let run ?probe () = run_pass ?probe ~out:!out setup.prepared in
  if !trace = 0 then begin
    (* The high-water mark is read after the first pass: later passes
       would raise it by an amount that depends on how many fit. *)
    let rss = ref 0.0 in
    let passes =
      run_passes ~seconds:!seconds ~min_passes:1 ~pass:(fun i ->
          let p = run () in
          if i = 0 then rss := peak_rss_mb ();
          p)
    in
    let rss = !rss in
    let verdicts = judge setup.prepared (List.concat_map (fun (_, p) -> p.outcomes) passes) in
    emit_result ~verdicts (end_to_end ~setup ~passes ~rss)
  end
  else begin
    (* Pass 0 warms the heap up and is left out of the overhead; after
       it, traced (odd) and untraced (even) passes alternate. *)
    let first_probe = Probe.create () in
    let passes =
      run_passes ~seconds:!seconds ~min_passes:3 ~pass:(fun i ->
          if i mod 2 = 0 then run ()
          else run ~probe:(if i = 1 then first_probe else Probe.create ()) ())
    in
    let untraced, traced =
      List.partition (fun (i, _) -> i mod 2 = 0) (List.tl passes)
    in
    let mean_pass ps = mean (List.map (fun (_, p) -> p.pass_s) ps) in
    let overhead = ratio (mean_pass traced) (mean_pass untraced) -. 1.0 in
    let baseline, extra =
      if kind = W.Certify then
        let sweeps, outcomes = parallel_baseline setup.prepared in
        (Some sweeps, outcomes)
      else (None, [])
    in
    let verdicts =
      judge setup.prepared (List.concat_map (fun (_, p) -> p.outcomes) passes @ extra)
    in
    let span_file =
      Filename.concat !out (Printf.sprintf "spans-%s-seed%d.json" (W.name kind) !seed)
    in
    Spans.write_json first_probe.Probe.spans ~path:span_file
      ~header:
        (Printf.sprintf "\"workload\": %S, \"seed\": %d, \"commit\": %S" (W.name kind)
           !seed !commit);
    Printf.printf "spans: %s (%d spans)\n" span_file
      (List.length (Spans.spans first_probe.Probe.spans));
    emit_result ~verdicts (per_layer kind ~setup ~probe:first_probe ~overhead ~baseline)
  end
