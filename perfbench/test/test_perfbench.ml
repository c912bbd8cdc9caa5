(* Tests for the benchmark's own query generator, oracle and span
   accounting. *)

module W = Perfbench.Workload
module Exec = Perfbench.Exec
module Probe = Perfbench.Probe
module Spans = Perfbench.Spans

let fingerprints kind ~seed = List.map W.fingerprint (W.generate kind ~seed)

let generator_is_seeded kind () =
  let a = fingerprints kind ~seed:11 in
  Alcotest.(check (list string)) "one seed gives one query set" a
    (fingerprints kind ~seed:11);
  Alcotest.(check int) "query count" (W.size kind) (List.length a);
  let b = fingerprints kind ~seed:12 in
  let shared = List.length (List.filter Fun.id (List.map2 String.equal a b)) in
  if shared * 10 > List.length a then
    Alcotest.failf "%d of %d queries equal under seeds 11 and 12" shared
      (List.length a)

let first_queries_pass_oracle kind () =
  let queries = List.filteri (fun i _ -> i < 4) (W.generate kind ~seed:5) in
  List.iter
    (fun q ->
      let p = Exec.prepare kind q in
      let answer, _ = Exec.run ~deadline_s:60.0 ~log:"test_perfbench.log" p in
      match Exec.check answer (Exec.oracle p) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (W.describe q) e)
    queries

(* A wrong answer must be caught: the oracle is not the code under test. *)
let oracle_rejects_wrong_count () =
  let p = Exec.prepare W.Allsat_dense (List.hd (W.generate W.Allsat_dense ~seed:5)) in
  let answer, _ = Exec.run ~deadline_s:60.0 ~log:"unused.log" p in
  let e = Exec.oracle p in
  let off = { answer with Exec.solutions = answer.Exec.solutions +. 1.0 } in
  Alcotest.(check bool) "off-by-one rejected" true (Result.is_error (Exec.check off e));
  let partial = { answer with Exec.complete = false } in
  Alcotest.(check bool) "incomplete rejected" true
    (Result.is_error (Exec.check partial e))

let self_time_subtracts_overlapping_children () =
  let open Spans in
  Alcotest.(check (float 1e-9)) "union of overlaps, clipped" 4.5
    (covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 4.0); (8.0, 9.0); (9.5, 12.0) ]);
  Alcotest.(check (float 1e-9)) "disjoint" 0.0 (covered ~lo:0.0 ~hi:1.0 [ (2.0, 3.0) ])

(* The traced observer nests frames under the reach span and the probe's
   counts match what the run itself returned. *)
let traced_reach_frames () =
  let kind = W.Reach_deep in
  let p = Exec.prepare kind (List.hd (W.generate kind ~seed:5)) in
  let probe = Probe.create () in
  let answer, _ =
    Exec.run ~obs:(Probe.observer probe) ~deadline_s:60.0 ~log:"unused.log" p
  in
  let sp = probe.Probe.spans in
  Alcotest.(check int) "one frame span per step" answer.Exec.steps
    (List.length (Spans.durations sp "frame"));
  Alcotest.(check int) "frame events" answer.Exec.steps probe.Probe.frames;
  let reach = List.hd (Spans.named sp "reach.backward") in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.name = "frame" then
        Alcotest.(check int) "frame parent" reach.Spans.id s.Spans.parent)
    (Spans.spans sp);
  let self = Spans.self_total sp "reach.backward" in
  Alcotest.(check bool) "self time within span" true
    (self >= 0.0 && self <= Spans.total sp "reach.backward")

let per_kind name f =
  List.map
    (fun k -> Alcotest.test_case (W.name k) `Quick (f k))
    W.all
  |> fun cases -> (name, cases)

let () =
  Alcotest.run "perfbench"
    [
      per_kind "generator is seeded" generator_is_seeded;
      per_kind "first queries pass oracle" first_queries_pass_oracle;
      ( "oracle",
        [ Alcotest.test_case "rejects wrong answers" `Quick oracle_rejects_wrong_count ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick self_time_subtracts_overlapping_children;
          Alcotest.test_case "traced reach frames" `Quick traced_reach_frames;
        ] );
    ]
