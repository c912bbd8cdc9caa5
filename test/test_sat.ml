(* Tests for Ps_sat: literals, CNF container, DIMACS I/O and the CDCL
   solver (validated against the brute-force oracle). *)

module Lit = Ps_sat.Lit
module Cnf = Ps_sat.Cnf
module Solver = Ps_sat.Solver
module Dimacs = Ps_sat.Dimacs
module R = Ps_util.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sat = Alcotest.testable (fun ppf -> function
  | Solver.Sat -> Format.pp_print_string ppf "SAT"
  | Solver.Unsat -> Format.pp_print_string ppf "UNSAT"
  | Solver.Unknown -> Format.pp_print_string ppf "UNKNOWN")
  ( = )

(* --- Lit ---------------------------------------------------------------- *)

let test_lit_encoding () =
  check_int "pos var" 3 (Lit.var (Lit.pos 3));
  check_int "neg var" 3 (Lit.var (Lit.neg 3));
  check_bool "pos sign" true (Lit.sign (Lit.pos 3));
  check_bool "neg sign" false (Lit.sign (Lit.neg 3));
  check_int "negate involution" (Lit.pos 7) (Lit.negate (Lit.negate (Lit.pos 7)));
  check_int "negate flips" (Lit.neg 7) (Lit.negate (Lit.pos 7));
  Alcotest.check_raises "negative var" (Invalid_argument "Lit.make: negative variable")
    (fun () -> ignore (Lit.make (-1) true))

let test_lit_dimacs () =
  check_int "of_dimacs pos" (Lit.pos 0) (Lit.of_dimacs 1);
  check_int "of_dimacs neg" (Lit.neg 4) (Lit.of_dimacs (-5));
  check_int "to_dimacs pos" 1 (Lit.to_dimacs (Lit.pos 0));
  check_int "to_dimacs neg" (-5) (Lit.to_dimacs (Lit.neg 4));
  Alcotest.check_raises "zero" (Invalid_argument "Lit.of_dimacs: zero") (fun () ->
      ignore (Lit.of_dimacs 0))

let lit_dimacs_roundtrip =
  Helpers.qtest "dimacs literal roundtrip" QCheck.(int_range 1 10000) (fun n ->
      Lit.to_dimacs (Lit.of_dimacs n) = n
      && Lit.to_dimacs (Lit.of_dimacs (-n)) = -n)

(* --- Cnf ---------------------------------------------------------------- *)

let test_cnf_eval () =
  let f =
    Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0; Lit.neg 1 ]; [ Lit.pos 2 ] ]
  in
  check_bool "satisfied" true (Cnf.eval f [| true; true; true |]);
  check_bool "clause 2 falsified" false (Cnf.eval f [| true; true; false |]);
  check_bool "clause 1 falsified" false (Cnf.eval f [| false; true; true |]);
  check_int "nclauses" 2 (Cnf.nclauses f);
  Alcotest.check_raises "short assignment"
    (Invalid_argument "Cnf.eval: assignment too short") (fun () ->
      ignore (Cnf.eval f [| true |]))

let test_cnf_brute_force () =
  (* x0 XOR x1 as CNF: (x0 | x1) (!x0 | !x1) — exactly 2 models *)
  let f =
    Cnf.of_clauses ~nvars:2
      [ [ Lit.pos 0; Lit.pos 1 ]; [ Lit.neg 0; Lit.neg 1 ] ]
  in
  check_int "model count" 2 (List.length (Cnf.brute_force_models f));
  check_bool "sat" true (Cnf.brute_force_sat f);
  let unsat = Cnf.add_clause (Cnf.add_clause Cnf.empty [ Lit.pos 0 ]) [ Lit.neg 0 ] in
  check_bool "unsat" false (Cnf.brute_force_sat unsat);
  (* empty formula has one (empty) model *)
  check_int "empty formula" 1 (List.length (Cnf.brute_force_models Cnf.empty))

let test_cnf_projected_count () =
  (* f = x0 (free x1): projections on [x1] = 2, on [x0] = 1 *)
  let f = Cnf.of_clauses ~nvars:2 [ [ Lit.pos 0 ] ] in
  check_int "project on constrained var" 1 (Cnf.count_projected_models f [ 0 ]);
  check_int "project on free var" 2 (Cnf.count_projected_models f [ 1 ])

(* --- Dimacs -------------------------------------------------------------- *)

let test_dimacs_parse () =
  let f = Dimacs.parse_string "c comment\np cnf 3 2\n1 -2 0\n3 0\n" in
  check_int "nvars" 3 f.Cnf.nvars;
  check_int "nclauses" 2 (Cnf.nclauses f);
  check_bool "eval" true (Cnf.eval f [| true; false; true |])

let test_dimacs_errors () =
  let fails_at expect_line s =
    match Dimacs.parse_string s with
    | exception Dimacs.Parse_error { line; _ } ->
      check_int ("error line for " ^ String.escaped s) expect_line line
    | _ -> Alcotest.fail ("expected parse failure on " ^ s)
  in
  fails_at 2 "p cnf 2 1\n1 2";           (* unterminated clause *)
  fails_at 1 "p cnf x 1\n1 0\n";          (* bad var count *)
  fails_at 1 "p cnf 2 z\n1 0\n";          (* bad clause count *)
  fails_at 2 "p cnf 2 1\np cnf 2 1\n1 0"; (* duplicate header *)
  fails_at 1 "hello 0";                    (* junk token *)
  fails_at 1 "p qbf 2 1\n1 0";            (* malformed header *)
  (* Clause spanning lines: the error points at the clause's first line. *)
  fails_at 2 "p cnf 3 1\n1 2\n3\n";
  (* A 'c p show' line with a negative variable is located too. *)
  fails_at 3 "p cnf 2 1\n1 0\nc p show -1 0\n"

let test_dimacs_error_message () =
  match Dimacs.parse_string "p cnf 2 1\n1 two 0\n" with
  | exception Dimacs.Parse_error { line; msg } ->
    check_int "line" 2 line;
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    check_bool "message mentions token" true (contains msg "two")
  | _ -> Alcotest.fail "expected parse failure"

let test_dimacs_projection () =
  let src = "c p show 1 3 0\np cnf 4 1\n1 2 0\nc p show 4 0\n" in
  let f, proj = Dimacs.parse_string_projected src in
  check_int "nvars" 4 f.Cnf.nvars;
  Alcotest.(check (option (list int))) "projection (0-based, both lines)"
    (Some [ 0; 2; 3 ]) proj;
  let _, none = Dimacs.parse_string_projected "p cnf 1 1\n1 0\n" in
  check_bool "no show line" true (none = None)

let dimacs_roundtrip =
  Helpers.qtest "dimacs roundtrip" ~count:50 QCheck.(int_range 0 1000) (fun seed ->
      let rng = R.create ~seed in
      let f = Helpers.random_cnf rng ~nvars:(1 + R.int rng 8) ~nclauses:(R.int rng 10) ~max_len:3 in
      let f' = Dimacs.parse_string (Dimacs.to_string f) in
      Dimacs.to_string f' = Dimacs.to_string f)

(* --- Solver: crafted instances ------------------------------------------ *)

let solver_of cnf =
  let s = Solver.create () in
  ignore (Solver.load s cnf);
  s

let test_solver_trivial () =
  let s = Solver.create () in
  Alcotest.check sat "empty problem" Solver.Sat (Solver.solve s);
  let s = solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ] ]) in
  Alcotest.check sat "unit" Solver.Sat (Solver.solve s);
  check_bool "model respects unit" true (Solver.model_value s 0);
  let s =
    solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ]; [ Lit.neg 0 ] ])
  in
  Alcotest.check sat "contradiction" Solver.Unsat (Solver.solve s);
  check_bool "okay false after root conflict" false (Solver.okay s)

let test_solver_propagation_chain () =
  (* x0, x0->x1, x1->x2, ..., x8->x9, and finally !x9: unsat *)
  let n = 10 in
  let imps =
    List.init (n - 1) (fun i -> [ Lit.neg i; Lit.pos (i + 1) ])
  in
  let f = Cnf.of_clauses ~nvars:n ([ [ Lit.pos 0 ] ] @ imps) in
  let s = solver_of f in
  Alcotest.check sat "chain sat" Solver.Sat (Solver.solve s);
  for v = 0 to n - 1 do
    check_bool (Printf.sprintf "x%d forced" v) true (Solver.model_value s v)
  done;
  ignore (Solver.add_clause s [ Lit.neg (n - 1) ]);
  Alcotest.check sat "chain + negation unsat" Solver.Unsat (Solver.solve s)

let test_solver_tautology_dup () =
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  check_bool "tautology accepted" true
    (Solver.add_clause s [ Lit.pos 0; Lit.neg 0 ]);
  check_int "tautology not stored" 0 (Solver.n_clauses s);
  check_bool "dup literals" true
    (Solver.add_clause s [ Lit.pos 0; Lit.pos 0; Lit.pos 1 ]);
  Alcotest.check sat "sat" Solver.Sat (Solver.solve s)

let test_solver_assumptions () =
  (* f = (x0 | x1) *)
  let f = Cnf.of_clauses ~nvars:2 [ [ Lit.pos 0; Lit.pos 1 ] ] in
  let s = solver_of f in
  Alcotest.check sat "assume x0" Solver.Sat (Solver.solve ~assumptions:[ Lit.pos 0 ] s);
  Alcotest.check sat "assume !x0 !x1" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg 0; Lit.neg 1 ] s);
  (* solver still reusable afterwards *)
  Alcotest.check sat "no assumptions" Solver.Sat (Solver.solve s);
  Alcotest.check sat "assume !x0" Solver.Sat (Solver.solve ~assumptions:[ Lit.neg 0 ] s);
  check_bool "model has x1" true (Solver.model_value s 1);
  (* contradictory assumption list *)
  Alcotest.check sat "assume x0 and !x0" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.neg 0 ] s)

let test_solver_root_value () =
  let f = Cnf.of_clauses ~nvars:3 [ [ Lit.pos 0 ]; [ Lit.neg 0; Lit.neg 1 ] ] in
  let s = solver_of f in
  Alcotest.(check (option bool)) "x0 fixed true" (Some true) (Solver.root_value s 0);
  Alcotest.(check (option bool)) "x1 fixed false" (Some false) (Solver.root_value s 1);
  Alcotest.(check (option bool)) "x2 free" None (Solver.root_value s 2)

let php n m =
  (* pigeonhole: n pigeons, m holes *)
  let var p h = (p * m) + h in
  let cnf = ref (Cnf.of_clauses ~nvars:(n * m) []) in
  for p = 0 to n - 1 do
    cnf := Cnf.add_clause !cnf (List.init m (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to m - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        cnf := Cnf.add_clause !cnf [ Lit.neg (var p1 h); Lit.neg (var p2 h) ]
      done
    done
  done;
  !cnf

let test_solver_pigeonhole () =
  Alcotest.check sat "php(6,5) unsat" Solver.Unsat (Solver.solve (solver_of (php 6 5)));
  Alcotest.check sat "php(5,5) sat" Solver.Sat (Solver.solve (solver_of (php 5 5)))

let test_solver_model_error () =
  let s = solver_of (Cnf.of_clauses ~nvars:1 [ [ Lit.pos 0 ]; [ Lit.neg 0 ] ]) in
  ignore (Solver.solve s);
  Alcotest.check_raises "model after unsat"
    (Invalid_argument "Solver.model: no model") (fun () -> ignore (Solver.model s))

let test_solver_stats () =
  let s = solver_of (php 6 5) in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  check_bool "conflicts counted" true (Ps_util.Stats.get st "conflicts" > 0);
  check_bool "decisions counted" true (Ps_util.Stats.get st "decisions" > 0);
  check_int "solve_calls" 1 (Ps_util.Stats.get st "solve_calls")

(* --- Solver: randomized cross-checks ------------------------------------- *)

let solver_matches_brute_force =
  Helpers.qtest "solver agrees with brute force" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 10 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (3 * nvars)) ~max_len:3 in
      let s = solver_of f in
      let got = Solver.solve s = Solver.Sat in
      let expected = Cnf.brute_force_sat f in
      got = expected
      && (not got
          ||
          let m = Solver.model s in
          let m =
            Array.init nvars (fun i -> if i < Array.length m then m.(i) else false)
          in
          Cnf.eval f m))

let solver_assumptions_sound =
  Helpers.qtest "sat under model-assumptions, unsat under blocked model" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 8 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (2 * nvars)) ~max_len:3 in
      match Cnf.brute_force_models f with
      | [] -> true
      | m :: _ ->
        let s = solver_of f in
        let assumptions = List.init nvars (fun v -> Lit.make v m.(v)) in
        Solver.solve ~assumptions s = Solver.Sat
        &&
        (* blocking that model and assuming it again must be unsat *)
        let block = List.init nvars (fun v -> Lit.make v (not m.(v))) in
        ignore (Solver.add_clause s block);
        Solver.solve ~assumptions s = Solver.Unsat)

let solver_incremental_enumeration =
  Helpers.qtest "blocking-clause enumeration counts all models" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 7 in
      let f = Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng 10) ~max_len:3 in
      let expected = List.length (Cnf.brute_force_models f) in
      let s = solver_of f in
      let count = ref 0 in
      let continue = ref true in
      while !continue do
        match Solver.solve s with
        | Solver.Unsat | Solver.Unknown -> continue := false
        | Solver.Sat ->
          incr count;
          let block =
            List.init nvars (fun v -> Lit.make v (not (Solver.model_value s v)))
          in
          if not (Solver.add_clause s block) then continue := false
      done;
      !count = expected)

(* --- Solver: unsat cores -------------------------------------------------- *)

let test_unsat_core_minimal () =
  (* (!a | !b) under assumptions [a; b]: both are needed, so the core
     must be exactly {a, b}. *)
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.neg 1 ]);
  let a = Lit.pos 0 and b = Lit.pos 1 in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions:[ a; b ] s);
  let core = List.sort compare (Solver.unsat_core s) in
  Alcotest.(check (list int)) "exact minimal core" [ a; b ] core

let test_unsat_core_nonminimal () =
  (* a -> b, !b: assumption a alone refutes, and assumption b alone
     refutes. The contract only promises a refuting subset — check
     that, not minimality. *)
  let s = Solver.create () in
  Solver.ensure_vars s 2;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.pos 1 ]);
  ignore (Solver.add_clause s [ Lit.neg 1 ]);
  let assumptions = [ Lit.pos 0; Lit.pos 1 ] in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions s);
  let core = Solver.unsat_core s in
  check_bool "nonempty" true (core <> []);
  check_bool "subset of assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.check sat "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:core s)

let test_unsat_core_across_gc () =
  (* A core stays usable after an arena collection: compaction moves
     clauses, and the relocated clause set must still refute it. *)
  let s = Solver.create () in
  Solver.ensure_vars s 8;
  ignore (Solver.add_clause s [ Lit.neg 0; Lit.neg 1 ]);
  (* filler clauses, then learnt-DB churn, to give the collector work *)
  for i = 2 to 6 do
    ignore (Solver.add_clause s [ Lit.pos i; Lit.pos (i + 1); Lit.neg 0 ])
  done;
  let assumptions = [ Lit.pos 0; Lit.pos 1 ] in
  Alcotest.check sat "unsat" Solver.Unsat (Solver.solve ~assumptions s);
  let core = Solver.unsat_core s in
  Solver.dbg_reduce_db s;
  Solver.dbg_gc s;
  check_bool "gc happened" true (Solver.arena_gcs s >= 1);
  check_bool "subset survives" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.check sat "core refutes after gc" Solver.Unsat
    (Solver.solve ~assumptions:core s);
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants after gc: %s" msg

(* --- Solver: blocking without restarts ------------------------------- *)

let watches_ok s =
  match Solver.check_watches s with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "watch invariants after block: %s" msg

(* Every assigned variable sits at the root. *)
let at_root s =
  List.for_all
    (fun v ->
      match Solver.dbg_assignment s v with
      | None | Some (_, 0) -> true
      | Some _ -> false)
    (List.init (Solver.nvars s) Fun.id)

let blocking_clause proj bits keep =
  List.concat
    (List.map2
       (fun (v, b) k -> if k then [ Lit.make v (not b) ] else [])
       (List.combine proj bits) keep)

let keep_all bits = List.map (fun _ -> true) bits

(* The reference loop: every projected model is blocked with
   [add_clause], which returns to the root before the next solve. *)
let projected_models_by_restart f ~proj ~assumptions =
  let s = solver_of f in
  let found = ref [] in
  let rec loop () =
    match Solver.solve ~assumptions s with
    | Solver.Sat ->
      let bits = List.map (Solver.model_value s) proj in
      found := bits :: !found;
      if Solver.add_clause s (blocking_clause proj bits (keep_all bits)) then loop ()
    | Solver.Unsat | Solver.Unknown -> ()
  in
  loop ();
  List.sort compare !found

(* [block] on the kept trail: with the trail's levels read just before
   the call, the clause's top literal must be asserted at the
   second-highest level (unique top), both top literals must be free
   (tie), or the solver must be back at the root (fallback). *)
let block_checked s clause =
  let levels =
    List.map
      (fun l ->
        match Solver.dbg_assignment s (Lit.var l) with
        | Some (value, lvl) ->
          if value = Lit.sign l then Alcotest.fail "blocked literal is true";
          (l, lvl)
        | None -> Alcotest.fail "blocked literal is unassigned")
      clause
  in
  let above_root =
    List.stable_sort (fun (_, a) (_, b) -> compare b a)
      (List.filter (fun (_, lvl) -> lvl > 0) levels)
  in
  let ok = Solver.block s clause in
  watches_ok s;
  (match above_root with
  | (top, h) :: (second, s2) :: _ ->
    if h > s2 then
      Alcotest.(check (option (pair bool int)))
        "top literal asserted at the second-highest level"
        (Some (Lit.sign top, s2))
        (Solver.dbg_assignment s (Lit.var top))
    else begin
      check_bool "tie: top literal free" true
        (Solver.dbg_assignment s (Lit.var top) = None);
      check_bool "tie: second literal free" true
        (Solver.dbg_assignment s (Lit.var second) = None)
    end
  | [] | [ _ ] -> check_bool "fallback returns to the root" true (at_root s));
  ok

(* All projected minterms of the cube [bits]/[keep]. *)
let minterms bits keep =
  List.fold_right2
    (fun b k acc ->
      let heads = if k then [ b ] else [ false; true ] in
      List.concat_map (fun h -> List.map (fun rest -> h :: rest) acc) heads)
    bits keep [ [] ]

(* Enumerate with [block] until Unsat; [lift bits] picks the positions
   each cube keeps fixed. Returns the minterms of every cube, with
   repeats. *)
let drain_by_block ?(lift = keep_all) s ~proj ~assumptions =
  let found = ref [] in
  let rec loop () =
    match Solver.solve ~assumptions s with
    | Solver.Sat ->
      let bits = List.map (Solver.model_value s) proj in
      let keep = lift bits in
      found := minterms bits keep @ !found;
      if block_checked s (blocking_clause proj bits keep) then loop ()
    | Solver.Unsat | Solver.Unknown -> ()
  in
  loop ();
  !found

let block_enumeration_matches_restart =
  Helpers.qtest "block enumeration = root-restart enumeration" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = R.create ~seed in
      let nvars = 1 + R.int rng 8 in
      let f =
        Helpers.random_cnf rng ~nvars ~nclauses:(R.int rng (3 * nvars)) ~max_len:3
      in
      let proj = List.filter (fun _ -> R.int rng 3 > 0) (List.init nvars Fun.id) in
      let assumptions =
        if R.bool rng then []
        else
          List.sort_uniq compare
            (List.init (1 + R.int rng 2) (fun _ ->
                 Lit.make (R.int rng nvars) (R.bool rng)))
      in
      let expected = projected_models_by_restart f ~proj ~assumptions in
      (* A sound lift, by brute force: free a position whenever every
         minterm of the widened cube is still a projected model. *)
      let lift =
        if R.bool rng then None
        else
          Some
            (fun bits ->
              let keep = Array.of_list (keep_all bits) in
              Array.iteri
                (fun i _ ->
                  keep.(i) <- false;
                  if
                    not
                      (List.for_all
                         (fun m -> List.mem m expected)
                         (minterms bits (Array.to_list keep)))
                  then keep.(i) <- true)
                keep;
              Array.to_list keep)
      in
      let covered = drain_by_block ?lift (solver_of f) ~proj ~assumptions in
      List.sort_uniq compare covered = expected
      && (lift <> None || List.length covered = List.length expected))

let test_block_then_other_assumptions () =
  (* After blocking on a kept trail, a solve under different
     assumptions must answer exactly as a fresh solver holding the same
     clauses. *)
  let f =
    Cnf.of_clauses ~nvars:8
      [
        [ Lit.pos 0; Lit.pos 1 ];
        [ Lit.neg 0; Lit.pos 2 ];
        [ Lit.neg 1; Lit.pos 3; Lit.pos 4 ];
      ]
  in
  (* Variables 5-7 are free, so the kept trail is several decisions deep. *)
  let proj = [ 0; 1; 2; 3; 5; 6 ] in
  let s = solver_of f in
  let blocked = ref [] in
  let probes =
    [
      [];
      [ Lit.neg 0 ];
      [ Lit.pos 1; Lit.neg 3 ];
      [ Lit.pos 0; Lit.pos 4 ];
      [ Lit.pos 5; Lit.pos 7 ];
      [ Lit.neg 6; Lit.pos 7 ];
    ]
  in
  for round = 1 to 4 do
    List.iter
      (fun assumptions ->
        Alcotest.check sat (Printf.sprintf "round %d sat" round) Solver.Sat
          (Solver.solve s);
        let bits = List.map (Solver.model_value s) proj in
        let clause = blocking_clause proj bits (keep_all bits) in
        blocked := clause :: !blocked;
        ignore (block_checked s clause);
        let fresh = solver_of f in
        List.iter (fun c -> ignore (Solver.add_clause fresh c)) !blocked;
        let want = Solver.solve ~assumptions fresh in
        let got = Solver.solve ~assumptions s in
        Alcotest.check sat "same answer as a fresh solver" want got;
        if got = Solver.Sat then begin
          let m = Solver.model s in
          check_bool "model satisfies the formula" true (Cnf.eval f m);
          check_bool "model satisfies the blocks" true
            (List.for_all
               (List.exists (fun l -> m.(Lit.var l) = Lit.sign l))
               !blocked);
          check_bool "model satisfies the assumptions" true
            (List.for_all (fun l -> m.(Lit.var l) = Lit.sign l) assumptions)
        end)
      probes
  done

let test_sat_then_add_clause_restarts () =
  let f = Cnf.of_clauses ~nvars:6 [ [ Lit.pos 0; Lit.pos 1; Lit.pos 2 ] ] in
  let s = solver_of f in
  Alcotest.check sat "sat" Solver.Sat (Solver.solve s);
  check_bool "a Sat answer keeps its trail" false (at_root s);
  check_bool "add" true (Solver.add_clause s [ Lit.pos 3; Lit.pos 4 ]);
  check_bool "add_clause returns to the root" true (at_root s);
  Alcotest.check sat "sat again" Solver.Sat (Solver.solve s);
  check_bool "a solve after add_clause is still correct" true
    (Solver.model_value s 3 || Solver.model_value s 4);
  let m = Solver.model s in
  Alcotest.check sat "repeated solve" Solver.Sat (Solver.solve s);
  check_bool "a repeated solve returns the same model" true (Solver.model s = m)

let test_block_budget_stop_resumes () =
  (* Random 3-CNF near the threshold: enumerating every model hits
     conflicts. Each solve gets a one-conflict budget; a stopped call
     must leave the solver at the root, and retrying it must continue
     the enumeration with nothing lost or repeated. *)
  let rng = R.create ~seed:90017 in
  let nvars = 16 in
  let f =
    Cnf.of_clauses ~nvars
      (List.init 56 (fun _ ->
           List.init 3 (fun _ -> Lit.make (R.int rng nvars) (R.bool rng))))
  in
  let proj = List.init nvars Fun.id in
  let expected = projected_models_by_restart f ~proj ~assumptions:[] in
  check_bool "instance has models" true (expected <> []);
  let s = solver_of f in
  let found = ref [] in
  let stops = ref 0 in
  let rec loop () =
    let budget = Ps_util.Budget.make ~conflicts:1 () in
    match Solver.solve ~budget s with
    | Solver.Unknown ->
      incr stops;
      check_bool "stopped solve returns to the root" true (at_root s);
      (match Solver.solve s with
      | Solver.Sat -> emit ()
      | Solver.Unsat | Solver.Unknown -> ())
    | Solver.Sat -> emit ()
    | Solver.Unsat -> ()
  and emit () =
    let bits = List.map (Solver.model_value s) proj in
    found := bits :: !found;
    if block_checked s (blocking_clause proj bits (keep_all bits))
    then loop ()
  in
  loop ();
  check_bool "some solve was stopped" true (!stops > 0);
  Alcotest.(check (list (list bool))) "same models" expected
    (List.sort compare !found)

let () =
  Alcotest.run "ps_sat"
    [
      ( "lit",
        [
          Alcotest.test_case "encoding" `Quick test_lit_encoding;
          Alcotest.test_case "dimacs" `Quick test_lit_dimacs;
          lit_dimacs_roundtrip;
        ] );
      ( "cnf",
        [
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "brute force" `Quick test_cnf_brute_force;
          Alcotest.test_case "projected count" `Quick test_cnf_projected_count;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
          Alcotest.test_case "error messages" `Quick test_dimacs_error_message;
          Alcotest.test_case "projection lines" `Quick test_dimacs_projection;
          dimacs_roundtrip;
        ] );
      ( "solver",
        [
          Alcotest.test_case "trivial" `Quick test_solver_trivial;
          Alcotest.test_case "propagation chain" `Quick test_solver_propagation_chain;
          Alcotest.test_case "tautology/dup" `Quick test_solver_tautology_dup;
          Alcotest.test_case "assumptions" `Quick test_solver_assumptions;
          Alcotest.test_case "root values" `Quick test_solver_root_value;
          Alcotest.test_case "pigeonhole" `Quick test_solver_pigeonhole;
          Alcotest.test_case "model error" `Quick test_solver_model_error;
          Alcotest.test_case "stats" `Quick test_solver_stats;
          solver_matches_brute_force;
          solver_assumptions_sound;
          solver_incremental_enumeration;
        ] );
      ( "block",
        [
          block_enumeration_matches_restart;
          Alcotest.test_case "then different assumptions" `Quick
            test_block_then_other_assumptions;
          Alcotest.test_case "add_clause after Sat restarts" `Quick
            test_sat_then_add_clause_restarts;
          Alcotest.test_case "budget-stopped solve resumes" `Quick
            test_block_budget_stop_resumes;
        ] );
      ( "unsat_core",
        [
          Alcotest.test_case "minimal" `Quick test_unsat_core_minimal;
          Alcotest.test_case "non-minimal contract" `Quick
            test_unsat_core_nonminimal;
          Alcotest.test_case "stable across arena gc" `Quick
            test_unsat_core_across_gc;
        ] );
    ]
