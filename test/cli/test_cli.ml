(* Command-line error handling: bad input must exit 2 with a
   "preimage_cli: ..." message, never an uncaught exception. *)

let cli = Filename.concat (Filename.concat ".." "..") "bin/preimage_cli.exe"

(* Runs the CLI with [args]; returns its exit code and stderr. *)
let run args =
  let err = Filename.temp_file "cli" ".err" in
  let code =
    Sys.command
      (Filename.quote_command cli args ~stdout:Filename.null ~stderr:err)
  in
  let ic = open_in_bin err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, msg)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let expect_usage_error args () =
  let code, msg = run args in
  Alcotest.(check int) (String.concat " " args ^ ": exit code") 2 code;
  Alcotest.(check bool)
    (Printf.sprintf "message %S names the program" msg)
    true
    (starts_with ~prefix:"preimage_cli: " msg)

let with_cnf f () =
  let path = Filename.temp_file "cli" ".cnf" in
  let oc = open_out path in
  output_string oc "p cnf 2 1\n1 2 0\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_good_input () =
  let code, _ = run [ "preimage"; "count4"; "-t"; "value:3"; "-j"; "2" ] in
  Alcotest.(check int) "valid run exits 0" 0 code

let bad_targets = [ "value:99"; "1-0"; "expr:q9"; "expr:("; "" ]

let () =
  let target_cases cmd =
    List.map
      (fun t ->
        Alcotest.test_case
          (Printf.sprintf "%s --target %S" cmd t)
          `Quick
          (expect_usage_error [ cmd; "count4"; "--target"; t ]))
      bad_targets
  in
  Alcotest.run "cli"
    [
      ("valid", [ Alcotest.test_case "preimage -j 2" `Quick test_good_input ]);
      ( "limit",
        [
          Alcotest.test_case "preimage -j 2 --limit=-1" `Quick
            (expect_usage_error [ "preimage"; "count4"; "-j"; "2"; "--limit=-1" ]);
          Alcotest.test_case "preimage --limit=-1" `Quick
            (expect_usage_error [ "preimage"; "count4"; "--limit=-1" ]);
          Alcotest.test_case "allsat --limit=-1" `Quick
            (with_cnf (fun path ->
                 expect_usage_error [ "allsat"; path; "--limit=-1" ] ()));
        ] );
      ("preimage target", target_cases "preimage");
      ("reach target", target_cases "reach");
      ( "circuit",
        [
          Alcotest.test_case "unknown circuit" `Quick
            (expect_usage_error [ "preimage"; "no-such-circuit" ]);
        ] );
      ( "reach engine",
        [
          Alcotest.test_case "reach -e sds" `Quick
            (expect_usage_error [ "reach"; "count4"; "-e"; "sds" ]);
          Alcotest.test_case "reach -e bdd --store" `Quick (fun () ->
              let path = Filename.temp_file "cli" ".log" in
              Fun.protect
                ~finally:(fun () -> Sys.remove path)
                (expect_usage_error
                   [ "reach"; "count4"; "-e"; "bdd"; "--store"; path ]));
        ] );
    ]
