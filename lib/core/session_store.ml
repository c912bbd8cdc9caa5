module Store = Ps_store.Store
module B = Ps_bdd.Bdd
module Cube = Ps_allsat.Cube

type rframe = {
  ck : Store.checkpoint;
  cubes : Cube.t list;
}

let frames_of_recovered (r : Store.recovered) =
  let pending = ref [] in
  let out = ref [] in
  List.iter
    (fun ((ck : Store.checkpoint), cs) ->
      (* The segment's cubes precede its checkpoint in the log. *)
      pending := !pending @ cs;
      if ck.Store.kind = "frame" then begin
        out := { ck; cubes = !pending } :: !out;
        pending := []
      end)
    r.Store.segments;
  List.rev !out

let int_stat (ck : Store.checkpoint) k =
  Option.value (List.assoc_opt k ck.Store.ints) ~default:0

let float_stat (ck : Store.checkpoint) k =
  Option.value (List.assoc_opt k ck.Store.floats) ~default:0.0

let bdd_of_cubes man cubes =
  List.fold_left
    (fun acc c -> B.bor acc (B.cube man (Cube.to_list c)))
    (B.zero man) cubes

let cube_of_path path =
  Cube.of_string
    (String.init (Array.length path) (fun i ->
         match path.(i) with Some true -> '1' | Some false -> '0' | None -> '-'))

let cubes_of_bdd f ~width =
  let acc = ref [] in
  B.iter_cubes f ~nvars:width (fun path -> acc := cube_of_path path :: !acc);
  List.rev !acc

let persist_frame store ~frame ~cubes ~ints ~floats =
  match store with
  | None -> ()
  | Some w ->
    List.iter (fun c -> ignore (Store.append w c)) cubes;
    Store.checkpoint ~kind:"frame" ~frame ~ints ~floats w ()

let check_resume (r : Store.recovered) ~man ~nstate ~target =
  if r.Store.meta.Store.width <> nstate then
    invalid_arg
      (Printf.sprintf
         "resume: log is over %d state bits but the circuit has %d"
         r.Store.meta.Store.width nstate);
  match frames_of_recovered r with
  | [] -> invalid_arg "resume: log has no frame checkpoint"
  | f0 :: _ as frames ->
    if f0.ck.Store.frame <> 0 then
      invalid_arg "resume: log's first frame checkpoint is not frame 0";
    if not (B.equal (bdd_of_cubes man f0.cubes) target) then
      invalid_arg "resume: log was recorded for a different target set";
    frames
