module W = Workload
module Engine = Preimage.Engine
module Instance = Preimage.Instance
module Reach = Preimage.Reach
module Store = Ps_store.Store
module Verify = Ps_store.Verify
module Run = Ps_allsat.Run
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type prepared = { kind : W.kind; query : W.query; instance : Instance.t option }

let prepare kind (q : W.query) =
  let instance =
    if W.one_step kind then Some (Instance.make q.W.circuit q.W.target) else None
  in
  { kind; query = q; instance }

let instance p =
  match p.instance with Some i -> i | None -> invalid_arg "Exec: not one-step"

type answer = {
  solutions : float;
  steps : int;
  complete : bool;
  cubes : int;
  certified : (unit, string) result;
}

type detail = {
  engine : Engine.result option;
  store : Store.stats option;
  verify : Verify.report option;
}

type obs = {
  trace : Trace.sink;
  span : 'a. string -> (unit -> 'a) -> 'a;
  wrap : Run.sink -> Run.sink;
}

let quiet = { trace = Trace.null; span = (fun _ f -> f ()); wrap = Fun.id }

let no_detail = { engine = None; store = None; verify = None }

let one_step_answer ?(certified = Ok ()) ~cubes (r : Engine.result) =
  {
    solutions = r.Engine.solutions;
    steps = 0;
    complete = Engine.complete r;
    cubes;
    certified;
  }

let enumerate ~obs ~budget ?jobs ?sink method_ inst =
  obs.span "engine.run" (fun () ->
      Engine.run ~budget ~trace:obs.trace ?jobs ?sink method_ inst)

(* The [allsat --jobs 2 --store] -> [verify] pipeline, through public
   calls only: stream lifted cubes into a fresh log, finalize it,
   recover it as [verify] would, and certify the recovered cover. *)
let certify ~obs ~budget ~log inst =
  let proj = inst.Instance.proj in
  let meta =
    {
      Store.engine = "allsat";
      width = Ps_allsat.Project.width proj;
      vars = Array.copy proj.Ps_allsat.Project.vars;
      source = "perfbench";
      source_crc = 0;
    }
  in
  let w = obs.span "store.create" (fun () -> Store.create ~trace:obs.trace ~path:log meta) in
  let r, store, recovered =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
      (fun () ->
        let r =
          enumerate ~obs ~budget ~jobs:2 ~sink:(obs.wrap (Store.sink w))
            Engine.BlockingLift inst
        in
        obs.span "store.finalize" (fun () ->
            Store.finalize w ~complete:(Engine.complete r) ());
        (r, Store.stats w, obs.span "store.recover" (fun () -> Store.recover ~path:log)))
  in
  match recovered with
  | Error e ->
    ( one_step_answer ~certified:(Error ("recover: " ^ e)) ~cubes:store.Store.cubes r,
      { no_detail with engine = Some r; store = Some store } )
  | Ok rc ->
    let cnf = Ps_sat.Cnf.add_clause inst.Instance.cnf [ Ps_sat.Lit.pos inst.Instance.root ] in
    let report, certified =
      match Verify.certifiable rc with
      | Some why -> (None, Error ("not certifiable: " ^ why))
      | None ->
        let rep = obs.span "verify.run" (fun () -> Verify.run ~cnf rc) in
        (Some rep, if Verify.ok rep then Ok () else Error "verify rejected the log")
    in
    ( one_step_answer ~certified ~cubes:(List.length rc.Store.cubes) r,
      { engine = Some r; store = Some store; verify = report } )

let run ?(obs = quiet) ~deadline_s ~log p =
  let budget = Budget.make ~timeout_s:deadline_s () in
  match p.kind with
  | W.Allsat_dense | W.Preimage_sds ->
    let method_ = if p.kind = W.Allsat_dense then Engine.Blocking else Engine.Sds in
    let r = enumerate ~obs ~budget method_ (instance p) in
    (one_step_answer ~cubes:r.Engine.n_cubes r, { no_detail with engine = Some r })
  | W.Certify -> certify ~obs ~budget ~log (instance p)
  | W.Reach_deep | W.Reach_wide ->
    let q = p.query in
    let r =
      obs.span "reach.backward" (fun () ->
          Reach.backward ~incremental:true ~trace:obs.trace q.W.circuit q.W.target)
    in
    ( {
        solutions = r.Reach.total_states;
        steps = List.length r.Reach.steps;
        complete = r.Reach.fixpoint;
        cubes = List.fold_left (fun acc s -> acc + s.Reach.frontier_cubes) 0 r.Reach.steps;
        certified = Ok ();
      },
      no_detail )

type expected = { e_solutions : float; e_steps : int; e_fixpoint : bool }

let oracle p =
  match p.kind with
  | W.Allsat_dense | W.Preimage_sds | W.Certify ->
    let inst = instance p in
    let r = Preimage.Bdd_engine.run inst in
    {
      e_solutions = Preimage.Bdd_engine.count r ~nstate:(Instance.num_state inst);
      e_steps = 0;
      e_fixpoint = true;
    }
  | W.Reach_deep | W.Reach_wide ->
    let r = Reach.backward ~engine:Reach.E_bdd p.query.W.circuit p.query.W.target in
    {
      e_solutions = r.Reach.total_states;
      e_steps = List.length r.Reach.steps;
      e_fixpoint = r.Reach.fixpoint;
    }

let check a e =
  if not a.complete then Error "stopped incomplete"
  else if a.solutions <> e.e_solutions then
    Error (Printf.sprintf "solutions %.0f, oracle %.0f" a.solutions e.e_solutions)
  else if a.steps <> e.e_steps then
    Error (Printf.sprintf "steps %d, oracle %d" a.steps e.e_steps)
  else if not e.e_fixpoint then Error "oracle reached no fixpoint"
  else a.certified
