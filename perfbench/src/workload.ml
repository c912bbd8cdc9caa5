module Netlist = Ps_circuit.Netlist
module Cube = Ps_allsat.Cube
module Rng = Ps_util.Rng
module Targets = Ps_gen.Targets

type kind = Allsat_dense | Preimage_sds | Reach_deep | Reach_wide | Certify

let all = [ Allsat_dense; Preimage_sds; Reach_deep; Reach_wide; Certify ]

let name = function
  | Allsat_dense -> "allsat-dense"
  | Preimage_sds -> "preimage-sds"
  | Reach_deep -> "reach-deep"
  | Reach_wide -> "reach-wide"
  | Certify -> "certify"

let of_name s = List.find_opt (fun k -> name k = s) all

let one_step = function
  | Allsat_dense | Preimage_sds | Certify -> true
  | Reach_deep | Reach_wide -> false

let size = function
  | Allsat_dense -> 650
  | Preimage_sds -> 1000
  | Reach_deep -> 300
  | Reach_wide -> 1100
  | Certify -> 600

type query = {
  id : int;
  family : string;
  circuit : Netlist.t;
  target : Cube.t list;
}

(* Sizes cycle with the query index instead of being drawn from the
   seed, so every seed runs the same mix of sizes and only the circuit
   structure and the targets vary. That keeps the per-run totals
   comparable across seeds. *)
let cycle id lo hi = lo + (id mod (hi - lo + 1))

let random_netlist ~rng ~latches ~gates_per_latch ~xor_share =
  Ps_gen.Random_seq.generate
    {
      Ps_gen.Random_seq.n_inputs = 3 + Rng.int rng 3;
      n_latches = latches;
      n_gates = gates_per_latch * latches;
      max_arity = 3;
      xor_share;
      seed = Rng.int rng (1 lsl 30);
    }

(* Share of present states that have some input stepping into [target],
   estimated on [samples] random states by bit-parallel simulation: one
   machine word per state, one bit lane per input assignment. *)
let preimage_density ~rng ~samples circuit target =
  let tr = Ps_circuit.Transition.of_netlist circuit in
  let k = Array.length tr.Ps_circuit.Transition.input_nets in
  if k > 5 then invalid_arg "Workload.preimage_density: more than 5 inputs";
  let lanes = 1 lsl k in
  let mask = (1 lsl lanes) - 1 in
  let v = Array.make (Netlist.num_nets circuit) 0 in
  Array.iteri
    (fun i net ->
      for j = 0 to lanes - 1 do
        if (j lsr i) land 1 = 1 then v.(net) <- v.(net) lor (1 lsl j)
      done)
    tr.Ps_circuit.Transition.input_nets;
  let fold f init fanins = Array.fold_left (fun acc i -> f acc v.(i)) init fanins in
  let eval net =
    match Netlist.driver circuit net with
    | Netlist.Gate (kind, fanins) ->
      let open Ps_circuit.Gate in
      v.(net) <-
        (match kind with
        | And -> fold ( land ) mask fanins
        | Nand -> mask land lnot (fold ( land ) mask fanins)
        | Or -> fold ( lor ) 0 fanins
        | Nor -> mask land lnot (fold ( lor ) 0 fanins)
        | Xor -> fold ( lxor ) 0 fanins
        | Xnor -> mask land lnot (fold ( lxor ) 0 fanins)
        | Not -> mask land lnot v.(fanins.(0))
        | Buf -> v.(fanins.(0))
        | Const0 -> 0
        | Const1 -> mask)
    | Netlist.Input | Netlist.Latch _ -> ()
  in
  let next = tr.Ps_circuit.Transition.next_nets in
  let cube_lanes cube =
    List.fold_left
      (fun w (i, b) -> w land if b then v.(next.(i)) else mask land lnot v.(next.(i)))
      mask (Cube.to_list cube)
  in
  let hits = ref 0 in
  for _ = 1 to samples do
    Array.iter
      (fun net -> v.(net) <- (if Rng.bool rng then mask else 0))
      tr.Ps_circuit.Transition.state_nets;
    Array.iter eval (Netlist.topo_gates circuit);
    if List.exists (fun c -> cube_lanes c <> 0) target then incr hits
  done;
  float_of_int !hits /. float_of_int samples

(* Circuits and targets are redrawn until the sampled preimage density
   falls in [band]. Without this filter most of a run's work sits in the
   few queries whose preimage is nearly the whole state space, and the
   totals of two seeds differ by more than a code change should be
   allowed to move them. *)
let random_query ~rng ~id ~latches ~gates_per_latch ~xor_share ~ncubes ~density
    ~band:(lo, hi) =
  let rec draw tries =
    let circuit = random_netlist ~rng ~latches ~gates_per_latch ~xor_share in
    let target = Targets.random ~bits:latches ~ncubes ~density rng in
    let d = preimage_density ~rng ~samples:64 circuit target in
    if (d >= lo && d <= hi) || tries >= 100 then
      { id; family = "rand"; circuit; target }
    else draw (tries + 1)
  in
  draw 1

let deep_query ~rng ~id =
  let bits = cycle (id / 4) 6 8 in
  let family, circuit =
    match id mod 4 with
    | 0 -> ("binary", Ps_gen.Counters.binary ~bits ())
    | 1 -> ("gray", Ps_gen.Counters.gray ~bits ())
    | 2 ->
      ("fib", Ps_gen.Lfsr.fibonacci ~bits ~taps:(Ps_gen.Lfsr.default_taps bits) ())
    | _ -> ("galois", Ps_gen.Lfsr.galois ~bits ~taps:(Ps_gen.Lfsr.default_taps bits) ())
  in
  (* The all-zero state is a fixed point of both LFSR forms: its backward
     closure is itself, so it would make a zero-frame query. *)
  let v = 1 + Rng.int rng ((1 lsl bits) - 1) in
  { id; family; circuit; target = Targets.value ~bits v }

let make_query kind ~rng ~id =
  match kind with
  | Allsat_dense ->
    random_query ~rng ~id ~latches:(cycle id 7 9) ~gates_per_latch:6
      ~xor_share:0.2 ~ncubes:(cycle (id / 4) 1 3) ~density:0.25
      ~band:(0.25, 0.75)
  | Preimage_sds ->
    random_query ~rng ~id ~latches:(cycle id 8 10) ~gates_per_latch:7
      ~xor_share:0.15 ~ncubes:(cycle (id / 4) 2 4) ~density:0.3
      ~band:(0.25, 0.75)
  | Reach_deep -> deep_query ~rng ~id
  | Reach_wide ->
    random_query ~rng ~id ~latches:(cycle id 6 8) ~gates_per_latch:6
      ~xor_share:0.15 ~ncubes:1 ~density:0.3
      ~band:(0.05, 0.3)
  | Certify ->
    random_query ~rng ~id ~latches:(cycle id 10 12) ~gates_per_latch:7
      ~xor_share:0.15 ~ncubes:(cycle (id / 4) 1 3) ~density:0.3
      ~band:(0.25, 0.75)

(* Each workload draws from its own stream, so two workloads never share
   circuits under one seed. *)
let stream kind ~seed =
  let salt = Hashtbl.hash (name kind) land 0xFFFF in
  Rng.create ~seed:((seed * 0x10001) + salt)

let generate kind ~seed =
  let rng = stream kind ~seed in
  List.init (size kind) (fun id -> make_query kind ~rng:(Rng.split rng) ~id)

let fingerprint q =
  String.concat "\n"
    (q.family :: Ps_circuit.Bench.to_string q.circuit
    :: List.map Cube.to_string q.target)

let describe q =
  Printf.sprintf "#%d %s latches=%d target=%s" q.id q.family
    (List.length (Netlist.latches q.circuit))
    (String.concat "," (List.map Cube.to_string q.target))
