let eval n ~env =
  let nnets = Netlist.num_nets n in
  if Array.length env < nnets then invalid_arg "Sim.eval: env too short";
  let values = Array.copy env in
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (kind, fanins) ->
        values.(g) <- Gate.eval kind (Array.map (fun f -> values.(f)) fanins)
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  values

(* Three-valued gate evaluation reads fanins straight from [values],
   with no fanin array built; the dominance rules are {!Gate.eval3}'s
   (arity was checked when the netlist was made).

   [dominated] is [c] if some fanin is [c], else X if some fanin is X,
   else [nc]. *)
let dominated values fanins c nc =
  let n = Array.length fanins in
  let hit = ref false and any_x = ref false and i = ref 0 in
  while !i < n && not !hit do
    let v = values.(fanins.(!i)) in
    if v = c then hit := true else if v = Gate.X then any_x := true;
    incr i
  done;
  if !hit then c else if !any_x then Gate.X else nc

let parity values fanins =
  let n = Array.length fanins in
  let acc = ref Gate.F and i = ref 0 in
  while !i < n && !acc <> Gate.X do
    (match values.(fanins.(!i)) with
    | Gate.X -> acc := Gate.X
    | Gate.T -> acc := if !acc = Gate.T then Gate.F else Gate.T
    | Gate.F -> ());
    incr i
  done;
  !acc

let neg = function Gate.F -> Gate.T | Gate.T -> Gate.F | Gate.X -> Gate.X

let eval_gate3 values kind fanins =
  match kind with
  | Gate.And -> dominated values fanins Gate.F Gate.T
  | Gate.Nand -> neg (dominated values fanins Gate.F Gate.T)
  | Gate.Or -> dominated values fanins Gate.T Gate.F
  | Gate.Nor -> neg (dominated values fanins Gate.T Gate.F)
  | Gate.Xor -> parity values fanins
  | Gate.Xnor -> neg (parity values fanins)
  | Gate.Not -> neg values.(fanins.(0))
  | Gate.Buf -> values.(fanins.(0))
  | Gate.Const0 -> Gate.F
  | Gate.Const1 -> Gate.T

let eval3 n ~env =
  let nnets = Netlist.num_nets n in
  if Array.length env < nnets then invalid_arg "Sim.eval3: env too short";
  let values = Array.sub env 0 nnets in
  Array.iter
    (fun g ->
      match Netlist.driver n g with
      | Netlist.Gate (kind, fanins) -> values.(g) <- eval_gate3 values kind fanins
      | Netlist.Input | Netlist.Latch _ -> assert false)
    (Netlist.topo_gates n);
  values

module Trail = struct
  (* Ternary simulation is monotone: deciding a leaf can only turn X
     nets into 0/1, never change a decided net. So a gate needs
     re-evaluating only while it is X and one of its fanins has just
     been decided, and undoing a decision only means resetting to X the
     nets decided after it — the [decided] stack, which is also the
     propagation queue. *)
  type t = {
    netlist : Netlist.t;
    values : Gate.tri array;
    decided : int array;  (* nets turned from X to 0/1, oldest first *)
    mutable size : int;
  }

  let create n ~env =
    {
      netlist = n;
      values = eval3 n ~env;
      decided = Array.make (Netlist.num_nets n) 0;
      size = 0;
    }

  let values t = t.values

  let mark t = t.size

  let push t net v =
    t.values.(net) <- v;
    t.decided.(t.size) <- net;
    t.size <- t.size + 1

  let rec wake t = function
    | [] -> ()
    | g :: rest ->
      (if t.values.(g) = Gate.X then
         match Netlist.driver t.netlist g with
         | Netlist.Gate (kind, fanins) ->
           let v = eval_gate3 t.values kind fanins in
           if v <> Gate.X then push t g v
         | Netlist.Input | Netlist.Latch _ -> assert false);
      wake t rest

  let assign t net b =
    if net < 0 || net >= Array.length t.values then
      invalid_arg "Sim.Trail.assign: bad net";
    (match Netlist.driver t.netlist net with
    | Netlist.Input | Netlist.Latch _ -> ()
    | Netlist.Gate _ -> invalid_arg "Sim.Trail.assign: not an input or latch");
    if t.values.(net) <> Gate.X then
      invalid_arg "Sim.Trail.assign: net already decided";
    let fanouts = Netlist.fanouts t.netlist in
    let head = ref t.size in
    push t net (Gate.tri_of_bool b);
    while !head < t.size do
      let x = t.decided.(!head) in
      incr head;
      wake t fanouts.(x)
    done

  let undo t m =
    if m < 0 || m > t.size then invalid_arg "Sim.Trail.undo: bad mark";
    for i = m to t.size - 1 do
      t.values.(t.decided.(i)) <- Gate.X
    done;
    t.size <- m
end

let step n ~inputs ~state =
  let input_nets = Netlist.inputs n in
  let latch_nets = Netlist.latches n in
  if Array.length inputs <> List.length input_nets then
    invalid_arg "Sim.step: wrong number of inputs";
  if Array.length state <> List.length latch_nets then
    invalid_arg "Sim.step: wrong number of state bits";
  let env = Array.make (Netlist.num_nets n) false in
  List.iteri (fun i net -> env.(net) <- inputs.(i)) input_nets;
  List.iteri (fun i net -> env.(net) <- state.(i)) latch_nets;
  let values = eval n ~env in
  let outputs =
    Array.of_list (List.map (fun o -> values.(o)) (Netlist.outputs n))
  in
  let next_state =
    Array.of_list
      (List.map (fun l -> values.(Netlist.latch_data n l)) latch_nets)
  in
  (outputs, next_state)

let run n ~state ~input_seq =
  let current = ref state in
  List.map
    (fun inputs ->
      let outputs, next = step n ~inputs ~state:!current in
      current := next;
      (outputs, next))
    input_seq
