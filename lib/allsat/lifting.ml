module N = Ps_circuit.Netlist
module G = Ps_circuit.Gate

(* For AND/NAND the controlling input value is false; for OR/NOR true.
   When the gate output shows the controlled result, one controlling
   fanin justifies it. *)
let controlling_value = function
  | G.And | G.Nand -> Some false
  | G.Or | G.Nor -> Some true
  | G.Xor | G.Xnor | G.Not | G.Buf | G.Const0 | G.Const1 -> None

(* Output value a gate takes when a controlling input is present. *)
let controlled_output = function
  | G.And -> false
  | G.Nand -> true
  | G.Or -> true
  | G.Nor -> false
  | G.Xor | G.Xnor | G.Not | G.Buf | G.Const0 | G.Const1 ->
    invalid_arg "Lifting: gate has no controlling value"

(* A net is visited in the current call iff its stamp equals the call's
   epoch, so a reused [marks] costs nothing to clear. *)
type marks = { mutable epoch : int; stamp : int array }

let marks n = { epoch = 0; stamp = Array.make (N.num_nets n) 0 }

let justify ?marks:m n ~roots ~value =
  let m = match m with Some m -> m | None -> marks n in
  if Array.length m.stamp < N.num_nets n then
    invalid_arg "Lifting.justify: marks made for a smaller netlist";
  m.epoch <- m.epoch + 1;
  let epoch = m.epoch and stamp = m.stamp in
  let leaves = ref [] in
  let rec visit net =
    if stamp.(net) <> epoch then begin
      stamp.(net) <- epoch;
      match N.driver n net with
      | N.Input | N.Latch _ -> leaves := net :: !leaves
      | N.Gate (kind, fanins) -> (
        match controlling_value kind with
        | Some cv when value net = controlled_output kind ->
          (* One controlling fanin suffices; prefer one already visited so
             justifications share leaves across gates. Among equals the
             last in fanin order wins. *)
          let pick = ref (-1) and shared = ref (-1) in
          for i = Array.length fanins - 1 downto 0 do
            let f = fanins.(i) in
            if !shared < 0 && value f = cv then begin
              if !pick < 0 then pick := f;
              if stamp.(f) = epoch then shared := f
            end
          done;
          if !shared >= 0 then visit !shared
          else if !pick >= 0 then visit !pick
          else
            (* the values are inconsistent with the netlist *)
            invalid_arg "Lifting.justify: values are not a valid simulation"
        | Some _ | None ->
          (* Non-controlled case (or parity/unary/constant): every fanin
             participates in the value. *)
          Array.iter visit fanins)
    end
  in
  List.iter visit roots;
  !leaves

let lift_mask n ~root ~values ~proj_nets =
  if Array.length values < N.num_nets n then
    invalid_arg "Lifting.lift_mask: values too short";
  let required = Array.make (N.num_nets n) false in
  List.iter
    (fun net -> required.(net) <- true)
    (justify n ~roots:[ root ] ~value:(Array.get values));
  Array.map (fun net -> required.(net)) proj_nets
