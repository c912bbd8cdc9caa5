(** Cube enlargement by circuit justification.

    After the solver finds a satisfying assignment, many of the projected
    variables are irrelevant: the objective is already justified by a
    subset of the leaf values. [justify] walks the constraint cone
    backwards from the satisfied roots, keeping for each gate only a
    minimal set of fanins that force its value — one controlling fanin
    when the gate output is at its controlled value (choosing an
    already-required fanin when possible, to maximize sharing), all
    fanins otherwise. The unreached leaves are don't-cares: the
    enumerated minterm enlarges into a cube, and one short blocking
    clause prunes [2^(free)] solutions at once.

    Soundness invariant (property-tested): freezing the required leaves
    at their model values and varying every other leaf arbitrarily keeps
    every root at its model value. *)

(** Reusable visit marks for one netlist. A [justify] call with marks
    allocates nothing proportional to the netlist; marks must not be
    shared between domains. *)
type marks

val marks : Ps_circuit.Netlist.t -> marks

(** [justify ?marks n ~roots ~value] returns the leaves (inputs and
    latch outputs) that justify every root's value, each once. [value]
    must read a consistent simulation of [n]'s cone of [roots] (e.g.
    {!Ps_circuit.Sim.eval}, or the model of a full Tseitin encoding);
    roots may take either value. Roots are justified in list order and
    share the leaves already required, so for one root the result does
    not depend on [marks]. Without [marks], a fresh set is allocated.
    Raises [Invalid_argument] when the values contradict a gate. *)
val justify :
  ?marks:marks ->
  Ps_circuit.Netlist.t ->
  roots:int list ->
  value:(int -> bool) ->
  int list

(** [lift_mask n ~root ~values ~proj_nets] is the justification of one
    root projected onto the given nets: [mask.(i) = true] iff
    [proj_nets.(i)] is required. [values] covers every net of [n]. *)
val lift_mask :
  Ps_circuit.Netlist.t ->
  root:int ->
  values:bool array ->
  proj_nets:int array ->
  bool array
