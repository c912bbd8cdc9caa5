(** Two-valued and three-valued netlist simulation.

    An {e environment} assigns values to primary inputs and latch outputs
    (present state); simulation evaluates every gate in topological order.
    Three-valued simulation additionally admits X (unknown) on any leaf
    and is the satisfaction/refutation detector inside the success-driven
    searcher. *)

(** [eval n ~env] evaluates all nets. [env.(net)] must hold the value of
    every input and latch-output net; gate entries are ignored on entry.
    Returns a fresh array with every net's value. *)
val eval : Netlist.t -> env:bool array -> bool array

(** [eval3 n ~env] is the 3-valued analogue; leaves may be [Gate.X]. *)
val eval3 : Netlist.t -> env:Gate.tri array -> Gate.tri array

(** Event-driven ternary simulation on an undo trail: the success-driven
    searcher's per-node simulator. Leaves are decided one at a time and
    each decision is propagated through its fanout only; since ternary
    simulation is monotone, a decision only turns X nets into 0/1, and
    undoing it resets exactly those nets to X. *)
module Trail : sig
  type t

  (** [create n ~env] evaluates [env] as {!eval3} does (one full pass)
      and starts an empty trail over the result. *)
  val create : Netlist.t -> env:Gate.tri array -> t

  (** [values t] is the live value array: at every moment it equals
      [eval3 n ~env] of the creation environment extended with the
      decisions made since. Callers must not write to it. *)
  val values : t -> Gate.tri array

  (** [assign t net b] decides the X-valued input or latch output [net]
      to [b] and propagates the decision. Raises [Invalid_argument] if
      [net] is a gate or is not X. *)
  val assign : t -> int -> bool -> unit

  (** [mark t] names the current point of the trail, for {!undo}. *)
  val mark : t -> int

  (** [undo t m] withdraws every decision made since [mark t] returned
      [m]. Raises [Invalid_argument] if [m] is not a live mark. *)
  val undo : t -> int -> unit
end

(** [step n ~inputs ~state] runs one clock cycle: evaluates the
    combinational logic under [inputs] (indexed like {!Netlist.inputs})
    and [state] (indexed like {!Netlist.latches}), and returns
    [(outputs, next_state)] in the same index spaces. *)
val step :
  Netlist.t -> inputs:bool array -> state:bool array -> bool array * bool array

(** [run n ~state ~input_seq] simulates a sequence of input vectors from
    [state], returning the output vector and state after each step. *)
val run :
  Netlist.t ->
  state:bool array ->
  input_seq:bool array list ->
  (bool array * bool array) list
