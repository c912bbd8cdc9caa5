(** Seeded query sets for the benchmark's five workloads.

    A workload is a fixed-size list of preimage or reachability queries
    generated from a seed: the same seed always yields the same queries,
    and the program under test only ever sees the generated inputs. *)

type kind = Allsat_dense | Preimage_sds | Reach_deep | Reach_wide | Certify

val all : kind list

(** [name k] is the workload's command-line name, e.g. ["allsat-dense"]. *)
val name : kind -> string

val of_name : string -> kind option

(** [one_step k] — are the queries single preimages (built into an
    {!Preimage.Instance.t} during set-up) rather than fixpoints? *)
val one_step : kind -> bool

(** [size k] is the number of queries in one pass. *)
val size : kind -> int

type query = {
  id : int;  (** position in the query set *)
  family : string;  (** circuit generator: ["rand"], ["binary"], ... *)
  circuit : Ps_circuit.Netlist.t;
  target : Ps_allsat.Cube.t list;  (** next-state cubes over the latches *)
}

(** [generate k ~seed] is the workload's query set for [seed]. *)
val generate : kind -> seed:int -> query list

(** [fingerprint q] is a textual rendering of the whole query (circuit
    in [.bench] form and target), for comparing query sets. *)
val fingerprint : query -> string

(** [describe q] is a one-line summary for failure reports. *)
val describe : query -> string
