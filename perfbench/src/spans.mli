(** In-memory spans recorded around calls into the program's layers.

    Spans carry a name, the index of the query they belong to, the span
    that caused them, and start and end times; they are written out when
    the run ends. Opening and closing is safe from several domains. *)

type span = {
  id : int;
  query : int;
  name : string;
  parent : int;  (** [-1] at the top *)
  t0 : float;
  t1 : float;
}

type t

val create : unit -> t

(** [set_query t q] tags spans opened from now on with query [q]. *)
val set_query : t -> int -> unit

(** [current t] is the innermost span open through {!with_span}, or [-1]. *)
val current : t -> int

(** [start t ~name ~parent] opens a span now and returns its id;
    {!finish} closes it. For spans driven by trace events. *)
val start : t -> name:string -> parent:int -> int

val finish : t -> int -> unit

(** [with_span t name f] runs [f] inside a span nested under {!current}. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** Closed spans, in closing order. *)
val spans : t -> span list

val named : t -> string -> span list
val durations : t -> string -> float list

(** [total t name] sums the durations of the spans called [name]. *)
val total : t -> string -> float

(** [covered ~lo ~hi intervals] is the length of the union of
    [intervals] clipped to [[lo, hi]]. *)
val covered : lo:float -> hi:float -> (float * float) list -> float

(** [self_total t name] sums, over the spans called [name], each span's
    duration minus the time its child spans cover. *)
val self_total : t -> string -> float

(** [write_json t ~path ~header] writes [{<header>, "spans": [...]}] with
    times in microseconds from the first span. *)
val write_json : t -> path:string -> header:string -> unit
