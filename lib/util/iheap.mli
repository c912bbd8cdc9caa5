(** Indexed binary max-heap over integer elements [0 .. n-1].

    Elements are ordered by a score array read at comparison time, so
    scores may change while an element is outside the heap; for in-heap
    score increases call {!decrease} (named after the MiniSat convention:
    the element moved {e up}). Used for VSIDS variable ordering in the SAT
    solver. *)

type t

(** [create ~score] is an empty heap ordering element [x] by
    [!score.(x)] (greater score = higher priority; between equal scores
    the order is that of a plain swap-based binary heap). The heap reads
    through the reference, so the owner may replace the array (e.g. to
    grow it) without telling the heap; it must cover every inserted
    element. *)
val create : score:float array ref -> t

val size : t -> int
val is_empty : t -> bool

(** [mem h x] is [true] iff [x] is currently in the heap. *)
val mem : t -> int -> bool

(** [insert h x] inserts [x]; no-op if already present. *)
val insert : t -> int -> unit

(** [remove_max h] pops the element with the greatest score.
    Raises [Not_found] when empty. *)
val remove_max : t -> int

(** [decrease h x] restores the heap property after [score x] increased
    (the element percolates toward the root). No-op when [x] not in heap. *)
val decrease : t -> int -> unit

(** [rebuild h xs] clears the heap and inserts all of [xs]. *)
val rebuild : t -> int list -> unit

val clear : t -> unit
