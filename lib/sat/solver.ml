module Stats = Ps_util.Stats
module Vec = Ps_util.Vec
module Iheap = Ps_util.Iheap
module Luby = Ps_util.Luby
module Budget = Ps_util.Budget
module Trace = Ps_util.Trace

type result = Sat | Unsat | Unknown

(* Value encoding: -1 = unassigned, 0 = false, 1 = true. *)
let v_undef = -1

let cref_undef = Arena.Cref.undef

(* All clause storage lives in the {!Arena}; everywhere below a clause
   is an [Arena.Cref.t] (an int offset). Watcher lists are flat int
   vectors of (cref, blocker) pairs: a visit whose blocker literal is
   already true never touches clause memory. Per-variable state is kept
   in plain arrays (grown in [new_var]) so the propagation inner loop is
   free of bounds checks and allocation. *)
type t = {
  mutable arena : Arena.t;               (* replaced wholesale by GC *)
  clauses : int Vec.t;                   (* problem clause refs *)
  learnts : int Vec.t;                   (* learnt clause refs *)
  mutable w_data : int array array;      (* per literal: (cref, blocker)* *)
  mutable w_size : int array;            (* per literal: live pair count *)
  mutable n_vars : int;
  mutable assigns : int array;           (* per var *)
  mutable level : int array;             (* per var *)
  mutable reason : int array;            (* per var; cref_undef = none *)
  mutable phase : bool array;            (* per var, saved polarity *)
  activity : float array ref;            (* per var; the VSIDS heap reads through the ref *)
  mutable seen : bool array;             (* per var, scratch for analyze *)
  mutable trail : int array;             (* assigned literals in order *)
  mutable n_trail : int;
  trail_lim : int Vec.t;
  mutable qhead : int;
  order : Iheap.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable max_learnts : float;
  mutable model_arr : bool array;
  mutable have_model : bool;
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt : int;
  mutable n_deleted : int;
  mutable n_solve_calls : int;
  mutable n_minimized : int;
  mutable n_reduce_dbs : int;
  mutable n_gcs : int;
  mutable n_gc_words : int;
  mutable n_watch_visits : int;
  mutable n_blocker_skips : int;
  mutable conflict_core : Lit.t list;
  (* [Some a]: the trail above the root is the last [Sat] answer's,
     found under assumptions [a], possibly cut back by [block]. Only a
     [solve] under the same assumptions resumes from it; every other
     entry point returns to the root first. *)
  mutable kept : Lit.t array option;
  (* Transient per-[solve] observability hooks (set on entry). *)
  mutable budget : Budget.t option;
  mutable trace : Trace.sink;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let restart_base = 64

let create () =
  let activity = ref [||] in
  {
    arena = Arena.create ();
    clauses = Vec.create ~dummy:cref_undef;
    learnts = Vec.create ~dummy:cref_undef;
    w_data = [||];
    w_size = [||];
    n_vars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    phase = [||];
    activity;
    seen = [||];
    trail = [||];
    n_trail = 0;
    trail_lim = Vec.create ~dummy:(-1);
    qhead = 0;
    order = Iheap.create ~score:activity;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    max_learnts = 1000.0;
    model_arr = [||];
    have_model = false;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt = 0;
    n_deleted = 0;
    n_solve_calls = 0;
    n_minimized = 0;
    n_reduce_dbs = 0;
    n_gcs = 0;
    n_gc_words = 0;
    n_watch_visits = 0;
    n_blocker_skips = 0;
    conflict_core = [];
    kept = None;
    budget = None;
    trace = Trace.null;
  }

let nvars t = t.n_vars

let new_var t =
  let v = t.n_vars in
  if v >= Array.length t.assigns then begin
    let cap = max 16 (2 * Array.length t.assigns) in
    let grow_int a init =
      let a' = Array.make cap init in
      Array.blit a 0 a' 0 v;
      a'
    in
    let grow_bool a =
      let a' = Array.make cap false in
      Array.blit a 0 a' 0 v;
      a'
    in
    t.assigns <- grow_int t.assigns v_undef;
    t.level <- grow_int t.level (-1);
    t.reason <- grow_int t.reason cref_undef;
    t.phase <- grow_bool t.phase;
    t.seen <- grow_bool t.seen;
    (let a' = Array.make cap 0.0 in
     Array.blit !(t.activity) 0 a' 0 v;
     t.activity := a');
    (let tr' = Array.make cap 0 in
     Array.blit t.trail 0 tr' 0 t.n_trail;
     t.trail <- tr');
    (let wd' = Array.make (2 * cap) [||] in
     Array.blit t.w_data 0 wd' 0 (2 * v);
     t.w_data <- wd');
    (let ws' = Array.make (2 * cap) 0 in
     Array.blit t.w_size 0 ws' 0 (2 * v);
     t.w_size <- ws')
  end;
  t.assigns.(v) <- v_undef;
  t.level.(v) <- -1;
  t.reason.(v) <- cref_undef;
  t.phase.(v) <- false;
  t.seen.(v) <- false;
  !(t.activity).(v) <- 0.0;
  t.w_data.(2 * v) <- [||];
  t.w_data.((2 * v) + 1) <- [||];
  t.w_size.(2 * v) <- 0;
  t.w_size.((2 * v) + 1) <- 0;
  t.n_vars <- v + 1;
  Iheap.insert t.order v;
  v

let ensure_vars t n =
  while nvars t < n do
    ignore (new_var t)
  done

let okay t = t.ok

let n_clauses t = Vec.size t.clauses
let n_learnts t = Vec.size t.learnts
let n_conflicts t = t.n_conflicts

let stats t =
  let st = Stats.create () in
  Stats.add st "conflicts" t.n_conflicts;
  Stats.add st "decisions" t.n_decisions;
  Stats.add st "propagations" t.n_propagations;
  Stats.add st "restarts" t.n_restarts;
  Stats.add st "learnt" t.n_learnt;
  Stats.add st "deleted" t.n_deleted;
  Stats.add st "solve_calls" t.n_solve_calls;
  Stats.add st "minimized_lits" t.n_minimized;
  Stats.add st "reduce_dbs" t.n_reduce_dbs;
  Stats.add st "watcher_visits" t.n_watch_visits;
  Stats.add st "blocker_skips" t.n_blocker_skips;
  Stats.add st "arena_words" (Arena.len t.arena);
  Stats.add st "arena_bytes" (8 * Arena.len t.arena);
  Stats.add st "arena_live_words" (Arena.live_words t.arena);
  Stats.add st "arena_gcs" t.n_gcs;
  Stats.add st "arena_gc_words" t.n_gc_words;
  st

(* --- assignment primitives ------------------------------------------- *)

let value_var t v = t.assigns.(v)

(* Positive literals have low bit 0, so xor-ing the sign bit into the
   variable's 0/1 value gives the literal's value directly. *)
let value_lit t l =
  let a = Array.unsafe_get t.assigns (l lsr 1) in
  if a < 0 then v_undef else a lxor (l land 1)

let decision_level t = Vec.size t.trail_lim

let new_decision_level t = Vec.push t.trail_lim t.n_trail

let enqueue t l reason =
  match value_lit t l with
  | 1 -> true
  | 0 -> false
  | _ ->
    let v = Lit.var l in
    t.assigns.(v) <- (l land 1) lxor 1;
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    t.trail.(t.n_trail) <- l;
    t.n_trail <- t.n_trail + 1;
    true

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = t.n_trail - 1 downto bound do
      let l = t.trail.(i) in
      let v = Lit.var l in
      t.phase.(v) <- Lit.sign l;
      t.assigns.(v) <- v_undef;
      t.reason.(v) <- cref_undef;
      t.level.(v) <- -1;
      Iheap.insert t.order v
    done;
    t.n_trail <- bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- bound
  end

let back_to_root t =
  cancel_until t 0;
  t.kept <- None

(* --- activities ------------------------------------------------------ *)

let var_bump t v =
  let act = !(t.activity) in
  let a = act.(v) +. t.var_inc in
  act.(v) <- a;
  if a > 1e100 then begin
    for i = 0 to t.n_vars - 1 do
      act.(i) <- act.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Iheap.decrease t.order v

let var_decay_activity t = t.var_inc <- t.var_inc *. var_decay

let cla_bump t cr =
  let a = Arena.activity t.arena cr +. t.cla_inc in
  Arena.set_activity t.arena cr a;
  if a > 1e20 then begin
    Vec.iter
      (fun cr -> Arena.set_activity t.arena cr (Arena.activity t.arena cr *. 1e-20))
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* --- watcher lists ----------------------------------------------------- *)

let watch_push t l cr blocker =
  let n = t.w_size.(l) in
  let d = t.w_data.(l) in
  let d =
    if (2 * n) + 2 > Array.length d then begin
      let d' = Array.make (max 8 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 (2 * n);
      t.w_data.(l) <- d';
      d'
    end
    else d
  in
  d.(2 * n) <- cr;
  d.((2 * n) + 1) <- blocker;
  t.w_size.(l) <- n + 1

let watch_remove t l cr =
  let d = t.w_data.(l) in
  let n = t.w_size.(l) in
  let rec find i =
    if i >= n then ()
    else if d.(2 * i) = cr then begin
      d.(2 * i) <- d.(2 * (n - 1));
      d.((2 * i) + 1) <- d.((2 * (n - 1)) + 1);
      t.w_size.(l) <- n - 1
    end
    else find (i + 1)
  in
  find 0

let attach t cr =
  let l0 = Arena.lit t.arena cr 0 and l1 = Arena.lit t.arena cr 1 in
  watch_push t (Lit.negate l0) cr l1;
  watch_push t (Lit.negate l1) cr l0

let detach t cr =
  watch_remove t (Lit.negate (Arena.lit t.arena cr 0)) cr;
  watch_remove t (Lit.negate (Arena.lit t.arena cr 1)) cr

(* --- propagation ------------------------------------------------------ *)

let propagate t =
  let conflict = ref cref_undef in
  while !conflict = cref_undef && t.qhead < t.n_trail do
    let p = Array.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = Lit.negate p in
    (* Literal [false_lit] just became false; visit the watchers of [p].
       [ws] cannot be repointed inside the loop: the only pushes go to
       the new watch literal's list, and that literal is never false
       here, so it is never [false_lit]'s list. *)
    let ws = t.w_data.(p) in
    let n = t.w_size.(p) in
    t.n_watch_visits <- t.n_watch_visits + n;
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let cr = Array.unsafe_get ws (2 * !i) in
      let blocker = Array.unsafe_get ws ((2 * !i) + 1) in
      incr i;
      if value_lit t blocker = 1 then begin
        (* Blocker satisfied: keep the watch, clause memory untouched. *)
        t.n_blocker_skips <- t.n_blocker_skips + 1;
        Array.unsafe_set ws (2 * !j) cr;
        Array.unsafe_set ws ((2 * !j) + 1) blocker;
        incr j
      end
      else begin
        let data = Arena.raw t.arena in
        let base = cr + Arena.header_words in
        if Array.unsafe_get data base = false_lit then begin
          Array.unsafe_set data base (Array.unsafe_get data (base + 1));
          Array.unsafe_set data (base + 1) false_lit
        end;
        (* Invariant: slot 1 holds [false_lit]. *)
        let first = Array.unsafe_get data base in
        if first <> blocker && value_lit t first = 1 then begin
          Array.unsafe_set ws (2 * !j) cr;
          Array.unsafe_set ws ((2 * !j) + 1) first;
          incr j
        end
        else begin
          (* Look for a new literal to watch. *)
          let size = Arena.raw_size data cr in
          let rec find k =
            if k >= size then -1
            else if value_lit t (Array.unsafe_get data (base + k)) <> 0 then k
            else find (k + 1)
          in
          let k = find 2 in
          if k >= 0 then begin
            let lk = Array.unsafe_get data (base + k) in
            Array.unsafe_set data (base + 1) lk;
            Array.unsafe_set data (base + k) false_lit;
            watch_push t (Lit.negate lk) cr first
          end
          else begin
            (* Unit or conflicting. *)
            Array.unsafe_set ws (2 * !j) cr;
            Array.unsafe_set ws ((2 * !j) + 1) first;
            incr j;
            if not (enqueue t first cr) then begin
              conflict := cr;
              t.qhead <- t.n_trail;
              (* Copy the remaining watchers back. *)
              while !i < n do
                Array.unsafe_set ws (2 * !j) (Array.unsafe_get ws (2 * !i));
                Array.unsafe_set ws ((2 * !j) + 1)
                  (Array.unsafe_get ws ((2 * !i) + 1));
                incr i;
                incr j
              done
            end
          end
        end
      end
    done;
    t.w_size.(p) <- !j
  done;
  !conflict

(* --- conflict analysis ------------------------------------------------ *)

(* A learnt-tail literal is redundant if it is implied by literals already
   in the clause: its reason's literals are all seen or fixed at level 0
   (local minimization). *)
let literal_redundant t q =
  let r = t.reason.(Lit.var q) in
  if r = cref_undef then false
  else begin
    let ok = ref true in
    let sz = Arena.size t.arena r in
    for k = 1 to sz - 1 do
      let vr = Lit.var (Arena.lit t.arena r k) in
      if (not t.seen.(vr)) && t.level.(vr) > 0 then ok := false
    done;
    !ok
  end

let analyze t confl =
  let learnt = Vec.create ~dummy:(-1) in
  Vec.push learnt (-1) (* slot for the asserting literal *);
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref (t.n_trail - 1) in
  let c = ref confl in
  let to_clear = ref [] in
  let continue = ref true in
  while !continue do
    if Arena.learnt t.arena !c then cla_bump t !c;
    let sz = Arena.size t.arena !c in
    let start = if !p = -1 then 0 else 1 in
    for k = start to sz - 1 do
      let q = Arena.lit t.arena !c k in
      let v = Lit.var q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        to_clear := v :: !to_clear;
        var_bump t v;
        if t.level.(v) >= decision_level t then incr path_count
        else Vec.push learnt q
      end
    done;
    (* Next clause to resolve with: walk the trail backwards. *)
    while not t.seen.(Lit.var t.trail.(!index)) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    c := t.reason.(Lit.var !p);
    t.seen.(Lit.var !p) <- false;
    decr path_count;
    if !path_count <= 0 then continue := false
  done;
  Vec.set learnt 0 (Lit.negate !p);
  (* Conflict-clause minimization. *)
  let kept = Vec.create ~dummy:(-1) in
  Vec.push kept (Vec.get learnt 0);
  for k = 1 to Vec.size learnt - 1 do
    let q = Vec.get learnt k in
    if literal_redundant t q then t.n_minimized <- t.n_minimized + 1
    else Vec.push kept q
  done;
  (* Backtrack level = max level among tail literals; move that literal to
     position 1 so it is watched. *)
  let bt_level = ref 0 in
  if Vec.size kept > 1 then begin
    let max_i = ref 1 in
    for k = 1 to Vec.size kept - 1 do
      if t.level.(Lit.var (Vec.get kept k)) > t.level.(Lit.var (Vec.get kept !max_i))
      then max_i := k
    done;
    let tmp = Vec.get kept 1 in
    Vec.set kept 1 (Vec.get kept !max_i);
    Vec.set kept !max_i tmp;
    bt_level := t.level.(Lit.var (Vec.get kept 1))
  end;
  List.iter (fun v -> t.seen.(v) <- false) !to_clear;
  (Vec.to_array kept, !bt_level)

let record_learnt t lits =
  t.n_learnt <- t.n_learnt + 1;
  if Array.length lits = 1 then begin
    cancel_until t 0;
    ignore (enqueue t lits.(0) cref_undef)
  end
  else begin
    let cr = Arena.alloc t.arena ~learnt:true lits in
    Vec.push t.learnts cr;
    attach t cr;
    cla_bump t cr;
    ignore (enqueue t lits.(0) cr)
  end

(* --- learnt-clause DB reduction and arena compaction ------------------- *)

let locked t cr =
  let l0 = Arena.lit t.arena cr 0 in
  t.reason.(Lit.var l0) = cr && value_lit t l0 = 1

(* Copying collection: every live reference site is visited once and
   relocated into a fresh arena. Watchers go first so clauses watched on
   the same literal land adjacent (propagation locality). Reasons are
   safe to walk wholesale: only locked clauses are reasons, and locked
   clauses are never freed, so every non-undef reason is live. *)
let garbage_collect t =
  let from = t.arena in
  let before_words = Arena.len from in
  let into = Arena.create ~capacity:(Arena.live_words from) () in
  for l = 0 to (2 * t.n_vars) - 1 do
    let d = t.w_data.(l) in
    for i = 0 to t.w_size.(l) - 1 do
      d.(2 * i) <- Arena.reloc ~from ~into d.(2 * i)
    done
  done;
  for v = 0 to t.n_vars - 1 do
    let r = t.reason.(v) in
    if r <> cref_undef then t.reason.(v) <- Arena.reloc ~from ~into r
  done;
  for i = 0 to Vec.size t.clauses - 1 do
    Vec.set t.clauses i (Arena.reloc ~from ~into (Vec.get t.clauses i))
  done;
  for i = 0 to Vec.size t.learnts - 1 do
    Vec.set t.learnts i (Arena.reloc ~from ~into (Vec.get t.learnts i))
  done;
  t.arena <- into;
  t.n_gcs <- t.n_gcs + 1;
  t.n_gc_words <- t.n_gc_words + (before_words - Arena.len into);
  if not (Trace.is_null t.trace) then
    Trace.emit t.trace
      (Trace.Gc { before_words; after_words = Arena.len into })

let reduce_db t =
  t.n_reduce_dbs <- t.n_reduce_dbs + 1;
  let before = Vec.size t.learnts in
  let arr = Vec.to_array t.learnts in
  Array.sort
    (fun a b -> compare (Arena.activity t.arena a) (Arena.activity t.arena b))
    arr;
  let n = Array.length arr in
  let lim = t.cla_inc /. float_of_int (max n 1) in
  Vec.clear t.learnts;
  Array.iteri
    (fun i cr ->
      let doomed =
        Arena.size t.arena cr > 2
        && (not (locked t cr))
        && (i < n / 2 || Arena.activity t.arena cr < lim)
      in
      if doomed then begin
        detach t cr;
        Arena.free t.arena cr;
        t.n_deleted <- t.n_deleted + 1
      end
      else Vec.push t.learnts cr)
    arr;
  if not (Trace.is_null t.trace) then
    Trace.emit t.trace (Trace.Reduce_db { before; after = Vec.size t.learnts });
  if Arena.should_gc t.arena then garbage_collect t

(* --- adding clauses ---------------------------------------------------- *)

let add_clause t lits =
  back_to_root t;
  if not t.ok then false
  else begin
    List.iter (fun l -> ensure_vars t (Lit.var l + 1)) lits;
    (* Sort, dedupe, drop root-false literals, detect tautology /
       root-satisfied clauses. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
      || List.exists (fun l -> value_lit t l = 1) lits
    in
    if tautology then true
    else begin
      let lits = List.filter (fun l -> value_lit t l <> 0) lits in
      match lits with
      | [] ->
        t.ok <- false;
        false
      | [ l ] ->
        ignore (enqueue t l cref_undef);
        if propagate t <> cref_undef then begin
          t.ok <- false;
          false
        end
        else true
      | _ ->
        let cr = Arena.alloc t.arena ~learnt:false (Array.of_list lits) in
        Vec.push t.clauses cr;
        attach t cr;
        true
    end
  end

(* Add a clause that the kept model trail falsifies without giving the
   trail up: watch the two highest-level literals and backjump to the
   clause's assertion level, the second-highest level, asserting the
   highest literal there (a tie at the top leaves two literals free one
   level below it). Anything else goes through [add_clause]. *)
let block t lits =
  match t.kept with
  | None -> add_clause t lits
  | Some _ ->
    let lits = List.sort_uniq compare lits in
    if not (List.for_all (fun l -> Lit.var l < t.n_vars && value_lit t l = 0) lits)
    then add_clause t lits
    else begin
      let level l = t.level.(Lit.var l) in
      let by_level =
        List.stable_sort
          (fun x y -> compare (level y) (level x))
          (List.filter (fun l -> level l > 0) lits)
      in
      match by_level with
      | [] | [ _ ] -> add_clause t lits
      | top :: second :: _ ->
        let cr = Arena.alloc t.arena ~learnt:false (Array.of_list by_level) in
        Vec.push t.clauses cr;
        attach t cr;
        if level top > level second then begin
          cancel_until t (level second);
          ignore (enqueue t top cr)
        end
        else cancel_until t (level top - 1);
        true
    end

let load t cnf =
  ensure_vars t cnf.Cnf.nvars;
  List.fold_left
    (fun ok c -> add_clause t (Array.to_list c) && ok)
    true
    (List.rev cnf.Cnf.clauses)

(* --- search ------------------------------------------------------------ *)

let pick_branch_var t =
  let rec loop () =
    if Iheap.is_empty t.order then None
    else begin
      let v = Iheap.remove_max t.order in
      if value_var t v = v_undef then Some v else loop ()
    end
  in
  loop ()

(* Which assumption literals force [p] false: walk the implication graph
   from ¬p back to the assumption decisions (MiniSat's analyzeFinal). *)
let analyze_final t p =
  let core = ref [ p ] in
  let v0 = Lit.var p in
  if t.level.(v0) > 0 then begin
    t.seen.(v0) <- true;
    let cleared = ref [ v0 ] in
    let start =
      if Vec.size t.trail_lim = 0 then 0 else Vec.get t.trail_lim 0
    in
    for i = t.n_trail - 1 downto start do
      let x = Lit.var t.trail.(i) in
      if t.seen.(x) then begin
        let r = t.reason.(x) in
        if r = cref_undef then
          (* a decision here is necessarily an assumption (this analysis
             only runs while assumptions alone are decided); the trail
             literal is the assumption itself *)
          (if x <> v0 then core := t.trail.(i) :: !core)
        else begin
          let sz = Arena.size t.arena r in
          for k = 1 to sz - 1 do
            let q = Arena.lit t.arena r k in
            let vq = Lit.var q in
            if t.level.(vq) > 0 && not t.seen.(vq) then begin
              t.seen.(vq) <- true;
              cleared := vq :: !cleared
            end
          done
        end;
        t.seen.(x) <- false
      end
    done;
    List.iter (fun v -> t.seen.(v) <- false) !cleared
  end;
  !core

type search_outcome = S_sat | S_unsat | S_restart | S_stopped

let capture_model t =
  t.model_arr <- Array.init (nvars t) (fun v -> value_var t v = 1);
  t.have_model <- true

(* How many decisions between deadline/cancellation polls on
   conflict-free runs (conflicts poll the budget unconditionally). *)
let decision_poll_grain = 128

(* One restart-bounded CDCL episode under [assumptions]. [restart_lim]
   is the Luby conflict cap of this episode; [budget] the caller's
   overall resource budget. *)
let search t assumptions restart_lim budget =
  let n_assumps = Array.length assumptions in
  let conflicts = ref 0 in
  let outcome = ref None in
  let last_props = ref t.n_propagations in
  let decisions_unpolled = ref 0 in
  let charge_props () =
    match budget with
    | None -> ()
    | Some b ->
      Budget.charge_propagations b (t.n_propagations - !last_props);
      last_props := t.n_propagations
  in
  let out_of_budget () =
    match budget with
    | None -> false
    | Some b -> (charge_props (); Budget.check b <> None)
  in
  while !outcome = None do
    let confl = propagate t in
    if confl <> cref_undef then begin
      incr conflicts;
      t.n_conflicts <- t.n_conflicts + 1;
      (match budget with Some b -> Budget.tick_conflict b | None -> ());
      if decision_level t = 0 then begin
        t.ok <- false;
        t.conflict_core <- [];
        outcome := Some S_unsat
      end
      else begin
        let lits, bt_level = analyze t confl in
        cancel_until t bt_level;
        record_learnt t lits;
        var_decay_activity t;
        cla_decay_activity t;
        if out_of_budget () then begin
          cancel_until t 0;
          outcome := Some S_stopped
        end
      end
    end
    else if !conflicts >= restart_lim then begin
      cancel_until t 0;
      t.n_restarts <- t.n_restarts + 1;
      if not (Trace.is_null t.trace) then
        Trace.emit t.trace
          (Trace.Restart
             { conflicts = t.n_conflicts; learnts = Vec.size t.learnts });
      outcome := Some S_restart
    end
    else if !decisions_unpolled >= decision_poll_grain && out_of_budget ()
    then begin
      decisions_unpolled := 0;
      cancel_until t 0;
      outcome := Some S_stopped
    end
    else begin
      if !decisions_unpolled >= decision_poll_grain then
        decisions_unpolled := 0;
      if float_of_int (Vec.size t.learnts - t.n_trail) >= t.max_learnts then
        reduce_db t;
      if decision_level t < n_assumps then begin
        (* Re-decide the next assumption. *)
        let p = assumptions.(decision_level t) in
        match value_lit t p with
        | 1 -> new_decision_level t
        | 0 ->
          t.conflict_core <- analyze_final t p;
          outcome := Some S_unsat
        | _ ->
          new_decision_level t;
          ignore (enqueue t p cref_undef)
      end
      else begin
        match pick_branch_var t with
        | None ->
          capture_model t;
          outcome := Some S_sat
        | Some v ->
          t.n_decisions <- t.n_decisions + 1;
          incr decisions_unpolled;
          (match budget with Some b -> Budget.charge_decisions b 1 | None -> ());
          new_decision_level t;
          ignore (enqueue t (Lit.make v t.phase.(v)) cref_undef)
      end
    end
  done;
  charge_props ();
  match !outcome with Some o -> o | None -> assert false

let solve ?(assumptions = []) ?budget ?(trace = Trace.null) t =
  t.n_solve_calls <- t.n_solve_calls + 1;
  t.have_model <- false;
  t.conflict_core <- [];
  t.budget <- budget;
  t.trace <- trace;
  let finish r =
    t.budget <- None;
    t.trace <- Trace.null;
    if not (Trace.is_null trace) then
      Trace.emit trace
        (Trace.Solve
           {
             result =
               (match r with Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown");
             conflicts = t.n_conflicts;
           });
    if r <> Sat then back_to_root t;
    r
  in
  let assumptions = Array.of_list assumptions in
  (match t.kept with
  | Some a when a = assumptions -> ()
  | _ -> cancel_until t 0);
  t.kept <- None;
  if not t.ok then finish Unsat
  else if (match budget with Some b -> Budget.check b <> None | None -> false)
  then finish Unknown
  else begin
    Array.iter (fun l -> ensure_vars t (Lit.var l + 1)) assumptions;
    t.max_learnts <-
      max t.max_learnts (float_of_int (Vec.size t.clauses) /. 3.0);
    let rec loop attempt =
      match search t assumptions (restart_base * Luby.luby attempt) budget with
      | S_sat ->
        t.kept <- Some assumptions;
        finish Sat
      | S_unsat -> finish Unsat
      | S_stopped -> finish Unknown
      | S_restart ->
        t.max_learnts <- t.max_learnts *. 1.1;
        loop (attempt + 1)
    in
    loop 1
  end

let model_value t v =
  if not t.have_model then invalid_arg "Solver.model_value: no model";
  if v < 0 || v >= Array.length t.model_arr then
    invalid_arg "Solver.model_value: unknown variable";
  t.model_arr.(v)

let model t =
  if not t.have_model then invalid_arg "Solver.model: no model";
  Array.copy t.model_arr

let root_value t v =
  if v < nvars t && t.level.(v) = 0 then
    match value_var t v with 1 -> Some true | 0 -> Some false | _ -> None
  else None

let unsat_core t = t.conflict_core

(* --- introspection / testing hooks ------------------------------------- *)

let check_watches t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    let live = Hashtbl.create 64 in
    let record cr =
      if cr = cref_undef then bad "clause list holds cref_undef";
      if Arena.dead t.arena cr then bad "clause list holds dead cref %d" cr;
      Hashtbl.replace live cr 0
    in
    Vec.iter record t.clauses;
    Vec.iter record t.learnts;
    (* The arena's live blocks are exactly the registered clauses. *)
    let n_arena = ref 0 in
    Arena.iter_live
      (fun cr ->
        incr n_arena;
        if not (Hashtbl.mem live cr) then
          bad "arena block %d not in clause lists" cr)
      t.arena;
    if !n_arena <> Hashtbl.length live then
      bad "arena has %d live blocks, clause lists %d" !n_arena
        (Hashtbl.length live);
    (* Every watcher references a live clause through one of its two
       watched literals. *)
    for l = 0 to (2 * t.n_vars) - 1 do
      for i = 0 to t.w_size.(l) - 1 do
        let cr = t.w_data.(l).(2 * i) in
        (match Hashtbl.find_opt live cr with
        | None -> bad "watcher of literal %d references unknown cref %d" l cr
        | Some n -> Hashtbl.replace live cr (n + 1));
        let l0 = Arena.lit t.arena cr 0 and l1 = Arena.lit t.arena cr 1 in
        if Lit.negate l0 <> l && Lit.negate l1 <> l then
          bad "cref %d watched on literal %d but watches %d/%d" cr l
            (Lit.negate l0) (Lit.negate l1)
      done
    done;
    (* ... and every clause is watched exactly twice. *)
    Hashtbl.iter
      (fun cr n -> if n <> 2 then bad "cref %d has %d watchers (want 2)" cr n)
      live;
    Ok ()
  with Bad msg -> Error msg

let dbg_assignment t v =
  match value_var t v with
  | 1 -> Some (true, t.level.(v))
  | 0 -> Some (false, t.level.(v))
  | _ -> None

let dbg_reduce_db t = reduce_db t
let dbg_gc t = garbage_collect t
let dbg_set_var_inc t x = t.var_inc <- x
let arena_words t = Arena.len t.arena
let arena_gcs t = t.n_gcs
