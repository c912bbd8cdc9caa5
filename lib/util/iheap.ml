(* Monomorphic storage and hole-moving percolation: the element being
   placed is held aside while parents (or children) slide into the hole,
   so each level costs one score comparison and one write, and every
   score is read straight out of a float array (no closure, no boxing).
   The comparisons made are exactly those of a swap-based heap, so the
   pop order, ties included, is the same. *)
type t = {
  mutable heap : int array;  (* heap.(i) = element at heap position i *)
  mutable size : int;
  mutable pos : int array;   (* pos.(x) = position of x in heap, -1 if absent *)
  score : float array ref;
}

let create ~score = { heap = [||]; size = 0; pos = [||]; score }

let size h = h.size

let is_empty h = h.size = 0

let mem h x = x < Array.length h.pos && h.pos.(x) >= 0

(* Place [x] at hole [i] or above it. *)
let percolate_up h x i =
  let score = !(h.score) in
  let s = score.(x) in
  let i = ref i in
  while !i > 0 && s > score.(h.heap.((!i - 1) / 2)) do
    let parent = (!i - 1) / 2 in
    let p = h.heap.(parent) in
    h.heap.(!i) <- p;
    h.pos.(p) <- !i;
    i := parent
  done;
  h.heap.(!i) <- x;
  h.pos.(x) <- !i

(* Place [x] at hole [i] or below it. A child moves up only when its
   score is strictly greater than [x]'s; between equal children the left
   one wins. *)
let percolate_down h x i =
  let score = !(h.score) in
  let s = score.(x) in
  let n = h.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && score.(h.heap.(r)) > score.(h.heap.(l)) then r else l
      in
      let y = h.heap.(c) in
      if score.(y) > s then begin
        h.heap.(!i) <- y;
        h.pos.(y) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  h.heap.(!i) <- x;
  h.pos.(x) <- !i

let grow a n fill =
  let a' = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let insert h x =
  if not (mem h x) then begin
    if x >= Array.length h.pos then h.pos <- grow h.pos (x + 1) (-1);
    if h.size = Array.length h.heap then h.heap <- grow h.heap (h.size + 1) (-1);
    h.size <- h.size + 1;
    percolate_up h x (h.size - 1)
  end

let remove_max h =
  if is_empty h then raise Not_found;
  let top = h.heap.(0) in
  h.size <- h.size - 1;
  h.pos.(top) <- -1;
  if h.size > 0 then percolate_down h h.heap.(h.size) 0;
  top

let decrease h x = if mem h x then percolate_up h x h.pos.(x)

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.heap.(i)) <- -1
  done;
  h.size <- 0

let rebuild h xs =
  clear h;
  List.iter (insert h) xs
