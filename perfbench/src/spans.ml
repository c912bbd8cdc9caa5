type span = {
  id : int;
  query : int;
  name : string;
  parent : int;
  t0 : float;
  t1 : float;
}

type t = {
  lock : Mutex.t;
  mutable query : int;
  mutable next : int;
  mutable stack : int list;
  opened : (int, string * int * int * float) Hashtbl.t;
  mutable closed : span list;
}

let now = Unix.gettimeofday

let create () =
  {
    lock = Mutex.create ();
    query = -1;
    next = 0;
    stack = [];
    opened = Hashtbl.create 16;
    closed = [];
  }

let set_query t q = t.query <- q
let current t = match t.stack with id :: _ -> id | [] -> -1

let start t ~name ~parent =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      Hashtbl.replace t.opened id (name, t.query, parent, now ());
      id)

let finish t id =
  let t1 = now () in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.opened id with
      | None -> ()
      | Some (name, query, parent, t0) ->
        Hashtbl.remove t.opened id;
        t.closed <- { id; query; name; parent; t0; t1 } :: t.closed)

let with_span t name f =
  let id = start t ~name ~parent:(current t) in
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      finish t id)
    f

let spans t = List.rev t.closed
let named t name = List.filter (fun s -> s.name = name) (spans t)
let duration s = s.t1 -. s.t0
let durations t name = List.map duration (named t name)
let total t name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named t name)

(* Length of the union of [intervals] clipped to [lo, hi]. Children of a
   span may overlap (parallel shards), so their durations cannot simply
   be summed. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a lo and b = Float.min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None sorted

let self_total t name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    (spans t);
  List.fold_left
    (fun acc s ->
      acc
      +. duration s
      -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id))
    0.0 (named t name)

let write_json t ~path ~header =
  let oc = open_out path in
  Printf.fprintf oc "{%s,\n\"spans\": [\n" header;
  let base = match spans t with s :: _ -> s.t0 | [] -> 0.0 in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"query\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}"
        (if i = 0 then "" else ",\n")
        s.id s.query s.name s.parent
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6))
    (spans t);
  output_string oc "\n]}\n";
  close_out oc
