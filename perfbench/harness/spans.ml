(* In-memory spans recorded around the benchmark's calls into each layer.

   A disabled tracer costs one branch per call, so untraced passes run
   the same code path as traced ones. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  clock : unit -> float;
  mutable enabled : bool;
  mutable spans : span list;  (** Closed spans, newest first. *)
  mutable stack : int list;  (** Ids of the open spans, innermost first. *)
  mutable next_id : int;
}

let create ?(clock = Unix.gettimeofday) ~enabled () =
  { clock; enabled; spans = []; stack = []; next_id = 0 }

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = t.clock () in
    let close () =
      let t1 = t.clock () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; t0; t1 } :: t.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let reset t =
  t.spans <- [];
  t.stack <- []

let spans t = List.rev t.spans
let count t = List.length t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) clipped in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* Each span's duration minus the part of it that its child spans cover. *)
let self_time spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)))
    spans

(* Self time summed per span name, in first-appearance order. *)
let self_by_name spans =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (v, k) -> Hashtbl.replace tbl s.name (v +. self, k + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (self, 1))
    (self_time spans);
  List.rev_map (fun name -> let v, k = Hashtbl.find tbl name in (name, v, k)) !order
