open Rr_engine

type state = {
  known : (int, float) Hashtbl.t;  (* tracked alive job id -> its arrival *)
  ready : int Queue.t;  (* jobs waiting for a machine, FIFO *)
  mutable slots : (int * float) option array;  (* per machine: (job, quantum deadline) *)
  mutable last_now : float;
}

let policy ?(quantum = 1.0) () =
  if quantum <= 0. then invalid_arg "Quantum_rr.policy: quantum must be positive";
  let state =
    { known = Hashtbl.create 64; ready = Queue.create (); slots = [||]; last_now = Float.neg_infinity }
  in
  let reset () =
    Hashtbl.reset state.known;
    Queue.clear state.ready;
    state.slots <- [||]
  in
  let allocate ~now ~machines ~speed:_ (views : Policy.view array) =
    (* A reused policy value may be driving a fresh simulation.  Within
       one run time never goes backwards and a tracked job keeps its
       arrival; so a backwards clock, or an alive job whose id is tracked
       with another arrival, means the state belongs to another run:
       start from a clean ready queue.  (Time alone is not enough: a
       second run may start after the first one's last decision.) *)
    if
      now < state.last_now
      || Array.exists
           (fun (v : Policy.view) ->
             match Hashtbl.find_opt state.known v.id with
             | Some arrival -> arrival <> v.arrival
             | None -> false)
           views
    then reset ();
    state.last_now <- now;
    if Array.length state.slots <> machines then state.slots <- Array.make machines None;
    let alive = Hashtbl.create (Array.length views) in
    Array.iteri (fun i (v : Policy.view) -> Hashtbl.replace alive v.id i) views;
    (* Forget completed jobs: retire them from the machine slots, the
       ready queue and the tracked set, so an id the next run reuses is
       never mistaken for one of this run's jobs. *)
    Array.iteri
      (fun s slot ->
        match slot with
        | Some (j, _) when not (Hashtbl.mem alive j) -> state.slots.(s) <- None
        | _ -> ())
      state.slots;
    let queued = Queue.copy state.ready in
    Queue.clear state.ready;
    Queue.iter (fun j -> if Hashtbl.mem alive j then Queue.push j state.ready) queued;
    Hashtbl.filter_map_inplace
      (fun j arrival -> if Hashtbl.mem alive j then Some arrival else None)
      state.known;
    (* Admit newly arrived jobs in (arrival, id) order. *)
    let fresh =
      Array.to_list views
      |> List.filter (fun (v : Policy.view) -> not (Hashtbl.mem state.known v.id))
      |> List.sort (fun (a : Policy.view) (b : Policy.view) ->
             match Float.compare a.arrival b.arrival with
             | 0 -> Int.compare a.id b.id
             | c -> c)
    in
    List.iter
      (fun (v : Policy.view) ->
        Hashtbl.replace state.known v.id v.arrival;
        Queue.push v.id state.ready)
      fresh;
    (* Expire quanta: the incumbent goes to the back of the ready queue. *)
    Array.iteri
      (fun s slot ->
        match slot with
        | Some (j, deadline) when now >= deadline -. 1e-12 ->
            Queue.push j state.ready;
            state.slots.(s) <- None
        | _ -> ())
      state.slots;
    (* Refill idle machines from the ready queue (every entry is alive). *)
    Array.iteri
      (fun s slot ->
        if slot = None then
          match Queue.take_opt state.ready with
          | Some j -> state.slots.(s) <- Some (j, now +. quantum)
          | None -> ())
      state.slots;
    let rates = Array.make (Array.length views) 0. in
    let horizon = ref None in
    Array.iter
      (fun slot ->
        match slot with
        | Some (j, deadline) ->
            rates.(Hashtbl.find alive j) <- 1.;
            (match !horizon with
            | Some h when h <= deadline -> ()
            | _ -> horizon := Some deadline)
        | None -> ())
      state.slots;
    { Policy.rates; horizon = !horizon }
  in
  Policy.make
    ~name:(Printf.sprintf "quantum-rr(q=%g)" quantum)
    ~clairvoyant:false
    ~klass:(Policy_class.Quantum_cycle { quantum })
    allocate
