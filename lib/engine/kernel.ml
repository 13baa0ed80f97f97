(* The closed event loop shared by the incremental class kernels.  See
   kernel.mli for the hot-path rule every kernel follows.

   One loop serves the dense, hybrid and budget kernels: refresh,
   earliest internal event, fold in the next arrival, advance, settle,
   admit — with the general loop's completion-beats-arrival tie rule (an
   arrival only shortens the interval when strictly earlier).  All times live in the state's flat
   {!clock}, so the indirect calls through {!ops} pass and return no
   float. *)

module Source = Simulator.Source

type clock = { mutable now : float; mutable t_next : float; mutable makespan : float }

let clock () = { now = 0.; t_next = Float.infinity; makespan = 0. }

type out = { completions : float array; sink : Simulator.sink; mutable completed : int }

let out ?(completions = [||]) sink = { completions; sink; completed = 0 }

let[@inline] emit clk out id arrival =
  let now = clk.now in
  if Array.length out.completions > 0 then out.completions.(id) <- now;
  out.completed <- out.completed + 1;
  clk.makespan <- now;
  out.sink ~id ~arrival ~flow:(now -. arrival)

type 'st ops = {
  clock_of : 'st -> clock;
  alive : 'st -> int;
  admit_head : 'st -> Source.t -> unit;
  refresh : 'st -> unit;
  next_internal : 'st -> unit;
  advance : 'st -> unit;
  settle : 'st -> out -> unit;
  trace_entries : 'st -> Trace.entry array;
}

let drive ~record_trace ~max_events ~machines ~speed make ops ~source ~out =
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let st = make scratch in
  let clk = ops.clock_of st in
  let events = ref 0 in
  let max_alive = ref 0 in
  let admit_upto () =
    while Source.has_more source && Source.head_arrival source <= clk.now do
      ops.admit_head st source;
      Source.advance source
    done;
    let a = ops.alive st in
    if a > !max_alive then max_alive := a
  in
  let trace_arena : Trace.segment Rr_util.Vec.t = Arena.segments_of scratch in
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  admit_upto ();
  while ops.alive st > 0 || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
    if ops.alive st = 0 then begin
      (* Idle period: jump straight to the next arrival. *)
      clk.now <- Source.next_arrival source;
      admit_upto ()
    end
    else begin
      ops.refresh st;
      ops.next_internal st;
      let next_arrival = Source.next_arrival source in
      if next_arrival < clk.t_next then clk.t_next <- next_arrival;
      if not (Float.is_finite clk.t_next) then
        raise
          (Simulator.Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      assert (clk.t_next -. clk.now > 0.);
      if record_trace then
        Rr_util.Vec.push trace_arena
          { Trace.t0 = clk.now; t1 = clk.t_next; alive = ops.trace_entries st };
      ops.advance st;
      clk.now <- clk.t_next;
      ops.settle st out;
      admit_upto ()
    end
  done;
  ( {
      Simulator.n = out.completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    Rr_util.Vec.to_list trace_arena )

let run ~record_trace ~speed ~max_events ~sink ~machines make ops jobs =
  Simulator.run_closed ~machines ~speed jobs (fun ~source ~completions ->
      drive ~record_trace ~max_events ~machines ~speed make ops ~source
        ~out:(out ~completions sink))

let run_stream ~speed ~max_events ~sink ~machines make ops source =
  fst (drive ~record_trace:false ~max_events ~machines ~speed make ops ~source ~out:(out sink))
