(* Open-loop frame schedule with due-time accounting.

   Frame [i] of a phase is due at [start + i * interval] whether or not
   the server kept up.  Its latency runs from that due time to its reply,
   so a stall is charged to every frame queued behind it (the frames are
   sent late, and the wait counts).  The generator's own lateness is kept
   apart: a frame sent after its due time because the previous reply was
   still outstanding is the server's delay, not the generator's, so
   lateness is measured from [max due previous_reply]. *)

type phase = {
  latencies : float array;  (** Reply time minus due time, per frame sent. *)
  late : float array;  (** Send time minus [max due previous_reply]. *)
  offered : int;  (** Frames due inside the phase. *)
  overdue : int;  (** Frames skipped because they were over [give_up] late. *)
  interval : float;
  elapsed : float;  (** From [start] to the last reply, at least the phase length. *)
}

let run ~clock ~wait_until ~start ~interval ~duration ~give_up ~send =
  let offered = Float.to_int (Float.ceil (duration /. interval)) in
  let latencies = Array.make offered 0. and late = Array.make offered 0. in
  let sent = ref 0 and overdue = ref 0 and prev_reply = ref start in
  for i = 0 to offered - 1 do
    let due = start +. (Float.of_int i *. interval) in
    if clock () -. due > give_up then incr overdue
    else begin
      wait_until due;
      let t_send = clock () in
      send ();
      let t_reply = clock () in
      late.(!sent) <- t_send -. Float.max due !prev_reply;
      latencies.(!sent) <- t_reply -. due;
      prev_reply := t_reply;
      incr sent
    end
  done;
  {
    latencies = Array.sub latencies 0 !sent;
    late = Array.sub late 0 !sent;
    offered;
    overdue = !overdue;
    interval;
    elapsed = Float.max (!prev_reply -. start) duration;
  }

(* Frames answered per second over frames offered per second. *)
let achieved_over_offered p =
  Float.of_int (Array.length p.latencies) *. p.interval /. p.elapsed
