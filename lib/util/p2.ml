type t = {
  q : float array;  (* marker heights *)
  np : float array;  (* desired positions *)
  pos : float array;  (* actual positions (1-based) *)
  dnp : float array;  (* desired-position increments *)
  p : float;
  mutable count : int;
}

let create ~p () =
  if not (p > 0. && p < 1.) then invalid_arg "P2.create: p must be in (0, 1)";
  {
    q = Array.make 5 0.;
    np = Array.make 5 0.;
    pos = [| 1.; 2.; 3.; 4.; 5. |];
    dnp = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
    p;
    count = 0;
  }

(* Marker indices below are in range by construction ([i] in 1..3, [j]
   one step from [i], and fixed 0..4 loops over the five-slot arrays), so
   the per-observation path reads and writes without bounds checks. *)
let[@inline] parabolic t i d =
  let q = t.q and pos = t.pos in
  let qm = Array.unsafe_get q (i - 1) and qi = Array.unsafe_get q i
  and qp = Array.unsafe_get q (i + 1) in
  let pm = Array.unsafe_get pos (i - 1) and pi = Array.unsafe_get pos i
  and pp = Array.unsafe_get pos (i + 1) in
  qi
  +. d
     /. (pp -. pm)
     *. (((pi -. pm +. d) *. (qp -. qi) /. (pp -. pi))
        +. ((pp -. pi -. d) *. (qi -. qm) /. (pi -. pm)))

let[@inline] linear t i d =
  let q = t.q and pos = t.pos in
  let j = i + int_of_float d in
  Array.unsafe_get q i
  +. (d *. (Array.unsafe_get q j -. Array.unsafe_get q i)
     /. (Array.unsafe_get pos j -. Array.unsafe_get pos i))

(* The first five observations fill the markers; out of line, since it
   runs five times per sketch. *)
let warm_up t x =
  let q = t.q in
  q.(t.count - 1) <- x;
  if t.count = 5 then begin
    Array.sort Float.compare q;
    for i = 0 to 4 do
      t.np.(i) <- 1. +. (4. *. t.dnp.(i))
    done
  end

(* Inlined, with its helpers, so a caller's unboxed observation stays
   unboxed: the hot folds (Live, Sink.quantile) allocate nothing here. *)
let[@inline] add t x =
  let q = t.q and np = t.np and pos = t.pos and dnp = t.dnp in
  t.count <- t.count + 1;
  if t.count <= 5 then warm_up t x
  else begin
    (* Locate the cell — the last marker [i] in 1..3 with [x >= q.(i)] —
       and bump the extreme markers. *)
    let k =
      if x < Array.unsafe_get q 0 then begin
        Array.unsafe_set q 0 x;
        0
      end
      else if x >= Array.unsafe_get q 4 then begin
        Array.unsafe_set q 4 (Floatx.fmax (Array.unsafe_get q 4) x);
        3
      end
      else if x >= Array.unsafe_get q 3 then 3
      else if x >= Array.unsafe_get q 2 then 2
      else if x >= Array.unsafe_get q 1 then 1
      else 0
    in
    for i = k + 1 to 4 do
      Array.unsafe_set pos i (Array.unsafe_get pos i +. 1.)
    done;
    for i = 0 to 4 do
      Array.unsafe_set np i (Array.unsafe_get np i +. Array.unsafe_get dnp i)
    done;
    (* Adjust the three interior markers towards their desired spots. *)
    for i = 1 to 3 do
      let pi = Array.unsafe_get pos i in
      let d = Array.unsafe_get np i -. pi in
      if
        (d >= 1. && Array.unsafe_get pos (i + 1) -. pi > 1.)
        || (d <= -1. && Array.unsafe_get pos (i - 1) -. pi < -1.)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let h =
          if Array.unsafe_get q (i - 1) < candidate && candidate < Array.unsafe_get q (i + 1)
          then candidate
          else linear t i d
        in
        Array.unsafe_set q i h;
        Array.unsafe_set pos i (pi +. d)
      end
    done
  end

let count t = t.count

let value t =
  let n = t.count in
  if n = 0 then 0.
  else if n <= 5 then begin
    (* Exact small-sample quantile, interpolated like Stats.percentile. *)
    let sorted = Array.sub t.q 0 n in
    Array.sort Float.compare sorted;
    let rank = t.p *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. Float.of_int lo in
      ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
    end
  end
  else t.q.(2)
