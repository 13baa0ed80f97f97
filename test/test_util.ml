(* Unit and property tests for the rr_util substrate. *)

open Rr_util

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(tol = 1e-9) msg a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_copy () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:4 in
  let b = Prng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr equal
  done;
  Alcotest.(check bool) "split stream differs" true (!equal < 4)

let test_prng_float_range () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Prng.float rng in
    if not (x >= 0. && x < 1.) then Alcotest.failf "float out of range: %f" x
  done

let test_prng_float_mean () =
  let rng = Prng.create ~seed:6 in
  let acc = Kahan.create () in
  let n = 100_000 in
  for _ = 1 to n do
    Kahan.add acc (Prng.float rng)
  done;
  check_close ~tol:5e-3 "uniform mean ~ 0.5" 0.5 (Kahan.total acc /. Float.of_int n)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:7 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Prng.int rng ~bound:7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:8 in
  let acc = Kahan.create () in
  let n = 100_000 in
  for _ = 1 to n do
    Kahan.add acc (Prng.exponential rng ~rate:2.)
  done;
  check_close ~tol:0.01 "exp(rate 2) mean ~ 0.5" 0.5 (Kahan.total acc /. Float.of_int n)

let test_prng_bounded_pareto_support () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let x = Prng.bounded_pareto rng ~alpha:1.5 ~x_min:1. ~x_max:10. in
    if not (x >= 1. -. 1e-9 && x <= 10. +. 1e-9) then
      Alcotest.failf "bounded pareto out of support: %f" x
  done

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create ~seed:10 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Kahan                                                               *)
(* ------------------------------------------------------------------ *)

let test_kahan_pathological () =
  (* 1 + 1e16 - 1e16 loses the 1 under naive summation order. *)
  let xs = [| 1.; 1e16; 1.; -1e16 |] in
  check_float "compensated" 2. (Kahan.sum xs)

let test_kahan_matches_naive_on_small () =
  let xs = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  check_float "sum 1..100" 5050. (Kahan.sum xs)

let test_kahan_sum_by () =
  let xs = [| 1.; 2.; 3. |] in
  check_float "sum of squares" 14. (Kahan.sum_by (fun x -> x *. x) xs)

let test_kahan_list () = check_float "list" 6. (Kahan.sum_list [ 1.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Floatx                                                              *)
(* ------------------------------------------------------------------ *)

let test_powi_matches_pow () =
  List.iter
    (fun (x, k) ->
      check_close ~tol:1e-9 (Printf.sprintf "%g^%d" x k) (x ** Float.of_int k)
        (Floatx.powi x k))
    [ (2., 0); (2., 1); (2., 5); (1.5, 3); (0.3, 7); (10., 2) ]

let test_clamp () =
  check_float "below" 0. (Floatx.clamp ~lo:0. ~hi:1. (-5.));
  check_float "above" 1. (Floatx.clamp ~lo:0. ~hi:1. 5.);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0. ~hi:1. 0.5)

let test_approx_equal () =
  Alcotest.(check bool) "close" true (Floatx.approx_equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_equal 1. 1.1)

let test_min_max_arr () =
  check_float "min" (-2.) (Floatx.min_arr [| 3.; -2.; 7. |]);
  check_float "max" 7. (Floatx.max_arr [| 3.; -2.; 7. |]);
  Alcotest.check_raises "empty min" (Invalid_argument "Floatx.min_arr: empty array") (fun () ->
      ignore (Floatx.min_arr [||]))

(* fmin/fmax must be Float.min/max bit for bit, signed zeros and NaN
   included: the engines swap one for the other on the hot path. *)
let test_fmin_fmax_match_stdlib () =
  let specials = [ 0.; -0.; 1.; -1.; 0.5; Float.infinity; Float.neg_infinity; Float.nan ] in
  let same what a b =
    if Int64.bits_of_float a <> Int64.bits_of_float b then
      Alcotest.failf "%s: %h vs stdlib %h" what a b
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          same (Printf.sprintf "fmin %h %h" x y) (Floatx.fmin x y) (Float.min x y);
          same (Printf.sprintf "fmax %h %h" x y) (Floatx.fmax x y) (Float.max x y))
        specials)
    specials

(* [powi] must equal plain square-and-multiply recursion bit for bit
   for every exponent, including the k >= 4 tail, on special values
   too. *)
let test_powi_bit_exact () =
  let rec reference x k =
    if k = 0 then 1.
    else if k land 1 = 1 then x *. reference x (k - 1)
    else
      let h = reference x (k / 2) in
      h *. h
  in
  let xs = [ 0.; -0.; 1.; -1.; 0.3; -2.5; 1e-200; 1e200; Float.infinity; Float.nan ] in
  List.iter
    (fun x ->
      for k = 0 to 12 do
        let a = Floatx.powi x k and b = reference x k in
        if Int64.bits_of_float a <> Int64.bits_of_float b then
          Alcotest.failf "powi %h %d: %h vs reference %h" x k a b
      done)
    xs

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.add h) [ 5; 1; 4; 2; 3 ];
  Alcotest.(check (list int)) "drains sorted" [ 1; 2; 3; 4; 5 ] (Heap.drain h)

let test_heap_of_array () =
  let h = Heap.of_array ~cmp:Int.compare [| 9; 7; 8; 1 |] in
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check int) "length" 4 (Heap.length h)

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop" None (Heap.pop h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_scalar2_transfer () =
  let a = Heap.Scalar2.create () and b = Heap.Scalar2.create () in
  List.iter (fun (k, v) -> Heap.Scalar2.add a ~key:k ~aux1:(k *. 10.) ~aux2:0. v)
    [ (3., 3); (1., 1); (2., 2) ];
  List.iter (fun (k, v) -> Heap.Scalar2.add b ~key:k ~aux1:(k *. 10.) ~aux2:0. v)
    [ (2.5, 25); (0.5, 5) ];
  Heap.Scalar2.transfer ~src:a b;
  Alcotest.(check bool) "source emptied" true (Heap.Scalar2.is_empty a);
  let popped = ref [] in
  while not (Heap.Scalar2.is_empty b) do
    let aux1 = Heap.Scalar2.min_aux1_exn b and key = Heap.Scalar2.min_key_exn b in
    Alcotest.(check (float 0.)) "satellite rides along" (key *. 10.) aux1;
    popped := Heap.Scalar2.pop_exn b :: !popped
  done;
  Alcotest.(check (list int)) "merged order" [ 5; 1; 2; 25; 3 ] (List.rev !popped)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.add h) xs;
      Heap.drain h = List.sort Int.compare xs)

let prop_heap_of_array_sorts =
  QCheck2.Test.make ~name:"heapify drains sorted" ~count:200
    QCheck2.Gen.(array int)
    (fun xs ->
      let h = Heap.of_array ~cmp:Int.compare xs in
      Heap.drain h = List.sort Int.compare (Array.to_list xs))

(* ------------------------------------------------------------------ *)
(* Welford / Stats                                                     *)
(* ------------------------------------------------------------------ *)

let test_welford_moments () =
  let w = Welford.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Welford.mean w);
  check_float "variance" 4. (Welford.variance w);
  check_float "stddev" 2. (Welford.stddev w);
  check_float "min" 2. (Welford.min w);
  check_float "max" 9. (Welford.max w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let test_welford_empty () =
  let w = Welford.create () in
  check_float "mean of empty" 0. (Welford.mean w);
  check_float "variance of empty" 0. (Welford.variance w)

let prop_welford_matches_direct =
  QCheck2.Test.make ~name:"welford matches two-pass variance" ~count:200
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let w = Welford.of_array a in
      let n = Float.of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0. a /. n in
      let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a /. n in
      Float.abs (Welford.variance w -. var) <= 1e-6 *. (1. +. var))

(* The textbook P-squared update (Jain & Chlamtac), bounds-checked and
   loop-based: [P2.add] must track it bit for bit on every input, ties
   and signed zeros included. *)
let p2_reference ~p xs =
  let q = Array.make 5 0. and np = Array.make 5 0. and pos = [| 1.; 2.; 3.; 4.; 5. |] in
  let dnp = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |] in
  let count = ref 0 in
  let parabolic i d =
    q.(i)
    +. d
       /. (pos.(i + 1) -. pos.(i - 1))
       *. (((pos.(i) -. pos.(i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (pos.(i + 1) -. pos.(i)))
          +. ((pos.(i + 1) -. pos.(i) -. d) *. (q.(i) -. q.(i - 1)) /. (pos.(i) -. pos.(i - 1))))
  in
  let linear i d =
    let j = i + int_of_float d in
    q.(i) +. (d *. (q.(j) -. q.(i)) /. (pos.(j) -. pos.(i)))
  in
  List.iter
    (fun x ->
      incr count;
      if !count <= 5 then begin
        q.(!count - 1) <- x;
        if !count = 5 then begin
          Array.sort Float.compare q;
          for i = 0 to 4 do
            np.(i) <- 1. +. (4. *. dnp.(i))
          done
        end
      end
      else begin
        let k =
          if x < q.(0) then begin
            q.(0) <- x;
            0
          end
          else if x >= q.(4) then begin
            q.(4) <- Float.max q.(4) x;
            3
          end
          else begin
            let k = ref 0 in
            for i = 1 to 3 do
              if x >= q.(i) then k := i
            done;
            !k
          end
        in
        for i = k + 1 to 4 do
          pos.(i) <- pos.(i) +. 1.
        done;
        for i = 0 to 4 do
          np.(i) <- np.(i) +. dnp.(i)
        done;
        for i = 1 to 3 do
          let d = np.(i) -. pos.(i) in
          if (d >= 1. && pos.(i + 1) -. pos.(i) > 1.) || (d <= -1. && pos.(i - 1) -. pos.(i) < -1.)
          then begin
            let d = if d >= 0. then 1. else -1. in
            let candidate = parabolic i d in
            q.(i) <- (if q.(i - 1) < candidate && candidate < q.(i + 1) then candidate else linear i d);
            pos.(i) <- pos.(i) +. d
          end
        done
      end)
    xs;
  if !count > 5 then q.(2) else nan

let prop_p2_matches_reference =
  QCheck2.Test.make ~name:"p2 matches the textbook update bit for bit" ~count:300
    QCheck2.Gen.(
      pair
        (oneofl [ 0.1; 0.5; 0.9; 0.99 ])
        (list_size (int_range 6 300)
           (oneof [ float_range (-5.) 5.; oneofl [ 0.; -0.; 1.; 2.; 1e300 ] ])))
    (fun (p, xs) ->
      let sketch = P2.create ~p () in
      List.iter (P2.add sketch) xs;
      Int64.bits_of_float (P2.value sketch) = Int64.bits_of_float (p2_reference ~p xs))

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check_float "p0" 1. (Stats.percentile a ~p:0.);
  check_float "p100" 4. (Stats.percentile a ~p:100.);
  check_float "p50 interpolates" 2.5 (Stats.percentile a ~p:50.);
  check_float "median" 2.5 (Stats.median a)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] ~p:50.));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile [| 1. |] ~p:101.))

let test_jain () =
  check_float "equal is 1" 1. (Stats.jain_index [| 2.; 2.; 2. |]);
  check_float "single winner is 1/n" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |]);
  check_float "empty is 1" 1. (Stats.jain_index [||]);
  check_float "all zero is 1" 1. (Stats.jain_index [| 0.; 0. |])

let prop_jain_bounds =
  QCheck2.Test.make ~name:"jain index lies in [1/n, 1]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 30) (float_range 0.0001 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Stats.jain_index a in
      let n = Float.of_int (Array.length a) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

let test_cv () =
  check_float "constant data" 0. (Stats.coefficient_of_variation [| 3.; 3.; 3. |])

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 3 = "== ");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "x  y "))

let test_table_arity_check () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only one" ])

let test_fcell () =
  Alcotest.(check string) "integer" "3" (Table.fcell 3.);
  Alcotest.(check string) "fractional" "3.1400" (Table.fcell 3.14);
  Alcotest.(check string) "tiny" "1.000e-09" (Table.fcell 1e-9)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [
    prop_heap_sorts;
    prop_heap_of_array_sorts;
    prop_welford_matches_direct;
    prop_p2_matches_reference;
    prop_jain_bounds;
  ]

let () =
  Alcotest.run "rr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "int buckets" `Quick test_prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "bounded pareto support" `Quick test_prng_bounded_pareto_support;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_is_permutation;
        ] );
      ( "kahan",
        [
          Alcotest.test_case "pathological" `Quick test_kahan_pathological;
          Alcotest.test_case "small exact" `Quick test_kahan_matches_naive_on_small;
          Alcotest.test_case "sum_by" `Quick test_kahan_sum_by;
          Alcotest.test_case "sum_list" `Quick test_kahan_list;
        ] );
      ( "floatx",
        [
          Alcotest.test_case "powi" `Quick test_powi_matches_pow;
          Alcotest.test_case "powi bit-exact" `Quick test_powi_bit_exact;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "approx_equal" `Quick test_approx_equal;
          Alcotest.test_case "min/max" `Quick test_min_max_arr;
          Alcotest.test_case "fmin/fmax match stdlib" `Quick test_fmin_fmax_match_stdlib;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "of_array" `Quick test_heap_of_array;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "scalar2 transfer" `Quick test_scalar2_transfer;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford moments" `Quick test_welford_moments;
          Alcotest.test_case "welford empty" `Quick test_welford_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "jain" `Quick test_jain;
          Alcotest.test_case "cv" `Quick test_cv;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
          Alcotest.test_case "fcell" `Quick test_fcell;
        ] );
      ("properties", qsuite);
    ]
