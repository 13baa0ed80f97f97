let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

(* Square-and-multiply tail for [powi].  The recursion is what keeps the
   general case out of inlining range, so the exported [powi] handles the
   ubiquitous small exponents (the lk-norm folds call it once per job)
   with straight-line unboxed arithmetic and only falls back here for
   k >= 4.  The small cases multiply in the same association the
   recursion would ([powi x 3 = x *. (x *. x)]), so results stay
   bit-identical.

   The tail's result is multiplied by [1.] — the identity on every float
   [powi_big] can return — so every branch is an unboxed float operation
   and an inlined [powi] feeding an unboxed consumer (a Kahan fold)
   boxes nothing; a bare call in one branch would box the result of all
   of them. *)
let rec powi_big x k =
  if k = 0 then 1.
  else if k land 1 = 1 then x *. powi_big x (k - 1)
  else
    let h = powi_big x (k / 2) in
    h *. h

let[@inline] powi x k =
  assert (k >= 0);
  if k = 1 then x
  else if k = 2 then x *. x
  else if k = 3 then x *. (x *. x)
  else powi_big x k *. 1.

(* [Float.min]/[Float.max] decide a strict inequality with one
   comparison but go through a C call ([sign_bit]) whenever the answer is
   the second operand.  These return the same float for every input:
   strict inequalities short-circuit, and ties and NaNs fall through to
   the stdlib for its signed-zero and NaN rules. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

let is_finite_nonneg x = Float.is_finite x && x >= 0.

let min_arr a =
  if Array.length a = 0 then invalid_arg "Floatx.min_arr: empty array";
  Array.fold_left Float.min a.(0) a

let max_arr a =
  if Array.length a = 0 then invalid_arg "Floatx.max_arr: empty array";
  Array.fold_left Float.max a.(0) a
