(** Small floating-point helpers shared across the simulator and solvers. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [approx_equal a b] holds when [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val powi : float -> int -> float
(** [powi x k] is [x] raised to the non-negative integer power [k] by
    repeated squaring; exact for [k = 0] ([= 1.]) and faster and better
    conditioned than [( ** )] for the small [k] used in lk-norms. *)

val fmin : float -> float -> float
(** [Float.min], bit for bit on every input (NaN and signed zero
    included), without the C call [Float.min] makes whenever its second
    operand is the smaller: for the hot loops of the engines. *)

val fmax : float -> float -> float
(** [Float.max], likewise. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp a value into [\[lo, hi\]]. *)

val is_finite_nonneg : float -> bool
(** True for finite values [>= 0.]; used for instance validation. *)

val min_arr : float array -> float
(** Minimum of a non-empty array. @raise Invalid_argument on empty input. *)

val max_arr : float array -> float
(** Maximum of a non-empty array. @raise Invalid_argument on empty input. *)
