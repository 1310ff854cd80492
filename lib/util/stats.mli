(** Summary statistics for experiment tables. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
}

val summarize : float list -> summary
(** [summarize xs] computes the summary of a non-empty list. Raises
    [Invalid_argument] on the empty list. *)

val summarize_ints : int list -> summary

val mean : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] is the [p]-th percentile ([0 <= p <= 100]) using
    nearest-rank on the sorted data. Raises on empty input. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or [nan] when [b = 0.]. *)

