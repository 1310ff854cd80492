(** Per-sweep checkpoint manifests.

    A manifest records, for one sweep (one algorithm, size, cost model
    and ordered permutation family), the outcome of every work unit:
    [done], [failed] (with the quarantined error message) or [pending].
    The sweep engine rewrites it atomically at every checkpoint and once
    more after the last unit, so

    {ul
    {- a crashed sweep leaves a manifest telling exactly what remains
       (observability — the entries themselves, not the manifest, are
       what resume trusts);}
    {- the {e final} manifest is a pure function of the sweep inputs and
       per-unit outcomes in family order: an interrupted-then-resumed
       sweep and an uninterrupted one write byte-identical manifests, at
       any job count.}} *)

type outcome =
  | Done of string  (** store key *)
  | Failed of string * string  (** store key, quarantined error *)
  | Pending of string  (** store key *)

type t = {
  m_algo : string;
  m_fp : string;
  m_n : int;
  m_model : string;
  m_total : int;
  m_outcomes : (Lb_core.Permutation.t * outcome) list;
      (** one per permutation, in family order *)
}

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse a manifest; the diagnostic names the offending line. The
    header fields are read by {!Lb_util.Record.field} and permutations
    by {!Lb_core.Permutation.of_csv}. Manifests carry no [sum] line:
    resume trusts the store entries, not the manifest. *)

val save : path:string -> t -> unit
(** Atomic write ({!Lb_util.Fsio.write_atomic}). *)

val load : path:string -> (t, string) result
(** Read (at most {!Lb_util.Fsio.text_max_bytes}) and parse; an
    unreadable or oversized file is an [Error]. *)

val counts : t -> int * int * int
(** [(done, failed, pending)]. *)
