(** Raw step accounting and the model-comparison record.

    Alur and Taubenfeld proved that counting {e every} memory access makes
    any nontrivial mutex algorithm unbounded (§2); this module exposes that
    raw count next to the discounted models so experiment E8 can exhibit
    the contrast on one execution. *)

type breakdown = {
  steps : int;  (** length of the execution *)
  shared_accesses : int;  (** reads + writes + rmws *)
  reads : int;
  writes : int;
  rmws : int;
  crits : int;
  sc : int;  (** state-change cost *)
  cc : int;  (** cache-coherent cost *)
  dsm : int;  (** distributed-shared-memory cost *)
}

val breakdown : Lb_shmem.Algorithm.t -> n:int -> Lb_shmem.Execution.t -> breakdown

val pp_breakdown : Format.formatter -> breakdown -> unit

type model = Sc | Cc | Dsm_model | Raw

val model_name : model -> string

val measure :
  model -> Lb_shmem.Algorithm.t -> n:int -> Lb_shmem.Execution.t -> int
(** Cost of the execution under the chosen model ([Raw] counts shared
    accesses). *)
