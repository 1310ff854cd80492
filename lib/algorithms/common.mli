(** Conventions shared by the algorithm implementations.

    Registers hold integers; [nil] is [0] and process [me] (a 0-based
    index) is stored as the positive value [pid me = me + 1]. Every
    algorithm is a {!Lb_shmem.Proc.STATE} whose local state is an explicit
    program-counter record; busy-waiting is expressed by an [advance] that
    returns the {e same} state when the observed value keeps the process
    blocked (the step reports no change, and the repr is the same) —
    exactly the situation the SC cost model discounts. *)

val nil : Lb_shmem.Step.value
(** The "no process" register value, [0]. *)

val pid : int -> Lb_shmem.Step.value
(** [pid me] is the register encoding of process [me]: [me + 1]. *)

val unpid : Lb_shmem.Step.value -> int
(** Inverse of {!pid}; raises [Invalid_argument] on [nil] or negatives. *)

val got : Lb_shmem.Step.response -> Lb_shmem.Step.value
(** Extract the value of a [Got] response; raises [Invalid_argument] on
    [Ack]. An algorithm applies this when its pending action was a read, so
    a failure means the engine fed it a mismatched response. *)

val acked : Lb_shmem.Step.response -> unit
(** Assert the response is [Ack]. *)

val make :
  name:string ->
  description:string ->
  ?kind:Lb_shmem.Algorithm.kind ->
  ?max_n:int ->
  registers:(n:int -> Lb_shmem.Register.spec array) ->
  spawn:(n:int -> me:int -> Lb_shmem.Proc.t) ->
  unit ->
  Lb_shmem.Algorithm.t
(** Package an algorithm ([kind] defaults to [Registers_only]). *)
