(** On-disk persistence for the out-of-core model checker.

    A spill directory holds everything {!Model_check.explore} needs to
    (a) evict cold visited-set shards from RAM without losing the
    ability to deduplicate against them, and (b) resume a killed check
    byte-identically, the way a store-backed sweep resumes:

    {v
    DIR/
      check.manifest        resume manifest, atomically rewritten per layer
      interner.names        repr strings in id order (escaped, one per line)
      nodes.log             fixed-width (parent, step) records, one per state
      layer_<L>.keys        keys first inserted in layer L (sorted, delta-coded)
      layer_<L>.frontier    node indices of the layer-L frontier (delta-coded)
    v}

    All whole-file writes go through {!Lb_util.Fsio.write_atomic}
    (temp-then-rename), and the two append-only files ([interner.names],
    [nodes.log]) record their valid extent in the manifest, so a crash
    at any point leaves the directory resumable from the last completed
    layer: stale tails are truncated and orphaned layer files are
    overwritten when the layer re-runs.

    Every artifact written here is a pure function of the exploration's
    deterministic merge order, so two spill directories produced at
    different job counts — or across a kill/resume boundary — are
    byte-identical.

    {2 Key runs}

    A [.keys] run is the layer's newly inserted packed keys,
    delta-encoded with {!Lb_bitio.Key_run}'s record codec: each key
    stores the length of its common prefix with its predecessor
    (Elias-gamma) followed by the remaining slots as zigzag+gamma codes.
    Keys are written in the caller's order — the model checker supplies
    them grouped by shard and sorted within each shard, its canonical
    commit order, so runs are byte-identical at any job count. Shared BFS-layer structure makes consecutive keys
    nearly equal, so runs are a fraction of their in-RAM footprint. *)

type meta = {
  c_algo : string;
  c_n : int;
  c_nregs : int;
  c_rounds : int;
  c_max_states : int;
  c_nshards : int;
  c_keylen : int;
  c_lossy : string;
      (** always ["none"] when written by {!Model_check.explore}; a
          directory left by an older lossy check carries its mode here
          and is refused on resume *)
  c_layer : int;  (** last completed layer *)
  c_states : int;
  c_transitions : int;
  c_words : int;  (** peak accounted words so far *)
  c_interned : int;  (** interner ids persisted *)
  c_interner_bytes : int;  (** valid byte extent of [interner.names] *)
  c_runs : (int * int) list;  (** (layer, key count), ascending, counts > 0 *)
  c_frontier : int;  (** entry count of the layer-[c_layer] frontier file *)
  c_status : status;
}

and status = Running | Final of final

and final = {
  f_verdict : string;
      (** {!Model_check.verdict_slug} of the verdict: [verified],
          [mutex_violation], [deadlock], [ill_formed], [bound_exceeded]
          or [mem_exceeded]. {!Model_check} alone converts between
          verdicts and these records. *)
  f_count : int;  (** bounded verdicts: the reported count *)
  f_node : int;  (** witness endpoint in [nodes.log], [-1] if none *)
  f_who : int;  (** [ill_formed] only *)
  f_detail : string;  (** [ill_formed] only *)
  f_step : int list;
      (** [ill_formed] only: the final (non-inserted) step as
          [[who; tag; reg; a; b]] per the node-log step encoding *)
}

val manifest_to_string : meta -> string
(** One [key value] line per field, in the order of {!meta}, then, for
    a final manifest, the fields of {!final}; sealed with a [sum] line
    by {!Lb_util.Record.seal}. [algo] and [detail] are
    [String.escaped]; [runs] is [-] or [layer:count,...]; [step] is [-]
    or five space-separated ints. *)

val manifest_of_string : string -> (meta, string) result
(** Verify the [sum] line ({!Lb_util.Record.unseal}) and read the
    fields in order ({!Lb_util.Record.field}). *)

val load_manifest :
  dir:string -> [ `Absent | `Manifest of meta | `Damaged of string ]

val save_manifest : dir:string -> meta -> unit
(** Atomic (temp-then-rename). *)

(** {2 Step codec} (shared by the node log and ill-formed finals) *)

val encode_step : Lb_shmem.Step.t -> int * int * int * int * int
(** [who, tag, reg, a, b]. *)

val decode_step : int -> int -> int -> int -> int -> Lb_shmem.Step.t
(** Inverse of {!encode_step}; raises [Invalid_argument] on a bad tag. *)

(** {2 Key runs and frontier files} *)

val write_run : dir:string -> layer:int -> int array list -> unit
(** Delta-encode the layer's new keys in the order given (shard-grouped,
    sorted within each shard, when called by the model checker). All
    keys must share one length. *)

type buffer
(** A read buffer for {!iter_run_keys}, reused from run to run. It is
    reallocated, at the run's exact size, only for a run larger than
    every run read through it before, so a scan that reads its largest
    run first allocates once. One per scanning domain. *)

val buffer : unit -> buffer

val iter_run_keys :
  buf:buffer ->
  dir:string -> layer:int -> keylen:int -> count:int -> (int array -> unit) -> unit
(** Stream a run's keys in their stored order, reading the file into
    [buf] through {!Lb_util.Fsio.read_into} and decoding it in place
    with {!Lb_bitio.Bit_reader.of_bytes}. [count] is the key count the
    manifest records for the layer; a run whose header disagrees is
    rejected before any key is passed on. The array passed to the
    callback is reused between calls — copy it if it must be retained.
    Raises [Sys_error] on a missing file and [Failure] on a malformed
    run. *)

val write_frontier : dir:string -> layer:int -> int list -> unit
(** Delta-encode the frontier's node indices (must be strictly
    ascending, which BFS insertion order guarantees). *)

val read_frontier : dir:string -> layer:int -> int list

(** {2 Session handle} — the two append-positioned files *)

type t

val open_ : dir:string -> names_bytes:int -> node_count:int -> t
(** Open (creating as needed) the spill directory's append files,
    truncating [interner.names] to [names_bytes] and [nodes.log] to
    [node_count] records — stale tails beyond the manifest's recorded
    extent are discarded here. *)

val close : t -> unit

val dir : t -> string

val names_bytes : t -> int

val append_names : t -> string list -> unit
(** Append escaped names at the current valid extent and advance it.
    Durable once written; the manifest commits the new extent. *)

val load_names : t -> string list
(** The names within the valid extent, in id order. *)

(** {2 Node log} *)

module Nodes : sig
  type log

  val record_bytes : int

  val of_handle : t -> log

  val length : log -> int
  (** Flushed plus buffered records. *)

  val tail_length : log -> int
  (** Buffered (RAM-resident, unflushed) records. *)

  val append : log -> parent:int -> Lb_shmem.Step.t -> unit

  val flush : log -> unit

  val get : log -> int -> int * Lb_shmem.Step.t
  (** Record [i], from the RAM tail or by a positioned read. *)
end
