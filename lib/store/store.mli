(** The on-disk, content-addressed result store.

    Layout under the store root:

    {v
    DIR/
      objects/<k0k1>/<key>    one entry file per completed work unit
      manifests/<id>.manifest per-sweep checkpoint manifests ({!Manifest})
    v}

    where [<key>] is a {!Store_key.derive} digest and [<k0k1>] its first
    two hex characters (sharding keeps directories small at millions of
    entries). Every write goes through the temp-file-then-rename pattern
    ({!Lb_util.Fsio.write_atomic}), so readers — including a concurrent
    resumed sweep — only ever observe whole entries; a crash mid-write
    leaves at most an ignorable [.tmp] file.

    An entry is a sealed {!Lb_util.Record}: the file carries its own
    key, every key ingredient, and a trailing [sum] digest of the
    payload; [pi] is spelled by {!Lb_core.Permutation.to_csv} and the
    E_pi bits by {!Lb_bitio.Hex_bits}. {!lookup} re-checks all three, so
    a truncated file, flipped bit, stale format version, renamed entry
    or a file past {!Lb_util.Fsio.text_max_bytes} is reported as
    [`Damaged] with a diagnostic — never trusted, never a crash — and
    the sweep engine transparently recomputes it. *)

type entry = {
  e_algo : string;
  e_fp : string;  (** {!Store_key.fingerprint} at write time *)
  e_n : int;
  e_pi : Lb_core.Permutation.t;
  e_model : string;  (** cost-model id, {!Store_key.sc_model} *)
  e_cost : int;  (** SC cost of the canonical linearization *)
  e_bits : int;  (** |E_pi| *)
  e_exec_fp : string;  (** {!Lb_shmem.Execution.fingerprint} of the decode *)
  e_ebits : bool array option;  (** the E_pi bit string, when saved *)
}

type t

val open_ : dir:string -> t
(** Open (creating directories as needed) the store rooted at [dir].
    Raises [Sys_error] if [dir] exists and is not a directory. *)

val dir : t -> string

val key_of_entry : entry -> string
(** The content-addressed key the entry files under. *)

val object_path : t -> key:string -> string
(** Filesystem path of the entry for [key] (whether or not it exists) —
    for diagnostics and the corruption tests. *)

type lookup = [ `Absent | `Hit of entry | `Damaged of string ]

val lookup : t -> key:string -> lookup
(** Fetch by key. [`Damaged] carries a one-line diagnostic (truncation,
    checksum mismatch, unsupported format version, bad field, key
    mismatch…); damaged entries are left in place for [store verify] to
    report and for the sweep engine to overwrite. *)

val put : t -> entry -> unit
(** Atomically write (or overwrite) the entry under {!key_of_entry}. *)

val remove : t -> key:string -> unit
(** Delete an entry if present. *)

val fold :
  t -> init:'a -> f:('a -> key:string -> (entry, string) result -> 'a) -> 'a
(** Fold over every object file in deterministic (sorted-key) order.
    [f] receives the parsed entry or the damage diagnostic. Files whose
    names are not well-formed keys are ignored (editor droppings,
    [.tmp] remnants). *)

val manifest_path : t -> id:string -> string
(** Path of the per-sweep manifest named by a {!Store_key.sweep_id}. *)

val manifest_paths : t -> string list
(** Every manifest file present, sorted. *)

type stat = {
  s_entries : int;
  s_damaged : int;
  s_with_trace : int;  (** entries carrying the E_pi bit string *)
  s_bytes : int;  (** total object-file bytes *)
  s_manifests : int;
  s_by_algo : (string * int * int) list;
      (** (algo, n, entries) in sorted order *)
}

val stat : t -> stat

(** {2 Entry serialization} (exposed for tests and [store verify]) *)

val entry_to_string : entry -> string

val entry_of_string : key:string -> string -> (entry, string) result
(** Parse and verify an entry against the key it is filed under. *)
