(** Whole-file I/O for every subsystem that persists state: the result
    store ({!Lb_store.Store}, {!Lb_store.Manifest}), bits, trace and DOT
    files (the CLI, {!Lb_core.Dot}) and the model checker's out-of-core
    spill files ({!Lb_mutex.Check_spill}).

    The one invariant they all rely on is the temp-file-then-rename
    write: a reader — including a concurrent resumed sweep or a resumed
    check — only ever observes a whole old file or a whole new file,
    never a torn write; a crash mid-write leaves at most an ignorable
    [.tmp] file in the target directory. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([0o755]). Raises
    [Sys_error] if a path component exists and is not a directory. *)

val write_atomic : path:string -> string -> unit
(** Write [content] (binary-safe) to a temp file in [path]'s directory
    and rename it into place. Rename within one directory is atomic on
    POSIX, so readers see the old or the new content, never a prefix.
    On failure the temp file is removed and the exception re-raised; a
    temp file that cannot be created is a [Sys_error] naming [path]. *)

val read : ?max_bytes:int -> path:string -> unit -> string
(** Read a whole file (binary-safe). [max_bytes] (default 256 MiB)
    bounds the allocation so a corrupt or hostile length can't take the
    process down; an oversized file raises [Sys_error]. *)

val read_into :
  ?max_bytes:int -> path:string -> Bytes.t -> Bytes.t * int
(** [read_into ~path buf] is {!read} into a caller's buffer: the file's
    bytes land at the start of [buf] if they fit, else in a fresh
    buffer of exactly their length. Returns the buffer holding them and
    their count; pass that buffer to the next call, so a scan that
    reads its largest file first allocates once. Bytes past the count
    are left over from earlier reads. *)

val text_max_bytes : int
(** 64 MiB: the [max_bytes] for line-oriented text files (store
    entries, sweep manifests, bits and trace files), each far smaller
    when intact. *)
