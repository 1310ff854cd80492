(** The decoding step (paper §7, Figure 3).

    [run algo ~n cells] rebuilds a linearization of [(M, ⪯)] from the
    encoding alone. The decoder maintains the execution [alpha] built so
    far (replayed on a live {!Lb_shmem.System.t}, which yields every
    process's pending step — the paper's [e_i = delta(alpha, i)]); it
    repeatedly consumes the next cell of every process that is not
    waiting, executes [C]/[SR]/[PR] cells immediately, collects [W]/[R]
    cells into per-register candidate sets, and fires a write metastep
    when its signature's preread/read/write counts are all matched —
    appending the non-winning writes, then the winner's write, then the
    reads, exactly one [Seq] expansion of a minimal unexecuted metastep.

    Documented deviations from the paper's pseudocode (see DESIGN.md):
    {ul
    {- Fig. 3 line 4 pre-appends try_1 ... try_n even though every try
       step also has a [C] cell; we start from the empty execution and let
       the [C] cells introduce them.}
    {- A reader whose register has no installed signature yet (its
       metastep's winner cell has not been consumed — Fig. 3 line 19 just
       skips it, leaving it waiting forever) is {e parked} and re-examined
       every time a signature is installed on that register.}
    {- The paper's defensive while-loops (lines 11-12 etc.) are replaced
       by strict assertions: every critical step has its own [C] cell, so
       a process's pending step always matches its next cell's type.}
    {- Fig. 3 leaves open the order in which one round fires several
       complete write metasteps. That order fixes the decoded execution,
       and with it the fingerprint certificates and store entries
       record, so it is pinned (see {!visit_order}).}}

    {b Firing order.} A register is {e registered} by the first [PR],
    [W], [W]-signature or [R] cell that names it. Within a round,
    complete registers fire in ascending [Hashtbl.hash r land (B - 1)],
    ties broken newest-registered first, where [B] is the smallest power
    of two [>= 64] with [registered <= 2B]. This is the order
    [Hashtbl.iter] takes over an unseeded [Hashtbl.create 64] filled
    with [Hashtbl.replace] in registration order under OCaml 5.1's
    stdlib, which is what the decoder iterated before it kept its
    registers in an array; the test suite checks the two agree. The key
    uses the unseeded [Hashtbl.hash], so the output does not depend on
    [OCAMLRUNPARAM=R]. The end-of-run leftover check reports the first
    offending register in the same order.

    {b Cost.} O(cells + rounds·n + fires·log fires) set and system
    operations: register state is an array indexed by register id, a
    cell that changes a register's counts or signature lists it as one
    of the round's candidates, and only candidates can fire — every
    complete register fires in its own round, and firing changes no
    register's counts. Trace events are built only when [trace] is
    passed. *)

exception
  Decode_error of {
    detail : string;
    consumed : int;  (** total cells consumed before the failure *)
  }
(** Raised on malformed input or when no progress is possible — neither
    happens for the output of {!Encode.encode} on a {!Construct.run}
    result. It is the only exception {!run_bits} raises on bits that do
    not decode: a parse failure (a bad tag, trailing bits, bits that end
    inside a cell) is reported with [consumed = 0]. The decoder executes
    each process's own pending action, so no replayed step can be
    refused with {!Lb_shmem.System.Step_mismatch}. *)

type event =
  | Cell_consumed of { who : int; pc : int; cell : Encode.cell }
      (** the decoder read process [who]'s [pc]-th cell (1-based) *)
  | Executed_immediately of { who : int; step : Lb_shmem.Step.t }
      (** a C/SR/PR cell's step was appended straight away *)
  | Waiting of { who : int; reg : Lb_shmem.Step.reg }
      (** a W/R cell put [who] into the wait set for [reg] *)
  | Parked of { who : int; reg : Lb_shmem.Step.reg }
      (** a reader could not be admitted yet (no signature, or the
          signature's value would not change its state) *)
  | Admitted of { who : int; reg : Lb_shmem.Step.reg }
      (** a parked or fresh reader joined the register's read set *)
  | Signature_installed of { reg : Lb_shmem.Step.reg; winner : int; s : Signature.t }
  | Fired of { reg : Lb_shmem.Step.reg; winner : int; steps : int }
      (** a complete write metastep was appended ([steps] steps) *)

val pp_event : Format.formatter -> event -> unit

val run :
  ?trace:(event -> unit) ->
  ?scan_order:int array ->
  Lb_shmem.Algorithm.t -> n:int -> Encode.cell array array ->
  Lb_shmem.Execution.t
(** Decode from a parsed cell table. [trace] observes every decoder
    action (used by the CLI's [--explain]). [scan_order] permutes the
    order in which the main loop polls processes; the decoded execution's
    per-process projections are invariant under it (the nondeterminism
    tolerated by Lemma 7.2) — the test suite checks this. *)

val visit_order : Lb_shmem.Step.reg list -> Lb_shmem.Step.reg list
(** [visit_order regs] lists the distinct registers [regs], given in
    registration order, in the order {!run} fires them when all are
    complete in one round. *)

val run_bits :
  Lb_shmem.Algorithm.t -> n:int -> bool array -> Lb_shmem.Execution.t
(** Decode from the binary string [E_pi] (parses, then {!run}). This plus
    the algorithm's transition function is the {e only} input — the
    decoder never sees [pi], which is what makes the counting argument of
    Theorem 7.5 work. Raises {!Decode_error}, and nothing else, on bits
    that do not decode; [algo] must support [n]
    ([Invalid_argument] otherwise). *)
