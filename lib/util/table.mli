(** Plain-text table rendering for experiment output.

    Every experiment run by [mutexlb experiments] prints its results
    through this module so that the "tables" of EXPERIMENTS.md are
    regenerated in a uniform format. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title columns] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row. The number of cells must equal the
    number of columns. *)

val add_int_row : t -> int list -> unit
(** Convenience: every cell rendered with [string_of_int]. *)

val add_sep : t -> unit
(** Insert a horizontal separator before the next row. *)

val render : t -> string
(** Render the table (including title and rules) as a string. *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a blank line. *)

val cell_f : float -> string
(** Format a float for a table cell ([%.2f], with [nan] as ["-"]). *)

val cell_f4 : float -> string
(** Like {!cell_f} but with four decimals. *)
