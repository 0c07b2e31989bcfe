(** UNIX-style line-based deltas between text documents.

    A delta records, for an ordered pair of documents [(a, b)], a
    minimal line-level edit script (via {!Myers}) together with the
    inserted line payloads, so it is self-contained: applying it needs
    only [a]. This is the paper's "UNIX-style diff" delta variant —
    inherently {e directed} (the reverse direction needs the deleted
    payloads instead); {!invert} builds the reverse delta, and
    {!symmetric_size} gives the storage cost of keeping both
    directions, the construction used for the undirected experiments
    (§5.3, "undirected deltas were obtained by concatenating the two
    directional deltas"). *)

type t

type op =
  | Keep of int  (** copy [k] source lines *)
  | Delete of int  (** drop [k] source lines *)
  | Insert of string array  (** add these lines *)

val diff : string -> string -> t
(** [diff a b] is the delta from document [a] to document [b]. Lines
    are separated by ['\n']; a trailing newline and its absence are
    distinguished. *)

val apply : string -> t -> string
(** [apply a d] reconstructs [b]; it is [join (apply_lines (split a) d)].
    @raise Invalid_argument when [a] is not the document the delta was
    built against (detected by script overrun; content drift on equal
    shape is not detectable). *)

val split : string -> string array
(** [split a] is [a]'s lines: its ['\n']-separated pieces, so [n]
    newlines give [n + 1] pieces and a trailing newline gives a final
    [""]. The empty document is [[|""|]]. *)

val join : string array -> string
(** [join lines] concatenates [lines] with ['\n'] between them, the
    exact inverse of {!split}: [join (split a) = a]. *)

val apply_lines : string array -> t -> string array
(** [apply_lines (split a) d] is [split (apply a d)], computed array to
    array: kept and inserted lines are shared, not copied. Replaying a
    chain of deltas this way costs one {!split} and one {!join} in
    total rather than one of each per delta.
    @raise Invalid_argument exactly when {!apply} does, with the same
    message. *)

val ops : t -> op list
(** The script, for inspection. *)

val invert : string -> t -> t
(** [invert a d] is the delta from [b = apply a d] back to [a]. *)

val size : t -> int
(** Storage cost in bytes of the encoded delta ({!encode}). *)

val symmetric_size : t -> string -> int
(** [symmetric_size d a] is [size d + size (invert a d)]: the cost of
    an undirected (two-way) delta. *)

val n_changed_lines : t -> int
(** Inserted + deleted line count — the "edit distance" in lines. *)

val encode : t -> string
(** Compact, line-oriented wire format (headers [K n]/[D n]/[I n]
    followed by payload lines). *)

val decode : string -> t
(** Inverse of {!encode}. @raise Invalid_argument on malformed
    input. *)

val equal : t -> t -> bool
