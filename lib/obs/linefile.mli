(** The trailer-checked, space-delimited line format shared by every
    durable text file of the store: [.dsvc/meta], the optimize
    journal, [.dsvc/telemetry] and [.dsvc/timeseries].

    A file is a header line ([<magic> <version>]), body lines of
    space-separated fields, then [end]. The trailer is what tells a
    torn (truncated) write from a complete one. Each format supplies
    only its per-line cases; the codec owns the framing and the error
    text. Like the rest of lib/obs, this module never touches disk. *)

val render : string -> ((string -> unit) -> unit) -> string
(** [render header body] — [header], every line [body] emits through
    the callback it is given, then [end]; each line newline-terminated. *)

val parse :
  what:string ->
  magic:string ->
  (string list -> (unit, string) result) ->
  string ->
  (unit, string) result
(** [parse ~what ~magic line content] requires the [end] trailer,
    rejects non-blank content after it, skips blank lines and header
    lines (first field [magic]), and feeds every other line, split on
    single spaces, to [line] in file order, stopping at the first
    [Error]. Every error reads [corrupt <what>: <reason>]; a missing
    trailer's reason contains [missing end marker]. *)

val unknown : string list -> (unit, string) result
(** The error for a line no case matched: [unknown line: <line>]. *)

val hex : float -> string
(** A float as [%h] hex, so parsing it back is exact. *)

val int : string -> (int, unit) result
val float : string -> (float, unit) result
(** Field readers, as results so several fields match in one tuple. *)
