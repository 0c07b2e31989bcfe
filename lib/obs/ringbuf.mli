(** Bounded FIFO: the one ring behind the span ring ({!Trace}), the
    flight recorder ({!Flight}), the server's recent-request table,
    the telemetry sample ring ({!Telemetry}) and the time-series
    tiers ({!Timeseries}).

    A ring of capacity [cap] retains the last [cap] pushed elements;
    a push into a full ring overwrites the oldest. Capacity 0 drops
    every push. The ring takes no lock of its own: each owner already
    serializes access to its state and keeps doing so. *)

type 'a t

val create : int -> 'a t
(** [create cap] — an empty ring. Raises [Invalid_argument] when
    [cap < 0]. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** O(1); allocates nothing beyond the slot. *)

val pushed : 'a t -> int
(** Total elements ever pushed (since create/{!clear}); may exceed
    the capacity. *)

val to_list : 'a t -> 'a list
(** Retained elements, oldest first. *)

val since : 'a t -> int -> 'a list
(** [since r n] — retained elements whose push index (0-based, as
    counted by {!pushed}) is at least [n], oldest first. Pass a
    {!pushed} value read earlier to get what was pushed after it;
    costs O(returned), not O(capacity). *)

val newest : 'a t -> 'a option

val find_newest : ('a -> bool) -> 'a t -> 'a option
(** The most recently pushed retained element satisfying the
    predicate. *)

val clear : 'a t -> unit
(** Drop every element and reset {!pushed} to 0. *)
