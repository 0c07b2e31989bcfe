(** Storage solutions: spanning arborescences of the auxiliary graph.

    A solution assigns every version [v ∈ 1..n] a parent — either [0]
    (the version is {e materialized}) or another version [u] ([v] is
    stored as the delta from [u]) — together with the ⟨Δ, Φ⟩ weight of
    the chosen edge. By Lemma 1 this captures every optimal solution
    of Problems 1–6.

    All cost queries are computed from the tree:
    - total storage [C = Σ Δ over chosen edges];
    - recreation cost [Ri = Σ Φ] along the root path of [i];
    - aggregates [Σ Ri], [max Ri], and the workload-weighted
      [Σ freq(i)·Ri] used by the Figure 16 experiment. *)

type t

val of_parents :
  Aux_graph.t -> parents:(int * int) list -> (t, string) result
(** [of_parents g ~parents] builds a solution from [(parent, child)]
    choices, one per version, looking up each edge's weight in [g]
    (first-revealed weight wins). Returns [Error] describing the first
    violation if the choices are not a spanning arborescence rooted at
    0 or use unrevealed edges. *)

val of_parent_edges :
  n:int ->
  (int * int * Aux_graph.weight) list ->
  (t, string) result
(** Like {!of_parents} but with explicit weights
    [(parent, child, weight)] — used by algorithms that already hold
    the chosen edges. *)

val n_versions : t -> int

val parent : t -> int -> int
(** [parent t v] for [v ∈ 1..n]; [0] means materialized. *)

val edge_weight : t -> int -> Aux_graph.weight
(** Weight of the edge into [v]. *)

val is_materialized : t -> int -> bool

val materialized_versions : t -> int list

val children : t -> int -> int list
(** Children of a vertex ([0..n]); ascending. *)

val depth : t -> int -> int
(** Number of deltas applied to recreate [v]: 0 when materialized. *)

val storage_cost : t -> float
(** [C]. *)

val recreation_costs : t -> float array
(** Array of length [n+1]; index [v] holds [Rv], index 0 holds 0. *)

val recreation_cost : t -> int -> float

val sum_recreation : t -> float
val max_recreation : t -> float

val weighted_recreation : t -> freqs:float array -> float
(** [Σ freqs.(v) · Rv] with [freqs] indexed [1..n] (index 0
    ignored). *)

val to_parents : t -> (int * int) list
(** [(parent, child)] pairs, child-ascending — the solution [P] in the
    paper's notation, with [(0, v)] encoding materialization. *)

val pp : Format.formatter -> t -> unit
(** Human-readable summary (materialized set, C, ΣR, maxR). *)
