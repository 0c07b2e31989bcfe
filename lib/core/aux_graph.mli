(** The auxiliary graph [G] of §2.2.

    Versions are numbered [1..n]; vertex [0] is the dummy root [V0].
    An edge [0 → i] with weight [⟨Δi,i, Φi,i⟩] represents materializing
    version [i]; an edge [i → j] with weight [⟨Δi,j, Φi,j⟩] represents
    storing [j] as a delta from [i]. Only {e revealed} matrix entries
    become edges — the structure is inherently sparse (computing all
    pairwise deltas is infeasible, §2.1).

    Every storage solution is a spanning arborescence of this graph
    rooted at [0] (Lemma 1); all algorithms in this library consume
    and produce exactly that. *)

type weight = { delta : float; phi : float }

type t

val create : n_versions:int -> t
(** A graph over versions [1..n_versions] with no revealed entries. *)

val n_versions : t -> int

val graph : t -> weight Versioning_graph.Digraph.t
(** The underlying digraph on [n_versions + 1] vertices (vertex 0 is
    the root). Treat as read-only. *)

val add_materialization : t -> version:int -> delta:float -> phi:float -> unit
(** Reveal the diagonal entry for [version].
    @raise Invalid_argument on a version outside [1..n], a repeated
    reveal, or a negative cost. *)

val add_delta : t -> src:int -> dst:int -> delta:float -> phi:float -> unit
(** Reveal the off-diagonal entry [⟨Δsrc,dst, Φsrc,dst⟩].
    @raise Invalid_argument on out-of-range versions, [src = dst], or
    a negative cost. Parallel reveals are permitted (several delta
    mechanisms may exist); algorithms consider all of them. *)

val materialization : t -> int -> weight option
(** The [0 → i] weight, if revealed. O(1): the graph keeps an index of
    its materializations. *)

val delta : t -> src:int -> dst:int -> weight option
(** The first-revealed [src → dst] weight, if any. *)

val has_all_materializations : t -> bool
(** True when every version has a revealed diagonal entry — required
    for feasibility of every problem (some version must be stored in
    its entirety). *)

val is_symmetric : t -> bool
(** True iff for every edge [i → j] ([i, j ≥ 1]) there is a reverse
    edge [j → i] with equal weight — the undirected case. *)

val is_proportional : t -> bool
(** True iff [phi = delta] on every edge — the Φ = Δ scenarios. *)

val symmetrize : t -> t
(** Undirected closure: for each delta edge [i → j] without an equal
    reverse, add [j → i] with the same weight. Materialization edges
    are untouched. The input is not modified. *)

val scenario : t -> [ `Undirected_prop | `Directed_prop | `Directed_indep ]
(** Classify per the paper's three scenarios. *)

val triangle_violation : t -> (int * int * int) option
(** §3's realism constraint: deltas represent actual modifications, so
    over revealed entries [Δp,w ≤ Δp,q + Δq,w] (two-hop paths never
    beat the direct delta) and [Δq,q ≤ Δp,p + Δp,q] (materializing via
    a neighbour bounds the diagonal). Returns the first violating
    triple [(p, q, w)] ([p = 0] encodes a diagonal-rule violation), or
    [None]. Only triples whose legs are all revealed are checked;
    first-revealed weights are used. O(E·V). *)
