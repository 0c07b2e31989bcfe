(** Minimum-cost arborescence (directed MST) rooted at [V0] — the
    optimal storage graph for Problem 1 in the {e directed} cases
    (Lemma 2 / Table 1), computed with Edmonds' algorithm
    (Chu–Liu/Edmonds with cycle contraction), O(E·R) for R ≤ V
    contraction rounds: each round is one pass over the surviving
    edges, which compacts them and selects the next in-edges. The
    parallel-edge prune's table is sized by the edges one round
    rebuilds, not by E.

    This is the minimum-storage extreme of the tradeoff: no other
    valid solution stores fewer bytes, but recreation costs are
    unbounded (§5.3 reports them orders of magnitude above the SPT
    minimum — the motivation for LMG/MP/LAST). *)

val solve : Aux_graph.t -> (Storage_graph.t, string) result
(** [Error] when some version has no revealed in-edge reachable from
    the root (no valid solution exists). Deterministic: weight ties
    are broken toward smaller source ids, and among parallel reveals
    of equal weight toward the last revealed. *)
