(** GitH — the Git repack heuristic (§4.4, Appendix A).

    Versions are considered in non-increasing order of their full
    (materialized) size. The first becomes the materialized root. A
    sliding window of at most [window] recently seen versions is
    maintained; each new version [Vi] is stored as a delta from the
    window member [Vl] minimizing the depth-biased size

    {v Δ(l,i) / (max_depth − depth(l)) v}

    among members with [depth < max_depth] and a revealed delta
    — shallow bases are preferred over slightly smaller, deeper
    deltas. The chosen base is moved to the window's end (it stays
    longer), the new version is appended, and the oldest member is
    dropped (Appendix A, Step 3). A version with no candidate is
    materialized.

    GitH optimizes neither bound explicitly; the paper uses it as the
    practically-minded baseline (it achieves good total recreation
    cost at materially higher storage, Figure 13). *)

val solve :
  ?depth_bias:bool ->
  ?jobs:int ->
  Aux_graph.t ->
  window:int ->
  max_depth:int ->
  (Storage_graph.t, string) result
(** [window <= 0] or [window = max_int] means an unbounded window
    (the paper's "infinite window" runs). [depth_bias] (default true)
    applies the [Δ/(max_depth − depth)] scoring; [false] reverts to
    git's original raw-Δ rule (Appendix A notes the bias "was added at
    a later point"), exposed for the ablation bench. [jobs] is ignored:
    the solve is sequential (each choice updates the window and depths
    the next depends on) and takes O(n log n + E); the argument remains
    only so that existing callers compile. [Error] if some version has
    neither a candidate delta nor a revealed materialization. *)
