(** The strict total order on regions of §3.1.

    [R ≻ S] iff (i) [R] contains more nodes than [S], or (ii) equal sizes
    but [R]'s border contains more nodes, or (iii) equal on both counts
    but [R] is greater according to a fixed strict total order on node
    sets (we use the lexicographic order provided by {!Node_set.compare},
    one of the instantiations the paper suggests).  The relation subsumes
    strict set inclusion, which the progress proof (Theorem 4) relies
    on. *)

val compare : Graph.t -> Node_set.t -> Node_set.t -> int
(** [compare g r s] is negative when [r ≺ s], zero when equal, positive
    when [r ≻ s]. *)

val compare_with :
  tiebreak:(Node_set.t -> Node_set.t -> int) ->
  Graph.t ->
  Node_set.t ->
  Node_set.t ->
  int
(** Like {!compare} but with a caller-chosen final tiebreak — the paper
    notes "the actual ordering relation on node sets does not matter",
    and experiment-level property tests exercise that claim.  [tiebreak]
    must be a strict total order on node sets (antisymmetric, zero only
    on equal sets); size and border-size remain the primary keys, which
    is what makes the ranking subsume strict inclusion. *)

val lower : Graph.t -> Node_set.t -> Node_set.t -> bool
(** [lower g r s] is the paper's [r ≺ s]. *)

val max_ranked_region : Graph.t -> Node_set.t list -> Node_set.t
(** The paper's [maxRankedRegion]: highest-ranked region of a non-empty
    collection.
    @raise Invalid_argument on the empty list. *)

val pp_rank : Graph.t -> Format.formatter -> Node_set.t -> unit
(** Prints the ranking key [(size, border size, members)] of a region. *)
