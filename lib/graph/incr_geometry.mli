(** Incremental fault geometry under single-crash deltas.

    Maintains the same ground truth as {!Fault_geometry.compute} —
    faulty domains and their clusters (§2.2 of the paper) — but updated
    one crash at a time instead of recomputed from scratch: each
    {!crash} touches only the crashed node's neighbourhood (a sparse
    union-find merge plus a border patch), so a cascade of [f] crashes
    costs [O(f · Δ · α)] total on a degree-[Δ] topology, independent of
    the node count [N].

    Live state is proportional to [|faulty ∪ border(faulty)|] — the
    same footprint CD3 confines the protocol's communication to — which
    is what makes the tracker usable on implicit million-node graphs
    where even one [O(N)] scan per crash would dominate the run. *)

type t

val create : Graph.t -> t
(** A tracker with no crashed nodes.  The graph is queried only through
    {!Graph.iter_neighbour_ids}, so implicit topologies stay implicit. *)

val graph : t -> Graph.t

val crash : t -> Node_id.t -> unit
(** Marks a node faulty and repairs the geometry: its singleton domain
    is unioned with each already-faulty neighbour, the merged border
    drops the node and gains its correct neighbours, and the cluster
    relation absorbs the node's incident edges.  Idempotent. *)

val domains : t -> Node_set.t list
(** Current faulty domains, in increasing order of minimum element —
    element-for-element what [Fault_geometry.domains (compute …)] would
    return on the same faulty set. *)

val domain_of : t -> Node_id.t -> Node_set.t option
(** The domain containing a faulty node, [None] for correct nodes. *)

val border_of : t -> Node_id.t -> Node_set.t option
(** The border of the domain containing a faulty node — read straight
    from the maintained border table, without re-deriving it from the
    graph. *)

val clusters : t -> Node_set.t list list
(** Current clusters in {!Fault_geometry.clusters}' order: inner lists
    sorted by {!Node_set.compare}, outer list likewise. *)

val snapshot : t -> Fault_geometry.t
(** Freezes the current geometry as a {!Fault_geometry.t} (via
    {!Fault_geometry.of_parts}), for checker code that consumes the
    batch interface. *)

val resident_words : t -> int
(** Order-of-magnitude resident footprint of the tracker's tables in
    words — scales with [|faulty ∪ border|], asserted against a ceiling
    by the large-N bench smoke. *)

val pp : Format.formatter -> t -> unit
