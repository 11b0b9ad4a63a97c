(** Deterministic fork-join parallelism over OCaml 5 domains.

    [map ~domains f xs] has the exact semantics of [List.map f xs] —
    same results in the same order — executed on [domains] domains with
    index-striped scheduling.  Determinism therefore rests entirely on
    [f] being domain-safe: it must not touch shared mutable state.
    That obligation is statically checked, not trusted: the
    domain-safety lint rule requires every function dispatched through
    this module to be a top-level binding annotated
    [[@lint.parallel_entry]], and verifies that no function reachable
    from such a binding touches a shared-mutable root (DESIGN.md §12).

    Values captured by or passed to [f] are owned by the caller: the
    analysis assumes arguments are domain-private, so callers must hand
    each invocation its own mutable state (e.g. build a fresh
    {!Cliffedge_graph.Graph.t} per item — its memoized border and
    component caches are not safe to share across domains). *)

exception Bad_domain_count of int
(** Raised by {!map} when [domains < 1]. *)

val default_domains : unit -> int
(** The runtime's recommended domain count for this machine, at least
    1.  A sensible default for [~domains]. *)

val effective_domains : ?recommended:int -> int -> int
(** [effective_domains requested] is [min requested recommended]: a
    request above the machine's [recommended] count (default
    {!default_domains}) is clamped to it, since oversubscribed domains
    only add scheduler thrash; a request at or below it is kept, so
    [1] is never clamped. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs] computed on [domains]
    domains ([domains - 1] spawned plus the calling one).  Results are
    returned in input order.  If any application of [f] raises, all
    domains are still joined and the exception of the lowest-striped
    failure is re-raised.
    @raise Bad_domain_count if [domains < 1]. *)
