(* Deterministic fork-join over OCaml 5 domains.

   The one combinator the parallel drivers need: [map ~domains f xs]
   with the exact semantics of [List.map f xs] — same results, same
   order — executed on [domains] domains.  Items are striped by index
   (domain [k] takes items [k], [k + domains], ...), every result lands
   in its own slot of a pre-sized array, and the caller's domain works
   stripe 0 itself, so [domains = 1] degenerates to a plain loop with
   no spawn at all.

   Writing disjoint slots of one array from several domains is
   race-free under the OCaml 5 memory model (no two domains touch the
   same element), and the join happens before any slot is read.

   Safety of [f] itself is NOT this module's business — it is the
   domain-safety lint rule's: every function dispatched through [Par]
   must be a top-level binding annotated [@lint.parallel_entry], which
   opts its whole call-graph closure into the shared-mutable-root
   analysis (see tools/lint/rules_domain_safety.ml and DESIGN.md §12).
   Implemented on the stdlib [Domain] module only, so the simulator
   carries no scheduler dependency; a domainslib work-stealing pool can
   replace the striping without changing this interface. *)

exception Bad_domain_count of int

let check_domains domains =
  if domains < 1 then raise (Bad_domain_count domains)

let default_domains () = Int.max 1 (Domain.recommended_domain_count ())

let effective_domains ?(recommended = default_domains ()) requested =
  Int.min requested recommended

(* A worker exception must not leave sibling domains unjoined: every
   spawn is joined exactly once, and the first failure (lowest stripe,
   matching the deterministic contract) is re-raised after the join
   barrier. *)
let map ~domains f xs =
  check_domains domains;
  match xs with
  | [] -> []
  | xs when domains = 1 || List.compare_length_with xs 1 <= 0 -> List.map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let domains = Int.min domains n in
      let results = Array.make n None in
      let stripe k () =
        let i = ref k in
        while !i < n do
          results.(!i) <- Some (f items.(!i));
          i := !i + domains
        done
      in
      let workers = List.init (domains - 1) (fun k -> Domain.spawn (stripe (k + 1))) in
      let own = try Ok (stripe 0 ()) with exn -> Error exn in
      let joined =
        List.map (fun d -> try Ok (Domain.join d) with exn -> Error exn) workers
      in
      List.iter
        (function Error exn -> raise exn | Ok () -> ())
        (own :: joined);
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false (* all stripes ran *))
           results)
