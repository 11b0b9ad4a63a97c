(* The parallel sweep's domain clamp: a request above the machine's
   recommended count runs on the recommended count, any other request
   runs as asked.  The cram transcript pins the warning; this pins the
   rule itself, independent of the host's core count. *)

module Par = Cliffedge_par.Par

let prop_clamp_is_min =
  QCheck2.Test.make ~name:"effective = min(requested, recommended)" ~count:500
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 1 512))
    (fun (requested, recommended) ->
      Par.effective_domains ~recommended requested = Int.min requested recommended)

let test_host_clamp () =
  let cap = Par.default_domains () in
  Alcotest.(check bool) "recommended is at least 1" true (cap >= 1);
  Alcotest.(check int) "one domain is never clamped" 1 (Par.effective_domains 1);
  Alcotest.(check int) "the recommended count is kept" cap (Par.effective_domains cap);
  Alcotest.(check int) "an oversized request is clamped" cap
    (Par.effective_domains 100_000)

let suite =
  ( "par",
    [
      QCheck_alcotest.to_alcotest prop_clamp_is_min;
      Alcotest.test_case "host clamp" `Quick test_host_clamp;
    ] )
