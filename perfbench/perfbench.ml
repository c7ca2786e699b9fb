(* The repository benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   Runs one workload for S seconds as a sequence of whole-command batches
   (set-up, run, post-run verdict, recovery), checks every batch's
   outputs, and prints a report followed by one JSON line: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. See perfbench/README.md. *)

open Util

(* {1 Metric names}  Kept identical to BENCHMARK.json; the smoke test
   compares them. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("throughput_tps", "1/s");
    ("lat_p50_ms", "ms");
    ("lat_p99_ms", "ms");
    ("peak_rss_mb", "MB");
    ("check_s", "s");
    ("recovery_s", "s");
  ]

let abort_slugs =
  List.map Runtime.Metrics.abort_reason_slug
    Core.Engine.
      [
        User_abort; Deadlock_victim; First_committer_wins; First_updater_wins;
        Serialization_failure; Too_late; Fault_injected; Deadline_exceeded;
        Certifier_abort;
      ]

let phenomena = List.map Phenomena.Phenomenon.name Phenomena.Phenomenon.all

let spans =
  [ "setup"; "pool.run_n"; "executor.run"; "loadgen.run"; "frontend.drain" ]

let per_layer =
  [
    ("pool.attempts_per_commit", "ratio");
    ("pool.deadlocks", "count");
    ("pool.lock_wait_s", "s");
    ("pool.retry_overhead_s", "s");
    ("pool.exec_p50_ms", "ms");
    ("pool.exec_p99_ms", "ms");
  ]
  @ List.map (fun s -> ("pool.aborts." ^ s, "count")) abort_slugs
  @ [
      ("stripes.acquired_per_txn", "count/txn");
      ("stripes.contended_ratio", "ratio");
      ("stripes.acquire_us", "us");
      ("core.step_us.locking", "us");
      ("core.step_us.locking.p99", "us");
      ("core.step_us.mv", "us");
      ("core.step_us.mv.p99", "us");
      ("core.commit_us.locking", "us");
      ("core.commit_us.mv", "us");
      ("core.wal_sync_us", "us");
      ("core.steps_per_txn", "count/txn");
      ("core.begin_forget_us", "us");
      ("lock.grants_per_txn", "count/txn");
      ("lock.conflicts_per_txn", "count/txn");
      ("lock.upgrades_per_txn", "count/txn");
      ("certifier.edges_per_txn", "count/txn");
      ("certifier.cycles", "count");
      ("certifier.dooms", "count");
      ("certifier.tolerated", "count");
      ("certifier.misses", "count");
      ("certifier.prune_passes", "count");
      ("certifier.graph_nodes_peak", "count");
      ("certifier.observe_us", "us");
      ("certifier.replay_s", "s");
      ("wal.records_per_txn", "count/txn");
      ("wal.bytes_per_txn", "B/txn");
      ("wal.syncs_per_commit", "ratio");
      ("wal.batch_mean", "count");
      ("wal.checkpoints", "count");
      ("wal.truncated_segments", "count");
      ("recovery.load_s", "s");
      ("recovery.replay_s", "s");
      ("recovery.records", "count");
    ]
  @ List.concat_map
      (fun p -> [ ("detect." ^ p ^ "_s", "s"); ("detect." ^ p ^ "_witnesses", "count") ])
      phenomena
  @ [
      ("history.serializable_s", "s");
      ("oracle.check_s", "s");
      ("oracle.mixed_s", "s");
      ("server.requests_per_txn", "count/txn");
      ("server.frames", "count");
      ("server.aborts_per_commit", "ratio");
      ("scheduler.runnable_peak", "count");
      ("scheduler.parked_peak", "count");
      ("scheduler.wake_ms_mean", "ms");
      ("scheduler.wake_ms_max", "ms");
      ("protocol.encode_us", "us");
      ("protocol.decode_us", "us");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_txn", "words/txn");
      ("gc.stw_s", "s");
      ("gc.pause_max_ms", "ms");
    ]
  @ List.concat_map
      (fun s -> [ ("span." ^ s ^ ".count", "count"); ("span." ^ s ^ ".self_s", "s") ])
      spans
  @ [
      ("trace.unattributed_s", "s");
      ("trace.overhead_ratio", "ratio");
      ("failed_ratio", "ratio");
    ]

(* {1 Workloads} *)

type workload = {
  name : string;
  params : string;
  flush : string;  (** how the workload's log reaches stable storage *)
  batch : seed:int -> index:int -> traced:bool -> Batch.t;
  extras : seed:int -> (string * bool) list;
      (** traced run only, after the measured passes: replays and codec
          costs, with their own checks *)
}

let replay_checks ~family ~certify ~disk ~initial ~conserved jobs =
  let r = Replay.run ~family ~initial ~certify ~disk jobs in
  Replay.note ~family r;
  [
    ( "replay final state consistent",
      if conserved then bank_total r.final = bank_total initial
      else bank_total r.final = bank_total initial + r.committed );
  ]

let workloads ~smoke =
  let hc = History_wl.spec ~smoke and ws = Wire_wl.spec ~smoke in
  let replay_n = if smoke then 500 else 20_000 in
  let bank = Workload.Generators.bank_accounts in
  [
    {
      name = "history-check";
      params = History_wl.params hc;
      flush =
        "the multiversion stage's disk WAL with group commit (one leader \
         fsync per batch of waiting commits) on the checkout's file system; \
         latencies are this host's, not a device's";
      batch = History_wl.batch hc;
      extras =
        (fun ~seed ->
          (* the multiversion stage's programs, replayed on its engine *)
          replay_checks ~family:`Mv ~certify:true ~disk:true
            ~initial:(bank hc.mv.accounts) ~conserved:false
            (Pool_wl.jobs { hc.mv with txns = replay_n } ~seed));
    };
    {
      name = "wire-sessions";
      params = Wire_wl.params ws;
      flush = "in-memory WAL, nothing is fsync'd";
      batch = Wire_wl.batch ws;
      extras =
        (fun ~seed ->
          (* the server's transfers, replayed on the locking engine *)
          let jobs =
            Pool_wl.jobs
              {
                txns = replay_n;
                accounts = ws.accounts;
                hot = ws.accounts;
                mix = Workload.Generators.Transfer;
                levels = Wire_wl.levels;
              }
              ~seed
          in
          ("protocol codec round trip", Wire_wl.codec_cost ())
          :: replay_checks ~family:`Locking ~certify:false ~disk:false
               ~initial:(bank ws.accounts) ~conserved:true jobs);
    };
  ]

(* {1 Running} *)

type summary = {
  batches : int;
  setup_s : float;
  wall_s : float;
  tps : float;
  p50 : float;
  p99 : float;
  samples : int;
  check_s : float;
  recovery_s : float;
  rss_mb : float;
  attempted : int;
  failed : int;
  failures : string list;
}

let min_batches = 3

let run_pass wl ~seed ~seconds ~traced =
  Gc.compact ();
  Runtime.Sysmem.reset_peak ();
  let deadline = now () +. seconds in
  let rec go i acc =
    if i >= min_batches && now () >= deadline then List.rev acc
    else begin
      Gc.compact ();
      go (i + 1) (wl.batch ~seed ~index:i ~traced :: acc)
    end
  in
  let bs = go 0 [] in
  List.iteri
    (fun i (b : Batch.t) ->
      let q = b.lat in
      Printf.printf
        "  batch %d: setup_s %.6f wall_s %.6f tps %.1f p50_ms %.4f p99_ms %.4f \
         check_s %.6f recovery_s %.6f\n"
        i b.setup_s b.wall_s b.tps q.p50_ms q.p99_ms b.check_s b.recovery_s)
    bs;
  let rss_mb = float (Runtime.Sysmem.vm_hwm_kb ()) /. 1024. in
  let med f = median_l (List.map f bs) in
  let lat : Batch.quantiles =
    {
      p50_ms = med (fun b -> b.lat.p50_ms);
      p99_ms = med (fun b -> b.lat.p99_ms);
      samples = List.fold_left (fun acc (b : Batch.t) -> acc + b.lat.samples) 0 bs;
    }
  in
  let sum f = List.fold_left (fun acc b -> acc + f b) 0 bs in
  {
    batches = List.length bs;
    setup_s = med (fun b -> b.setup_s);
    wall_s = med (fun b -> b.wall_s);
    tps = med (fun b -> b.tps);
    p50 = lat.p50_ms;
    p99 = lat.p99_ms;
    samples = lat.samples;
    check_s = med (fun b -> b.check_s);
    recovery_s = med (fun b -> b.recovery_s);
    rss_mb;
    attempted = sum (fun b -> b.attempted);
    failed = sum (fun b -> b.failed);
    failures = List.concat_map (fun b -> b.Batch.failures) bs;
  }

let e2e_values s =
  [
    ("setup_s", s.setup_s);
    ("wall_s", s.wall_s);
    ("throughput_tps", s.tps);
    ("lat_p50_ms", s.p50);
    ("lat_p99_ms", s.p99);
    ("peak_rss_mb", s.rss_mb);
    ("check_s", s.check_s);
    ("recovery_s", s.recovery_s);
  ]

let print_summary label s =
  Printf.printf
    "%s: %d batches, %d attempted, %d failed\n\
    \  setup_s %.6f  wall_s %.6f  throughput_tps %.1f\n\
    \  lat_p50_ms %.4f  lat_p99_ms %.4f  (%d samples)\n\
    \  peak_rss_mb %.1f  check_s %.6f  recovery_s %.6f\n"
    label s.batches s.attempted s.failed s.setup_s s.wall_s s.tps s.p50 s.p99
    s.samples s.rss_mb s.check_s s.recovery_s

(* Per-layer values: per-batch means of summed cells, ratios of sums. *)
let layer_values ~batches ~traced ~untraced ~unattributed (g : Gc_events.totals) =
  let per_batch name = Layer.get name /. float batches in
  let ratio a b = if b = 0. then 0. else a /. b in
  let committed = Layer.get "pool.committed" in
  let derived =
    [
      ("pool.attempts_per_commit", ratio (Layer.get "pool.attempts") committed);
      ("stripes.acquired_per_txn", ratio (Layer.get "stripes.acquired") committed);
      ( "stripes.contended_ratio",
        ratio (Layer.get "stripes.contended") (Layer.get "stripes.acquired") );
      ("lock.grants_per_txn", ratio (Layer.get "lock.grants") committed);
      ("lock.conflicts_per_txn", ratio (Layer.get "lock.conflicts") committed);
      ("lock.upgrades_per_txn", ratio (Layer.get "lock.upgrades") committed);
      ("certifier.edges_per_txn", ratio (Layer.get "certifier.edges") committed);
      ("wal.syncs_per_commit", ratio (Layer.get "wal.syncs") committed);
      ("wal.batch_mean", ratio committed (Layer.get "wal.syncs"));
      ( "server.requests_per_txn",
        ratio (Layer.get "server.requests") (Layer.get "server.committed") );
      ( "server.aborts_per_commit",
        ratio (Layer.get "server.aborts") (Layer.get "server.committed") );
      ("gc.minor_collections", float g.minor_collections /. float batches);
      ("gc.major_collections", float g.major_collections /. float batches);
      ( "gc.promoted_words_per_txn",
        ratio (float g.promoted_words) (float traced.attempted) );
      ("gc.stw_s", g.stw_s /. float batches);
      ("gc.pause_max_ms", g.pause_max_ms);
      ("trace.unattributed_s", unattributed /. float batches);
      ("trace.overhead_ratio", ratio traced.wall_s untraced.wall_s -. 1.);
      ( "failed_ratio",
        ratio
          (float (traced.failed + untraced.failed))
          (float (traced.attempted + untraced.attempted)) );
    ]
    @ List.concat_map
        (fun s ->
          [
            ("span." ^ s ^ ".count", float (Span.count s) /. float batches);
            ("span." ^ s ^ ".self_s", Span.self_s s /. float batches);
          ])
        spans
  in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name derived with
      | Some v -> (name, v)
      | None -> (name, if Layer.summed name then per_batch name else Layer.get name))
    per_layer

(* {1 Provenance} *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    line

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let s = try Some (String.trim (input_line ic)) with End_of_file -> None in
    close_in ic;
    s

let git_commit () =
  match read_file ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    Option.value ~default:head
      (read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some sha -> sha
  | None -> "unknown (not a git checkout)"

let print_provenance wl ~seed ~seconds ~trace =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" wl.name seed
    seconds trace;
  Printf.printf "  host: nproc=%s recommended_domain_count=%d ocaml=%s commit=%s\n"
    (Option.value ~default:"unknown" (command_line "nproc" []))
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_commit ());
  Printf.printf "  params: %s\n" wl.params;
  Printf.printf "  flush policy: %s\n%!" wl.flush

(* {1 Output} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics units =
  let fields =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          (List.assoc name units))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let report_failures fs =
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) fs

let main ~workload ~seed ~seconds ~trace ~smoke =
  let wl =
    match List.find_opt (fun w -> w.name = workload) (workloads ~smoke) with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (expected %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) (workloads ~smoke)));
      exit 2
  in
  print_provenance wl ~seed ~seconds ~trace;
  if trace = 0 then begin
    let s = run_pass wl ~seed ~seconds ~traced:false in
    print_summary "untraced" s;
    report_failures s.failures;
    let values = e2e_values s in
    let bad = List.filter (fun (_, v) -> not (Float.is_finite v && v > 0.)) values in
    List.iter (fun (n, _) -> Printf.printf "  CHECK FAILED: metric %s is not positive\n" n) bad;
    print_result
      ~correct:(s.failures = [] && bad = [])
      ~attempted:s.attempted
      ~failed:(s.failed + List.length bad)
      values end_to_end
  end
  else begin
    (* Same workload untraced, then traced, for half the time each: the
       difference is the tracing overhead. *)
    let half = seconds /. 2. in
    let untraced = run_pass wl ~seed ~seconds:half ~traced:false in
    print_summary "untraced" untraced;
    Layer.reset ();
    Span.reset ();
    Span.enabled := true;
    let gc = Gc_events.start () in
    let t0 = now () in
    let traced = run_pass wl ~seed ~seconds:half ~traced:true in
    let elapsed = now () -. t0 in
    let g = Gc_events.stop gc in
    Span.enabled := false;
    print_summary "traced" traced;
    let extras = wl.extras ~seed in
    let extra_failures = Batch.failed_checks extras in
    let values =
      layer_values ~batches:traced.batches ~traced ~untraced
        ~unattributed:(elapsed -. Span.top_level_s ())
        g
    in
    let spans_file = scratch_file (Printf.sprintf "spans-%s-%d.tsv" wl.name seed) in
    Span.write spans_file;
    Printf.printf "  spans (traced pass, totals; each span in %s):\n" spans_file;
    Span.pp_table stdout;
    Printf.printf
      "  gc cross-check: runtime_events minor=%d major=%d promoted=%d lost=%d; \
       Gc.quick_stat minor=%d major=%d promoted=%d\n"
      g.minor_collections g.major_collections g.promoted_words g.lost_events
      g.quick_minor g.quick_major g.quick_promoted;
    Printf.printf "  tracing overhead on wall_s: %+.2f%%\n"
      (100. *. List.assoc "trace.overhead_ratio" values);
    List.iter (fun (n, v) -> Printf.printf "  layer %-34s %.6g\n" n v) values;
    let failures = untraced.failures @ traced.failures @ extra_failures in
    report_failures failures;
    print_result ~correct:(failures = [])
      ~attempted:(untraced.attempted + traced.attempted)
      ~failed:(untraced.failed + traced.failed + List.length extra_failures)
      values per_layer
  end

let record_digests n =
  let s = History_wl.spec ~smoke:false in
  for seed = 0 to n - 1 do
    for k = 0 to History_wl.histories_per_seed - 1 do
      print_endline (History_wl.digest_line s ~seed ~k)
    done
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false and digests = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny batch sizes (the smoke test)");
      ( "--record-digests",
        Arg.Set_int digests,
        "N print history-check digests for seeds 0..N-1 and exit" );
    ]
  in
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !digests > 0 then record_digests !digests
  else if !workload = "" || (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    Arg.usage spec usage;
    exit 2
  end
  else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:!smoke
