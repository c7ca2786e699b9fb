(* The pool side of the benchmark: the job generator and the counter
   helpers shared by the workloads, and the multiversion stage that
   history-check runs after its verdicts.

   The stage is one fixed-size [Runtime.Pool.run_n] batch on the
   multiversion family with every transaction at SNAPSHOT: hotspot
   increments over 256 accounts (16 hot), workers = the recommended
   domain count, certified under the mixed criterion, disk WAL with
   group commit and checkpoints. Its log is then reloaded and recovered.
   It is a stage and not a workload of its own because its latency tail
   is too steep to hold to a bound on a shared host (see README.md).

   Every transaction is SNAPSHOT because on that mix the certifier can
   keep its promise: a cycle longer than two is a write skew (A5B), which
   SNAPSHOT permits, and a two-cycle that harms a SNAPSHOT member (a lost
   update, P4) is closed by that member's own write, so the member it
   dooms is the one about to poll [Certifier.doomed] before its next
   operation. Mixes with READ COMMITTED or SERIALIZABLE members can leave
   a harmed member committed (README.md, "Known library defect"). *)

module Pool = Runtime.Pool
module Metrics = Runtime.Metrics
module Certifier = Runtime.Certifier
module G = Workload.Generators
module Wal = Storage.Wal
module Recovery = Storage.Recovery
open Util

let workers = Domain.recommended_domain_count ()

type spec = {
  txns : int;  (** per batch *)
  accounts : int;
  hot : int;
  mix : G.mix;
  levels : Workload.Mix.t;
}

(* Two checkpoints and two pruning passes a run, and a log tail of 1904
   commits after the last checkpoint for recovery to replay. *)
let checkpoint_every = 2_048
let prune_every = 2_048

let mv_levels =
  match Workload.Mix.parse "si" with
  | Ok m -> m
  | Error e -> failwith e

let spec ~smoke =
  {
    txns = (if smoke then 1_000 else 6_000);
    accounts = 256;
    hot = 16;
    mix = G.Hotspot;
    levels = mv_levels;
  }

let params s =
  Printf.sprintf
    "mv_stage: txns=%d workers=%d accounts=%d hot=%d mix=%s levels=%s \
     think_us=0 history=off certify=mixed wal=disk,group-commit \
     checkpoint_every=%d prune_every=%d"
    s.txns workers s.accounts s.hot (G.mix_name s.mix)
    (Workload.Mix.to_string s.levels)
    checkpoint_every prune_every

let family s = Workload.Mix.family s.levels

(* The programs of one run, drawn from the seed alone. *)
let jobs s ~seed =
  let fam = family s in
  Array.init s.txns (fun i ->
      let p =
        G.stress_program s.mix ~seed ~accounts:s.accounts ~hot:s.hot ~ops:4
          ~index:i
      in
      let declared = Workload.Mix.draw s.levels ~seed ~index:i in
      Pool.job ~name:p.Core.Program.name ~declared
        ~level:(Isolation.Lattice.strengthen declared fam)
        p)

(* {2 Traced-run counters} *)

let note_pool_metrics (m : Metrics.snapshot) =
  let open Layer in
  addi "pool.committed" m.committed;
  addi "pool.attempts" (m.committed + m.aborted_total);
  addi "pool.deadlocks" m.deadlocks;
  add "pool.lock_wait_s" (float m.wait_ns /. 1e9);
  add "pool.retry_overhead_s" m.retry_overhead_s;
  max_ "pool.exec_p50_ms" m.exec_p50_ms;
  max_ "pool.exec_p99_ms" m.exec_p99_ms;
  List.iter
    (fun (r, n) -> addi ("pool.aborts." ^ Metrics.abort_reason_slug r) n)
    m.aborted;
  addi "stripes.acquired" m.stripe_acquired;
  addi "stripes.contended" m.stripe_contended

let note_lock_stats = function
  | None -> ()
  | Some (s : Locking.Lock_table.stats) ->
    Layer.addi "lock.grants" s.grants;
    Layer.addi "lock.conflicts" s.conflicts;
    Layer.addi "lock.upgrades" s.upgrades

let note_certifier = function
  | None -> ()
  | Some (c : Certifier.summary) ->
    let open Layer in
    addi "certifier.edges" (c.edges_wr + c.edges_ww + c.edges_rw);
    addi "certifier.cycles" c.cycles;
    addi "certifier.dooms" c.dooms;
    addi "certifier.tolerated" c.tolerated;
    addi "certifier.misses" c.misses;
    addi "certifier.prune_passes" c.prune_passes

(* Polls the live sampler for the certifier graph's peak size; a systhread
   on the calling domain, which is also worker 0. *)
let with_graph_sampler f =
  let stop = Atomic.make false in
  let poller = ref None in
  let monitor sample =
    poller :=
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get stop) do
               (match (sample () : Pool.live).certifier with
               | Some (s : Certifier.stats) ->
                 Layer.max_ "certifier.graph_nodes_peak" (float s.s_nodes)
               | None -> ());
               Thread.delay 0.005
             done)
           ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Option.iter Thread.join !poller)
    (fun () -> f monitor)

(* {2 The stage} *)

let config s ~seed ~wal_dir =
  Pool.config ~workers
    ~initial:(G.bank_accounts s.accounts)
    ~think_us:0. ~seed ~certify:true ~criterion:Certifier.Mixed ~family:(family s)
    ~levels:(Workload.Mix.levels s.levels)
    ~keep_history:false ~wal_dir ~wal_group_commit:true ~checkpoint_every
    ~prune_every ()

type prepared = { p_seed : int; p_jobs : Pool.job array; wal_dir : string }

(* The stage's set-up: its programs, drawn from (seed, batch index)
   alone, and an empty WAL directory. *)
let prepare s ~seed ~index =
  let p_seed = (seed * 7919) + index in
  { p_seed; p_jobs = jobs s ~seed:p_seed; wal_dir = scratch "wal" }

type stage = {
  run_s : float;  (** Pool.run_n through Wal.close *)
  check_s : float;  (** Recovery.mv_recovery_correct, median time *)
  recovery_s : float;  (** Wal.load + Recovery.recover_mv, median times *)
  giveups : int;
  checks : (string * bool) list;
}

let run s p ~traced =
  let cfg = config s ~seed:p.p_seed ~wal_dir:p.wal_dir in
  let gen i = p.p_jobs.(i) in
  let (r : Pool.result), run_s =
    timed (fun () ->
        let r =
          Span.with_ "pool.run_n" (fun () ->
              if traced then
                with_graph_sampler (fun monitor ->
                    Pool.run_n ~monitor cfg ~txns:s.txns ~gen)
              else Pool.run_n cfg ~txns:s.txns ~gen)
        in
        Wal.close (Option.get r.Pool.wal);
        r)
  in
  let initial = G.bank_accounts s.accounts in
  (* The post-run phases, each repeated for a median time. *)
  let loaded, load_s =
    timed_median (fun () ->
        Span.with_ "wal.load" (fun () -> Wal.load ~dir:p.wal_dir))
  in
  let rec_, replay_s =
    timed_median (fun () ->
        Span.with_ "recovery.recover_mv" (fun () ->
            Recovery.recover_mv ~initial loaded))
  in
  let correct, check_s =
    timed_median (fun () ->
        Span.with_ "recovery.mv_recovery_correct" (fun () ->
            Recovery.mv_recovery_correct ~initial loaded))
  in
  let mixed_ok =
    match r.Pool.certifier with Some c -> c.Certifier.mixed_ok | None -> false
  in
  if not mixed_ok then
    Option.iter
      (fun c -> Format.printf "  mv stage certifier: %a@." Certifier.pp_summary c)
      r.Pool.certifier;
  if traced then begin
    Layer.add "recovery.load_s" load_s;
    Layer.add "recovery.replay_s" replay_s;
    Layer.addi "recovery.records" (Wal.length loaded);
    let ws = Wal.stats (Option.get r.Pool.wal) in
    Layer.addi "wal.syncs" ws.w_syncs;
    Layer.addi "wal.checkpoints" ws.w_checkpoints;
    Layer.addi "wal.truncated_segments" ws.w_truncated_segments;
    note_pool_metrics r.Pool.metrics;
    note_certifier r.Pool.certifier
  end;
  rm_rf p.wal_dir;
  {
    run_s;
    check_s;
    recovery_s = load_s +. replay_s;
    giveups = r.Pool.metrics.giveups;
    checks =
      [
        ("mv stage: certifier mixed_ok", mixed_ok);
        ("mv stage: mv_recovery_correct", correct);
        ( "mv stage: recovered store = final store",
          sorted (Storage.Version_store.to_latest_list rec_.Recovery.vstate)
          = sorted r.Pool.final );
      ];
  }
