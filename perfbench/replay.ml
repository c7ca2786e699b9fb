(* The layers that run inside [Pool.run_n] cannot be timed from outside
   that call. For them the traced run replays the same generated
   programs on one thread through the public APIs, timing each call: the
   engine's begin/footprint/step/abort/forget/wal_sync, the pool's stripe
   plan on a [Runtime.Stripes] set, and a certifier fed from the
   benchmark's own trace hook. The replay gives each layer's uncontended
   cost; the run's counters give the contention. *)

module Engine = Core.Engine
module Pool = Runtime.Pool
module Stripes = Runtime.Stripes
module Certifier = Runtime.Certifier
open Util

let clock_ns () = Int64.to_float (Monotonic_clock.now ())

type t = {
  txns : int;
  committed : int;
  steps : int;
  step_ns : float array;  (** footprint + step of every non-commit op *)
  commit_ns : float array;
  wal_sync_ns : float array;
  stripe_ns : float;  (** acquire + release of each step's plan, total *)
  stripe_acquires : int;
  begin_forget_ns : float;
  certifier_ns : float;  (** observe in the trace hook + doomed polls *)
  observed : int;
  wal_records : int;
  wal_bytes : int;  (** 0 for an in-memory log *)
  final : (string * int) list;
}

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* [disk] puts the replay's log on disk, as the workload's is; it is never
   checkpointed, so its length and size are every record appended. *)
let run ~family ~initial ~certify ~disk (jobs : Pool.job array) =
  let wal_dir = if disk then Some (scratch "replay-wal") else None in
  let nstripes = if family = `Locking then Pool.default_stripes else 1 in
  let engine =
    Engine.create ~initial ~predicates:[] ~stripes:nstripes ~audit:false
      ?wal_dir ~retain_trace:false ~family ()
  in
  let hook_ns = ref 0. in
  let observed = ref 0 in
  let cert =
    if not certify then None
    else begin
      let c =
        Certifier.create ~batch:true ~prune_every:4096 ~mode:Certifier.Enforce
          ~criterion:Certifier.Mixed ~family ()
      in
      Engine.set_trace_hook engine (fun pos a ->
          let t0 = clock_ns () in
          Certifier.observe c pos a;
          hook_ns := !hook_ns +. (clock_ns () -. t0);
          incr observed);
      Engine.set_prune_hook engine (fun buried -> Certifier.mv_trim c ~buried);
      Some c
    end
  in
  let stripes = Stripes.create (nstripes + 1) in
  let steps = ref [] and commits = ref [] and syncs = ref [] in
  let stripe_ns = ref 0. and stripe_acquires = ref 0 in
  let bf_ns = ref 0. and doomed_ns = ref 0. in
  let committed = ref 0 in
  Array.iteri
    (fun i (job : Pool.job) ->
      let tid = i + 1 in
      let t0 = clock_ns () in
      Engine.begin_txn ~read_only:job.read_only engine tid ~level:job.level;
      bf_ns := !bf_ns +. (clock_ns () -. t0);
      Option.iter (fun c -> Certifier.note_level c ~tid ~level:job.declared) cert;
      let rec exec = function
        | [] -> ()
        | op :: rest ->
          let h0 = !hook_ns in
          let t0 = clock_ns () in
          let fp = Engine.footprint engine tid op in
          let t1 = clock_ns () in
          let plan = Pool.stripe_plan ~stripes:nstripes fp in
          List.iter (fun s -> ignore (Stripes.acquire stripes s)) plan;
          let t2 = clock_ns () in
          let outcome = Engine.step engine tid op in
          let t3 = clock_ns () in
          List.iter (fun s -> Stripes.release stripes s) plan;
          let t4 = clock_ns () in
          stripe_ns := !stripe_ns +. (t2 -. t1) +. (t4 -. t3);
          stripe_acquires := !stripe_acquires + List.length plan;
          let engine_ns = (t1 -. t0) +. (t3 -. t2) -. (!hook_ns -. h0) in
          (match op with
          | Core.Program.Commit -> commits := engine_ns :: !commits
          | _ -> steps := engine_ns :: !steps);
          let doomed =
            match cert with
            | None -> false
            | Some c ->
              let d0 = clock_ns () in
              let d = Certifier.doomed c tid in
              doomed_ns := !doomed_ns +. (clock_ns () -. d0);
              d
          in
          if doomed then
            Engine.abort_txn ~reason:Engine.Certifier_abort engine tid
          else if outcome = Engine.Progress then exec rest
      in
      exec job.program.Core.Program.ops;
      if Engine.status engine tid = Engine.Committed then begin
        incr committed;
        let t0 = clock_ns () in
        Engine.wal_sync engine;
        syncs := (clock_ns () -. t0) :: !syncs
      end;
      let t0 = clock_ns () in
      Engine.forget engine tid;
      bf_ns := !bf_ns +. (clock_ns () -. t0))
    jobs;
  let final = Engine.final_state engine in
  let wal_records =
    match Engine.wal engine with
    | Some w ->
      let n = Storage.Wal.length w in
      Storage.Wal.close w;
      n
    | None -> 0
  in
  let wal_bytes = Option.fold ~none:0 ~some:dir_bytes wal_dir in
  Option.iter rm_rf wal_dir;
  let arr l = Array.of_list l in
  {
    txns = Array.length jobs;
    committed = !committed;
    steps = List.length !steps + List.length !commits;
    step_ns = arr !steps;
    commit_ns = arr !commits;
    wal_sync_ns = arr !syncs;
    stripe_ns = !stripe_ns;
    stripe_acquires = !stripe_acquires;
    begin_forget_ns = !bf_ns;
    certifier_ns = !hook_ns +. !doomed_ns;
    observed = !observed;
    wal_records;
    wal_bytes;
    final;
  }

let mean a = if Array.length a = 0 then 0. else Array.fold_left ( +. ) 0. a /. float (Array.length a)

(* Into the per-layer table, under the engine family's names. *)
let note ~family r =
  let fam = match family with `Locking -> "locking" | `Mv -> "mv" | `Timestamp -> "to" in
  let us ns = ns /. 1e3 in
  let open Layer in
  set ("core.step_us." ^ fam) (us (mean r.step_ns));
  set ("core.step_us." ^ fam ^ ".p99") (us (quantile r.step_ns 0.99));
  set ("core.commit_us." ^ fam) (us (mean r.commit_ns));
  set "core.wal_sync_us" (us (mean r.wal_sync_ns));
  set "core.steps_per_txn" (float r.steps /. float r.txns);
  set "core.begin_forget_us" (us (r.begin_forget_ns /. float r.txns));
  set "stripes.acquire_us" (us (r.stripe_ns /. float (max 1 r.steps)));
  if r.observed > 0 then
    set "certifier.observe_us" (us (r.certifier_ns /. float r.observed));
  set "wal.records_per_txn" (float r.wal_records /. float r.txns);
  set "wal.bytes_per_txn" (float r.wal_bytes /. float r.txns)
