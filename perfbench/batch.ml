(* One batch is one whole command: set-up, the run, and every post-run
   check and recovery a user would wait for. A benchmark run repeats
   batches until its time is up and reports medians across them. *)

type quantiles = { p50_ms : float; p99_ms : float; samples : int }

type t = {
  setup_s : float;  (** input generation, engine/server start *)
  wall_s : float;  (** first job issued to verdict in hand *)
  tps : float;  (** committed (or judged) transactions per second *)
  lat : quantiles;
      (** the batch's own percentiles; a run reports their median over
          batches, so a minority of batches caught in a slow period of
          the host does not move it *)
  check_s : float;  (** the post-run verdict *)
  recovery_s : float;  (** rebuilding the store from the run's log *)
  attempted : int;
  failed : int;  (** give-ups, protocol errors and failed checks *)
  failures : string list;  (** which checks failed *)
}

(* [checks] are (name, passed) pairs; each failure counts once. *)
let failed_checks checks =
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
