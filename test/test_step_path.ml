(* The pool's one step path, as both drivers see it: the stall-valve
   rule through [Pool.exec_*] directly and through a server session, and
   the certifier doom poll a commit repeats under its own stripes. *)

module Pool = Runtime.Pool
module Metrics = Runtime.Metrics
module Cert = Runtime.Certifier
module Program = Core.Program
module Session = Server.Session
module P = Server.Protocol
module L = Isolation.Level

(* {2 The stall valve: N blocked retries, then one restart} *)

let max_op_retries = 2

(* A context whose key "x" is write-locked by an open transaction. *)
let exec_with_x_held () =
  let cfg =
    Pool.config ~workers:1 ~initial:[ ("x", 0) ] ~max_op_retries ~seed:5 ()
  in
  let ex = Pool.exec_create cfg ~family:`Locking in
  let holder = Pool.exec_fresh_tid ex in
  Pool.exec_begin ex ~worker:0 ~tid:holder ~job:0 ~name:"holder" ~attempt:1
    ~level:L.Serializable ~read_only:false;
  (match
     Pool.exec_step ~level:L.Serializable ex ~worker:0 ~tid:holder ~seq:0
       ~start_ns:0 (Program.Write ("x", Program.const 1))
   with
  | Pool.Session_progress -> ()
  | _ -> Alcotest.fail "the holder could not write x");
  ex

let check_stall_counters what ex =
  let m = (Pool.exec_live ex).Pool.metrics in
  Alcotest.(check int) (what ^ ": one stall restart") 1 m.Metrics.stalls;
  Alcotest.(check int)
    (what ^ ": blocks = retries + the restarting one")
    (max_op_retries + 1) m.Metrics.lock_waits

let test_stall_valve_exec () =
  let ex = exec_with_x_held () in
  let tid = Pool.exec_fresh_tid ex in
  Pool.exec_begin ex ~worker:0 ~tid ~job:1 ~name:"waiter" ~attempt:1
    ~level:L.Serializable ~read_only:false;
  (* The batch driver's loop shape: step, ask the valve, wait, retry. *)
  let rec go ~waits seq =
    match
      Pool.exec_step ~level:L.Serializable ex ~worker:0 ~tid ~seq ~start_ns:0
        (Program.Write ("x", Program.const 2))
    with
    | Pool.Session_blocked _ ->
      if Pool.exec_stall_restart ex ~tid ~waits then waits
      else go ~waits:(waits + 1) (seq + 1)
    | _ -> Alcotest.fail "x is held: every attempt must block"
  in
  Alcotest.(check int) "blocked retries before the restart" max_op_retries
    (go ~waits:0 0);
  (match Pool.exec_status ex ~tid with
  | Core.Engine.Aborted _ -> ()
  | _ -> Alcotest.fail "the stall restart aborted the waiter");
  check_stall_counters "exec" ex

let test_stall_valve_session () =
  let ex = exec_with_x_held () in
  let parks = ref 0 and replies = ref [] in
  let s =
    Session.create ~sid:1 ~gid:1 ~conn:0 ~exec:ex ~draining:(Atomic.make false)
      ~lookup_pred:(fun _ -> Error "no predicates")
      ~send:(fun ~req resp -> replies := (req, resp) :: !replies)
      ~emit:(fun ~tid:_ -> function
        | Trace.Event.Session_park _ -> incr parks
        | _ -> ())
      ~on_close:(fun _ -> ())
      ~level:L.Serializable ~seed:5
  in
  assert (
    Session.offer s ~req:1 (P.Begin { read_only = false; attempt = 1; name = "w" }));
  assert (Session.offer s ~req:2 (P.Write ("x", 2)));
  (* Resume each park at once: the valve counts blocks, not time. *)
  let rec pump n =
    if n > 4 * max_op_retries then Alcotest.fail "the session never restarted"
    else
      match Session.pump s ~worker:0 with
      | `Park _ | `Yield -> pump (n + 1)
      | `Idle -> ()
  in
  pump 0;
  Alcotest.(check int) "parked blocked retries" max_op_retries !parks;
  (match List.assoc_opt 2 !replies with
  | Some (P.Aborted _) -> ()
  | _ -> Alcotest.fail "the write was answered with its restart abort");
  check_stall_counters "session" ex

(* {2 Certifier doom under the commit's stripes}

   Two workers on a multiversion engine with the Mixed criterion: a
   cycle closed by one transaction's commit dooms the other member
   while it may already be waiting for its own commit's stripes. The
   commit re-polls the certifier under those stripes, so every doomed
   transaction aborts as a certifier abort; before, one that had polled
   just ahead of the closing commit went on to commit anyway. *)

let certified_run ~levels ~seed =
  let mix =
    match Workload.Mix.parse levels with Ok m -> m | Error e -> failwith e
  in
  let family = Workload.Mix.family mix in
  let gen i =
    let declared = Workload.Mix.draw mix ~seed ~index:i in
    let p =
      Workload.Generators.stress_program Workload.Generators.Hotspot ~seed
        ~accounts:64 ~hot:8 ~ops:6 ~index:i
    in
    Pool.job ~name:p.Program.name ~declared
      ~level:(Isolation.Lattice.strengthen declared family)
      p
  in
  let cfg =
    Pool.config ~workers:2
      ~initial:(Workload.Generators.bank_accounts 64)
      ~seed ~certify:true ~criterion:Cert.Mixed ~family ~keep_history:false ()
  in
  let r = Pool.run_n cfg ~txns:3000 ~gen in
  match r.Pool.certifier with
  | Some c -> (c, r.Pool.metrics)
  | None -> Alcotest.fail "certified run lost its summary"

let test_doomed_never_commits () =
  for seed = 1 to 5 do
    let c, m = certified_run ~levels:"si=70,rc=25,serializable=5" ~seed in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every doomed transaction aborted" seed)
      c.Cert.dooms m.Metrics.certifier_aborts
  done;
  (* Without a weak member no cycle closes at a commit, so nothing is
     left undoomed either. *)
  let c, _ = certified_run ~levels:"si=100" ~seed:1 in
  Alcotest.(check int) "snapshot-only run: no missed cycle" 0 c.Cert.misses;
  Alcotest.(check bool) "snapshot-only run: serializable" true
    c.Cert.serializable

let suite =
  [
    Alcotest.test_case "stall valve through exec_*: N waits, then restart"
      `Quick test_stall_valve_exec;
    Alcotest.test_case "stall valve through a session: N parks, then restart"
      `Quick test_stall_valve_session;
    Alcotest.test_case "a doomed transaction never commits (2 workers)" `Quick
      test_doomed_never_commits;
  ]
