(* wire-sessions: the in-process socket server ([Server.Frontend.serve],
   certified, history off) driven by [Server.Loadgen.run]. 64 sessions
   over 2 connections in a closed loop (each session waits for its
   reply), transfers over 1024 uniformly chosen accounts, sessions at
   rc:serializable 3:1. The only path through the protocol, the session
   scheduler's park/wake and the pool's step-at-a-time interface. Each
   batch is one serve + loadgen cycle, drain and verdict included. *)

module Pool = Runtime.Pool
module Certifier = Runtime.Certifier
module Frontend = Server.Frontend
module Loadgen = Server.Loadgen
module Protocol = Server.Protocol
module G = Workload.Generators
module L = Isolation.Level
module Recovery = Storage.Recovery
module Store = Storage.Store
open Util

type spec = { sessions : int; conns : int; txns_per_session : int; accounts : int }

let spec ~smoke =
  {
    sessions = 64;
    conns = 2;
    txns_per_session = (if smoke then 4 else 400);
    accounts = 1024;
  }

(* nproc worker domains, so that the pool's stripes and lock table are
   contended. The calling domain also runs the load generator's and the
   server's connection threads. *)
let workers = Domain.recommended_domain_count ()
let levels = [ (L.Read_committed, 3.); (L.Serializable, 1.) ]

let params s =
  Printf.sprintf
    "sessions=%d conns=%d txns/session=%d accounts=%d mix=transfer \
     levels=rc:3,serializable:1 loop=closed server_workers=%d certify=true \
     history=off wal=memory"
    s.sessions s.conns s.txns_per_session s.accounts workers

(* The server's port, handed over by [on_ready]: 0 until the port is
   bound, -1 if the server thread ended first. Waiting on a condition
   rather than polling keeps the set-up time free of poll granularity. *)
type ready = { m : Mutex.t; c : Condition.t; mutable port : int }

let ready () = { m = Mutex.create (); c = Condition.create (); port = 0 }

let set_ready r p =
  Mutex.protect r.m (fun () ->
      if r.port = 0 then r.port <- p;
      Condition.broadcast r.c)

let await_ready r =
  Mutex.protect r.m (fun () ->
      while r.port = 0 do
        Condition.wait r.c r.m
      done;
      r.port)

(* {2 Traced run: scheduler gauges over the STATS admin op} *)

let json_float path j =
  let rec go j = function
    | [] -> Trace.Json.to_float_opt j
    | k :: rest -> Option.bind (Trace.Json.member k j) (fun j -> go j rest)
  in
  go j path

let stats_poller ~port ~stop =
  Thread.create
    (fun () ->
      match Server.Client.connect ~host:"127.0.0.1" ~port with
      | exception Unix.Unix_error _ -> ()
      | c ->
        while not (Atomic.get stop) do
          (match Server.Client.request ~timeout_s:2. c ~sid:0 Protocol.Stats with
          | Ok (Protocol.Stats_resp body) -> (
            match Trace.Json.parse body with
            | Error _ -> ()
            | Ok j ->
              let g name = json_float [ "scheduler"; name ] j in
              Option.iter (Layer.max_ "scheduler.runnable_peak") (g "runnable");
              Option.iter (Layer.max_ "scheduler.parked_peak") (g "parked");
              Option.iter
                (fun us -> Layer.set "scheduler.wake_ms_mean" (us /. 1e3))
                (g "wake_wait_mean_us");
              Option.iter
                (fun us -> Layer.max_ "scheduler.wake_ms_max" (us /. 1e3))
                (g "wake_wait_max_us"))
          | Ok _ | Error _ -> ());
          Thread.delay 0.01
        done;
        Server.Client.close c)
    ()

(* The cost of the codec on this workload's frame mix: one transfer's
   requests and replies, encoded and decoded in a loop. *)
let codec_cost () =
  let reqs =
    Protocol.
      [
        Begin { read_only = false; attempt = 1; name = "transfer" };
        Read "acct_001";
        Write ("acct_001", 99);
        Read "acct_002";
        Write ("acct_002", 101);
        Commit;
      ]
  in
  let resps =
    Protocol.[ Ok_resp; Value (Some 100); Ok_resp; Value (Some 100); Ok_resp; Committed ]
  in
  let reps = 20_000 in
  let frames = reps * 2 * List.length reqs in
  let encoded = ref [] in
  let (), enc_s =
    timed (fun () ->
        for i = 1 to reps do
          let e =
            List.map (fun r -> Protocol.encode_request ~sid:7 ~req:i r) reqs
            @ List.map (fun r -> Protocol.encode_response ~sid:7 ~req:i r) resps
          in
          if i = 1 then encoded := e
        done)
  in
  let payloads =
    List.map (fun f -> Bytes.sub f 4 (Bytes.length f - 4)) !encoded
  in
  let nreq = List.length reqs in
  let ok = ref true in
  let (), dec_s =
    timed (fun () ->
        for _ = 1 to reps do
          List.iteri
            (fun j p ->
              if j < nreq then
                (match Protocol.decode_request p with Ok _ -> () | Error _ -> ok := false)
              else
                match Protocol.decode_response p with Ok _ -> () | Error _ -> ok := false)
            payloads
        done)
  in
  Layer.set "protocol.encode_us" (enc_s *. 1e6 /. float frames);
  Layer.set "protocol.decode_us" (dec_s *. 1e6 /. float frames);
  !ok

(* {2 One batch} *)

let batch s ~seed ~index ~traced =
  let seed = (seed * 7919) + index in
  let initial = G.bank_accounts s.accounts in
  let stop = Atomic.make false in
  let port_cell = ready () in
  let (server, result, port), setup_s =
    timed (fun () ->
        Span.with_ "setup" (fun () ->
            let pool =
              Pool.config ~workers ~initial ~seed ~certify:true
                ~keep_history:false ()
            in
            let cfg =
              Frontend.config ~port:0
                ~on_ready:(set_ready port_cell)
                ~drain_grace_s:5.0 ~stop ~pool ~family:`Locking ()
            in
            let result = ref None in
            let server =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () -> set_ready port_cell (-1))
                    (fun () -> result := Some (Frontend.serve cfg)))
                ()
            in
            (server, result, await_ready port_cell)))
  in
  if port <= 0 then failwith "wire-sessions: server never came up";
  let poll_stop = Atomic.make false in
  let poller = if traced then Some (stats_poller ~port ~stop:poll_stop) else None in
  let lg =
    Loadgen.config ~port ~sessions:s.sessions ~conns:s.conns
      ~txns_per_session:s.txns_per_session ~mix:G.Transfer ~levels
      ~accounts:s.accounts ~hot:s.accounts ~seed ()
  in
  let t0 = now () in
  let st = Span.with_ "loadgen.run" (fun () -> Loadgen.run lg) in
  Atomic.set poll_stop true;
  Option.iter Thread.join poller;
  Span.with_ "frontend.drain" (fun () ->
      Atomic.set stop true;
      Thread.join server);
  let run_wall_s = now () -. t0 in
  let r, wire =
    match !result with
    | Some rw -> rw
    | None -> failwith "wire-sessions: server thread died"
  in
  let wal = Option.get r.Pool.wal in
  let init = Store.of_list initial in
  let ideal_ok, check_s =
    timed_median (fun () ->
        Span.with_ "recovery.ideal_state" (fun () ->
            bank_total r.Pool.final = bank_total initial
            && Store.equal (Recovery.ideal_state ~initial:init wal)
                 (Store.of_list r.Pool.final)))
  in
  let outcome, recovery_s =
    timed_median (fun () ->
        Span.with_ "recovery.recover" (fun () -> Recovery.recover ~initial:init wal))
  in
  let attempted = s.sessions * s.txns_per_session in
  let checks =
    [
      ("zero protocol errors", st.protocol_errors = 0 && wire.protocol_errors = 0);
      ("committed + give-ups = sessions x txns", st.committed + st.giveups = attempted);
      ( "server certifier verdict ok",
        match r.Pool.certifier with Some c -> c.Certifier.serializable | None -> false );
      ("bank total conserved, ideal_state = final store", ideal_ok);
      ( "recover = final store",
        outcome.Recovery.undone = []
        && Store.equal outcome.Recovery.state (Store.of_list r.Pool.final) );
    ]
  in
  if traced then begin
    Layer.addi "server.requests" st.requests;
    Layer.addi "server.frames" wire.frames;
    Layer.addi "server.aborts" st.aborted;
    Layer.addi "server.committed" st.committed;
    Layer.add "recovery.replay_s" recovery_s;
    Layer.addi "recovery.records" (Storage.Wal.length wal);
    Pool_wl.note_pool_metrics r.Pool.metrics;
    Pool_wl.note_lock_stats r.Pool.lock_stats;
    Pool_wl.note_certifier r.Pool.certifier
  end;
  let failures = Batch.failed_checks checks in
  {
    Batch.setup_s;
    wall_s = run_wall_s +. check_s +. recovery_s;
    tps = st.throughput;
    lat = { p50_ms = st.p50_ms; p99_ms = st.p99_ms; samples = st.committed };
    check_s;
    recovery_s;
    attempted;
    failed = st.giveups + st.protocol_errors + List.length failures;
    failures;
  }
