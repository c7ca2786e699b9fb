(* history-check: the post-run verdict a [stress] or [explain] user waits
   for, with no concurrency involved. A seeded history is built with the
   deterministic [Core.Executor]: transfer programs at declared levels
   rc=70,si=25,serializable=5, strengthened onto the locking family, on a
   schedule that keeps a bounded window of transactions overlapping.
   Each batch builds the seed's first [histories_per_seed] histories and
   judges each with [Oracle.check] and [Oracle.check_mixed], so every
   verdict can be held to the digest recorded for it. It then runs the
   multiversion stage ([Pool_wl.run]): a certified pool batch on a disk
   WAL, whose log is reloaded and recovered for [recovery_s]. *)

module Action = History.Action
module Oracle = Runtime.Oracle
module Certifier = Runtime.Certifier
module Program = Core.Program
module Executor = Core.Executor
module Ph = Phenomena.Phenomenon
module G = Workload.Generators
open Util

type spec = { txns : int; window : int; accounts : int; mv : Pool_wl.spec }

let spec ~smoke =
  {
    txns = (if smoke then 24 else 96);
    window = 8;
    accounts = 16;
    mv = Pool_wl.spec ~smoke;
  }

let histories_per_seed = 8

let levels =
  match Workload.Mix.parse "rc=70,si=25,serializable=5" with
  | Ok m -> m
  | Error e -> failwith e

let params s =
  Printf.sprintf
    "txns/history=%d window=%d accounts=%d mix=transfer levels=%s \
     family=locking histories/seed=%d recorded_digests=%d; %s"
    s.txns s.window s.accounts
    (Workload.Mix.to_string levels)
    histories_per_seed (Digests.count ()) (Pool_wl.params s.mv)

type built = {
  history : History.t;
  declared : (Action.txn * Isolation.Level.t) list;
}

(* A schedule that admits transactions in order and keeps at most
   [window] of them in flight, stepping a random one each time. Blocked
   steps do not consume an operation, so the count is a guide only; the
   executor's drain completes whatever is left. *)
let schedule s rand programs =
  let remaining = Array.of_list (List.map Program.length programs) in
  let n = Array.length remaining in
  let next = ref 0 in
  let active = ref [] in
  let admit () =
    while List.length !active < s.window && !next < n do
      active := !next :: !active;
      incr next
    done
  in
  admit ();
  let out = ref [] in
  while !active <> [] do
    let i = List.nth !active (Random.State.int rand (List.length !active)) in
    out := (i + 1) :: !out;
    remaining.(i) <- remaining.(i) - 1;
    if remaining.(i) <= 0 then begin
      active := List.filter (( <> ) i) !active;
      admit ()
    end
  done;
  List.rev !out

let build s ~seed ~k =
  let hseed = (seed * 7919) + k in
  let fam = `Locking in
  let programs =
    List.init s.txns (fun i ->
        G.stress_program G.Transfer ~seed:hseed ~accounts:s.accounts
          ~hot:s.accounts ~ops:4 ~index:i)
  in
  let declared =
    List.init s.txns (fun i -> Workload.Mix.draw levels ~seed:hseed ~index:i)
  in
  let cfg =
    Executor.config ~initial:(G.bank_accounts s.accounts)
      (List.map (fun l -> Isolation.Lattice.strengthen l fam) declared)
  in
  let rand = Random.State.make [| 0x41570; hseed |] in
  let r =
    Span.with_ "executor.run" (fun () ->
        Executor.run cfg programs ~schedule:(schedule s rand programs))
  in
  {
    history = r.Executor.history;
    declared = List.mapi (fun i l -> (i + 1, l)) declared;
  }

(* What the verdict rests on: every phenomenon's witness count, the
   serializability verdict and the mixed matrix. *)
let digest (o : Oracle.t) (m : Oracle.mixed) =
  let cells l =
    String.concat ";"
      (List.map
         (fun ((lv, p), n) ->
           Printf.sprintf "%s/%s=%d" (Isolation.Level.name lv) (Ph.name p) n)
         l)
  in
  let text =
    Printf.sprintf "ser=%b|%s|matrix:%s|violations:%s|harmed=%d|tolerated=%d"
      o.serializable
      (String.concat ";"
         (List.map (fun (p, n) -> Printf.sprintf "%s=%d" (Ph.name p) n) o.phenomena))
      (cells m.m_matrix) (cells m.m_violations) m.m_harmed m.m_tolerated
  in
  String.sub (Digest.to_hex (Digest.string text)) 0 16

(* Digests seen in this run, per history index: a repeated verdict must
   not change. *)
let seen : (int, string) Hashtbl.t = Hashtbl.create 8

(* One history's verdict and its checks; the traced run also times every
   detector and the conflict-graph test on their own. *)
let judge s ~seed ~k ~traced b =
  let h = b.history in
  let o, check_s1 =
    timed (fun () -> Span.with_ "oracle.check" (fun () -> Oracle.check h))
  in
  let m, check_s2 =
    timed (fun () ->
        Span.with_ "oracle.check_mixed" (fun () ->
            Oracle.check_mixed ~levels:b.declared h))
  in
  let replay, replay_s =
    timed (fun () ->
        Span.with_ "certifier.replay" (fun () ->
            Certifier.replay ~criterion:Certifier.Mixed ~levels:b.declared h))
  in
  let d = digest o m in
  let recorded = Digests.lookup ~txns:s.txns ~seed ~k in
  let repeat_ok =
    match Hashtbl.find_opt seen k with
    | Some d0 -> d0 = d
    | None ->
      Hashtbl.replace seen k d;
      true
  in
  let traced_checks =
    if not traced then []
    else begin
      Layer.add "certifier.replay_s" replay_s;
      Layer.add "oracle.check_s" check_s1;
      Layer.add "oracle.mixed_s" check_s2;
      let ser, ser_s =
        timed (fun () ->
            Span.with_ "history.serializable" (fun () ->
                History.Conflict.is_serializable h))
      in
      Layer.add "history.serializable_s" ser_s;
      let counts_ok =
        Span.with_ "detect" (fun () ->
            List.for_all
              (fun p ->
                let ws, t = timed (fun () -> Phenomena.Detect.detect p h) in
                let name = Ph.name p in
                Layer.add ("detect." ^ name ^ "_s") t;
                Layer.addi ("detect." ^ name ^ "_witnesses") (List.length ws);
                List.length ws
                = Option.value ~default:0 (List.assoc_opt p o.phenomena))
              Ph.all)
      in
      [
        ("History.Conflict serializable = oracle", ser = o.serializable);
        ("Detect.detect witness counts = oracle", counts_ok);
      ]
    end
  in
  let checks =
    [
      ("well-formed", o.well_formed = Ok ());
      ("oracle serializable = certifier replay", o.serializable = replay.serializable);
      ("digest repeats within the run", repeat_ok);
      ( "digest = recorded digest",
        match recorded with Some r -> r = d | None -> true );
    ]
    @ traced_checks
  in
  (check_s1 +. check_s2, replay_s, checks)

(* A batch builds the seed's [histories_per_seed] histories and prepares
   the multiversion stage (its set-up), judges each history in turn, then
   runs the stage. *)
let batch s ~seed ~index ~traced =
  let (built, prepared), setup_s =
    timed (fun () ->
        Span.with_ "setup" (fun () ->
            ( List.init histories_per_seed (fun k -> build s ~seed ~k),
              Pool_wl.prepare s.mv ~seed ~index )))
  in
  let verdicts =
    List.mapi (fun k b -> judge s ~seed ~k ~traced b) built
  in
  let lat_ms = Array.of_list (List.map (fun (c, _, _) -> c *. 1e3) verdicts) in
  let check_s = List.fold_left (fun acc (c, _, _) -> acc +. c) 0. verdicts in
  let replay_s = List.fold_left (fun acc (_, r, _) -> acc +. r) 0. verdicts in
  let mv = Pool_wl.run s.mv prepared ~traced in
  let checks = List.concat_map (fun (_, _, c) -> c) verdicts @ mv.checks in
  let failures = Batch.failed_checks checks in
  let txns = s.txns * histories_per_seed in
  {
    Batch.setup_s;
    wall_s = check_s +. replay_s +. mv.run_s +. mv.check_s +. mv.recovery_s;
    tps = float txns /. check_s;
    lat =
      { p50_ms = quantile lat_ms 0.5; p99_ms = quantile lat_ms 0.99; samples = Array.length lat_ms };
    check_s;
    recovery_s = mv.recovery_s;
    attempted = txns + s.mv.txns;
    failed = List.length failures + mv.giveups;
    failures;
  }

let digest_line s ~seed ~k =
  let b = build s ~seed ~k in
  let o = Oracle.check b.history in
  let m = Oracle.check_mixed ~levels:b.declared b.history in
  Printf.sprintf "%d %d %d %s" s.txns seed k (digest o m)
