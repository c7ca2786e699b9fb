(* GC totals and stop-the-world pauses from the compiler's own
   [runtime_events] rings, read in traced runs only. A poller thread
   drains the rings while the workload runs; [Gc.quick_stat] deltas over
   the same window are the cross-check.

   Each domain writes its own ring. Minor collections and major cycle
   ends are stop-the-world, so every live domain records each one and
   the counts are read off the ring that saw the most. A pause is the
   leader or handler side of a stop-the-world request on one ring; the
   pause total is that of the ring that saw the most pause time. *)

module RE = Runtime_events

type ring = {
  mutable minors : int;
  mutable majors : int;
  mutable promoted : int;  (** bytes promoted by minor collections *)
  mutable stw_ns : float;
  mutable pause_max_ns : float;
  mutable open_at : (RE.runtime_phase * float) list;
}

type t = {
  rings : (int, ring) Hashtbl.t;
  mutable lost : int;
  stop : bool Atomic.t;
  mutable poller : Thread.t option;
  cursor : RE.cursor;
  gc0 : Gc.stat;
}

type totals = {
  minor_collections : int;
  major_collections : int;
  promoted_words : int;
  stw_s : float;
  pause_max_ms : float;
  lost_events : int;
  quick_minor : int;  (** the same window by [Gc.quick_stat] *)
  quick_major : int;
  quick_promoted : int;
}

let ring t id =
  match Hashtbl.find_opt t.rings id with
  | Some r -> r
  | None ->
    let r =
      { minors = 0; majors = 0; promoted = 0; stw_ns = 0.; pause_max_ns = 0.;
        open_at = [] }
    in
    Hashtbl.replace t.rings id r;
    r

let is_pause = function RE.EV_STW_LEADER | RE.EV_STW_HANDLER -> true | _ -> false
let ns ts = Int64.to_float (RE.Timestamp.to_int64 ts)

let callbacks t =
  let runtime_begin id ts phase =
    let r = ring t id in
    (match phase with
    | RE.EV_MINOR -> r.minors <- r.minors + 1
    | RE.EV_MAJOR_GC_CYCLE_DOMAINS -> r.majors <- r.majors + 1
    | _ -> ());
    if is_pause phase then r.open_at <- (phase, ns ts) :: r.open_at
  in
  let runtime_end id ts phase =
    if is_pause phase then begin
      let r = ring t id in
      match List.assoc_opt phase r.open_at with
      | None -> ()
      | Some t0 ->
        r.open_at <- List.remove_assoc phase r.open_at;
        let d = ns ts -. t0 in
        r.stw_ns <- r.stw_ns +. d;
        r.pause_max_ns <- Float.max r.pause_max_ns d
    end
  in
  let runtime_counter id _ts counter v =
    if counter = RE.EV_C_MINOR_PROMOTED then begin
      let r = ring t id in
      r.promoted <- r.promoted + v
    end
  in
  let lost_events _ n = t.lost <- t.lost + n in
  RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ~lost_events
    ()

let start () =
  RE.start ();
  RE.resume ();
  let cursor = RE.create_cursor None in
  let t =
    {
      rings = Hashtbl.create 8;
      lost = 0;
      stop = Atomic.make false;
      poller = None;
      cursor;
      gc0 = Gc.quick_stat ();
    }
  in
  let cb = callbacks t in
  (* drop what the rings held before the window opened *)
  ignore (RE.read_poll cursor (RE.Callbacks.create ()) None);
  t.poller <-
    Some
      (Thread.create
         (fun () ->
           while not (Atomic.get t.stop) do
             ignore (RE.read_poll cursor cb None);
             Thread.delay 0.01
           done;
           ignore (RE.read_poll cursor cb None))
         ());
  t

let stop t =
  Atomic.set t.stop true;
  Option.iter Thread.join t.poller;
  RE.free_cursor t.cursor;
  RE.pause ();
  let gc1 = Gc.quick_stat () in
  let rings = Hashtbl.fold (fun _ r acc -> r :: acc) t.rings [] in
  let most f = List.fold_left (fun acc r -> max acc (f r)) 0 rings in
  let busiest =
    List.fold_left
      (fun acc r -> match acc with Some a when a.stw_ns >= r.stw_ns -> acc | _ -> Some r)
      None rings
  in
  {
    minor_collections = most (fun r -> r.minors);
    major_collections = most (fun r -> r.majors);
    promoted_words =
      List.fold_left (fun acc r -> acc + r.promoted) 0 rings / (Sys.word_size / 8);
    stw_s = (match busiest with Some r -> r.stw_ns /. 1e9 | None -> 0.);
    pause_max_ms =
      List.fold_left (fun acc r -> Float.max acc r.pause_max_ns) 0. rings /. 1e6;
    lost_events = t.lost;
    quick_minor = gc1.minor_collections - t.gc0.minor_collections;
    quick_major = gc1.major_collections - t.gc0.major_collections;
    quick_promoted =
      int_of_float (gc1.promoted_words -. t.gc0.promoted_words);
  }
