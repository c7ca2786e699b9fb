(* Helpers shared by every workload: clock, order statistics, scratch
   directories under the checkout, the span recorder and the per-layer
   counter table. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks, on a sorted copy. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let median_l l = median (Array.of_list l)

let post_run_reps = 5

(* [f] run [reps] times: its last result and the median time. The short
   post-run phases take milliseconds, so one scheduler hiccup can double
   a single timing. *)
let timed_median ?(reps = post_run_reps) f =
  let r = ref None in
  let times =
    Array.init reps (fun _ ->
        let x, t = timed f in
        r := Some x;
        t)
  in
  (Option.get !r, median times)

(* Everything the benchmark writes goes below [scratch_root], relative to
   the working directory (the checkout root). *)
let scratch_root = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_file name =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  Filename.concat scratch_root name

let scratch name =
  let dir =
    scratch_file (Printf.sprintf "%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let bank_total kvs = List.fold_left (fun acc (_, v) -> acc + v) 0 kvs
let sorted kvs = List.sort compare kvs

(* {2 Spans}

   Recorded only on the main thread, around the public calls the
   benchmark makes. Nesting follows the call stack, so a span's self time
   is its duration minus its direct children's. *)
module Span = struct
  type t = { id : int; name : string; start : float; stop : float; parent : int }

  let enabled = ref false
  let finished : t list ref = ref []
  let next_id = ref 0

  (* open spans: (id, name, start, children time) *)
  let stack : (int * string * float * float ref) list ref = ref []
  let self : (string, int * float) Hashtbl.t = Hashtbl.create 16

  let reset () =
    finished := [];
    stack := [];
    Hashtbl.reset self

  let with_ name f =
    if not !enabled then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with (p, _, _, _) :: _ -> p | [] -> -1 in
      let children = ref 0. in
      let start = now () in
      stack := (id, name, start, children) :: !stack;
      let close () =
        let stop = now () in
        stack := List.tl !stack;
        let d = stop -. start in
        (match !stack with (_, _, _, c) :: _ -> c := !c +. d | [] -> ());
        let n, s = Option.value ~default:(0, 0.) (Hashtbl.find_opt self name) in
        Hashtbl.replace self name (n + 1, s +. d -. !children);
        finished := { id; name; start; stop; parent } :: !finished
      in
      Fun.protect ~finally:close f
    end

  let count name = fst (Option.value ~default:(0, 0.) (Hashtbl.find_opt self name))
  let self_s name = snd (Option.value ~default:(0, 0.) (Hashtbl.find_opt self name))

  (* Time covered by top-level spans. *)
  let top_level_s () =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. (s.stop -. s.start) else acc)
      0. !finished

  (* One line per span, in start order: id, parent (-1 at top level),
     name, start and stop in unix seconds. *)
  let write path =
    Out_channel.with_open_text path (fun oc ->
        Printf.fprintf oc "id\tparent\tname\tstart\tstop\n";
        List.iter
          (fun s ->
            Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\n" s.id s.parent s.name
              s.start s.stop)
          (List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !finished))

  let pp_table oc =
    let rows =
      Hashtbl.fold (fun name (n, s) acc -> (name, n, s) :: acc) self []
      |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
    in
    List.iter
      (fun (name, n, s) ->
        Printf.fprintf oc "  span %-28s count %6d  self %10.4f s\n" name n s)
      rows
end

(* {2 Per-layer counters}

   Filled only by traced runs. Workloads [add] into named cells; the
   report reads every declared per-layer name, 0 where a layer did not
   run in the workload. *)
module Layer = struct
  let cells : (string, float) Hashtbl.t = Hashtbl.create 64

  (* cells filled by [add]: totals over the traced pass, reported per batch *)
  let sums : (string, unit) Hashtbl.t = Hashtbl.create 64

  let reset () =
    Hashtbl.reset cells;
    Hashtbl.reset sums

  let get name = Option.value ~default:0. (Hashtbl.find_opt cells name)
  let summed name = Hashtbl.mem sums name

  let add name v =
    Hashtbl.replace sums name ();
    Hashtbl.replace cells name (get name +. v)

  let addi name n = add name (float n)
  let set name v = Hashtbl.replace cells name v
  let max_ name v = set name (Float.max (get name) v)
end
